"""Workloads, measurement loops, layer probes and output checks of the
benchmark, used by each measuring process (worker.py).
"""

from __future__ import annotations

import logging
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from spans import Tracer

# The `reproduce` protocol, pinned here so that a change of the harness
# defaults does not change what the benchmark measures.
M_TRAIN = M_TEST = 100
ITERATIONS = 20
L1_LAMBDA = 0.01

# Leading repetitions of each process left out of timings: the first
# repetition of a process pays first-call costs (allocator growth, page
# faults on numpy's large temporaries) and ran up to 2x slower.
WARMUP_REPS = 1

# Timed calls of each layer probe per traced repetition.
PROBE_CALLS = 3

METHODS = ("crf_all", "crf_rand", "svm_all", "svm_rand")
RANDOMIZED = ("crf_rand", "svm_rand")


# Fresh measuring processes per run, started one after another. One
# process's timings shift as a whole, by about 10 % on a 2-core machine, with
# where its large arrays land in memory (transparent huge pages alone moved
# crf_all training time by 2x); pooling three brought run-to-run spreads from
# 0.1-0.15 to about 0.05. setup_s is the median of their cold set-ups, which
# take only about 50 ms on the benchmark's families and spread by 0.15 over
# ten runs with three of them; five give it a steadier median.
PROCESSES = 5


@dataclass(frozen=True)
class Workload:
    family: str
    reps: int  # repetitions that always run; their records give the digest and Hamming means


# Both families keep the whole working set of a repetition (incidence
# matrix, neighbor table, m x r score matrices) within a few MB. The larger
# dag:5,2 (r = 13,956) and set:5,20 (r = 15,504) spread 0.3-0.5 (IQR/median
# over ten runs) on a shared 2-core host, where their full-space passes ran
# 2-2.6x slower than on a quiet one, against at most 0.15 on a quiet host;
# set:4,15 stayed inside its bounds on the same host at the same time.
# dag: dag:5,1, r = 1,296 with 307-entry k = 4 balls. The greedy proposal
#   pass dominates crf_rand and svm_rand (crf_speedup about 0.36), so a
#   proposal or neighbor-table change shows here.
# set: set:4,15, r = 1,365 with 44-entry k = 2 balls and d = 105. A proposal
#   call costs about half as much as on dag and a full-space gradient about
#   1.7x as much (crf_speedup about 1.3), so a full-space change shows more
#   here and a proposal change less.
# smoke: a tiny family for test_smoke.py, not listed in BENCHMARK.json.
# Both run at the process's default OpenBLAS thread count, what the package,
# its CLI and the acceptance suite run with.
WORKLOADS = {
    "dag": Workload("dag:5,1", reps=30),
    "set": Workload("set:4,15", reps=40),
    "smoke": Workload("set:2,6", reps=6),
}

# (module, attribute, span name): the public functions run_repetition reaches
# across module boundaries, rebound where the calling module looks them up.
# pmf_matrix is wrapped where losses imported it, the evaluation path.
SPAN_TARGETS = (
    ("randcrf.harness", "train_crf", "trainer.train_crf"),
    ("randcrf.harness", "train_svm", "trainer.train_svm"),
    ("randcrf.harness", "exact_crf_loss", "losses.exact_crf_loss"),
    ("randcrf.harness", "hamming_loss", "losses.hamming_loss"),
    ("randcrf.harness", "hinge_loss", "trainer.hinge_loss"),
    ("randcrf.losses", "randomized_loss", "losses.randomized_loss"),
    ("randcrf.harness", "generate_dataset", "harness.generate_dataset"),
    ("randcrf.losses", "pmf_matrix", "gumbel_crf.pmf_matrix"),
)
CAPTURED = ("trainer.train_crf", "trainer.train_svm", "harness.generate_dataset")


@dataclass
class Rep:
    records: list
    wall: float
    cpu: float


class Checks:
    """Output checks of one run; every failure is kept and reported."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def records(self, records) -> None:
        for r in records:
            where = f"repetition {r.repetition} {r.method}"
            values = (r.train_loss, r.train_loss_exact, r.test_crf_loss, r.test_hamming,
                      r.train_seconds, r.weight_l1)
            self.expect(all(math.isfinite(v) for v in values), f"{where}: non-finite metric")
            if r.method in RANDOMIZED:
                # acceptance criterion 7c
                self.expect(r.train_loss <= r.train_loss_exact + 1e-10,
                            f"{where}: train_loss {r.train_loss!r} exceeds "
                            f"train_loss_exact {r.train_loss_exact!r}")

    def fit(self, randcrf, S, w, trace, beta: float, gap: float) -> None:
        """loss_gap on the final candidate sets of a crf_rand fit is <= 0 and
        equals randomized_loss - exact_crf_loss."""
        sets = trace.final_candidate_sets
        diff = (randcrf.randomized_loss(w, S, sets, beta).value
                - randcrf.exact_crf_loss(w, S, beta).value)
        self.expect(gap <= 0.0, f"loss_gap {gap!r} > 0")
        self.expect(abs(gap - diff) <= 1e-10,
                    f"loss_gap {gap!r} differs from randomized - exact = {diff!r}")

    def replay(self, first, second, what: str) -> None:
        strip = lambda r: replace(r, train_seconds=0.0)  # noqa: E731
        self.expect([strip(r) for r in first] == [strip(r) for r in second],
                    f"{what}: records differ beyond train_seconds")


class ErrorLog(logging.Handler):
    """Keeps the error records of a logger: run_repetition logs and drops a
    method that raises."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        exc = f": {record.exc_info[1]!r}" if record.exc_info else ""
        self.messages.append(record.getMessage() + exc)


# ---------------------------------------------------------------------------
# measurement


def measure_setup(randcrf, family, k: int) -> dict[str, float]:
    """Cold set-up, what ``warm_proposal_tables`` pays; only cold while this
    process has not built the family yet, because ``space()`` caches."""
    tic = time.perf_counter()
    sp = randcrf.space(family)
    after_space = time.perf_counter()
    sp.neighbor_csr(k)
    after_neighbors = time.perf_counter()
    sp.feature_indices
    after_features = time.perf_counter()
    return {"space_s": after_space - tic,
            "neighbor_csr_s": after_neighbors - after_space,
            "feature_indices_s": after_features - after_neighbors}


def run_rep(randcrf, cfg, index: int) -> Rep:
    wall, cpu = time.perf_counter(), time.process_time()
    records = randcrf.run_repetition(cfg, index)
    return Rep(records, time.perf_counter() - wall, time.process_time() - cpu)


def timed(fn, *args):
    tic = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - tic


def fits_of(tracer: Tracer, trace_id: int) -> dict[str, tuple]:
    """(w_hat, TrainTrace) per method, from the captured trainer calls."""
    return {call.args[1].method.value: call.result
            for name in ("trainer.train_crf", "trainer.train_svm")
            for call in tracer.captured(name, trace_id)}


def datasets_of(tracer: Tracer, trace_id: int):
    """(S_train, S_test): run_repetition generates the training set first."""
    train, test = (c.result for c in tracer.captured("harness.generate_dataset", trace_id))
    return train, test


def untrained_hamming(randcrf, tracer: Tracer, trace_ids) -> list[float]:
    """Test Hamming of the all-zero weights on each captured test set."""
    tests = [datasets_of(tracer, i)[1] for i in trace_ids]
    return [randcrf.hamming_loss(np.zeros(S.family.feature_dim), S).value for S in tests]


def probe_layers(randcrf, cfg, S, fits, beta: float, seed, checks: Checks,
                 out: dict[str, list]) -> None:
    """Time the proposal, gradient, hinge and loss-gap layers at one
    repetition's trained weights, and check the loss gap there."""
    family, m = S.family, S.m
    w_crf, crf_trace = fits["crf_rand"]
    w_svm = fits["svm_rand"][0]
    pc = randcrf.ProposalConfig(alpha=randcrf.alpha_schedule(w_crf, m), k=cfg.resolved_k(),
                                n_target=cfg.resolved_n_target())
    full = [randcrf.full_candidate_set(family)] * m
    for _ in range(PROBE_CALLS):
        sampled, s = timed(randcrf.build_candidate_sets, family, S, w_crf, pc,
                           np.random.default_rng(seed))
        out["proposal.build_candidate_sets_s"].append(s)
    sizes = np.array([len(c) for c in sampled])
    out["proposal.set_size_mean"].append(float(sizes.mean()))
    out["proposal.set_size_max"].append(int(sizes.max()))
    out["proposal.unique_frac"].append(float(sizes.sum()) / (m * pc.n_target))
    # computed, not counted: a greedy pass from each sample's observed output
    # (the alpha = 0 start) evaluates that output's whole ball
    sp = randcrf.space(family)
    indptr, _ = sp.neighbor_csr(pc.k)
    y = np.array([sp.index(o) for o in S.outputs])
    out["proposal.nb_evals"].append(int((indptr[y + 1] - indptr[y]).sum()))
    augmented = randcrf.augment(sampled, S)
    for _ in range(PROBE_CALLS):
        for name, fn, args in (
                ("trainer.crf_full_grad_s", randcrf.log_likelihood_gradient, (w_crf, S, full, beta)),
                ("trainer.crf_sets_grad_s", randcrf.log_likelihood_gradient,
                 (w_crf, S, augmented, beta)),
                ("trainer.hinge_full_s", randcrf.hinge_loss, (w_svm, S, full)),
                ("trainer.hinge_sets_s", randcrf.hinge_loss, (w_svm, S, augmented))):
            out[name].append(timed(fn, *args)[1])
        gap, s = timed(randcrf.loss_gap, w_crf, S, crf_trace.final_candidate_sets, beta)
        out["losses.loss_gap_s"].append(s)
    checks.fit(randcrf, S, w_crf, crf_trace, beta, gap)


def plain_run(randcrf, cfg, indices: range, n_fixed: int, seconds: float, checks: Checks):
    """Plain repetitions in ``indices`` order until those below ``n_fixed``
    are done and ``seconds`` have passed. Then, untimed and with the trainer
    and data generation captured: the fixed repetitions' data again, for the
    untrained decoder's Hamming, and in the process that owns repetition 0 a
    crf_rand replay of it, for the loss-gap and replay checks."""
    reps: list[Rep] = []
    t0 = time.perf_counter()
    for index in indices:
        if index >= n_fixed and time.perf_counter() - t0 >= seconds:
            break
        reps.append(run_rep(randcrf, cfg, index))
    steady = reps[WARMUP_REPS:]
    samples = {"rep_s": [r.wall for r in steady], "rep_cpu_s": [r.cpu for r in steady]}
    for method in METHODS:
        samples[f"{method}_train_s"] = [r.train_seconds for rep in steady
                                        for r in rep.records if r.method == method]
    fixed = [i for i in indices[:len(reps)] if i < n_fixed]
    tracer = Tracer()
    harness = sys.modules["randcrf.harness"]
    with tracer.installed([(harness, "train_crf", "trainer.train_crf"),
                           (harness, "generate_dataset", "harness.generate_dataset")],
                          capture=CAPTURED):
        for i in fixed:
            tracer.trace_id = i
            methods = (randcrf.Method.CRF_RAND,) if i == 0 else ()
            replay = randcrf.run_repetition(replace(cfg, methods=methods), i)
            if i == 0:
                S_train, _ = datasets_of(tracer, 0)
                w, trace = fits_of(tracer, 0)["crf_rand"]
                beta = replay[0].beta
                checks.fit(randcrf, S_train, w, trace, beta,
                           randcrf.loss_gap(w, S_train, trace.final_candidate_sets, beta))
                checks.replay([r for r in reps[0].records if r.method == "crf_rand"], replay,
                              "crf_rand replay of repetition 0")
    return reps, [], samples, untrained_hamming(randcrf, tracer, fixed)


def traced_run(randcrf, cfg, indices: range, seconds: float, checks: Checks):
    """Pairs of one plain and one span-wrapped run of the same repetition, in
    alternating order, each followed by the layer probes, until ``seconds``
    have passed; at least two pairs, and the first pair only warms up."""
    tracer = Tracer()
    targets = [(sys.modules[mod], attr, name) for mod, attr, name in SPAN_TARGETS]
    plain: list[Rep] = []
    traced: list[Rep] = []
    samples: dict[str, list] = defaultdict(list)
    t0 = time.perf_counter()
    for pair, i in enumerate(indices):
        if pair >= 2 and time.perf_counter() - t0 >= seconds:
            break
        for wrapped in ((False, True) if pair % 2 == 0 else (True, False)):
            if wrapped:
                tracer.trace_id = i
                with tracer.installed(targets, capture=CAPTURED):
                    traced.append(run_rep(randcrf, cfg, i))
            else:
                plain.append(run_rep(randcrf, cfg, i))
        checks.replay(plain[-1].records, traced[-1].records, f"traced repetition {i}")
        S_train, _ = datasets_of(tracer, i)
        fits = fits_of(tracer, i)
        steady = samples if pair else defaultdict(list)
        probe_layers(randcrf, cfg, S_train, fits, traced[-1].records[0].beta,
                     [cfg.master_seed, i], checks, steady)
        for method in METHODS:
            rows = fits[method][1].rows
            steady[f"trainer.{method}.iter_s"].extend(row.seconds for row in rows)
            steady[f"trainer.{method}.set_size_mean"].extend(row.set_size_mean for row in rows)
        self_seconds = tracer.self_seconds(i)
        for _, _, name in SPAN_TARGETS:
            steady[f"{name}_s"].append(self_seconds.get(name, 0.0))
        steady["harness.eval_s"].append(
            plain[-1].wall - sum(r.train_seconds for r in plain[-1].records))
        steady["trace.plain_rep_s"].append(plain[-1].wall)
        steady["trace.traced_rep_s"].append(traced[-1].wall)
    return plain, traced, dict(samples), untrained_hamming(randcrf, tracer, indices[:len(plain)])
