import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcrf import (CandidateSets, Dataset, DagFamily, Method, ProposalConfig,
                     SpanningTreeFamily, SubsetFamily, TrainConfig, alpha_schedule, augment,
                     beta_schedule, build_candidate_sets, crf_pmf, exact_crf_loss,
                     full_candidate_set, generate_dataset, generate_ground_truth, hinge_loss,
                     log_gain, log_gain_gradient, log_likelihood_gradient, randomized_loss,
                     soft_threshold, space, train_crf, train_svm)
from randcrf import spaces
from randcrf.gumbel_crf import _segment_pmfs

from oracles import (hamming, hinge_terms_reference, log_likelihood, prob_of, random_instance,
                     score_of)

SET25 = SubsetFamily(2, 5)  # r = 10, d = 10
SET36 = SubsetFamily(3, 6)


def make_dataset(family, rng, m=5):
    X, ys, _ = random_instance(family, rng, m=m)
    return Dataset(family, X, ys)


def random_augmented_sets(S, rng, max_extra=5):
    sp = space(S.family)
    sets = []
    for y in S.outputs:
        extras = rng.choice(sp.size, size=int(rng.integers(0, max_extra + 1)), replace=False)
        idx = sorted({int(e) for e in extras} | {sp.index(y)})
        sets.append(tuple(sp.outputs[i] for i in idx))
    return sets


def finite_difference(fn, w, h=1e-5):
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (fn(w + e) - fn(w - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# gradient of the log recovery gain


def test_gradient_zero_for_singleton_supports():
    rng = np.random.default_rng(0)
    S = make_dataset(SET36, rng)
    sets = [(y,) for y in S.outputs]
    g = log_gain_gradient(rng.normal(size=SET36.feature_dim), S, sets, 0.7)
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(8):
        S = make_dataset(SET25, rng, m=4)
        sets = random_augmented_sets(S, rng)
        beta = float(rng.uniform(0.3, 2.0))
        w = rng.normal(size=SET25.feature_dim)
        grad = log_gain_gradient(w, S, sets, beta)
        fd = finite_difference(lambda v: log_gain(v, S, sets, beta), w)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert (np.abs(grad - fd) / denom).max() < 1e-5


def test_log_likelihood_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(6):
        S = make_dataset(SET25, rng, m=4)
        sets = random_augmented_sets(S, rng)
        beta = float(rng.uniform(0.3, 2.0))
        w = rng.normal(size=SET25.feature_dim)
        grad = log_likelihood_gradient(w, S, sets, beta)
        fd = finite_difference(lambda v: log_likelihood(v, S, sets, beta), w)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
        assert (np.abs(grad - fd) / denom).max() < 1e-5


def test_log_likelihood_lower_bounds_log_gain():
    rng = np.random.default_rng(43)
    for _ in range(10):
        S = make_dataset(SET36, rng, m=5)
        sets = random_augmented_sets(S, rng)
        w = rng.normal(size=SET36.feature_dim)
        assert log_likelihood(w, S, sets, 0.7) <= log_gain(w, S, sets, 0.7) + 1e-12


def test_gradient_full_space_path_agrees_with_segment_path():
    rng = np.random.default_rng(2)
    S = make_dataset(SET36, rng, m=4)
    w = rng.normal(size=SET36.feature_dim)
    full = [full_candidate_set(SET36)] * S.m
    # the same outputs, not the space's own tuple: the segment route
    for listed in ([list(full[0])] * S.m,
                   CandidateSets.from_entries(SET36, np.arange(S.m).repeat(space(SET36).size),
                                              np.tile(np.arange(space(SET36).size), S.m), S.m)):
        np.testing.assert_allclose(log_gain_gradient(w, S, full, 0.5),
                                   log_gain_gradient(w, S, listed, 0.5), atol=1e-12)
        assert log_gain(w, S, full, 0.5) == pytest.approx(log_gain(w, S, listed, 0.5), abs=1e-12)


def test_gradient_vanishes_as_beta_shrinks_on_separated_instance():
    rng = np.random.default_rng(3)
    fam = SET25
    outs = space(fam).outputs
    x = np.ones(fam.feature_dim, dtype=np.uint8)
    y = outs[0]
    w = np.zeros(fam.feature_dim)
    w[0] = 4.0  # the observed pair wins with a margin
    S = Dataset(fam, x[None, :], (y,))
    sets = [full_candidate_set(fam)]
    norms = [np.abs(log_gain_gradient(w, S, sets, b)).max() for b in (1.0, 0.3, 0.1, 0.03)]
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] < 1e-10


def test_gradient_rejects_empty_candidate_set():
    rng = np.random.default_rng(4)
    S = make_dataset(SET36, rng, m=2)
    sets = [(), (S.outputs[1],)]
    with pytest.raises(ValueError):
        log_gain_gradient(np.zeros(SET36.feature_dim), S, sets, 1.0)


# ---------------------------------------------------------------------------
# soft threshold and the Gumbel-scale schedule


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0, 5))
@settings(max_examples=60, deadline=None)
def test_soft_threshold_closed_form(vals, tau):
    v = np.array(vals)
    got = soft_threshold(v, tau)
    np.testing.assert_allclose(got, np.sign(v) * np.maximum(np.abs(v) - tau, 0.0))


def test_soft_threshold_kills_small_entries():
    v = np.array([0.5, -2.0, 0.001])
    out = soft_threshold(v, 1.0)
    assert out[0] == 0.0 and out[2] == 0.0 and out[1] == pytest.approx(-1.0)


def test_beta_schedule_inverse_evaluation():
    m = (1.0 + math.e) ** 2  # sqrt(m) - 1 = e
    assert beta_schedule(m, 2) == pytest.approx(1.0, abs=1e-12)


def test_beta_schedule_standard_protocol_value():
    assert beta_schedule(100, 1365) == pytest.approx(1.0 / math.log(1364 * 9), abs=1e-12)
    assert beta_schedule(100, 1365) == pytest.approx(0.10621, abs=1e-4)


def test_beta_schedule_domain_errors():
    with pytest.raises(ValueError):
        beta_schedule(1, 50)  # sqrt(m) - 1 = 0
    with pytest.raises(ValueError):
        beta_schedule(4, 2)  # (r-1)(sqrt(m)-1) = 1


# ---------------------------------------------------------------------------
# structured hinge


def test_hinge_zero_weights_is_mean_max_distortion():
    rng = np.random.default_rng(5)
    S = make_dataset(SET36, rng, m=4)
    full = [full_candidate_set(SET36)] * S.m
    got = hinge_loss(np.zeros(SET36.feature_dim), S, full)
    want = np.mean([max(hamming(z, y) for z in space(SET36).outputs) for y in S.outputs])
    assert got.value == pytest.approx(want)


def test_hinge_singleton_candidates_is_zero():
    rng = np.random.default_rng(6)
    S = make_dataset(SET36, rng, m=3)
    sets = [(y,) for y in S.outputs]
    assert hinge_loss(rng.normal(size=SET36.feature_dim), S, sets).value == pytest.approx(0.0)


def test_hinge_matches_brute_force_max():
    rng = np.random.default_rng(7)
    for _ in range(10):
        S = make_dataset(SET36, rng, m=3)
        sets = random_augmented_sets(S, rng)
        w = rng.normal(size=SET36.feature_dim)
        got = hinge_loss(w, S, sets)
        want = []
        for i, (x, y) in enumerate(zip(S.inputs, S.outputs)):
            cands = sets[i]
            best = max(score_of(SET36, x, z, w) + hamming(z, y) for z in cands)
            want.append(best - score_of(SET36, x, y, w))
        np.testing.assert_allclose(got.per_sample, want, atol=1e-12)
        assert (got.per_sample >= -1e-12).all()


# ---------------------------------------------------------------------------
# training loops


def test_huge_l1_penalty_returns_zero_weights():
    rng = np.random.default_rng(8)
    S = make_dataset(SET36, rng, m=6)
    for method, train in ((Method.CRF_ALL, train_crf), (Method.CRF_RAND, train_crf),
                          (Method.SVM_ALL, train_svm), (Method.SVM_RAND, train_svm)):
        w, _ = train(S, TrainConfig(method=method, l1_lambda=1e3, iterations=5, beta=1.0,
                                    n_target=3))
        assert np.count_nonzero(w) == 0


def test_exact_crf_objective_decreases_on_separable_instance():
    fam = SET25
    outs = space(fam).outputs
    x = np.ones(fam.feature_dim, dtype=np.uint8)
    S = Dataset(fam, x[None, :], (outs[0],))
    w, trace = train_crf(S, TrainConfig(method=Method.CRF_ALL, l1_lambda=0.0,
                                        iterations=12, beta=1.0))
    objectives = [r.objective for r in trace.rows]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
    assert exact_crf_loss(w, S, 1.0).value < objectives[0]


def test_svm_objective_trends_down_on_separable_instance():
    fam = SET25
    outs = space(fam).outputs
    x = np.ones(fam.feature_dim, dtype=np.uint8)
    S = Dataset(fam, x[None, :], (outs[0],))
    _, trace = train_svm(S, TrainConfig(method=Method.SVM_ALL, l1_lambda=0.0, iterations=12))
    objectives = [r.objective for r in trace.rows]
    assert objectives[-1] < objectives[0]


def test_training_is_deterministic():
    rng = np.random.default_rng(9)
    S = make_dataset(SET36, rng, m=10)
    cfg = TrainConfig(method=Method.CRF_RAND, iterations=6, seed=21, beta=0.5, n_target=4)
    w1, t1 = train_crf(S, cfg)
    w2, t2 = train_crf(S, cfg)
    np.testing.assert_array_equal(w1, w2)
    for a, b in zip(t1.rows, t2.rows):
        assert (a.objective, a.grad_inf_norm, a.set_size_mean, a.set_size_max) \
            == (b.objective, b.grad_inf_norm, b.set_size_mean, b.set_size_max)


def test_trace_length_and_final_sets():
    rng = np.random.default_rng(10)
    S = make_dataset(SET36, rng, m=4)
    _, trace = train_crf(S, TrainConfig(method=Method.CRF_RAND, iterations=7, beta=1.0,
                                        n_target=3))
    assert len(trace) == 7
    assert trace.final_candidate_sets is not None
    for cs, y in zip(trace.final_candidate_sets, S.outputs):
        assert y in cs
    _, trace_full = train_crf(S, TrainConfig(method=Method.CRF_ALL, iterations=3, beta=1.0))
    assert trace_full.final_candidate_sets is None


@pytest.mark.parametrize("family", [SubsetFamily(4, 15), DagFamily(5, 1)], ids=repr)
def test_randomized_path_reads_no_incidence_matrix(family, monkeypatch):
    # the randomized methods score, propose and take gradients through
    # feature_indices and the neighbor table alone: the same results come
    # out of a fresh space whose size x d incidence matrix is gone
    monkeypatch.setattr(spaces, "_SPACE_CACHE", {})
    S = generate_dataset(family, generate_ground_truth(family, 3), 30, 4)

    def run():
        w_crf, crf_trace = train_crf(S, TrainConfig(Method.CRF_RAND, iterations=4, seed=5))
        w_svm, _ = train_svm(S, TrainConfig(Method.SVM_RAND, iterations=4, seed=6))
        sets = build_candidate_sets(family, S, w_crf, ProposalConfig(alpha=0.5, n_target=3),
                                    np.random.default_rng(7))
        augmented = augment(sets, S)
        return (w_crf, w_svm, crf_trace.final_candidate_sets.indices, sets.indices,
                randomized_loss(w_crf, S, augmented, 0.5).per_sample,
                hinge_loss(w_svm, S, augmented).per_sample)

    want = run()
    monkeypatch.delattr(space(family), "incidence")
    for got, expected in zip(run(), want):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
def test_training_steps_along_the_public_gradient(method):
    # one iteration from w = 0 without a penalty: a CRF method's weights are
    # beta times log_likelihood_gradient, an SVM method's objective is
    # hinge_loss, each over the sets the method trained on
    rng = np.random.default_rng(12)
    S = make_dataset(SET36, rng, m=8)
    beta = 0.7
    cfg = TrainConfig(method=method, l1_lambda=0.0, iterations=1, beta=beta, n_target=3, seed=4)
    train = train_crf if method.is_crf else train_svm
    w, trace = train(S, cfg)
    if method.randomized:
        sets = trace.final_candidate_sets
        assert not sets.full_space
    else:
        assert trace.final_candidate_sets is None
        sets = [full_candidate_set(S.family)] * S.m
    w0 = np.zeros(SET36.feature_dim)
    if method.is_crf:
        np.testing.assert_array_equal(w, beta * log_likelihood_gradient(w0, S, sets, beta))
    else:
        assert trace.rows[0].objective == hinge_loss(w0, S, sets).value


def reference_training(S, cfg):
    """A randomized method's training loop from the public functions: each
    iteration draws its sets by ``build_candidate_sets`` at
    ``alpha_schedule(w, m)`` and ``augment``s them; a CRF method steps along
    ``log_likelihood_gradient`` and reads its objective off ``crf_pmf``, an
    SVM method steps along the per-sample hinge subgradient.  Returns the
    weights, each iteration's (objective, gradient norm, mean and largest
    set size) and the last sets."""
    sp, m = space(S.family), S.m
    beta = beta_schedule(m, sp.size) if cfg.method.is_crf else None
    step0 = beta if cfg.method.is_crf else 1.0
    n_target = cfg.resolved_n_target(m)
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(S.family.feature_dim)
    rows = []
    for t in range(1, cfg.iterations + 1):
        step = step0 / math.sqrt(t)
        drawn = build_candidate_sets(S.family, S, w, ProposalConfig(alpha_schedule(w, m),
                                                                    cfg.neighborhood_k, n_target),
                                     rng)
        sets = augment(drawn, S)
        if cfg.method.is_crf:
            g = log_likelihood_gradient(w, S, sets, beta)
            q = [prob_of(crf_pmf(S.family, x, w, cs, beta), y)
                 for x, cs, y in zip(S.inputs, sets, S.outputs)]
            objective = float(1.0 - np.mean(q))
            w = w + step * g
        else:
            margins, g = hinge_terms_reference(w, S, sets)
            objective = float(margins.mean())
            w = w - step * g
        w = soft_threshold(w, step * cfg.l1_lambda)
        rows.append((objective, float(np.abs(g).max()), int(sets.offsets[-1]) / m,
                     int(sets.counts.max())))
    return w, rows, sets


@pytest.mark.parametrize("family,k", [(SubsetFamily(4, 15), 2), (DagFamily(5, 1), 2),
                                      (SpanningTreeFamily(4), 2), (SubsetFamily(4, 15), 1)],
                         ids=lambda v: repr(v) if not isinstance(v, int) else f"k={v}")
@pytest.mark.parametrize("method", [Method.CRF_RAND, Method.SVM_RAND], ids=lambda m: m.value)
def test_randomized_training_matches_the_public_loop(family, k, method):
    # twenty iterations from w = 0, bit for bit: the trainers build each
    # per-training constant and per-iteration array once, and must still add
    # every sum in the order of the public functions (at set:4,15's radius
    # 1 no output has a neighbor)
    S = generate_dataset(family, generate_ground_truth(family, 1), 40, 2)
    cfg = TrainConfig(method, iterations=20, seed=3, neighborhood_k=k)
    train = train_crf if method.is_crf else train_svm
    w, trace = train(S, cfg)
    want_w, want_rows, want_sets = reference_training(S, cfg)
    np.testing.assert_array_equal(w, want_w)
    got_rows = [(r.objective, r.grad_inf_norm, r.set_size_mean, r.set_size_max)
                for r in trace.rows]
    assert got_rows == want_rows
    np.testing.assert_array_equal(trace.final_candidate_sets.offsets, want_sets.offsets)
    np.testing.assert_array_equal(trace.final_candidate_sets.indices, want_sets.indices)


def test_crf_pmf_over_a_trained_set_gives_the_trainers_probabilities():
    # sets of 8 or more outputs, where numpy's pairwise sum and the segment
    # path's reduceat would round differently
    fam, beta = SubsetFamily(4, 15), 0.3
    S = generate_dataset(fam, generate_ground_truth(fam, 1), 100, 2)
    w, trace = train_crf(S, TrainConfig(Method.CRF_RAND, iterations=5, seed=3, n_target=40,
                                        beta=beta))
    sets = trace.final_candidate_sets
    assert sets.counts.min() >= 8
    p, _ = _segment_pmfs(sets, S.indices, S.bits * (w / beta))
    for i, (lo, hi) in enumerate(zip(sets.offsets[:-1], sets.offsets[1:])):
        assert np.array_equal(crf_pmf(fam, S.inputs[i], w, sets[i], beta).probs, p[lo:hi])


def test_method_entrypoints_are_checked():
    rng = np.random.default_rng(11)
    S = make_dataset(SET36, rng, m=2)
    with pytest.raises(ValueError):
        train_crf(S, TrainConfig(method=Method.SVM_ALL))
    with pytest.raises(ValueError):
        train_svm(S, TrainConfig(method=Method.CRF_RAND))
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="^beta must be finite and positive"):
            TrainConfig(method=Method.CRF_RAND, beta=beta)
    for name in ("neighborhood_k", "n_target"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            TrainConfig(method=Method.CRF_RAND, **{name: 0})
    # a non-finite penalty or scale is refused before any training: a NaN
    # penalty made crf_all diverge and svm_rand's greedy pass index out of
    # range, and so did an infinite beta in crf_rand's pass
    for l1 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^l1_lambda must be finite and >= 0, got "):
            TrainConfig(method=Method.CRF_ALL, l1_lambda=l1)
    # a subnormal scale overflows 1 / beta, by which the gradients scale
    for beta in (math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match=r"^beta must be finite and positive, with 1 / beta "
                                             rf"finite; got {beta}$"):
            TrainConfig(method=Method.CRF_RAND, beta=beta)


# Exact trainers in a fresh process that never builds a neighbor table: with
# glibc's default, moving malloc thresholds their m x r temporaries were fresh
# mmap memory in every training (set:4,15, m = 100: 14.5k minor faults per
# crf_all training and 20.5k per svm_all training), and with a 32 MiB trim
# threshold dag:5,2's were trimmed and faulted in again (33k per training).
FAULTS_PROBE = """
import json, resource
from randcrf import DagFamily, Method, SubsetFamily, TrainConfig, space, train_crf, train_svm
from randcrf.harness import generate_dataset, generate_ground_truth

faults = {}
for family in (SubsetFamily(4, 15), DagFamily(5, 2)):
    S = generate_dataset(family, generate_ground_truth(family, 0), 100, 1)
    for method, train in ((Method.CRF_ALL, train_crf), (Method.SVM_ALL, train_svm)):
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(S, TrainConfig(method=method))
            faults[f"{family} {method.value}"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert not space(family)._neighbor_csr
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt and resource")
def test_exact_trainings_do_not_fault_without_a_neighbor_table():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FAULTS_PROBE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)  # of each family and method's third training
    assert len(faults) == 4 and max(faults.values()) < 1000, faults
