"""Synthetic-data experiment protocol: data generation, the four-method
comparison, metric aggregation with confidence intervals, and file formats.

RNG discipline: a master seed fans out into one named stream per (repetition,
purpose[, method]) via SeedSequence, so all methods of a repetition see the
same ground truth and data, and reruns with the same master seed are
bit-identical except for wall-clock columns.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gumbel_crf import as_weights, full_candidate_set
from .losses import Dataset, exact_crf_loss, hamming_loss
from .spaces import (DagFamily, InvalidStructureError, SpanningTreeFamily, StructureFamily,
                     StructuredOutput, SubsetFamily, space)
from .trainer import (Method, TrainConfig, TrainTrace, beta_schedule, hinge_loss,
                      train_crf, train_svm)

log = logging.getLogger(__name__)

_STREAMS = {"ground_truth": 0, "train_x": 1, "test_x": 2, "proposal": 3}
_METHOD_IDS = {m: i for i, m in enumerate(Method)}


def _seed_sequence(master_seed: int, repetition: int, name: str,
                   method: Method | None) -> np.random.SeedSequence:
    entropy = [master_seed, repetition, _STREAMS[name]]
    if method is not None:
        entropy.append(_METHOD_IDS[method])
    return np.random.SeedSequence(entropy)


def stream(master_seed: int, repetition: int, name: str,
           method: Method | None = None) -> np.random.Generator:
    """Named, independent generator derived from the master seed."""
    return np.random.default_rng(_seed_sequence(master_seed, repetition, name, method))


def stream_seed(master_seed: int, repetition: int, name: str, method: Method | None = None) -> int:
    """Integer seed of the same named stream, for APIs that take a seed."""
    return int(_seed_sequence(master_seed, repetition, name, method).generate_state(1)[0])


# ---------------------------------------------------------------------------
# synthetic data


def generate_ground_truth(family: StructureFamily, seed) -> np.ndarray:
    """Dense N(0, 100) draws with all but ceil(sqrt(d)) coordinates zeroed,
    the survivors chosen uniformly.  ``seed`` is anything
    ``np.random.default_rng`` takes; a Generator is drawn from in place."""
    rng = np.random.default_rng(seed)
    d = family.feature_dim
    values = rng.normal(0.0, 10.0, size=d)
    keep = rng.choice(d, size=math.ceil(math.sqrt(d)), replace=False)
    sparse = np.zeros(d)
    sparse[keep] = values[keep]
    return sparse


def generate_dataset(family: StructureFamily, w_star, m: int, seed) -> Dataset:
    """m pairs with Bernoulli(1/2) inputs labelled by the exact decoder under
    w_star; ``seed`` as for ``generate_ground_truth``."""
    rng = np.random.default_rng(seed)
    sp = space(family)
    X = rng.integers(0, 2, size=(m, family.feature_dim), dtype=np.uint8)
    pred = np.argmax(sp.score_rows(X.astype(np.float64) * as_weights(w_star)), axis=0)
    return Dataset(family, X, tuple(sp.outputs[i] for i in pred))


# ---------------------------------------------------------------------------
# experiment configuration and records


@dataclass(frozen=True)
class ExperimentConfig:
    family: StructureFamily
    m_train: int = 100
    m_test: int = 100
    repetitions: int = 30
    methods: tuple[Method, ...] = tuple(Method)
    l1_lambda: float = 0.01
    iterations: int = 20
    n_target: int | None = None  # None -> ceil(sqrt(m)) of the data trained on
    # radius 2 spans one subset swap or tree edge replacement, or two DAG edge
    # edits; radius 4 on DAGs gave balls of hundreds of outputs (307 of dag:5,1's
    # 1,296 on average) and no better randomized test Hamming (seeds 1-6, dag:5,1/2)
    neighborhood_k: int = 2
    beta: float | None = None  # None -> beta_schedule(m_train, r)
    master_seed: int = 0

    def __post_init__(self):
        for name in ("m_train", "m_test", "repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        # a repeated method would train twice and double its records; an
        # empty tuple of methods is legal
        for i, method in enumerate(self.methods):
            if method in self.methods[:i]:
                raise ValueError(f"method {method.value} is listed twice")
        self._train_config(Method.CRF_ALL, seed=0)  # TrainConfig checks the other fields

    def _train_config(self, method: Method, seed: int) -> TrainConfig:
        return TrainConfig(method=method, l1_lambda=self.l1_lambda, iterations=self.iterations,
                           beta=self.beta, seed=seed, neighborhood_k=self.neighborhood_k,
                           n_target=self.n_target)

    def resolved_n_target(self) -> int:
        return self._train_config(Method.CRF_RAND, seed=0).resolved_n_target(self.m_train)

    def resolved_k(self) -> int:
        return self.neighborhood_k


@dataclass(frozen=True)
class MetricsRecord:
    run_id: str
    repetition: int
    method: str
    family: str
    train_loss: float
    train_loss_exact: float
    test_crf_loss: float
    test_hamming: float
    train_seconds: float
    set_size_mean: float
    set_size_max: int
    weight_support: int
    weight_l1: float
    beta: float
    train_loss_support: str  # "full" or "final_sets"


METRICS_CSV_HEADER = tuple(MetricsRecord.__dataclass_fields__)

#: Numeric per-repetition metrics that ``summarize`` aggregates.
METRIC_COLUMNS = ("train_loss", "train_loss_exact", "test_crf_loss", "test_hamming",
                  "train_seconds", "set_size_mean", "set_size_max", "weight_support",
                  "weight_l1")

#: Wall-clock columns excluded from determinism comparisons.
TIMING_COLUMNS = ("train_seconds",)


# ---------------------------------------------------------------------------
# running


def _train_method(method: Method, S_train: Dataset, cfg: ExperimentConfig,
                  seed: int) -> tuple[np.ndarray, TrainTrace]:
    train = train_crf if method.is_crf else train_svm
    return train(S_train, cfg._train_config(method, seed))


def run_repetition(cfg: ExperimentConfig, repetition: int) -> list[MetricsRecord]:
    """One fresh ground truth + train/test draw, all methods trained on it."""
    family = cfg.family
    sp = space(family)
    w_star = generate_ground_truth(family, stream(cfg.master_seed, repetition, "ground_truth"))
    S_train = generate_dataset(family, w_star, cfg.m_train, stream(cfg.master_seed, repetition, "train_x"))
    S_test = generate_dataset(family, w_star, cfg.m_test, stream(cfg.master_seed, repetition, "test_x"))
    beta = cfg.beta if cfg.beta is not None else beta_schedule(cfg.m_train, sp.size)
    label = family_label(family)
    run_id = f"{label}-seed{cfg.master_seed}"
    full_sets = [full_candidate_set(family)] * S_train.m
    if any(m.randomized for m in cfg.methods):
        # one-time per-process table builds stay outside the per-method
        # training timers
        sp.neighbor_csr(cfg.neighborhood_k)

    records = []
    for method in cfg.methods:
        try:
            tic = time.perf_counter()
            w_hat, trace = _train_method(method, S_train, cfg,
                                         stream_seed(cfg.master_seed, repetition, "proposal", method))
            seconds = time.perf_counter() - tic
            # an exact method's training loss is its exact loss; a randomized
            # method's is taken over its final candidate sets
            sets = trace.final_candidate_sets
            if method.is_crf:
                # imported here, not at module level: perfbench/measure.py times
                # this loss by rebinding randcrf.losses.randomized_loss, which a
                # name bound at import time would bypass
                from .losses import randomized_loss
                train_loss_exact = exact_crf_loss(w_hat, S_train, beta).value
                train_loss = (train_loss_exact if sets is None
                              else randomized_loss(w_hat, S_train, sets, beta).value)
            else:
                train_loss_exact = hinge_loss(w_hat, S_train, full_sets).value
                train_loss = (train_loss_exact if sets is None
                              else hinge_loss(w_hat, S_train, sets).value)
            final = trace.rows[-1]
            records.append(MetricsRecord(
                run_id=run_id,
                repetition=repetition,
                method=method.value,
                family=label,
                train_loss=train_loss,
                train_loss_exact=train_loss_exact,
                test_crf_loss=exact_crf_loss(w_hat, S_test, beta).value,
                test_hamming=hamming_loss(w_hat, S_test).value,
                train_seconds=seconds,
                set_size_mean=final.set_size_mean,
                set_size_max=final.set_size_max,
                weight_support=int(np.count_nonzero(w_hat)),
                weight_l1=float(np.abs(w_hat).sum()),
                beta=beta,
                train_loss_support="full" if sets is None else "final_sets",
            ))
        except Exception:
            log.exception("repetition %d method %s failed; continuing", repetition, method.value)
    return records


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """All repetitions, sorted by (repetition, method)."""
    records = [r for rep in range(cfg.repetitions) for r in run_repetition(cfg, rep)]
    records.sort(key=lambda r: (r.repetition, r.method))
    return records


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class SummaryRow:
    family: str
    method: str
    metric: str
    mean: float
    ci_low: float
    ci_high: float
    n: int


SUMMARY_CSV_HEADER = tuple(SummaryRow.__dataclass_fields__)


def summarize(records: Sequence[MetricsRecord]) -> list[SummaryRow]:
    """Per (family, method, metric): mean and 95% t-interval over repetitions."""
    # imported here, not at module level: loading scipy.stats costs each
    # process 0.6-1.0 s and about 70 MB resident (2-core x86 VM), and only
    # summaries need it
    from scipy import stats

    groups: dict[tuple[str, str], list[MetricsRecord]] = {}
    for r in records:
        groups.setdefault((r.family, r.method), []).append(r)
    rows = []
    for (family, method), recs in sorted(groups.items()):
        n = len(recs)
        if n < 2:
            raise ValueError("confidence intervals need at least 2 repetitions")
        for metric in METRIC_COLUMNS:
            vals = np.array([getattr(r, metric) for r in recs], dtype=np.float64)
            mean = float(vals.mean())
            half = float(stats.t.ppf(0.975, n - 1) * vals.std(ddof=1) / math.sqrt(n))
            rows.append(SummaryRow(family, method, metric, mean, mean - half, mean + half, n))
    return rows


# ---------------------------------------------------------------------------
# families as strings


_FAMILY_DEFAULTS = {"tree": SpanningTreeFamily(6), "dag": DagFamily(5, 2), "set": SubsetFamily(4, 15)}


def parse_family(label: str) -> StructureFamily:
    """Family strings: 'tree[:v]', 'dag[:v,p]', 'set[:k,u]'; bare names give
    the standard instances tree:6, dag:5,2, set:4,15."""
    name, _, args = label.partition(":")
    name = name.strip()
    if not args:
        try:
            return _FAMILY_DEFAULTS[name]
        except KeyError:
            raise ValueError(f"unknown family '{label}'") from None
    try:
        parts = [int(p) for p in args.split(",")]
    except ValueError:
        raise ValueError(f"unknown family '{label}'") from None
    if name == "tree" and len(parts) == 1:
        return SpanningTreeFamily(parts[0])
    if name == "dag" and len(parts) == 2:
        return DagFamily(parts[0], parts[1])
    if name == "set" and len(parts) == 2:
        return SubsetFamily(parts[0], parts[1])
    raise ValueError(f"unknown family '{label}'")


def parse_family_list(spec: str) -> list[StructureFamily]:
    """Comma-separated family labels; bare digits continue the previous label,
    so 'set:3,6,tree' reads as ['set:3,6', 'tree'].  A family listed twice,
    under any of its labels, is an error."""
    parts: list[str] = []
    for tok in spec.split(","):
        tok = tok.strip()
        if parts and tok.isdigit():
            parts[-1] += "," + tok
        else:
            parts.append(tok)
    families = [parse_family(p) for p in parts]
    for i, family in enumerate(families):
        if family in families[:i]:
            raise ValueError(f"family {family_label(family)} is listed twice")
    return families


def family_label(family: StructureFamily) -> str:
    if isinstance(family, SpanningTreeFamily):
        return f"tree:{family.num_nodes}"
    if isinstance(family, DagFamily):
        return f"dag:{family.num_nodes},{family.max_parents}"
    return f"set:{family.k},{family.universe}"


# ---------------------------------------------------------------------------
# file formats


def save_dataset(path: str, S: Dataset) -> None:
    """JSON lines, one object per sample: {"x": "0101...", "y": [components]}."""
    with open(path, "w") as fh:
        for i, y in enumerate(S.outputs):
            bits = "".join(str(int(b)) for b in S.inputs[i])
            fh.write(json.dumps({"x": bits, "y": list(y.components)}) + "\n")


def load_dataset(path: str, family: StructureFamily) -> Dataset:
    """Read the JSON-lines format of ``save_dataset``.  Every line must hold
    ``x``, a string of ``feature_dim`` 0/1 bits, and ``y``, a list of
    component indices forming a valid structure of ``family``; a ValueError
    names the first line that does not.  All ``y`` are looked up at once in
    the family's space, built first: FamilyTooLargeError past its budget."""
    space(family)
    bits, outputs, linenos = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                x, y = _parse_sample(line, family)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            bits.append(x)
            outputs.append(y)
            linenos.append(lineno)
    if not outputs:
        raise ValueError(f"{path}: no samples")
    X = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8) - ord("0")
    try:
        return Dataset(family, X.reshape(len(bits), family.feature_dim), tuple(outputs))
    except InvalidStructureError as exc:
        y = list(outputs[exc.position].components)
        raise ValueError(f"{path}, line {linenos[exc.position]}: "
                         f"{_invalid_y(y, family)}") from None


def _invalid_y(y: list, family: StructureFamily) -> str:
    return f"'y' {y} is not a valid structure of {family_label(family)}"


def _parse_sample(line: str, family: StructureFamily) -> tuple[str, StructuredOutput]:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object with keys 'x' and 'y'")
    x, y = obj.get("x"), obj.get("y")
    d = family.feature_dim
    if not isinstance(x, str) or len(x) != d:
        raise ValueError(f"'x' must be a string of {d} bits")
    if not set(x) <= {"0", "1"}:
        raise ValueError("'x' holds characters other than 0 and 1")
    if not isinstance(y, list) or not all(type(c) is int for c in y):
        raise ValueError("'y' must be a list of integer component indices")
    try:
        return x, StructuredOutput(family, tuple(y))
    except ValueError:  # unsorted, or a component outside the family's range
        raise ValueError(_invalid_y(y, family)) from None


def save_weights(path: str, w) -> None:
    with open(path, "w") as fh:
        json.dump(list(map(float, as_weights(w))), fh)


def load_weights(path: str) -> np.ndarray:
    """Read the JSON list of ``save_weights``: a flat, non-empty list of
    finite numbers, else a ValueError that names the file."""
    with open(path) as fh:
        try:
            values = json.load(fh, parse_int=float)  # integers beyond float range -> inf
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not (isinstance(values, list) and values
            and all(type(v) is float and math.isfinite(v) for v in values)):
        raise ValueError(f"{path}: weights must be a flat, non-empty JSON list of finite numbers")
    return np.array(values)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """The header line, then one line per row (an iterable of sequences)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
