"""Gradient-based learning of the decoder weights.

CRF methods ascend the log-likelihood of the observed structures under the
(restricted) CRF distributions, whose gradient is the standard moment-matching
direction; the log of the mean recovery probability and its q-weighted
moment-matching gradient are also exposed (``log_gain``,
``log_gain_gradient``).  SVM baselines descend a margin-rescaled structured
hinge with normalized Hamming distortion.  Both use the step schedule
step0/sqrt(t), with step0 the Gumbel scale for CRF methods and 1 for SVM,
followed by an L1 proximal (soft-threshold) step.

Each loss is trained over per-sample candidate sets (``CandidateSets``).  An
exact method's sets are the full space for every sample; a randomized
method's are ``n_target`` fresh greedy draws per sample, by default
ceil(sqrt(m)), over balls of radius ``neighborhood_k``, by default 2, with
exploration probability ``alpha_schedule(w, m)`` of the current weights.  The
gain and hinge terms score the full space with one BLAS product and listed
sets with flat sample-major segment reductions, which keeps the randomized
methods' per-iteration cost proportional to the candidate sets rather than
the output space."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .gumbel_crf import (CandidateSets, _segment_pmfs, as_candidate_sets, as_weights,
                         full_candidate_set, pmf_matrix, scaled_weights)
from .losses import Dataset, LossKind, LossReport
from .proposal import _batch_ends, alpha_schedule
from .spaces import StructuredOutput, space


class Method(Enum):
    CRF_ALL = "crf_all"
    CRF_RAND = "crf_rand"
    SVM_ALL = "svm_all"
    SVM_RAND = "svm_rand"

    @property
    def is_crf(self) -> bool:
        """The loss: the CRF log-likelihood (True) or the structured hinge (False)."""
        return self in (Method.CRF_ALL, Method.CRF_RAND)

    @property
    def randomized(self) -> bool:
        """The support: sets drawn each iteration (True) or the full space (False)."""
        return self in (Method.CRF_RAND, Method.SVM_RAND)


@dataclass(frozen=True)
class TrainConfig:
    """Randomized methods draw ``n_target`` proposals per sample (None: ceil(sqrt(m))
    of the data trained on), each a greedy pass of radius ``neighborhood_k``."""

    method: Method
    l1_lambda: float = 0.01
    iterations: int = 20
    beta: float | None = None  # None -> beta_schedule(m, r) for CRF methods
    seed: int = 0
    neighborhood_k: int = 2
    n_target: int | None = None

    def __post_init__(self):
        if self.neighborhood_k < 1:
            raise ValueError("neighborhood_k must be >= 1")
        if self.n_target is not None and self.n_target < 1:
            raise ValueError("n_target must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (math.isfinite(self.l1_lambda) and self.l1_lambda >= 0):
            raise ValueError(f"l1_lambda must be finite and >= 0, got {self.l1_lambda}")
        if self.beta is not None:
            scaled_weights(0.0, self.beta)

    def resolved_n_target(self, m: int) -> int:
        return self.n_target if self.n_target is not None else math.ceil(math.sqrt(m))


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    objective: float
    grad_inf_norm: float
    seconds: float
    set_size_mean: float
    set_size_max: int


@dataclass(frozen=True, eq=False)
class TrainTrace:
    """Per-iteration log; for randomized methods also the final candidate sets."""

    rows: tuple[IterationStats, ...]
    final_candidate_sets: CandidateSets | None = None

    def __len__(self) -> int:
        return len(self.rows)


TRACE_CSV_HEADER = ("run_id", "method", "iter", "objective", "grad_norm", "seconds")


def trace_csv_rows(trace: TrainTrace, run_id: str, method: Method) -> list[tuple]:
    return [(run_id, method.value, r.iteration, r.objective, r.grad_inf_norm, r.seconds)
            for r in trace.rows]


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Proximal operator of tau * ||.||_1: sign(v) * max(|v| - tau, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def beta_schedule(m, r: int) -> float:
    """Training-time Gumbel scale 1 / ln((r - 1)(sqrt(m) - 1))."""
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")
    arg = (r - 1) * (math.sqrt(m) - 1.0)
    if arg <= 1.0:
        raise ValueError(f"scale undefined: (r - 1)(sqrt(m) - 1) = {arg} must exceed 1")
    return 1.0 / math.log(arg)


# ---------------------------------------------------------------------------
# log-likelihood and gain terms


def _gain_terms(sp, X, sets: CandidateSets, y_idx, w, beta, observed):
    """Per-sample restricted probabilities of the observed outputs and the
    observed-minus-expected feature rows, ``observed`` being the observed
    outputs' feature rows times X: one BLAS product over the full space, a
    gather over listed sets."""
    if sets.full_space:
        probs, _ = pmf_matrix(sp, X, w, beta)
        q = probs[y_idx, np.arange(len(y_idx))]
        expected = sp.feature_sums_full(probs)
    else:
        p, y_flat = _segment_pmfs(sets, y_idx, X * (w / beta))
        q = p[y_flat]
        expected = sp.feature_sums(p, sets.samples, sets.indices, len(y_idx))
    return q, observed - expected * X


def _dataset_gain_terms(w, S: Dataset, Tbar, beta):
    scaled_weights(w, beta)  # refuses a bad scale before any work
    sp = space(S.family)
    return _gain_terms(sp, S.bits, as_candidate_sets(Tbar, S.family, S.m), S.indices,
                       as_weights(w), beta, sp.feature_rows(S.indices) * S.bits)


def log_gain(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]], beta: float) -> float:
    """log of the mean restricted probability of recovering the observed outputs."""
    q, _ = _dataset_gain_terms(w, S, Tbar, beta)
    return float(np.log(q.mean()))


def log_gain_gradient(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]],
                      beta: float) -> np.ndarray:
    """Gradient of ``log_gain`` in w for fixed candidate sets and fixed beta:
    the q-weighted moment-matching direction scaled by 1/beta."""
    q, diff = _dataset_gain_terms(w, S, Tbar, beta)
    return (q @ diff) / (beta * q.sum())


def log_likelihood_gradient(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]],
                            beta: float) -> np.ndarray:
    """Gradient of the mean log restricted probability of the observed
    outputs (the CRF methods' training objective, which lower-bounds
    ``log_gain``): the standard moment-matching direction (mean
    observed-minus-expected feature difference) scaled by 1/beta."""
    _, diff = _dataset_gain_terms(w, S, Tbar, beta)
    return diff.mean(axis=0) / beta


# ---------------------------------------------------------------------------
# structured hinge


def _distance_columns(sp, y_idx):
    return sp.pair_distances(np.arange(sp.size)[:, None], y_idx) / sp.family.hamming_normalizer


def _hinge_terms(sp, X, sets: CandidateSets, y_idx, xw, observed, dist_cols=None):
    """Per-sample margins and the mean subgradient under the input*weight
    rows ``xw``, ``observed`` being the observed outputs' feature rows.  Over
    the full space the scores are one BLAS product and ``dist_cols``
    (``_distance_columns``, formed here when not given) the distortions; over
    listed sets both are gathered per entry."""
    if sets.full_space:
        if dist_cols is None:
            dist_cols = _distance_columns(sp, y_idx)
        scores = sp.score_rows(xw)
        best = np.argmax(scores + dist_cols, axis=0)
        cols = np.arange(len(y_idx))
        margins = (scores + dist_cols)[best, cols] - scores[y_idx, cols]
    else:
        y_flat = sets.observed_positions(y_idx)
        smp, cand = sets.samples, sets.indices
        s = sp.gather_scores(xw, smp, cand)
        aug = s + sp.pair_distances(cand, y_idx[smp]) / sp.family.hamming_normalizer
        starts = sets.offsets[:-1]
        seg_max = np.maximum.reduceat(aug, starts)
        # ties break toward the earliest in canonical order: first position in segment
        eligible = np.where(aug == seg_max[smp], np.arange(aug.size), aug.size)
        best = cand[np.minimum.reduceat(eligible, starts)]
        margins = seg_max - s[y_flat]
    grad = ((sp.feature_rows(best) - observed) * X).mean(axis=0)
    return margins, grad


def hinge_loss(w, S: Dataset, candidates: Sequence[Sequence[StructuredOutput]]) -> LossReport:
    """Margin-rescaled structured hinge over the given per-sample candidates:
    mean of max_y(score(y) + hamming(y, y_i)) - score(y_i)."""
    sp = space(S.family)
    sets = as_candidate_sets(candidates, S.family, S.m)
    margins, _ = _hinge_terms(sp, S.bits, sets, S.indices, S.bits * as_weights(w),
                              sp.feature_rows(S.indices))
    return LossReport(float(margins.mean()), margins, LossKind.HINGE)


# ---------------------------------------------------------------------------
# training loops


def train_crf(S: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, TrainTrace]:
    """Ascend the (restricted) log-likelihood with an L1 proximal step."""
    if not cfg.method.is_crf:
        raise ValueError(f"train_crf got method {cfg.method}")
    return _train(S, cfg)


def train_svm(S: Dataset, cfg: TrainConfig) -> tuple[np.ndarray, TrainTrace]:
    """Subgradient descent on the structured hinge with an L1 proximal step."""
    if cfg.method.is_crf:
        raise ValueError(f"train_svm got method {cfg.method}")
    return _train(S, cfg)


def _train(S: Dataset, cfg: TrainConfig):
    sp = space(S.family)
    X, y_idx, m = S.bits, S.indices, S.m
    method = cfg.method
    beta = None
    if method.is_crf:
        beta = cfg.beta if cfg.beta is not None else beta_schedule(m, sp.size)
    # for CRF methods one update is the moment-matching direction times 1/sqrt(t)
    step0 = beta if method.is_crf else 1.0
    # the exact methods train over the full space; the randomized ones replace
    # it with fresh draws in every iteration
    sets = as_candidate_sets([full_candidate_set(S.family)] * m, S.family, m)
    dist_cols = None if method.is_crf or method.randomized else _distance_columns(sp, y_idx)
    n_target = cfg.resolved_n_target(m)
    # built once per training: the observed outputs' samples, which each
    # draw's entries are merged with, and their feature rows (times X for the
    # CRF terms)
    y_samples = np.arange(m)
    observed = sp.feature_rows(y_idx)
    if method.is_crf:
        observed = observed * X

    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(sp.family.feature_dim)
    rows = []
    for t in range(1, cfg.iterations + 1):
        tic = time.perf_counter()
        step = step0 / math.sqrt(t)
        # the greedy pass and the hinge terms share X * w; crf_all scores in
        # pmf_matrix alone
        xw = None if method is Method.CRF_ALL else X * w
        if method.randomized:
            smp, ends = _batch_ends(sp, xw, y_idx, alpha_schedule(w, m), cfg.neighborhood_k,
                                    n_target, rng)
            sets = CandidateSets.from_entries(S.family, np.concatenate([smp, y_samples]),
                                              np.concatenate([ends, y_idx]), m)
        # sum / m below: the bits of mean() without its Python-level wrapper
        if method.is_crf:
            q, diff = _gain_terms(sp, X, sets, y_idx, w, beta, observed)
            objective = float(1.0 - q.sum() / m)
            g = diff.sum(axis=0) / m / beta
            w = w + step * g
        else:
            margins, g = _hinge_terms(sp, X, sets, y_idx, xw, observed, dist_cols)
            objective = float(margins.sum() / m)
            w = w - step * g
        w = soft_threshold(w, step * cfg.l1_lambda)
        if not math.isfinite(objective):
            raise RuntimeError(f"{method.value} diverged at iteration {t}: objective={objective}")
        rows.append(IterationStats(t, objective, float(np.abs(g).max()),
                                   time.perf_counter() - tic,
                                   int(sets.offsets[-1]) / m, int(sets.counts.max())))
    return w, TrainTrace(tuple(rows), sets if method.randomized else None)
