"""Gradient-based learning of the decoder weights.

CRF methods ascend the log-likelihood of the observed structures under the
(restricted) CRF distributions, whose gradient is the standard moment-matching
direction; the log of the mean recovery probability and its q-weighted
moment-matching gradient are also exposed (``log_gain``,
``log_gain_gradient``).  SVM baselines descend a margin-rescaled structured
hinge with normalized Hamming distortion.  Both use the step schedule
step0/sqrt(t), with step0 the Gumbel scale for CRF methods and 1 for SVM,
followed by an L1 proximal (soft-threshold) step, and both come
in an exact flavor (decoding over the full space) and a randomized flavor
(decoding over freshly sampled candidate sets).

Restricted-support quantities are computed on flat sample-major candidate
arrays (segment reductions), which keeps the randomized methods' per-iteration
cost proportional to the candidate sets rather than the output space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .gumbel_crf import (CandidateSets, _feature_positions, _pad_features, _segment_pmfs,
                         _sum_at, as_candidate_sets, as_weights, pmf_matrix)
from .losses import Dataset, LossKind, LossReport, _bit_matrix, _true_indices
from .proposal import ProposalConfig, _augment_keys, _batch_end_keys, alpha_schedule
from .spaces import StructuredOutput, space


class Method(Enum):
    CRF_ALL = "crf_all"
    CRF_RAND = "crf_rand"
    SVM_ALL = "svm_all"
    SVM_RAND = "svm_rand"


RANDOMIZED_METHODS = (Method.CRF_RAND, Method.SVM_RAND)


@dataclass(frozen=True)
class TrainConfig:
    method: Method
    l1_lambda: float = 0.01
    iterations: int = 20
    beta: float | None = None  # None -> beta_schedule(m, r) for CRF methods
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.l1_lambda < 0:
            raise ValueError("l1_lambda must be >= 0")
        if self.beta is not None and not self.beta > 0:
            raise ValueError("beta must be positive")


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


def _gain_terms_segments(sp, X, sets: CandidateSets, y_idx, xw_pad):
    """``xw_pad``: the padded input*weight matrix X * (w / beta)."""
    m, d = X.shape
    p, y_flat, positions = _segment_pmfs(sets, y_idx, xw_pad)
    q = p[y_flat]
    # candidate-major order, so each feature accumulates in candidate order
    flat_feat = positions.T.ravel()
    expected = np.bincount(flat_feat, weights=p.repeat(positions.shape[0]),
                           minlength=m * (d + 1)).reshape(m, d + 1)[:, :d] * X
    observed = sp.incidence[y_idx] * X
    return q, observed - expected


def _gain_terms_full(sp, X, y_idx, w, beta):
    probs, _ = pmf_matrix(sp, X, w, beta)
    q = probs[y_idx, np.arange(len(y_idx))]
    expected = (sp.incidence.T @ probs).T * X
    observed = sp.incidence[y_idx] * X
    return q, observed - expected


def log_gain(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]], beta: float) -> float:
    """log of the mean restricted probability of recovering the observed outputs."""
    q, _ = _gain_terms(w, S, Tbar, beta)
    return float(np.log(q.mean()))


def log_gain_gradient(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]],
                      beta: float) -> np.ndarray:
    """Gradient of ``log_gain`` in w for fixed candidate sets and fixed beta:
    the q-weighted moment-matching direction scaled by 1/beta."""
    q, diff = _gain_terms(w, S, Tbar, beta)
    return (q @ diff) / (beta * q.sum())


def log_likelihood_gradient(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]],
                            beta: float) -> np.ndarray:
    """Gradient of the mean log restricted probability of the observed
    outputs (the CRF methods' training objective, which lower-bounds
    ``log_gain``): the standard moment-matching direction (mean
    observed-minus-expected feature difference) scaled by 1/beta."""
    _, diff = _gain_terms(w, S, Tbar, beta)
    return diff.mean(axis=0) / beta


def _gain_terms(w, S, Tbar, beta):
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    sp = space(S.family)
    X = _bit_matrix(S)
    y_idx = _true_indices(S)
    sets = as_candidate_sets(Tbar, S.family, S.m)
    if sets.full_space:
        return _gain_terms_full(sp, X, y_idx, w, beta)
    return _gain_terms_segments(sp, X, sets, y_idx, _pad_features(X * (as_weights(w) / beta)))


# ---------------------------------------------------------------------------
# structured hinge


def _distance_columns(sp, y_idx):
    return sp.pair_distances(np.arange(sp.size)[:, None], y_idx) / sp.family.hamming_normalizer


def _hinge_terms_full(sp, X, y_idx, w, dist_cols):
    scores = sp.score_matrix(X, as_weights(w))
    best = np.argmax(scores + dist_cols, axis=0)
    cols = np.arange(len(y_idx))
    margins = (scores + dist_cols)[best, cols] - scores[y_idx, cols]
    grad = ((sp.incidence[best] - sp.incidence[y_idx]) * X).mean(axis=0)
    return margins, grad


def _hinge_terms_segments(sp, X, sets: CandidateSets, y_idx, xw_pad):
    y_flat = sets.observed_positions(y_idx)
    smp, cand = sets.samples, sets.indices
    s = _sum_at(xw_pad, _feature_positions(sp, xw_pad.shape[1], smp, cand))
    dist = sp.pair_distances(cand, y_idx[smp]) / sp.family.hamming_normalizer
    aug = s + dist
    starts = sets.offsets[:-1]
    seg_max = np.maximum.reduceat(aug, starts)
    # ties break toward the earliest in canonical order: first position in segment
    eligible = np.where(aug == seg_max[smp], np.arange(aug.size), aug.size)
    best = cand[np.minimum.reduceat(eligible, starts)]
    margins = seg_max - s[y_flat]
    grad = ((sp.incidence[best] - sp.incidence[y_idx]) * X).mean(axis=0)
    return margins, grad


def hinge_loss(w, S: Dataset, candidates: Sequence[Sequence[StructuredOutput]]) -> LossReport:
    """Margin-rescaled structured hinge over the given per-sample candidates:
    mean of max_y(score(y) + hamming(y, y_i)) - score(y_i)."""
    sp = space(S.family)
    X = _bit_matrix(S)
    y_idx = _true_indices(S)
    sets = as_candidate_sets(candidates, S.family, S.m)
    if sets.full_space:
        margins, _ = _hinge_terms_full(sp, X, y_idx, w, _distance_columns(sp, y_idx))
    else:
        margins, _ = _hinge_terms_segments(sp, X, sets, y_idx, _pad_features(X * as_weights(w)))
    return LossReport(float(margins.mean()), margins, LossKind.HINGE)


# ---------------------------------------------------------------------------
# training loops


def train_crf(S: Dataset, cfg: TrainConfig,
              proposal_cfg: ProposalConfig | None = None) -> tuple[np.ndarray, TrainTrace]:
    """Ascend the (restricted) log-likelihood with an L1 proximal step."""
    if cfg.method not in (Method.CRF_ALL, Method.CRF_RAND):
        raise ValueError(f"train_crf got method {cfg.method}")
    return _train(S, cfg, proposal_cfg)


def train_svm(S: Dataset, cfg: TrainConfig,
              proposal_cfg: ProposalConfig | None = None) -> tuple[np.ndarray, TrainTrace]:
    """Subgradient descent on the structured hinge with an L1 proximal step."""
    if cfg.method not in (Method.SVM_ALL, Method.SVM_RAND):
        raise ValueError(f"train_svm got method {cfg.method}")
    return _train(S, cfg, proposal_cfg)


def _train(S: Dataset, cfg: TrainConfig, proposal_cfg):
    sp = space(S.family)
    X = _bit_matrix(S)
    y_idx = _true_indices(S)
    m = S.m
    randomized = cfg.method in RANDOMIZED_METHODS
    is_crf = cfg.method in (Method.CRF_ALL, Method.CRF_RAND)
    if randomized and proposal_cfg is None:
        raise ValueError("randomized methods need a proposal configuration")
    beta = None
    if is_crf:
        beta = cfg.beta if cfg.beta is not None else beta_schedule(m, sp.size)
    # for CRF methods one update is the moment-matching direction times 1/sqrt(t)
    step0 = beta if is_crf else 1.0
    dist_cols = _distance_columns(sp, y_idx) if cfg.method is Method.SVM_ALL else None

    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(sp.family.feature_dim)
    xw_pad = np.zeros((m, sp.family.feature_dim + 1))
    sets = None
    rows = []
    for t in range(1, cfg.iterations + 1):
        tic = time.perf_counter()
        step = step0 / math.sqrt(t)
        if randomized:
            np.multiply(X, w, out=xw_pad[:, :-1])
            alpha = alpha_schedule(w, m)
            sets = _augment_keys(sp, _batch_end_keys(sp, xw_pad, y_idx, alpha, proposal_cfg.k,
                                                     proposal_cfg.n_target, rng), y_idx)
        if is_crf:
            if cfg.method is Method.CRF_ALL:
                q, diff = _gain_terms_full(sp, X, y_idx, w, beta)
            else:
                np.multiply(X, w / beta, out=xw_pad[:, :-1])
                q, diff = _gain_terms_segments(sp, X, sets, y_idx, xw_pad)
            objective = float(1.0 - q.mean())
            g = diff.mean(axis=0) / beta
            w = w + step * g
        else:
            if cfg.method is Method.SVM_ALL:
                margins, g = _hinge_terms_full(sp, X, y_idx, w, dist_cols)
            else:
                margins, g = _hinge_terms_segments(sp, X, sets, y_idx, xw_pad)
            objective = float(margins.mean())
            w = w - step * g
        w = soft_threshold(w, step * cfg.l1_lambda)
        if not np.isfinite(objective):
            raise RuntimeError(f"{cfg.method.value} diverged at iteration {t}: objective={objective}")
        if randomized:
            size_mean, size_max = sets.indices.size / m, int(sets.counts.max())
        else:
            size_mean, size_max = float(sp.size), sp.size
        rows.append(IterationStats(t, objective, float(np.abs(g).max()),
                                   time.perf_counter() - tic, size_mean, size_max))
    return w, TrainTrace(tuple(rows), sets)
