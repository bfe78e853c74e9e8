"""Candidate-set construction by a greedy local-search proposal sampler.

One proposal draw starts either from the observed structure or, with
probability alpha, from a uniformly random structure, then takes a single
greedy pass over the start's distance-k neighborhood in canonical order,
moving to any neighbor whose score is at least the running candidate's.
The result depends on the weights only through score comparisons, so weight
vectors inducing the same score ordering yield identical proposals.

The batch path evaluates all draws at once: every (sample, start) pair
becomes one segment of start and neighbors, scored in a single vectorized
call, and each pass's end is read off its segment's maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gumbel_crf import CandidateSets, as_candidate_sets, as_weights
from .losses import Dataset
from .spaces import EnumeratedSpace, StructureFamily, StructuredOutput, input_bits, space


@dataclass(frozen=True)
class ProposalConfig:
    """Exploration probability, neighborhood radius, and draws per sample."""

    alpha: float
    k: int = 2
    n_target: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_target < 1:
            raise ValueError("n_target must be >= 1")


def alpha_schedule(w, m: int) -> float:
    """Exploration probability ||w||_1 / sqrt(m), clamped to remain in [0, 1]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return min(1.0, float(np.abs(as_weights(w)).sum()) / math.sqrt(m))


# ---------------------------------------------------------------------------
# scores and the greedy pass over precomputed neighbor tables
#
# A score is the space's ``gather_scores``: the input*weight entries at an
# output's active features, added in ascending feature order and gathered
# for each scored (sample, output) pair alone.  A pass therefore costs in
# proportion to the outputs it scores, not to the size of the space, and its
# sums are numpy's, fixed by the order of the features rather than by any
# BLAS kernel.


def _greedy_pairs(sp: EnumeratedSpace, xw, pair_smp, pair_start, k: int) -> np.ndarray:
    """End of the greedy pass for each (sample, start) pair.

    Each pair gets a segment holding its start followed by the start's
    neighbors in canonical order.  The sequential pass never lowers its
    running score, so it ends at the last entry attaining the segment max: the
    last neighbor attaining the neighborhood max when that max reaches the
    start's score (ties accepted), else the start.
    """
    indptr, data = sp.neighbor_csr(k)
    if not data.size:  # no output has a neighbor at this radius
        return pair_start.copy()
    lo = indptr[pair_start]
    size = indptr[pair_start + 1] - lo + 1
    end = size.cumsum()
    first = end - size
    # each segment reads its neighbors from data starting one slot early;
    # that first slot is then overwritten with the start
    pos = (lo - 1 - first).repeat(size)
    pos += np.arange(end[-1])
    cand = data.take(pos)
    cand[first] = pair_start
    s = sp.gather_scores(xw, pair_smp.repeat(size), cand)
    top = np.maximum.reduceat(s, first)
    hit = (s == top.repeat(size)).nonzero()[0]
    return cand[hit[hit.searchsorted(end) - 1]]


# ---------------------------------------------------------------------------
# sampling


def propose(family: StructureFamily, x, y: StructuredOutput, w,
            cfg: ProposalConfig, rng: np.random.Generator) -> StructuredOutput:
    """One proposal draw: the batch draw of ``build_candidate_sets`` for one
    sample and one draw.

    Consumes exactly two uniforms per call (exploration coin, start index);
    ``build_candidate_sets`` relies on this fixed pattern to batch draws.
    """
    sp = space(family)
    xw = (input_bits(family, x) * as_weights(w))[None, :]
    _, ends = _batch_ends(sp, xw, np.array([sp.index(y)]), cfg.alpha, cfg.k, 1, rng)
    return sp.outputs[int(ends[0])]


def _batch_ends(sp: EnumeratedSpace, xw, y_idx, alpha: float, k: int,
                n_target: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The sample and the end of all draws, one per distinct (sample, start)
    pair, sample-major; ends may repeat.

    Draw order is sample-major from the single given generator, so the draws
    reproduce sequential ``propose`` calls (samples outermost) exactly.
    """
    u = rng.random((y_idx.size, n_target, 2))
    starts = np.where(u[..., 0] < alpha,
                      (u[..., 1] * sp.size).astype(np.int64), y_idx[:, None])
    starts.sort(axis=1)
    first = np.empty(starts.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(starts[:, 1:], starts[:, :-1], out=first[:, 1:])
    pair_smp = first.nonzero()[0]
    return pair_smp, _greedy_pairs(sp, xw, pair_smp, starts[first], k)


def build_candidate_sets(family: StructureFamily, S: Dataset, w,
                         cfg: ProposalConfig, rng: np.random.Generator) -> CandidateSets:
    """Per-sample candidate sets from ``cfg.n_target`` proposal draws each,
    deduplicated and in canonical order.

    Equivalent to invoking ``propose`` n_target times per sample on the given
    generator, iterating samples outermost, and deduplicating the results.
    ``family`` must be the dataset's own; another is refused before any draw.
    """
    if family != S.family:
        raise ValueError(f"dataset of {S.family} given for {family}")
    samples, ends = _batch_ends(space(family), S.bits * as_weights(w), S.indices, cfg.alpha,
                                cfg.k, cfg.n_target, rng)
    return CandidateSets.from_entries(family, samples, ends, S.m)


def augment(T: Sequence[Sequence[StructuredOutput]], S: Dataset) -> CandidateSets:
    """Force each candidate set to contain its sample's observed structure."""
    sets = as_candidate_sets(T, S.family, S.m)
    return CandidateSets.from_entries(S.family, np.concatenate([sets.samples, np.arange(S.m)]),
                                      np.concatenate([sets.indices, S.indices]), S.m)


def proposal_quality_frequency(S: Dataset, w, T: Sequence[Sequence[StructuredOutput]],
                               c: float = 0.0) -> float:
    """Diagnostic: fraction of samples whose candidate set behaves well under w.

    A sample passes if either its observed structure is the unique score
    maximizer and the set is exactly the singleton of it, or the set's mean
    score clears the observed structure's score by c * ||w||_1.
    """
    sets = as_candidate_sets(T, S.family, S.m)
    wv = as_weights(w)
    scores = space(S.family).score_rows(S.bits * wv)
    y_idx = S.indices
    smp, cand, cols = sets.samples, sets.indices, np.arange(S.m)
    with np.errstate(invalid="ignore"):  # an empty set has no mean score and fails
        set_mean = np.bincount(smp, weights=scores[cand, smp], minlength=S.m) / sets.counts
    only_y = (sets.counts == 1) & (np.bincount(smp[cand == y_idx[smp]], minlength=S.m) == 1)
    s_true = scores[y_idx, cols]
    scores[y_idx, cols] = -np.inf
    unique_max = s_true > scores.max(axis=0)
    ok = np.where(unique_max, only_y, set_mean >= s_true + c * float(np.abs(wv).sum()))
    return float(ok.mean())
