"""Gumbel noise, linear decoders, and the induced softmax (CRF) distributions.

Adding iid Gumbel(0, beta) noise to the linear scores and taking the argmax
samples exactly from the softmax of scores/beta (max-stability), so the
perturbed decoder's output distribution has the closed form computed by
``crf_pmf`` over any materialized support.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .spaces import StructureFamily, StructuredOutput, input_bits, space


def as_weights(w) -> np.ndarray:
    """Weights as a float64 array."""
    return np.asarray(w, dtype=np.float64)


def scaled_weights(w, beta: float) -> np.ndarray:
    """``w / beta`` as float64, after the one check that every function
    taking a Gumbel scale makes: beta finite and positive, and 1 / beta
    finite, by which the gradients scale (a subnormal beta overflows it).
    ``TrainConfig`` checks its scale alone, at w = 0.  Weights must be
    finite, and so must ``w / beta``."""
    if not (beta > 0 and math.isfinite(beta) and math.isfinite(1.0 / float(beta))):
        raise ValueError(f"beta must be finite and positive, with 1 / beta finite; got {beta}")
    w = as_weights(w)
    with np.errstate(over="ignore"):
        w_eff = w / beta
    if not np.isfinite(w_eff).all():
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        raise ValueError(f"w / beta overflows at beta = {beta}")
    return w_eff


def full_candidate_set(family: StructureFamily) -> Sequence[StructuredOutput]:
    """The whole output space as a candidate set, in canonical order: the
    space's own ``outputs`` sequence, which lists of per-sample sets
    recognize by identity."""
    return space(family).outputs


class CandidateSets(Sequence):
    """The per-sample candidate sets of one dataset in compressed sparse rows:
    sample i's set is ``indices[offsets[i]:offsets[i + 1]]``, ascending space
    positions, so each set is one segment for ``reduceat``.  Items are
    per-sample tuples of outputs.  The full space for every sample
    (``full_space``) keeps offsets only and tiles its indices on request.

    Sets built from entries (``from_entries``) keep the sample of each flat
    entry.
    """

    def __init__(self, family: StructureFamily, offsets: np.ndarray, indices: np.ndarray | None,
                 samples: np.ndarray | None = None):
        self.family = family
        self.offsets = offsets
        self._indices = indices
        self._samples = samples
        self.full_space = indices is None

    @classmethod
    def from_entries(cls, family: StructureFamily, samples: np.ndarray, indices: np.ndarray,
                     m: int) -> CandidateSets:
        """The sets of the (sample, output index) entries ``zip(samples,
        indices)``, given in any order: repeats are dropped and each set is in
        canonical order.  Entries are keyed ``sample * size + index``, sorted in
        place and compared with their neighbors (np.unique costs ~10x more at
        these sizes), and the distinct keys divided back."""
        size = space(family).size
        keys = samples * size + indices
        keys.sort()
        keep = np.empty(keys.size, dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        smp, indices = np.divmod(keys[keep], size)
        return cls(family, smp.searchsorted(np.arange(m + 1)), indices, smp)

    @property
    def indices(self) -> np.ndarray:
        if self.full_space:
            return np.tile(np.arange(space(self.family).size), len(self))
        return self._indices

    @property
    def counts(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def samples(self) -> np.ndarray:
        """The sample of each flat entry: kept by ``from_entries``, else
        derived from the offsets."""
        if self._samples is None:
            return np.arange(len(self)).repeat(self.counts)
        return self._samples

    def observed_positions(self, y_idx: np.ndarray) -> np.ndarray:
        """Flat position of each sample's observed output ``y_idx[i]``, found
        by a scan."""
        hit = (self.indices == y_idx[self.samples]).nonzero()[0]
        if hit.size != len(self):
            raise ValueError("a candidate set does not contain its observed output")
        return hit

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> tuple[StructuredOutput, ...]:
        i = range(len(self))[i]
        outputs = space(self.family).outputs
        if self.full_space:
            return outputs
        return tuple(outputs[j] for j in self.indices[self.offsets[i]:self.offsets[i + 1]].tolist())


def as_candidate_sets(sets: Sequence[Sequence[StructuredOutput]], family: StructureFamily,
                      m: int) -> CandidateSets:
    """The candidate sets of an m-sample dataset as one ``CandidateSets``: it
    passes through, and per-sample sequences of outputs are indexed into one,
    or kept as offsets alone when every set is the space's own ``outputs``
    sequence (``full_candidate_set``).  A set that repeats an output is an error."""
    if len(sets) != m:
        raise ValueError(f"expected {m} candidate sets, got {len(sets)}")
    if isinstance(sets, CandidateSets):
        if sets.family != family:
            raise ValueError(f"candidate sets of {sets.family} given for {family}")
        return sets
    sp = space(family)
    if all(cs is sp.outputs for cs in sets):
        return CandidateSets(family, np.arange(m + 1) * sp.size, None)
    counts = [len(cs) for cs in sets]
    listed = CandidateSets.from_entries(family, np.arange(m).repeat(counts),
                                        sp.indices([y for cs in sets for y in cs]), m)
    if listed.offsets[-1] < sum(counts):
        raise ValueError("candidate set contains duplicate structures")
    return listed


# ---------------------------------------------------------------------------
# Gumbel sampling


def gumbel_from_uniform(u, beta: float) -> np.ndarray:
    """Inverse-CDF transform: u in (0,1) -> -beta * ln(-ln u).

    Gumbel(0, beta) draws from an explicit uniform stream rather than numpy's
    built-in gumbel, so the draws are as reproducible as the stream (within
    one numpy generation for PCG64).
    """
    return -beta * np.log(-np.log(np.asarray(u, dtype=np.float64)))


# ---------------------------------------------------------------------------
# decoding


def map_decode(family: StructureFamily, x, w) -> StructuredOutput:
    """Highest-scoring structure; ties go to the earliest in canonical order."""
    s = _support_scores(family, x, as_weights(w), None)
    return space(family).outputs[int(np.argmax(s))]


def perturbed_decode(family: StructureFamily, x, w, gamma,
                     support: Sequence[StructuredOutput] | None = None) -> StructuredOutput:
    """Argmax of score + gamma over the support (the full space by default).

    ``gamma`` is indexed by the enumeration order of the support: canonical
    order for the full space, stored order for an explicit candidate set.
    Ties break toward the earliest index (they have probability zero under
    continuous noise).
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    s = _support_scores(family, x, as_weights(w), support)
    if gamma.shape != s.shape:
        raise ValueError(f"gamma has shape {gamma.shape}, expected {s.shape}")
    outputs = space(family).outputs if support is None else support
    return outputs[int(np.argmax(s + gamma))]


def _support_scores(family: StructureFamily, x, w,
                    support: Sequence[StructuredOutput] | None) -> np.ndarray:
    """Scores of the support's outputs in stored order; of all outputs for
    None or the space's own ``outputs`` sequence.  The full space is scored by
    ``score_matrix``, a listed support by the candidate-set gather, so each
    candidate gets the bits the trainers and the restricted losses give it.
    A repeated output is an error."""
    sp = space(family)
    bits = input_bits(family, x)[None, :]
    if support is None or support is sp.outputs:
        return sp.score_matrix(bits, w)[:, 0]
    as_candidate_sets([support], family, 1)  # refuses a repeated output
    return sp.gather_scores(bits * w, 0, sp.indices(support))


# ---------------------------------------------------------------------------
# CRF distributions


@dataclass(frozen=True, eq=False)
class CrfDistribution:
    """Normalized pmf of the perturbed decoder over a support at scale beta."""

    support: tuple[StructuredOutput, ...]
    probs: np.ndarray
    log_partition: float
    beta: float

    def __post_init__(self):
        if len(self.probs) != len(self.support):
            raise ValueError("probs and support lengths differ")
        if (self.probs < 0).any() or abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probs must be a distribution (nonnegative, summing to 1)")


def crf_pmf(family: StructureFamily, x, w, support: Sequence[StructuredOutput],
            beta: float) -> CrfDistribution:
    """Softmax of scores/beta over the support, with a log-domain partition.

    Weights are rescaled by beta before scoring, so the distribution at
    (w, beta) coincides bitwise with the one at (w/beta, 1).
    """
    w_eff = scaled_weights(w, beta)
    if len(support) == 0:
        raise ValueError("support must be nonempty")
    scores = _support_scores(family, x, w_eff, support)
    shift = scores.max()
    e = np.exp(scores - shift)
    z = np.add.reduceat(e, [0])[0]  # the sum of _segment_pmfs, whose bits the trainers give
    return CrfDistribution(tuple(support), e / z, float(shift + np.log(z)), beta)


def pmf_matrix(sp, bit_matrix: np.ndarray, w, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Column-stochastic (size x m) matrix of full-space pmfs for a batch of
    inputs, plus the per-column log-partitions."""
    scores = sp.score_matrix(bit_matrix, scaled_weights(w, beta))
    shift = scores.max(axis=0)
    e = np.exp(scores - shift)
    z = e.sum(axis=0)
    return e / z, shift + np.log(z)


# ---------------------------------------------------------------------------
# restricted CRF distributions over flat candidate segments


def _segment_pmfs(sets: CandidateSets, y_idx: np.ndarray, xw: np.ndarray):
    """Restricted CRF pmfs of all flat candidates (each sample's softmax of
    its row of X * (w / beta) over its own set) and the flat positions of the
    observed outputs."""
    y_flat = sets.observed_positions(y_idx)
    smp = sets.samples
    s = space(sets.family).gather_scores(xw, smp, sets.indices)
    starts = sets.offsets[:-1]
    shift = np.maximum.reduceat(s, starts)
    e = np.exp(s - shift[smp])
    z = np.add.reduceat(e, starts)
    return e / z[smp], y_flat
