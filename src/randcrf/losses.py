"""Dataset container and the exact, randomized, and Hamming losses.

All probabilistic losses are computed from closed-form CRF probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .gumbel_crf import (_segment_pmfs, as_candidate_sets, as_weights, pmf_matrix,
                         scaled_weights)
from .spaces import StructureFamily, StructuredOutput, space


class LossKind(Enum):
    EXACT_CRF = "exact_crf"
    RANDOMIZED_AUGMENTED = "randomized_augmented"
    HAMMING = "hamming"
    HINGE = "hinge"


LOSS_CSV_HEADER = ("run_id", "method", "kind", "value")


@dataclass(frozen=True, eq=False)
class LossReport:
    """A loss value with its per-sample decomposition."""

    value: float
    per_sample: np.ndarray
    kind: LossKind

    def csv_row(self, run_id: str, method: str) -> tuple:
        return (run_id, method, self.kind.value, self.value)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Input bit matrix (m x d) paired with observed structures.

    Resolved once on construction: ``bits`` holds the inputs as float64 and
    ``indices``, read-only, each observed output's position in the family's
    canonical order (a ValueError names the first output of another family
    or not a valid structure of this one)."""

    family: StructureFamily
    inputs: np.ndarray
    outputs: tuple[StructuredOutput, ...]
    bits: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, d = self.inputs.shape
        if m < 1:
            raise ValueError("dataset must contain at least one sample")
        if d != self.family.feature_dim:
            raise ValueError(f"inputs have {d} columns, family expects {self.family.feature_dim}")
        if len(self.outputs) != m:
            raise ValueError("inputs and outputs have different lengths")
        indices = space(self.family).indices(self.outputs)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "bits", np.asarray(self.inputs, dtype=np.float64))

    @property
    def m(self) -> int:
        return len(self.outputs)


def _report(per_sample: np.ndarray, kind: LossKind) -> LossReport:
    return LossReport(float(per_sample.mean()), per_sample, kind)


def exact_crf_loss(w, S: Dataset, beta: float) -> LossReport:
    """Mean probability that the perturbed decoder misses the observed output,
    with the decoder running over the full space."""
    probs, _ = pmf_matrix(space(S.family), S.bits, w, beta)
    return _report(1.0 - probs[S.indices, np.arange(S.m)], LossKind.EXACT_CRF)


def randomized_loss(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]],
                    beta: float) -> LossReport:
    """Mean probability of missing the observed output when the decoder is
    restricted to the per-sample candidate sets; each set must contain it."""
    sets = as_candidate_sets(Tbar, S.family, S.m)
    p, y_flat = _segment_pmfs(sets, S.indices, S.bits * scaled_weights(w, beta))
    return _report(1.0 - p[y_flat], LossKind.RANDOMIZED_AUGMENTED)


def loss_gap(w, S: Dataset, Tbar: Sequence[Sequence[StructuredOutput]], beta: float) -> float:
    """Closed-form difference randomized_loss - exact_crf_loss: minus the mean
    of (restricted probability of the observed output) times (full-space mass
    outside the candidate set).  At most 0 up to rounding: over a full
    support it can come out near 1e-17 above zero."""
    sets = as_candidate_sets(Tbar, S.family, S.m)
    q = 1.0 - randomized_loss(w, S, sets, beta).per_sample
    full_probs, _ = pmf_matrix(space(S.family), S.bits, w, beta)
    inside = np.add.reduceat(full_probs[sets.indices, sets.samples], sets.offsets[:-1])
    return float(-(q * (1.0 - inside)).mean())


def hamming_loss(w, S: Dataset) -> LossReport:
    """Mean normalized Hamming distance between the MAP decode and the truth."""
    sp = space(S.family)
    pred = np.argmax(sp.score_rows(S.bits * as_weights(w)), axis=0)
    return _report(sp.pair_distances(pred, S.indices), LossKind.HAMMING)
