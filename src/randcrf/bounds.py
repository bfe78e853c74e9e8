"""Closed-form generalization, approximation, and statistical error bounds.

All logarithms are natural.  ``generalization_bound`` covers learning with the
exact loss; ``approximation_error`` and ``statistical_error`` cover the
randomized surrogate, and their sum bounds the gap between expected loss and
randomized training loss.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gumbel_crf import as_weights
from .trainer import beta_schedule


@dataclass(frozen=True)
class BoundInputs:
    """Dimensions and confidence level shared by the bound calculators."""

    d: int
    s: int
    m: int
    n: int
    r: int
    delta: float

    def __post_init__(self):
        for name in ("d", "s", "m", "n", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.s > self.d:
            raise ValueError("sparsity s cannot exceed dimension d")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


def _validate(d, s, m, r, delta, n=1):
    BoundInputs(d=d, s=s, m=m, n=n, r=r, delta=delta)


def generalization_bound(d: int, s: int, m: int, r: int, delta: float) -> float:
    """Uniform-convergence radius for the exact loss over s-sparse weights:
    2 sqrt(s(ln d + 2 ln(mr))/m) + 3 sqrt(ln(2/delta)/(2m))."""
    _validate(d, s, m, r, delta)
    return (2.0 * math.sqrt(s * (math.log(d) + 2.0 * math.log(m * r)) / m)
            + 3.0 * math.sqrt(math.log(2.0 / delta) / (2.0 * m)))


def approximation_error(m: int, w) -> float:
    """Error from decoding over sampled candidate sets: ||w||_1/sqrt(m) + 1/(1 + sqrt(m))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    l1 = float(np.abs(as_weights(w)).sum())
    return l1 / math.sqrt(m) + 1.0 / (1.0 + math.sqrt(m))


def statistical_error(d: int, s: int, n: int, r: int, m: int, delta: float) -> float:
    """Deviation of the randomized loss from its candidate-set expectation:
    2 sqrt(s(ln d + 2 ln(nr))/m) + sqrt(ln(1/delta)/(2m))
    + sqrt((s(ln d + 2 ln(mr)) + ln(1/delta))/(2m))."""
    _validate(d, s, m, r, delta, n=n)
    ln_inv_delta = math.log(1.0 / delta)
    return (2.0 * math.sqrt(s * (math.log(d) + 2.0 * math.log(n * r)) / m)
            + math.sqrt(ln_inv_delta / (2.0 * m))
            + math.sqrt((s * (math.log(d) + 2.0 * math.log(m * r)) + ln_inv_delta) / (2.0 * m)))


def total_bound(w, inputs: BoundInputs) -> float:
    """Approximation plus statistical error: the radius by which the expected
    loss can exceed the randomized training loss."""
    return (approximation_error(inputs.m, w)
            + statistical_error(inputs.d, inputs.s, inputs.n, inputs.r, inputs.m, inputs.delta))


# ---------------------------------------------------------------------------
# side conditions of the approximation-error bound


def beta_condition(beta: float, w, m: int, r: int) -> bool:
    """Whether the Gumbel scale is small enough for the approximation bound:
    beta <= min(||w||_1 / ln m, w_min * beta_schedule(m, r)), with w_min the
    smallest nonzero |w_j| (inf for the zero vector).  Refused where
    ``beta_schedule`` is undefined, which covers m < 2 and r < 2."""
    scale = beta_schedule(m, r)
    w = as_weights(w)
    nonzero = np.abs(w[w != 0])
    w_min = float(nonzero.min()) if nonzero.size else math.inf
    return beta <= min(float(np.abs(w).sum()) / math.log(m), w_min * scale)


def sample_size_condition(n: int, m: int, c: float = 0.0) -> bool:
    """Whether enough candidates are drawn per sample: n >= m^(0.5 - c).

    c = 0 is the worst case (n = sqrt(m)); larger c reflects a stronger
    proposal distribution and allows fewer candidates.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if not 0.0 <= c <= 1.0:
        raise ValueError("c must be in [0, 1]")
    return n >= m ** (0.5 - c)


# ---------------------------------------------------------------------------
# grid tables for the CLI


BOUND_TABLE_HEADER = ("d", "s", "m", "n", "r", "delta", "l1",
                      "generalization", "approximation", "statistical", "total")


def bound_table(grid: dict[str, list]) -> list[tuple]:
    """Cartesian product of the grid values; ``l1`` feeds the approximation
    term as the weight vector's L1 norm (default 0).  A key other than
    d, s, m, n, r, delta and l1 is an error, and so is an l1 that is
    negative or not finite."""
    keys = ("d", "s", "m", "n", "r", "delta", "l1")
    unknown = sorted(set(grid) - set(keys))
    if unknown:
        raise ValueError(f"unknown grid keys: {', '.join(unknown)}")
    values = [grid.get(k, [0.0] if k == "l1" else None) for k in keys]
    for k, v in zip(keys, values):
        if v is None:
            raise ValueError(f"grid is missing values for '{k}'")
    for l1 in values[-1]:
        if not (math.isfinite(l1) and l1 >= 0):
            raise ValueError(f"l1 must be finite and >= 0, got {l1}")
    rows = []
    for d, s, m, n, r, delta, l1 in itertools.product(*values):
        w = np.array([l1])
        rows.append((d, s, m, n, r, delta, l1,
                     generalization_bound(d, s, m, r, delta),
                     approximation_error(m, w),
                     statistical_error(d, s, n, r, m, delta),
                     total_bound(w, BoundInputs(d=d, s=s, m=m, n=n, r=r, delta=delta))))
    return rows
