import math

import mpmath
import numpy as np
import pytest

from randcrf import (BoundInputs, approximation_error, beta_condition, generalization_bound,
                     sample_size_condition, statistical_error, total_bound)
from randcrf.bounds import BOUND_TABLE_HEADER, bound_table

mpmath.mp.dps = 50


def mp_generalization(d, s, m, r, delta):
    d, s, m, r, delta = map(mpmath.mpf, (d, s, m, r, delta))
    return (2 * mpmath.sqrt(s * (mpmath.log(d) + 2 * mpmath.log(m * r)) / m)
            + 3 * mpmath.sqrt(mpmath.log(2 / delta) / (2 * m)))


def mp_statistical(d, s, n, r, m, delta):
    d, s, n, r, m, delta = map(mpmath.mpf, (d, s, n, r, m, delta))
    return (2 * mpmath.sqrt(s * (mpmath.log(d) + 2 * mpmath.log(n * r)) / m)
            + mpmath.sqrt(mpmath.log(1 / delta) / (2 * m))
            + mpmath.sqrt((s * (mpmath.log(d) + 2 * mpmath.log(m * r))
                           + mpmath.log(1 / delta)) / (2 * m)))


def mp_approximation(m, l1):
    m, l1 = mpmath.mpf(m), mpmath.mpf(l1)
    return l1 / mpmath.sqrt(m) + 1 / (1 + mpmath.sqrt(m))


GRID = [(100, 10, 100, 1365, 0.05, 10), (105, 11, 25, 1365, 0.05, 5),
        (20, 5, 400, 7776, 0.01, 10), (15, 4, 1600, 13956, 0.1, 40),
        (50, 7, 64, 300, 0.2, 8)]


@pytest.mark.parametrize("d,s,m,r,delta,n", GRID)
def test_generalization_bound_matches_high_precision(d, s, m, r, delta, n):
    got = generalization_bound(d, s, m, r, delta)
    assert abs(got - float(mp_generalization(d, s, m, r, delta))) < 1e-12


@pytest.mark.parametrize("d,s,m,r,delta,n", GRID)
def test_statistical_error_matches_high_precision(d, s, m, r, delta, n):
    got = statistical_error(d, s, n, r, m, delta)
    assert abs(got - float(mp_statistical(d, s, n, r, m, delta))) < 1e-12


@pytest.mark.parametrize("m,l1", [(100, 0.0), (100, 2.0), (25, 7.5), (1600, 0.3)])
def test_approximation_error_matches_high_precision(m, l1):
    w = np.zeros(3)
    w[0] = l1
    assert abs(approximation_error(m, w) - float(mp_approximation(m, l1))) < 1e-12


def test_generalization_bound_reference_value():
    # d=100, s=10, m=100, r=1365, delta=0.05
    assert generalization_bound(100, 10, 100, 1365, 0.05) == pytest.approx(3.7692, abs=2e-4)


def test_generalization_bound_decreases_with_more_samples():
    for m in (25, 100, 400):
        assert generalization_bound(100, 10, 4 * m, 1365, 0.05) \
            < generalization_bound(100, 10, m, 1365, 0.05)


def test_domain_violations_raise():
    with pytest.raises(ValueError):
        generalization_bound(100, 10, 100, 1365, 2.0)
    with pytest.raises(ValueError):
        generalization_bound(100, 200, 100, 1365, 0.05)  # s > d
    with pytest.raises(ValueError):
        statistical_error(100, 10, 0, 1365, 100, 0.05)
    with pytest.raises(ValueError):
        approximation_error(0, np.zeros(2))
    with pytest.raises(ValueError):
        BoundInputs(d=10, s=2, m=10, n=2, r=5, delta=1.0)


def test_approximation_error_values():
    assert approximation_error(100, np.zeros(4)) == pytest.approx(1.0 / 11.0)
    w = np.array([1.0, -1.0])
    assert approximation_error(100, w) == pytest.approx(0.2 + 1.0 / 11.0)
    assert approximation_error(10 ** 12, w) < 3e-6


def test_statistical_error_first_term_coincides_with_generalization_when_n_is_m():
    d, s, m, r = 105, 11, 100, 1365
    first_stat = 2 * math.sqrt(s * (math.log(d) + 2 * math.log(m * r)) / m)
    gen_first = generalization_bound(d, s, m, r, 0.05) - 3 * math.sqrt(math.log(40.0) / (2 * m))
    assert first_stat == pytest.approx(gen_first, abs=1e-12)


@pytest.mark.parametrize("fn", [
    lambda m: generalization_bound(105, 11, m, 1365, 0.05),
    lambda m: statistical_error(105, 11, 10, 1365, m, 0.05),
    lambda m: approximation_error(m, np.array([2.0])),
    lambda m: total_bound(np.array([2.0]), BoundInputs(d=105, s=11, m=m, n=10, r=1365, delta=0.05)),
])
def test_monotone_non_increasing_in_m(fn):
    values = [fn(m) for m in (25, 100, 400, 1600)]
    assert all(v > 0 for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_total_bound_is_the_sum_of_its_parts():
    w = np.array([1.5, 0.0, -0.5])
    inputs = BoundInputs(d=105, s=11, m=100, n=10, r=1365, delta=0.05)
    assert total_bound(w, inputs) == pytest.approx(
        approximation_error(100, w) + statistical_error(105, 11, 10, 1365, 100, 0.05), abs=1e-15)


def test_total_bound_with_zero_weights_collapses():
    inputs = BoundInputs(d=105, s=11, m=100, n=10, r=1365, delta=0.05)
    want = 1.0 / 11.0 + statistical_error(105, 11, 10, 1365, 100, 0.05)
    assert total_bound(np.zeros(4), inputs) == pytest.approx(want, abs=1e-15)


def test_beta_condition():
    # ||w||_1 = 2.5 and the smallest nonzero |w_j| is 0.5
    w = np.array([2.0, 0.0, -0.5])
    m, r = 100, 1365
    cap = min(2.5 / math.log(m), 0.5 / math.log((r - 1) * (math.sqrt(m) - 1)))
    assert beta_condition(cap - 1e-9, w, m, r)
    assert not beta_condition(cap + 1e-9, w, m, r)
    # the zero vector has no nonzero entry (w_min = inf) and ||w||_1 = 0
    assert beta_condition(0.0, np.zeros(3), m, r)
    assert not beta_condition(1e-12, np.zeros(3), m, r)
    with pytest.raises(ValueError):
        beta_condition(0.1, w, 1, r)


def test_sample_size_condition():
    assert sample_size_condition(10, 100)  # worst case needs sqrt(m)
    assert not sample_size_condition(9, 100)
    assert sample_size_condition(1, 100, c=0.5)
    with pytest.raises(ValueError):
        sample_size_condition(1, 100, c=2.0)


def test_bound_table_covers_the_grid():
    rows = bound_table({"d": [105], "s": [11], "m": [25, 100], "n": [5, 10],
                        "r": [1365], "delta": [0.05]})
    assert len(rows) == 4
    assert len(rows[0]) == len(BOUND_TABLE_HEADER)
    for row in rows:
        assert row[-1] == pytest.approx(row[-2] + row[-3])  # total = approx + stat
    with pytest.raises(ValueError):
        bound_table({"d": [105]})
    # l1 is the weight vector's L1 norm: a negative or non-finite value is
    # refused, not folded into |l1| or carried into nan totals
    grid = {"d": [105], "s": [11], "m": [100], "n": [10], "r": [1365], "delta": [0.05]}
    for l1 in ([-3.0, 3.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError, match="^l1 must be finite and >= 0, got "):
            bound_table({**grid, "l1": l1})
    assert bound_table({**grid, "l1": [0.0, 3.0]})[1][6] == 3.0
