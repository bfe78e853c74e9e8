"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers.  The comparison experiment (criterion 7) runs the
full protocol once as a module fixture and is reused by criterion checks."""

import csv
import math
import time

import mpmath
import numpy as np
import pytest
from scipy import stats

from randcrf import (DagFamily, ExperimentConfig, SpanningTreeFamily, SubsetFamily,
                     approximation_error, crf_pmf, exact_crf_loss, full_candidate_set,
                     generalization_bound, gumbel_from_uniform, log_gain, log_gain_gradient,
                     loss_gap, propose, randomized_loss, run_experiment, space,
                     statistical_error)
from randcrf import cli
from randcrf.losses import Dataset
from randcrf.proposal import ProposalConfig

from oracles import random_instance

mpmath.mp.dps = 50


def report(name, detail):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def make_dataset(family, rng, m):
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


# ---------------------------------------------------------------------------
# 1. loss-gap identity


def test_criterion_1_loss_gap_identity():
    fam = SubsetFamily(3, 8)
    rng = np.random.default_rng(101)
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        S = make_dataset(fam, rng, m=int(rng.integers(2, 7)))
        sets = random_augmented_sets(S, rng)
        w = rng.normal(0.0, float(rng.uniform(0.2, 2.0)), size=fam.feature_dim)
        beta = float(rng.uniform(0.2, 3.0))
        gap = loss_gap(w, S, sets, beta)
        diff = randomized_loss(w, S, sets, beta).value - exact_crf_loss(w, S, beta).value
        worst = max(worst, abs(gap - diff))
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-10
    assert elapsed < 10.0
    report("1 loss-gap identity", f"max |gap - difference| = {worst:.2e} over 100 "
                                  f"instances in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. full support collapses the randomized loss


def test_criterion_2_full_support_equality():
    fam = SubsetFamily(3, 8)
    rng = np.random.default_rng(102)
    full = [full_candidate_set(fam)]
    worst = 0.0
    for _ in range(50):
        S = make_dataset(fam, rng, m=int(rng.integers(1, 6)))
        w = rng.normal(0.0, 1.0, size=fam.feature_dim)
        beta = float(rng.uniform(0.2, 3.0))
        a = randomized_loss(w, S, full * S.m, beta).value
        b = exact_crf_loss(w, S, beta).value
        worst = max(worst, abs(a - b))
    assert worst <= 1e-12
    report("2 full-support equality", f"max deviation = {worst:.2e} over 50 instances")


# ---------------------------------------------------------------------------
# 3. perturbed-decode frequencies against the closed-form pmf


def test_criterion_3_monte_carlo_matches_pmf():
    families = [SubsetFamily(2, 7), SubsetFamily(3, 6), SpanningTreeFamily(3), DagFamily(3, 1)]
    rng = np.random.default_rng(103)
    draws = 10 ** 6
    tic = time.perf_counter()
    pvalues = []
    for trial in range(10):
        fam = families[trial % len(families)]
        sp = space(fam)
        assert sp.size <= 50
        x = rng.integers(0, 2, size=fam.feature_dim)
        w = rng.normal(0.0, 0.7, size=fam.feature_dim)
        beta = 1.0
        scores = sp.score_rows(x[None, :] * w)[:, 0]
        gen = np.random.default_rng(1000 + trial)
        counts = np.zeros(sp.size, dtype=np.int64)
        done = 0
        chunk = 100_000
        while done < draws:
            n = min(chunk, draws - done)
            gamma = gumbel_from_uniform(gen.random((n, sp.size)), beta)
            counts += np.bincount(np.argmax(scores + gamma, axis=1), minlength=sp.size)
            done += n
        probs = crf_pmf(fam, x, w, full_candidate_set(fam), beta).probs
        # fold bins with tiny expectation into one so the chi-square is valid
        small = probs * draws < 5
        f_obs = np.concatenate([counts[~small], [counts[small].sum()]]) if small.any() \
            else counts
        f_exp = np.concatenate([probs[~small] * draws, [probs[small].sum() * draws]]) \
            if small.any() else probs * draws
        pvalues.append(stats.chisquare(f_obs, f_exp).pvalue)
    elapsed = time.perf_counter() - tic
    assert min(pvalues) > 0.01
    assert elapsed < 60.0
    report("3 decoder frequencies vs pmf", f"min p-value = {min(pvalues):.3f} over 10 "
                                           f"instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. gradient against central finite differences


def test_criterion_4_gradient_finite_differences():
    fam = SubsetFamily(3, 8)
    rng = np.random.default_rng(104)
    h = 1e-5
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        S = make_dataset(fam, rng, m=int(rng.integers(2, 6)))
        sets = random_augmented_sets(S, rng)
        beta = float(rng.uniform(0.4, 2.0))
        w = rng.normal(0.0, 0.8, size=fam.feature_dim)
        grad = log_gain_gradient(w, S, sets, beta)
        for j in range(fam.feature_dim):
            e = np.zeros(fam.feature_dim)
            e[j] = h
            fd = (log_gain(w + e, S, sets, beta) - log_gain(w - e, S, sets, beta)) / (2 * h)
            denom = max(abs(grad[j]), abs(fd), 1e-8)
            worst = max(worst, abs(grad[j] - fd) / denom)
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-5
    assert elapsed < 30.0
    report("4 gradient vs finite differences",
           f"max coordinate relative error = {worst:.2e} over 20 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. ordering equivalence of the proposal


def test_criterion_5_proposal_ordering_equivalence():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(105)
    outs = space(fam).outputs
    x = np.ones(fam.feature_dim)
    cfg = ProposalConfig(alpha=0.5, k=2)
    agree = 0
    for trial in range(50):
        w = rng.normal(0.0, 1.0, size=fam.feature_dim)
        # an order-preserving transform: positive scaling plus a global shift,
        # which shifts every score equally because each output here activates
        # the same number of pairs
        w_equiv = 1.7 * w + 0.3
        y = outs[int(rng.integers(len(outs)))]
        seed = 9000 + trial
        a = propose(fam, x, y, w, cfg, np.random.default_rng(seed))
        b = propose(fam, x, y, 2.0 * w, cfg, np.random.default_rng(seed))
        c = propose(fam, x, y, w_equiv, cfg, np.random.default_rng(seed))
        agree += (a == b == c)
    assert agree == 50
    report("5 proposal ordering equivalence", "identical draws in 50/50 trials "
                                              "(doubling and affine order-preserving maps)")


# ---------------------------------------------------------------------------
# 6. bound calculators against arbitrary precision


def test_criterion_6_bound_calculators():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(10, 200))
        s = int(rng.integers(1, min(d, 20)))
        m = int(rng.choice([25, 100, 400, 1600]))
        n = int(rng.integers(1, 40))
        r = int(rng.integers(2, 20000))
        delta = float(rng.uniform(0.01, 0.5))
        l1 = float(rng.uniform(0.0, 10.0))
        dd, ss, mm, nn, rr, de, ll = map(mpmath.mpf, (d, s, m, n, r, delta, l1))
        gen_hp = (2 * mpmath.sqrt(ss * (mpmath.log(dd) + 2 * mpmath.log(mm * rr)) / mm)
                  + 3 * mpmath.sqrt(mpmath.log(2 / de) / (2 * mm)))
        stat_hp = (2 * mpmath.sqrt(ss * (mpmath.log(dd) + 2 * mpmath.log(nn * rr)) / mm)
                   + mpmath.sqrt(mpmath.log(1 / de) / (2 * mm))
                   + mpmath.sqrt((ss * (mpmath.log(dd) + 2 * mpmath.log(mm * rr))
                                  + mpmath.log(1 / de)) / (2 * mm)))
        approx_hp = ll / mpmath.sqrt(mm) + 1 / (1 + mpmath.sqrt(mm))
        w = np.zeros(2)
        w[0] = l1
        worst = max(worst,
                    abs(generalization_bound(d, s, m, r, delta) - float(gen_hp)),
                    abs(statistical_error(d, s, n, r, m, delta) - float(stat_hp)),
                    abs(approximation_error(m, w) - float(approx_hp)))
    assert worst <= 1e-12

    for fn in (lambda m: generalization_bound(105, 11, m, 1365, 0.05),
               lambda m: statistical_error(105, 11, 10, 1365, m, 0.05),
               lambda m: approximation_error(m, np.array([2.0]))):
        vals = [fn(m) for m in (25, 100, 400, 1600)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
    report("6 bound calculators", f"max deviation from 50-digit evaluation = {worst:.2e}; "
                                  "monotone in m over {25,100,400,1600}")


# ---------------------------------------------------------------------------
# 7. the comparison experiment at protocol scale


FAMILIES = (SubsetFamily(4, 15), DagFamily(5, 2), SpanningTreeFamily(6))


@pytest.fixture(scope="module")
def comparison():
    tic = time.perf_counter()
    by_family = {}
    for family in FAMILIES:
        cfg = ExperimentConfig(family=family, m_train=100, m_test=100, repetitions=30,
                               l1_lambda=0.01, iterations=20, master_seed=2026)
        records = run_experiment(cfg)
        # run_repetition logs and drops a method that raises, so check that the
        # gates below average over every (repetition, method) pair
        assert sorted((r.repetition, r.method) for r in records) == sorted(
            (rep, m.value) for rep in range(cfg.repetitions) for m in cfg.methods)
        by_family[family] = records
    return by_family, time.perf_counter() - tic


def mean(records, method, field):
    vals = [getattr(r, field) for r in records if r.method == method]
    return float(np.mean(vals))


def test_criterion_7a_randomized_crf_is_at_least_twice_as_fast(comparison):
    by_family, elapsed = comparison
    lines = []
    for family, records in by_family.items():
        t_rand = mean(records, "crf_rand", "train_seconds")
        t_all = mean(records, "crf_all", "train_seconds")
        lines.append(f"{type(family).__name__}: {t_rand:.3f}s vs {t_all:.3f}s "
                     f"(x{t_all / t_rand:.1f})")
        assert t_rand <= 0.5 * t_all
    assert elapsed < 1800.0
    report("7a randomized speedup", "; ".join(lines) + f"; total {elapsed:.0f}s")


def test_criterion_7b_randomized_crf_hamming_competitive(comparison):
    by_family, _ = comparison
    lines = []
    for family, records in by_family.items():
        crf_rand = mean(records, "crf_rand", "test_hamming")
        svm_all_vals = np.array([r.test_hamming for r in records if r.method == "svm_all"])
        half_width = (stats.t.ppf(0.975, len(svm_all_vals) - 1)
                      * svm_all_vals.std(ddof=1) / math.sqrt(len(svm_all_vals)))
        lines.append(f"{type(family).__name__}: {crf_rand:.4f} vs "
                     f"{svm_all_vals.mean():.4f} +/- {half_width:.4f}")
        assert crf_rand <= svm_all_vals.mean() + half_width
    report("7b randomized test hamming", "; ".join(lines))


def test_criterion_7c_randomized_train_losses_below_exact(comparison):
    by_family, _ = comparison
    checked = 0
    for records in by_family.values():
        for r in records:
            if r.method in ("crf_rand", "svm_rand"):
                assert r.train_loss <= r.train_loss_exact + 1e-10
                checked += 1
    report("7c randomized-below-exact training losses", f"{checked} records checked")


def test_randomized_svm_is_faster_than_exact_svm(comparison):
    by_family, _ = comparison
    for family, records in by_family.items():
        assert mean(records, "svm_rand", "train_seconds") \
            < mean(records, "svm_all", "train_seconds")


def test_generalization_gap_within_total_bound(comparison):
    # sanity rather than a sharpness claim: the surrogate-risk radius must
    # never be violated by the observed test-minus-train gap
    from randcrf import BoundInputs, total_bound
    by_family, _ = comparison
    for family, records in by_family.items():
        sp = space(family)
        for r in records:
            if r.method != "crf_rand":
                continue
            w = np.zeros(2)
            w[0] = r.weight_l1
            bound = total_bound(w, BoundInputs(
                d=family.feature_dim, s=max(1, r.weight_support), m=100,
                n=max(1, int(r.set_size_max)), r=sp.size, delta=0.05))
            assert r.test_crf_loss - r.train_loss <= bound


# ---------------------------------------------------------------------------
# 8. support monotonicity


def test_criterion_8_support_monotonicity():
    fam = SubsetFamily(3, 8)
    rng = np.random.default_rng(108)
    sp = space(fam)
    violations = 0
    for _ in range(100):
        S = make_dataset(fam, rng, m=4)
        w = rng.normal(0.0, 1.0, size=fam.feature_dim)
        beta = float(rng.uniform(0.3, 2.0))
        small = random_augmented_sets(S, rng, max_extra=3)
        big = []
        for cs, y in zip(small, S.outputs):
            idx = {sp.index(o) for o in cs}
            idx |= {int(e) for e in rng.choice(sp.size, size=4, replace=False)}
            big.append(tuple(sp.outputs[i] for i in sorted(idx)))
        lo = randomized_loss(w, S, small, beta).per_sample
        hi = randomized_loss(w, S, big, beta).per_sample
        violations += int((lo > hi + 1e-12).sum())
    assert violations == 0
    report("8 support monotonicity", "0 violations over 100 nested instances")


# ---------------------------------------------------------------------------
# 9. byte-level determinism of the reproduction command


def strip_timing_columns(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = [i for i, name in enumerate(rows[0]) if name == "train_seconds"]
    return "\n".join(",".join(c for i, c in enumerate(row) if i not in drop) for row in rows)


def test_criterion_9_reproduce_determinism(tmp_path):
    args = ["reproduce", "--families", "set:3,8", "--reps", "3", "--m-train", "25",
            "--m-test", "25", "--iterations", "5", "--seed", "123"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    sa, sb = strip_timing_columns(a), strip_timing_columns(b)
    assert sa == sb
    report("9 reproduce determinism", f"{len(sa.splitlines()) - 1} records byte-identical "
                                      "across two runs (timing columns excluded)")
