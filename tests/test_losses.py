import numpy as np
import pytest

from randcrf import (CandidateSets, DagFamily, Dataset, LossKind, ProposalConfig,
                     SpanningTreeFamily, SubsetFamily, augment, build_candidate_sets, crf_pmf,
                     exact_crf_loss, full_candidate_set, hamming_loss, log_gain,
                     log_gain_gradient, log_likelihood_gradient, loss_gap, randomized_loss,
                     space)
from randcrf.gumbel_crf import pmf_matrix
from randcrf.spaces import EnumeratedSpace, StructuredOutput

from oracles import (augment_reference, exhaustive_map_decode, hamming, loss_gap_reference,
                     make_dataset, monte_carlo_loss, prob_of, random_augmented_sets,
                     random_instance, randomized_loss_reference)

SET36 = SubsetFamily(3, 6)  # r = 20


# ---------------------------------------------------------------------------
# exact loss


def test_exact_loss_uniform_weights():
    rng = np.random.default_rng(0)
    S, _ = make_dataset(SET36, rng, m=5)
    rep = exact_crf_loss(np.zeros(SET36.feature_dim), S, 1.0)
    np.testing.assert_allclose(rep.per_sample, 1.0 - 1.0 / 20)
    assert rep.value == pytest.approx(1.0 - 1.0 / 20)


def test_exact_loss_singleton_space_is_zero():
    fam = SubsetFamily(2, 2)
    y = space(fam).outputs[0]
    S = Dataset(fam, np.ones((3, fam.feature_dim), dtype=np.uint8), (y, y, y))
    assert exact_crf_loss(np.random.default_rng(1).normal(size=fam.feature_dim), S, 1.0).value == 0.0


def test_exact_loss_matches_monte_carlo():
    rng = np.random.default_rng(2)
    S, w = make_dataset(SET36, rng, m=4)
    exact = exact_crf_loss(w, S, 1.0)
    mc, stderr = monte_carlo_loss(w, S, 1.0, draws=100_000, seed=77)
    assert abs(exact.value - mc.value) < 3 * stderr + 1e-9


def test_exact_loss_invariant_under_permutation():
    rng = np.random.default_rng(3)
    S, w = make_dataset(SET36, rng, m=6)
    perm = np.random.default_rng(4).permutation(6)
    S2 = Dataset(S.family, S.inputs[perm], tuple(S.outputs[i] for i in perm))
    assert exact_crf_loss(w, S, 0.8).value == pytest.approx(exact_crf_loss(w, S2, 0.8).value,
                                                            abs=1e-14)


def test_dataset_rejects_invalid_structures():
    fam = SubsetFamily(2, 4)
    good = space(fam).outputs[3]
    bad = StructuredOutput(fam, (0,))  # wrong cardinality
    foreign = StructuredOutput(SubsetFamily(2, 5), (0, 1))  # valid components, other family
    X = np.ones((3, fam.feature_dim), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"^\(0,\) is not a valid structure of"):
        Dataset(fam, X, (good, bad, foreign))
    with pytest.raises(ValueError, match=r"^\(0, 1\) is a structure of .*, not of "):
        Dataset(fam, X, (good, foreign, bad))


def test_dataset_resolves_its_outputs_once(monkeypatch):
    fam = SpanningTreeFamily(4)
    X, ys, _ = random_instance(fam, np.random.default_rng(13), m=7)
    lookup, calls = EnumeratedSpace.indices, []

    def indices(self, outputs):
        calls.append(len(outputs))
        return lookup(self, outputs)

    monkeypatch.setattr(EnumeratedSpace, "indices", indices)
    S = Dataset(fam, X, ys)
    assert calls == [7]  # one lookup of all seven outputs
    assert S.indices.tolist() == [space(fam).index(y) for y in S.outputs]
    assert S.bits.dtype == np.float64 and np.array_equal(S.bits, S.inputs)


# ---------------------------------------------------------------------------
# randomized loss


def test_randomized_loss_singleton_support_is_zero():
    rng = np.random.default_rng(5)
    S, w = make_dataset(SET36, rng, m=5)
    sets = [(y,) for y in S.outputs]
    rep = randomized_loss(w, S, sets, 1.0)
    np.testing.assert_allclose(rep.per_sample, 0.0)
    assert rep.kind is LossKind.RANDOMIZED_AUGMENTED


def test_randomized_loss_on_full_space_equals_exact(monkeypatch):
    # the full support takes the segment path, so this compares it with the dense one
    from randcrf import losses
    calls = []

    def counted(*args):
        calls.append(args[0].full_space)
        return segment_pmfs(*args)

    segment_pmfs = losses._segment_pmfs
    monkeypatch.setattr(losses, "_segment_pmfs", counted)
    rng = np.random.default_rng(6)
    S, w = make_dataset(SET36, rng, m=5)
    full = [full_candidate_set(SET36)] * S.m
    for beta in (0.1, 1.0, 5.0):
        a = randomized_loss(w, S, full, beta)
        b = exact_crf_loss(w, S, beta)
        assert abs(a.value - b.value) <= 1e-12
        np.testing.assert_allclose(a.per_sample, b.per_sample, atol=1e-12)
    assert calls == [True] * 3


def test_randomized_loss_never_exceeds_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        S, w = make_dataset(SET36, rng, m=5)
        sets = random_augmented_sets(S, rng, max_extra=4)
        assert (randomized_loss(w, S, sets, 1.0).per_sample
                <= exact_crf_loss(w, S, 1.0).per_sample + 1e-12).all()


def test_randomized_loss_requires_observed_output():
    rng = np.random.default_rng(8)
    S, w = make_dataset(SET36, rng, m=2)
    sp = space(SET36)
    other = sp.outputs[(sp.index(S.outputs[0]) + 1) % sp.size]
    sets = [(other,),
            (S.outputs[1],)]
    with pytest.raises(ValueError):
        randomized_loss(w, S, sets, 1.0)


# ---------------------------------------------------------------------------
# the Gumbel scale


SCALE_ENTRY_POINTS = {
    "pmf_matrix": lambda w, S, sets, beta: pmf_matrix(space(S.family), S.bits, w, beta),
    "exact_crf_loss": lambda w, S, sets, beta: exact_crf_loss(w, S, beta),
    "randomized_loss": randomized_loss,
    "loss_gap": loss_gap,
    "crf_pmf": lambda w, S, sets, beta: crf_pmf(S.family, S.inputs[0], w, sets[0], beta),
    "log_gain": log_gain,
    "log_gain_gradient": log_gain_gradient,
    "log_likelihood_gradient": log_likelihood_gradient,
}


@pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
def test_every_function_of_a_scale_refuses_a_bad_one(entry):
    # one check and one message: beta finite and positive, and 1 / beta
    # finite; an infinite beta used to give the uniform distribution's loss,
    # a subnormal one NaN, and the gradients at w = 0 inf
    fn = SCALE_ENTRY_POINTS[entry]
    rng = np.random.default_rng(21)
    S, w = make_dataset(SET36, rng, m=3)
    sets = random_augmented_sets(S, rng, max_extra=4)
    zero = np.zeros(SET36.feature_dim)
    for beta in (np.inf, -np.inf, np.nan, 0.0, -1.0, 1e-320):
        for weights in (w, zero):
            with pytest.raises(ValueError, match=r"^beta must be finite and positive, with "
                                                 rf"1 / beta finite; got {beta}$"):
                fn(weights, S, sets, beta)
    # weights that are not finite, or overflow when scaled, have messages of
    # their own
    with pytest.raises(ValueError, match=r"^weights must be finite$"):
        fn(np.full(SET36.feature_dim, np.nan), S, sets, 1.0)
    with pytest.raises(ValueError, match=r"^w / beta overflows at beta = 1e-300$"):
        fn(np.full(SET36.feature_dim, 1e10), S, sets, 1e-300)
    # a tiny scale is fine where w / beta stays finite
    fn(zero, S, sets, 1e-300)
    fn(w, S, sets, 0.5)


# ---------------------------------------------------------------------------
# loss gap identity


def test_gap_is_zero_on_full_support():
    rng = np.random.default_rng(9)
    S, w = make_dataset(SET36, rng, m=5)
    assert loss_gap(w, S, [full_candidate_set(SET36)] * S.m, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_gap_singleton_uniform_closed_form():
    rng = np.random.default_rng(10)
    S, _ = make_dataset(SET36, rng, m=3)
    sets = [(y,) for y in S.outputs]
    r = space(SET36).size
    got = loss_gap(np.zeros(SET36.feature_dim), S, sets, 1.0)
    assert got == pytest.approx(-(r - 1) / r)


def test_gap_equals_loss_difference():
    rng = np.random.default_rng(11)
    for _ in range(30):
        S, w = make_dataset(SET36, rng, m=5)
        sets = random_augmented_sets(S, rng, max_extra=4)
        beta = float(rng.uniform(0.2, 3.0))
        gap = loss_gap(w, S, sets, beta)
        diff = randomized_loss(w, S, sets, beta).value - exact_crf_loss(w, S, beta).value
        assert abs(gap - diff) <= 1e-10
        assert gap <= 1e-15


def test_monotone_in_support():
    rng = np.random.default_rng(12)
    sp = space(SET36)
    for _ in range(20):
        S, w = make_dataset(SET36, rng, m=4)
        small = random_augmented_sets(S, rng, max_extra=3)
        big = []
        for cs, y in zip(small, S.outputs):
            idx = {sp.index(o) for o in cs}
            idx |= {int(e) for e in rng.choice(sp.size, size=3, replace=False)}
            big.append(tuple(sp.outputs[i] for i in sorted(idx)))
        lo = randomized_loss(w, S, small, 1.0).per_sample
        hi = randomized_loss(w, S, big, 1.0).per_sample
        assert (lo <= hi + 1e-12).all()


def test_outputs_of_another_family_are_rejected():
    # (0, 1) of set:2,5 shares its components with (0, 1) of set:2,6
    fam, other = SubsetFamily(2, 6), SubsetFamily(2, 5)
    y = StructuredOutput(fam, (2, 3))
    foreign = StructuredOutput(other, (0, 1))
    S = Dataset(fam, np.ones((1, fam.feature_dim), dtype=np.uint8), (y,))
    sets = [(foreign, y)]
    assert y in sets[0] and StructuredOutput(fam, (0, 1)) not in sets[0]
    with pytest.raises(ValueError, match="not of SubsetFamily"):
        augment(sets, S)
    with pytest.raises(ValueError, match="not of SubsetFamily"):
        randomized_loss(np.zeros(fam.feature_dim), S, sets, 1.0)
    with pytest.raises(ValueError, match="not of SubsetFamily"):
        space(fam).index(foreign)


# ---------------------------------------------------------------------------
# segment reductions against the per-sample loops


def _raw_and_augmented_sets(S, w, rng):
    """Candidate sets before augmentation (random singletons, mixed sizes
    with and without the observed output, the full space listed output by
    output, proposal draws at alpha = 1) and sets that already hold every
    observed output (singletons of it, mixed sizes, the full space with every
    index listed, and the full space itself)."""
    sp = space(S.family)
    full = full_candidate_set(S.family)

    def pick(n):
        return tuple(sp.outputs[i] for i in sorted(rng.choice(sp.size, n, replace=False)))

    raw = [
        [pick(1) for _ in range(S.m)],
        [pick(int(rng.integers(0, 7))) for _ in range(S.m)],
        [list(full)] * S.m,
        build_candidate_sets(S.family, S, w, ProposalConfig(alpha=1.0, k=2, n_target=4),
                             np.random.default_rng(int(rng.integers(1 << 30)))),
    ]
    augmented = [
        [(y,) for y in S.outputs],
        random_augmented_sets(S, rng, max_extra=6),
        CandidateSets.from_entries(S.family, np.arange(S.m).repeat(sp.size),
                                   np.tile(np.arange(sp.size), S.m), S.m),
        [full] * S.m,
    ]
    return raw, augmented


@pytest.mark.parametrize("family", [SET36, SpanningTreeFamily(4), DagFamily(3, 2)])
def test_segment_losses_match_per_sample_loops(family):
    rng = np.random.default_rng(20)
    for _ in range(3):
        S, w = make_dataset(family, rng, m=8)
        raw, augmented = _raw_and_augmented_sets(S, w, rng)
        for sets in raw:
            merged = augment(sets, S)
            assert [[o.components for o in cs] for cs in merged] \
                == augment_reference(sets, S)
            augmented.append(merged)
        for sets in augmented:
            for beta in (0.3, 1.0, 4.0):
                got = randomized_loss(w, S, sets, beta).per_sample
                np.testing.assert_allclose(got, randomized_loss_reference(w, S, sets, beta),
                                           rtol=0, atol=1e-12)
                assert abs(loss_gap(w, S, sets, beta)
                           - loss_gap_reference(w, S, sets, beta)) <= 1e-12


@pytest.mark.parametrize("family", [SET36, SpanningTreeFamily(4), DagFamily(3, 2)])
def test_crf_pmf_over_a_sampled_set_matches_randomized_loss(family):
    # crf_pmf scores a listed support by the gather the restricted losses use
    rng = np.random.default_rng(21)
    for beta in (0.3, 1.0, 4.0):
        S, w = make_dataset(family, rng, m=8)
        sets = augment(build_candidate_sets(family, S, w, ProposalConfig(alpha=0.5, k=2,
                                                                         n_target=3), rng), S)
        per_sample = randomized_loss(w, S, sets, beta).per_sample
        for i in range(S.m):
            dist = crf_pmf(family, S.inputs[i], w, sets[i], beta)
            assert abs(prob_of(dist, S.outputs[i]) - (1.0 - per_sample[i])) <= 1e-15


# ---------------------------------------------------------------------------
# Monte-Carlo loss


def test_monte_carlo_singleton_space_is_zero():
    fam = SubsetFamily(2, 2)
    y = space(fam).outputs[0]
    S = Dataset(fam, np.ones((2, fam.feature_dim), dtype=np.uint8), (y, y))
    rep, _ = monte_carlo_loss(np.zeros(fam.feature_dim), S, 1.0, draws=100, seed=0)
    assert rep.value == 0.0


def test_monte_carlo_two_outputs_coin_flip():
    fam = SubsetFamily(1, 2)  # two outputs, no active pairs: always a tie broken by noise
    y = space(fam).outputs[0]
    S = Dataset(fam, np.ones((1, fam.feature_dim), dtype=np.uint8), (y,))
    rep, stderr = monte_carlo_loss(np.zeros(fam.feature_dim), S, 1.0, draws=10 ** 6, seed=13)
    assert abs(rep.value - 0.5) < 0.0015  # three binomial standard errors
    assert stderr == pytest.approx(np.sqrt(rep.value * (1 - rep.value) / 10 ** 6), rel=1e-6)


def test_monte_carlo_rejects_zero_draws():
    rng = np.random.default_rng(14)
    S, w = make_dataset(SET36, rng, m=1)
    with pytest.raises(ValueError):
        monte_carlo_loss(w, S, 1.0, draws=0, seed=0)


# ---------------------------------------------------------------------------
# Hamming loss


def test_hamming_loss_zero_when_decoder_recovers_truth():
    fam = SubsetFamily(3, 7)
    rng = np.random.default_rng(15)
    w_star = rng.normal(0.0, 10.0, size=fam.feature_dim)
    X = rng.integers(0, 2, size=(20, fam.feature_dim), dtype=np.uint8)
    ys = tuple(exhaustive_map_decode(fam, x, w_star) for x in X)
    S = Dataset(fam, X, ys)
    assert hamming_loss(w_star, S).value == 0.0


def test_hamming_loss_one_when_decoder_always_disjoint():
    fam = SubsetFamily(2, 4)
    truth = StructuredOutput(fam, (2, 3))
    x = np.ones(fam.feature_dim, dtype=np.uint8)
    w = np.zeros(fam.feature_dim)
    w[0] = 5.0  # decoder picks {0, 1}, disjoint from the truth
    S = Dataset(fam, x[None, :], (truth,))
    assert hamming_loss(w, S).value == 1.0


@pytest.mark.parametrize("family", [SET36, SpanningTreeFamily(4)])
def test_hamming_loss_matches_brute_force(family):
    rng = np.random.default_rng(16)
    S, _ = make_dataset(family, rng, m=6)
    w = rng.normal(size=family.feature_dim)
    want = np.mean([hamming(exhaustive_map_decode(family, S.inputs[i], w), S.outputs[i])
                    for i in range(S.m)])
    assert hamming_loss(w, S).value == pytest.approx(want)


# ---------------------------------------------------------------------------
# report invariants


def test_probabilistic_losses_live_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(10):
        S, w = make_dataset(SET36, rng, m=5)
        sets = random_augmented_sets(S, rng, max_extra=4)
        for rep in (exact_crf_loss(w, S, 0.5), randomized_loss(w, S, sets, 0.5),
                    hamming_loss(w, S)):
            assert (0.0 <= rep.per_sample).all() and (rep.per_sample <= 1.0).all()
            assert rep.value == pytest.approx(rep.per_sample.mean())


def test_loss_report_csv_row():
    rng = np.random.default_rng(18)
    S, w = make_dataset(SET36, rng, m=2)
    rep = exact_crf_loss(w, S, 1.0)
    assert rep.csv_row("runA", "crf_all") == ("runA", "crf_all", "exact_crf", rep.value)
