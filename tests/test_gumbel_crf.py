import math

import numpy as np
import pytest
from scipy import stats

from randcrf import (CandidateSets, Dataset, DagFamily, Method, SpanningTreeFamily, SubsetFamily,
                     TrainConfig, as_candidate_sets, augment, crf_pmf, full_candidate_set,
                     generate_dataset, generate_ground_truth, gumbel_from_uniform, map_decode,
                     perturbed_decode, space, train_crf)
from randcrf.gumbel_crf import _support_scores, pmf_matrix

from oracles import exhaustive_map_decode, prob_of, random_instance

EULER_MASCHERONI = 0.5772156649015329

SET23 = SubsetFamily(2, 3)  # three outputs, one active pair each: scores = w entries


def scores_are_weights_setup():
    """With x all-ones on SubsetFamily(2,3), output {i,j} scores w[pair(i,j)],
    so the three outputs' scores are exactly the three weight entries."""
    return np.ones(SET23.feature_dim)


# ---------------------------------------------------------------------------
# Gumbel sampling


def test_inverse_cdf_at_one_over_e_is_zero():
    for beta in (1.0, 2.5, 0.1):
        assert gumbel_from_uniform(1.0 / math.e, beta) == pytest.approx(0.0, abs=1e-15)


def test_scale_doubles_draws_from_the_same_uniform_stream():
    u = np.random.default_rng(5).random(1000)
    np.testing.assert_allclose(gumbel_from_uniform(u, 2.0), 2.0 * gumbel_from_uniform(u, 1.0),
                               rtol=1e-15)


def test_empirical_mean_matches_euler_mascheroni():
    draws = gumbel_from_uniform(np.random.default_rng(7).random(10 ** 6), 1.0)
    assert abs(draws.mean() - EULER_MASCHERONI) < 0.005


def test_beta_must_be_positive():
    x, w = scores_are_weights_setup(), np.zeros(SET23.feature_dim)
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError, match="^beta must be finite and positive"):
            crf_pmf(SET23, x, w, full_candidate_set(SET23), beta)
        with pytest.raises(ValueError, match="^beta must be finite and positive"):
            pmf_matrix(space(SET23), x[None, :], w, beta)


# ---------------------------------------------------------------------------
# decoding


def test_map_decode_zero_weights_returns_first_canonical():
    fam = SubsetFamily(3, 6)
    assert map_decode(fam, np.ones(fam.feature_dim), np.zeros(fam.feature_dim)) \
        == space(fam).outputs[0]


def test_map_decode_singleton_space():
    fam = SubsetFamily(3, 3)
    outs = space(fam).outputs
    assert len(outs) == 1
    assert map_decode(fam, np.ones(fam.feature_dim), np.random.default_rng(0).normal(size=3)) \
        == outs[0]


@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SpanningTreeFamily(4)])
def test_map_decode_matches_exhaustive_scan(family):
    rng = np.random.default_rng(3)
    for _ in range(15):
        X, _, w = random_instance(family, rng, m=1)
        assert map_decode(family, X[0], w) == exhaustive_map_decode(family, X[0], w)


def test_perturbed_decode_zero_noise_is_map_decode():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(4)
    X, _, w = random_instance(fam, rng, m=1)
    r = space(fam).size
    assert perturbed_decode(fam, X[0], w, np.zeros(r)) == map_decode(fam, X[0], w)


def test_perturbed_decode_huge_noise_entry_wins():
    fam = SubsetFamily(2, 4)
    outs = space(fam).outputs
    gamma = np.zeros(len(outs))
    gamma[3] = 1e9
    assert perturbed_decode(fam, np.ones(fam.feature_dim), np.zeros(fam.feature_dim), gamma) \
        == outs[3]


def test_perturbed_decode_checks_gamma_length():
    fam = SubsetFamily(2, 4)
    with pytest.raises(ValueError):
        perturbed_decode(fam, np.ones(fam.feature_dim), np.zeros(fam.feature_dim), np.zeros(3))


def test_perturbed_decode_restricted_support():
    outs = space(SET23).outputs
    sub = (outs[0], outs[2])
    gamma = np.array([0.0, 1e9])
    got = perturbed_decode(SET23, scores_are_weights_setup(), np.zeros(3), gamma, support=sub)
    assert got == outs[2]


# ---------------------------------------------------------------------------
# CRF pmf


def test_equal_scores_give_half_half():
    outs = space(SET23).outputs
    sub = (outs[0], outs[1])
    for beta in (0.2, 1.0, 7.0):
        dist = crf_pmf(SET23, scores_are_weights_setup(), np.zeros(3), sub, beta)
        np.testing.assert_allclose(dist.probs, [0.5, 0.5])


def test_unit_score_gap_closed_form():
    outs = space(SET23).outputs
    sub = (outs[0], outs[1])
    w = np.array([1.0, 0.0, 0.0])  # scores (1, 0) for the two supported outputs
    dist = crf_pmf(SET23, scores_are_weights_setup(), w, sub, 1.0)
    np.testing.assert_allclose(dist.probs, [math.e / (1 + math.e), 1 / (1 + math.e)],
                               atol=1e-12)
    assert prob_of(dist, outs[0]) == pytest.approx(0.73106, abs=1e-5)


def test_large_beta_approaches_uniform():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(6)
    X, _, w = random_instance(fam, rng, m=1)
    dist = crf_pmf(fam, X[0], w, full_candidate_set(fam), 1e6)
    np.testing.assert_allclose(dist.probs, 1.0 / len(dist.probs), atol=1e-5)


def test_temperature_scaling_is_exact():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(7)
    X, _, w = random_instance(fam, rng, m=1)
    for beta in (0.05, 0.7, 13.0):
        a = crf_pmf(fam, X[0], w, full_candidate_set(fam), beta)
        b = crf_pmf(fam, X[0], w / beta, full_candidate_set(fam), 1.0)
        np.testing.assert_array_equal(a.probs, b.probs)


def test_restricted_pmf_on_full_support_matches_unrestricted():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(8)
    X, _, w = random_instance(fam, rng, m=1)
    full = full_candidate_set(fam)
    # equal outputs, but not the space's own tuple: the segment route
    as_sampled = list(full)
    a = crf_pmf(fam, X[0], w, full, 0.5)
    b = crf_pmf(fam, X[0], w, as_sampled, 0.5)
    # both supports take the same gather and the same normalizing sum
    np.testing.assert_array_equal(a.probs, b.probs)
    assert a.log_partition == b.log_partition
    assert a.support == b.support == full


@pytest.mark.parametrize("family", [SubsetFamily(4, 15), DagFamily(5, 1), SpanningTreeFamily(6)],
                         ids=repr)
def test_single_input_scores_match_the_batch_product(family):
    # a one-row BLAS product rounds unlike a product of many rows; the
    # gather that scores one input gives every output the batch's bits
    rng = np.random.default_rng(25)
    S = generate_dataset(family, generate_ground_truth(family, rng), 100, rng)
    w, _ = train_crf(S, TrainConfig(Method.CRF_ALL, iterations=20))
    sp = space(family)
    batch = sp.score_rows(S.bits * w)
    for i in range(S.m):
        np.testing.assert_array_equal(_support_scores(family, S.bits[i], w, None), batch[:, i])
        assert map_decode(family, S.bits[i], w) == sp.outputs[int(np.argmax(batch[:, i]))]


def test_additive_score_shift_cancels():
    # every SubsetFamily(2, u) output has exactly one active pair, so adding a
    # constant to all weights shifts every score by that constant
    fam = SubsetFamily(2, 4)
    rng = np.random.default_rng(9)
    w = rng.normal(size=fam.feature_dim)
    x = np.ones(fam.feature_dim)
    base = crf_pmf(fam, x, w, full_candidate_set(fam), 1.0)
    shifted = crf_pmf(fam, x, w + 123.456, full_candidate_set(fam), 1.0)
    np.testing.assert_allclose(base.probs, shifted.probs, atol=1e-12)


def test_pmf_matrix_agrees_with_per_sample_pmf():
    fam = SubsetFamily(3, 6)
    rng = np.random.default_rng(10)
    X, _, w = random_instance(fam, rng, m=5)
    probs, logz = pmf_matrix(space(fam), X.astype(np.float64), w, 0.7)
    for i in range(5):
        dist = crf_pmf(fam, X[i], w, full_candidate_set(fam), 0.7)
        np.testing.assert_allclose(probs[:, i], dist.probs, atol=1e-15)
        assert logz[i] == pytest.approx(dist.log_partition)


def test_perturbed_argmax_frequencies_match_pmf():
    fam = SubsetFamily(2, 4)  # six outputs
    rng = np.random.default_rng(11)
    x = np.ones(fam.feature_dim)
    w = rng.normal(0.0, 0.8, size=fam.feature_dim)
    beta = 1.0
    sp = space(fam)
    scores = sp.score_rows(x[None, :] * w)[:, 0]
    draws = 200_000
    gamma = gumbel_from_uniform(np.random.default_rng(12).random((draws, sp.size)), beta)
    counts = np.bincount(np.argmax(scores + gamma, axis=1), minlength=sp.size)
    expected = crf_pmf(fam, x, w, full_candidate_set(fam), beta).probs * draws
    assert stats.chisquare(counts, expected).pvalue > 0.01


# ---------------------------------------------------------------------------
# containers


def test_from_entries_matches_a_sorted_set_of_its_entries():
    fam = SubsetFamily(3, 6)
    size = space(fam).size
    rng = np.random.default_rng(24)
    for trial in range(200):
        m = int(rng.integers(1, 7))
        n = 0 if trial == 0 else int(rng.integers(0, 40))
        samples = rng.integers(0, m, n)
        indices = rng.integers(0, size, n)
        if m >= 3:  # leave the first, a middle and the last sample without entries
            keep = (samples != 0) & (samples != m // 2) & (samples != m - 1)
            samples, indices = samples[keep], indices[keep]
        given = samples.copy(), indices.copy()
        sets = CandidateSets.from_entries(fam, samples, indices, m)
        for i in range(m):
            want = sorted({int(j) for s, j in zip(samples, indices) if s == i})
            assert sets.indices[sets.offsets[i]:sets.offsets[i + 1]].tolist() == want
        np.testing.assert_array_equal(sets.samples, np.arange(m).repeat(sets.counts))
        assert sets.offsets[0] == 0 and sets.offsets[-1] == sets.indices.size
        # the entries given are left as they were
        np.testing.assert_array_equal(samples, given[0])
        np.testing.assert_array_equal(indices, given[1])
    # no entries at all
    empty = CandidateSets.from_entries(fam, np.zeros(0, dtype=np.int64),
                                       np.zeros(0, dtype=np.int64), 3)
    assert empty.offsets.tolist() == [0, 0, 0, 0] and empty.indices.size == 0
    assert list(empty) == [(), (), ()]
    assert as_candidate_sets([(), ()], fam, 2).offsets.tolist() == [0, 0, 0]


def test_candidate_set_rejects_duplicates():
    fam = SubsetFamily(3, 6)
    outs = space(fam).outputs
    x, w = np.ones(fam.feature_dim), np.zeros(fam.feature_dim)
    twice = (outs[4], outs[1], outs[4])
    with pytest.raises(ValueError, match="duplicate"):
        as_candidate_sets([(outs[0],), twice], fam, 2)
    with pytest.raises(ValueError, match="duplicate"):
        crf_pmf(fam, x, w, twice, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        perturbed_decode(fam, x, w, np.zeros(3), support=twice)
    # the same outputs in other samples are no repeat
    assert as_candidate_sets([(outs[4],), (outs[1], outs[4])], fam, 2).indices.tolist() == [4, 1, 4]


def test_candidate_sets_store_indices_and_give_per_sample_views():
    fam = SubsetFamily(3, 6)
    outs = space(fam).outputs
    lists = [(outs[7], outs[2]), (), [outs[5]]]
    sets = as_candidate_sets(lists, fam, 3)
    assert isinstance(sets, CandidateSets) and not sets.full_space
    assert sets.offsets.tolist() == [0, 2, 2, 3] and sets.indices.tolist() == [2, 7, 5]
    assert sets.samples.tolist() == [0, 0, 2] and sets.counts.tolist() == [2, 0, 1]
    assert len(sets) == 3 and len(sets[0]) == 2 and len(sets[-2]) == 0
    assert sets[0] == (outs[2], outs[7]) and outs[7] in sets[0]
    assert list(sets)[1:] == [(), (outs[5],)]
    assert as_candidate_sets(sets, fam, 3) is sets
    with pytest.raises(IndexError):
        sets[3]
    for bad in (lists[:2], lists + lists[:1]):
        with pytest.raises(ValueError, match="expected 3 candidate sets"):
            as_candidate_sets(bad, fam, 3)
    with pytest.raises(ValueError):
        as_candidate_sets(sets, SubsetFamily(3, 7), 3)


def test_full_space_candidate_sets_keep_offsets_only():
    fam = SubsetFamily(3, 6)
    full = full_candidate_set(fam)
    assert full is space(fam).outputs and len(full) == 20
    sets = as_candidate_sets([full] * 4, fam, 4)
    assert sets.full_space and sets._indices is None
    assert sets.counts.tolist() == [20] * 4
    assert sets.indices.tolist() == list(range(20)) * 4
    assert all(cs is full for cs in sets)
    # the same outputs, but not the space's own tuple, list every index
    for same in ([list(full)] * 4,
                 CandidateSets.from_entries(fam, np.arange(4).repeat(20), np.tile(np.arange(20), 4),
                                            4)):
        listed = as_candidate_sets(same, fam, 4)
        assert not listed.full_space
        np.testing.assert_array_equal(listed.indices, sets.indices)
        np.testing.assert_array_equal(listed.offsets, sets.offsets)


def scanned_fields(sets, y_idx):
    """The per-entry samples and the observed outputs' flat positions, found
    from the offsets and indices alone."""
    samples = np.arange(len(sets)).repeat(sets.counts)
    return samples, (sets.indices == y_idx[samples]).nonzero()[0]


def test_cached_candidate_set_fields_match_a_scan():
    fam = SubsetFamily(3, 6)
    outs = space(fam).outputs
    ys = (outs[3], outs[0], outs[19], outs[7])
    S = Dataset(fam, np.ones((4, fam.feature_dim)), ys)
    # sample 0 draws a single other output, sample 1 only its observed one,
    # sample 2 nothing, sample 3 several outputs around its observed one
    drawn = [(outs[5],), (outs[0],), (), (outs[2], outs[7], outs[11])]
    listed = as_candidate_sets(drawn, fam, 4)
    assert listed._samples is not None
    samples, _ = scanned_fields(listed, S.indices)
    np.testing.assert_array_equal(listed.samples, samples)
    merged = augment(drawn, S)
    assert merged.counts.tolist() == [2, 1, 1, 3]
    samples, observed = scanned_fields(merged, S.indices)
    np.testing.assert_array_equal(merged.samples, samples)
    np.testing.assert_array_equal(merged.observed_positions(S.indices), observed)
    np.testing.assert_array_equal(merged.observed_positions(S.indices.copy()), observed)
    # the full space keeps no samples: they are derived on request
    full = as_candidate_sets([full_candidate_set(fam)] * 4, fam, 4)
    assert full._samples is None
    samples, observed = scanned_fields(full, S.indices)
    np.testing.assert_array_equal(full.samples, samples)
    np.testing.assert_array_equal(full.observed_positions(S.indices), observed)


def test_crf_pmf_requires_nonempty_support():
    with pytest.raises(ValueError):
        crf_pmf(SET23, scores_are_weights_setup(), np.zeros(3), (), 1.0)
