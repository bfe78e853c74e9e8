import itertools

import numpy as np
import pytest
from scipy import stats

from randcrf import (Dataset, DagFamily, SpanningTreeFamily, SubsetFamily, alpha_schedule,
                     as_candidate_sets, augment, build_candidate_sets, propose,
                     proposal_quality_frequency, space)
from randcrf.proposal import ProposalConfig

from oracles import brute_force_tree_components, neighbors_k, propose_reference, random_instance

SET14 = SubsetFamily(1, 4)  # featureless: every score is zero
SET36 = SubsetFamily(3, 6)


def make_dataset(family, rng, m=6):
    X, ys, _ = random_instance(family, rng, m=m)
    return Dataset(family, X, ys)


# ---------------------------------------------------------------------------
# single draws


def test_dominant_observed_structure_is_returned():
    # w rewards exactly the observed pair, so no neighbor can match its score
    fam = SubsetFamily(2, 4)
    y = space(fam).outputs[0]  # {0, 1}
    w = np.zeros(fam.feature_dim)
    w[0] = 3.0
    cfg = ProposalConfig(alpha=0.0, k=2)
    x = np.ones(fam.feature_dim)
    for seed in range(20):
        assert propose(fam, x, y, w, cfg, np.random.default_rng(seed)) == y


def test_zero_weights_return_last_neighbor_in_canonical_order():
    # all scores tie, every comparison accepts, so the pass ends at the final
    # neighbor; for {1} in a three-element singleton family that is {2}
    fam = SubsetFamily(1, 3)
    outs = space(fam).outputs
    cfg = ProposalConfig(alpha=0.0, k=2)
    x = np.ones(fam.feature_dim)
    got = propose(fam, x, outs[1], np.zeros(fam.feature_dim), cfg, np.random.default_rng(0))
    assert got == outs[2]
    nbs = neighbors_k(fam, outs[1], 2)
    assert got == nbs[-1]


@pytest.mark.parametrize("family", [SET36, SubsetFamily(2, 5), SpanningTreeFamily(4)])
def test_propose_matches_literal_reference(family):
    rng = np.random.default_rng(1)
    x_ones = np.ones(family.feature_dim)
    outs = space(family).outputs
    for trial in range(40):
        # integer weights make all score comparisons exact
        w = rng.integers(-3, 4, size=family.feature_dim).astype(np.float64)
        y = outs[int(rng.integers(len(outs)))]
        alpha = float(rng.choice([0.0, 0.3, 1.0]))
        k = int(rng.choice([1, 2, 3]))
        cfg = ProposalConfig(alpha=alpha, k=k)
        seed = 1000 + trial
        got = propose(family, x_ones, y, w, cfg, np.random.default_rng(seed))
        want = propose_reference(family, x_ones, y, w, cfg, np.random.default_rng(seed))
        assert got == want


def exact_exploration_pmf(fam, x, w, k):
    """With alpha = 1 the start is uniform and the end is a deterministic
    function of it, so the output pmf follows by enumerating starts."""
    outs = space(fam).outputs
    sp = space(fam)
    pmf = np.zeros(len(outs))
    for start in outs:
        fixed = propose_reference(fam, x, start, w, ProposalConfig(alpha=0.0, k=k),
                                  np.random.default_rng(0))
        pmf[sp.index(fixed)] += 1.0 / len(outs)
    return pmf


@pytest.mark.parametrize("k,draws", [(2, 30_000), (4, 5_000)])
def test_exploration_distribution_matches_exhaustive_simulation(k, draws):
    fam = SubsetFamily(2, 6)  # 15 outputs; k = 4 is the full diameter
    rng = np.random.default_rng(2)
    w = rng.normal(size=fam.feature_dim)
    x = np.ones(fam.feature_dim)
    cfg = ProposalConfig(alpha=1.0, k=k)
    outs = space(fam).outputs
    sp = space(fam)

    pmf = exact_exploration_pmf(fam, x, w, k)
    gen = np.random.default_rng(3)
    counts = np.zeros(len(outs))
    for _ in range(draws):
        counts[sp.index(propose(fam, x, outs[0], w, cfg, gen))] += 1

    keep = pmf > 0
    assert counts[~keep].sum() == 0
    if keep.sum() == 1:
        # past the diameter every start walks to the global argmax
        assert counts[keep][0] == draws
    else:
        assert stats.chisquare(counts[keep], pmf[keep] * draws).pvalue > 0.01


# ---------------------------------------------------------------------------
# candidate sets


def test_single_draw_sets_are_singletons():
    rng = np.random.default_rng(4)
    S = make_dataset(SET36, rng)
    sets = build_candidate_sets(SET36, S, np.zeros(SET36.feature_dim),
                                ProposalConfig(alpha=1.0, k=2, n_target=1),
                                np.random.default_rng(5))
    assert all(len(cs) == 1 for cs in sets)


def test_deterministic_proposals_collapse_after_dedup():
    # alpha = 0 makes every draw identical, so n_target does not matter
    rng = np.random.default_rng(6)
    S = make_dataset(SET36, rng)
    w = rng.normal(size=SET36.feature_dim)
    sets = build_candidate_sets(SET36, S, w, ProposalConfig(alpha=0.0, k=2, n_target=7),
                                np.random.default_rng(7))
    assert all(len(cs) == 1 for cs in sets)


def test_set_sizes_bounded_by_sqrt_m():
    rng = np.random.default_rng(8)
    S = make_dataset(SET36, rng, m=100)
    sets = build_candidate_sets(SET36, S, rng.normal(size=SET36.feature_dim),
                                ProposalConfig(alpha=1.0, k=2, n_target=10),
                                np.random.default_rng(9))
    assert max(len(cs) for cs in sets) <= 10


def assert_build_equals_draws(family, S, w, cfg, draw):
    """build_candidate_sets against n_target sequential ``draw`` calls per
    sample on one generator, samples outermost."""
    sets = build_candidate_sets(family, S, w, cfg, np.random.default_rng(42))

    gen = np.random.default_rng(42)
    for i, (x, y) in enumerate(zip(S.inputs, S.outputs)):
        drawn = {draw(family, x, y, w, cfg, gen).components for _ in range(cfg.n_target)}
        assert {o.components for o in sets[i]} == drawn
        assert [o.components for o in sets[i]] == sorted(sets[i][j].components
                                                                 for j in range(len(sets[i])))
    return sets


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_build_equals_sequential_propose_invocations(alpha):
    rng = np.random.default_rng(10)
    S = make_dataset(SET36, rng, m=8)
    w = rng.integers(-3, 4, size=SET36.feature_dim).astype(np.float64)
    cfg = ProposalConfig(alpha=alpha, k=2, n_target=5)
    assert_build_equals_draws(SET36, S, w, cfg, propose)
    # integer weights tie often, so many passes end at the last neighbor of
    # their start; the oracle's brute-force neighborhoods then catch a neighbor
    # table that drops entries (propose reads that table too)
    assert_build_equals_draws(SET36, S, w, cfg, propose_reference)

    # the batched pass against the literal oracle with real-valued weights:
    # on dag:5,2 at radius 4 (segments of hundreds to thousands of outputs),
    # on 4-of-15 subsets, on 2-subsets at radius 1, where no output has a
    # neighbor (a swap moves distance 2) and every draw must return its
    # start, and on DAGs at the protocol radius 2
    for family, k in ((DagFamily(5, 2), 4), (SubsetFamily(4, 15), 2), (SubsetFamily(2, 5), 1),
                      (DagFamily(5, 1), 2), (DagFamily(5, 2), 2)):
        S = make_dataset(family, rng, m=6)
        w = rng.normal(size=family.feature_dim)
        sets = assert_build_equals_draws(family, S, w, ProposalConfig(alpha=alpha, k=k, n_target=3),
                                         propose_reference)
        if k == 1 and alpha == 0.0:
            assert [cs for cs in sets] == [(y,) for y in S.outputs]


def test_pass_keeps_starts_without_neighbors():
    # emptied neighbor lists for every other output leave one-entry segments
    # (the start alone) between ordinary ones
    from types import SimpleNamespace
    from randcrf.proposal import _greedy_pairs

    sp = space(SET36)
    indptr, data = sp.neighbor_csr(2)
    keep = np.arange(sp.size) % 2 == 0
    counts = np.where(keep, np.diff(indptr), 0)
    sparse_indptr = np.concatenate([[0], np.cumsum(counts)])
    sparse_data = np.concatenate([data[indptr[i]:indptr[i + 1]] for i in np.flatnonzero(keep)])
    stub = SimpleNamespace(size=sp.size, gather_scores=sp.gather_scores,
                           neighbor_csr=lambda k: (sparse_indptr, sparse_data))
    rng = np.random.default_rng(21)
    xw = rng.integers(-3, 4, size=(4, SET36.feature_dim)).astype(np.float64)
    pair_smp = np.repeat(np.arange(4), 5)
    pair_start = rng.integers(0, sp.size, pair_smp.size)
    ends = _greedy_pairs(stub, xw, pair_smp, pair_start, 2)
    scores = xw @ sp.incidence.T
    for i, start, end in zip(pair_smp, pair_start, ends):
        current = start
        for nb in sparse_data[sparse_indptr[start]:sparse_indptr[start + 1]]:
            if scores[i, nb] >= scores[i, current]:
                current = nb
        assert end == current


def test_build_refuses_another_family_before_drawing():
    # S's positions read in another space are other outputs: set:2,6 would
    # return (0, 1) for an observed (0, 1, 2)
    S = make_dataset(SET36, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"SubsetFamily\(k=3, universe=6\).*"
                                         r"SubsetFamily\(k=2, universe=6\)"):
        build_candidate_sets(SubsetFamily(2, 6), S, np.zeros(SET36.feature_dim),
                             ProposalConfig(alpha=0.5, k=2, n_target=3), rng)
    assert rng.bit_generator.state == state


def test_build_is_deterministic():
    rng = np.random.default_rng(11)
    S = make_dataset(SET36, rng)
    w = rng.normal(size=SET36.feature_dim)
    cfg = ProposalConfig(alpha=0.5, k=2, n_target=4)
    a = build_candidate_sets(SET36, S, w, cfg, np.random.default_rng(33))
    b = build_candidate_sets(SET36, S, w, cfg, np.random.default_rng(33))
    assert [[o.components for o in cs] for cs in a] \
        == [[o.components for o in cs] for cs in b]


def test_every_candidate_is_valid():
    rng = np.random.default_rng(12)
    oracles = {SET36: set(itertools.combinations(range(6), 3)),
               SpanningTreeFamily(4): brute_force_tree_components(4)}
    for family, valid in oracles.items():
        S = make_dataset(family, rng)
        sets = build_candidate_sets(family, S, rng.normal(size=family.feature_dim),
                                    ProposalConfig(alpha=1.0, k=2, n_target=6),
                                    np.random.default_rng(13))
        for cs in sets:
            for y in cs:
                assert y.components in valid


# ---------------------------------------------------------------------------
# augmentation


def test_augment_adds_missing_observed_output():
    rng = np.random.default_rng(14)
    S = make_dataset(SET36, rng, m=3)
    sp = space(SET36)
    empty = ()
    keeps = (S.outputs[1],)
    other = sp.outputs[(sp.index(S.outputs[2]) + 1) % sp.size]
    sets = augment([empty, keeps, (other,)], S)
    assert [o.components for o in sets[0]] == [S.outputs[0].components]
    assert len(sets[1]) == 1  # union is idempotent
    assert len(sets[2]) == 2
    for cs, y in zip(sets, S.outputs):
        assert y in cs


def test_augment_grows_by_at_most_one():
    rng = np.random.default_rng(15)
    S = make_dataset(SET36, rng, m=20)
    sets = build_candidate_sets(SET36, S, rng.normal(size=SET36.feature_dim),
                                ProposalConfig(alpha=1.0, k=2, n_target=5),
                                np.random.default_rng(16))
    for before, after in zip(sets, augment(sets, S)):
        assert len(after) in (len(before), len(before) + 1)


# ---------------------------------------------------------------------------
# schedules and equivalence


def test_alpha_schedule_values():
    assert alpha_schedule(np.zeros(4), 100) == 0.0
    w = np.array([1.5, -0.5])
    assert alpha_schedule(w, 100) == pytest.approx(0.2)
    assert alpha_schedule(np.array([25.0, -25.0]), 4) == 1.0
    with pytest.raises(ValueError):
        alpha_schedule(w, 0)


def test_ordering_equivalent_weights_give_identical_draws():
    rng = np.random.default_rng(17)
    outs = space(SET36).outputs
    x = np.ones(SET36.feature_dim)
    cfg = ProposalConfig(alpha=0.5, k=2)
    for trial in range(30):
        w = rng.normal(size=SET36.feature_dim)
        y = outs[int(rng.integers(len(outs)))]
        seed = 500 + trial
        a = propose(SET36, x, y, w, cfg, np.random.default_rng(seed))
        b = propose(SET36, x, y, 2.0 * w, cfg, np.random.default_rng(seed))
        assert a == b


def test_proposal_config_validation():
    for bad in (dict(alpha=-0.1), dict(alpha=1.1), dict(alpha=0.5, k=0),
                dict(alpha=0.5, n_target=0)):
        with pytest.raises(ValueError):
            ProposalConfig(**bad)


def test_candidate_sets_ignore_other_samples_labels():
    # T_i may depend on y_i (the start of the non-exploring branch) but never
    # on the observed structures of other samples
    rng = np.random.default_rng(19)
    S = make_dataset(SET36, rng, m=5)
    outs = space(SET36).outputs
    j = 2
    swapped = list(S.outputs)
    swapped[j] = next(y for y in outs if y.components != S.outputs[j].components)
    S2 = Dataset(S.family, S.inputs, tuple(swapped))
    w = rng.normal(size=SET36.feature_dim)
    cfg = ProposalConfig(alpha=0.5, k=2, n_target=4)
    a = build_candidate_sets(SET36, S, w, cfg, np.random.default_rng(77))
    b = build_candidate_sets(SET36, S2, w, cfg, np.random.default_rng(77))
    for i in range(5):
        if i != j:
            assert [o.components for o in a[i]] == [o.components for o in b[i]]


def test_quality_frequency_trivial_cases():
    rng = np.random.default_rng(18)
    S = make_dataset(SET36, rng, m=4)
    singletons = [(y,) for y in S.outputs]
    # zero weights: no observed structure is a strict maximizer, and all scores
    # tie, so the mean-score condition holds for every set
    assert proposal_quality_frequency(S, np.zeros(SET36.feature_dim), singletons) == 1.0


def test_quality_frequency_refuses_another_familys_sets():
    # set:2,6 sets on a set:3,6 dataset: the dataset names the family, so
    # the sets are looked up in its space and refused
    rng = np.random.default_rng(18)
    S = make_dataset(SET36, rng, m=4)
    other = SubsetFamily(2, 6)
    outs = space(other).outputs
    w = np.zeros(SET36.feature_dim)
    with pytest.raises(ValueError, match="is a structure of SubsetFamily"):
        proposal_quality_frequency(S, w, [(outs[i],) for i in range(4)])
    with pytest.raises(ValueError, match="candidate sets of SubsetFamily"):
        proposal_quality_frequency(S, w, as_candidate_sets([outs[:3]] * 4, other, 4))
