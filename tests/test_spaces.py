import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcrf import (Dataset, DagFamily, FamilyTooLargeError, SpanningTreeFamily,
                     StructuredOutput, SubsetFamily, crf_pmf, feature_map, full_candidate_set,
                     make_input, space)
from randcrf import spaces
from randcrf.spaces import ordered_pair_index, unordered_pair_index

from oracles import (brute_force_dag_components, brute_force_tree_components,
                     component_distance, edge_of, feature_indices_reference,
                     feature_sums_reference, gather_scores_reference, hamming,
                     incidence_reference, masks_reference, neighbor_csr_references,
                     neighbor_indices, neighbors_k, tuple_space)

SET_4_15 = SubsetFamily(4, 15)
TREE6 = SpanningTreeFamily(6)


# ---------------------------------------------------------------------------
# pair indexing


def test_unordered_pair_index_is_a_bijection():
    n = 7
    seen = [unordered_pair_index(i, j, n) for i, j in itertools.combinations(range(n), 2)]
    assert sorted(seen) == list(range(math.comb(n, 2)))
    assert unordered_pair_index(4, 1, n) == unordered_pair_index(1, 4, n)


def test_ordered_pair_index_is_a_bijection():
    n = 6
    seen = [ordered_pair_index(i, j, n) for i in range(n) for j in range(n) if i != j]
    assert sorted(seen) == list(range(n * (n - 1)))
    with pytest.raises(ValueError):
        ordered_pair_index(2, 2, n)


# ---------------------------------------------------------------------------
# enumeration counts


def test_subset_4_of_15_has_1365_outputs():
    assert len(space(SET_4_15).outputs) == 1365


def test_singleton_subsets():
    outs = space(SubsetFamily(1, 3)).outputs
    assert [y.components for y in outs] == [(0,), (1,), (2,)]


@pytest.mark.parametrize("v", [3, 4, 5, 6])
def test_tree_enumeration_matches_brute_force(v):
    got = {y.components for y in space(SpanningTreeFamily(v)).outputs}
    assert got == brute_force_tree_components(v)
    assert len(got) == v ** (v - 1)


@pytest.mark.parametrize("v,p", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_dag_enumeration_matches_brute_force(v, p):
    got = {y.components for y in space(DagFamily(v, p)).outputs}
    assert got == brute_force_dag_components(v, p)


def brute_force_components(family):
    """The component tuples of every valid structure, found without the space:
    a subset's are the sorted tuples of length k."""
    if isinstance(family, SubsetFamily):
        return set(itertools.combinations(range(family.universe), family.k))
    if isinstance(family, DagFamily):
        return brute_force_dag_components(family.num_nodes, family.max_parents)
    return brute_force_tree_components(family.num_nodes)


@pytest.mark.parametrize("family", [
    SubsetFamily(2, 4), SubsetFamily(3, 6), SpanningTreeFamily(3), SpanningTreeFamily(4),
    DagFamily(3, 1), DagFamily(3, 2), DagFamily(4, 1), DagFamily(4, 3),
], ids=repr)
def test_indices_accepts_exactly_the_brute_force_structures(family):
    sp = space(family)
    oracle = brute_force_components(family)
    # every strictly sorted component tuple, valid or not
    c = family.component_count
    for bits in range(2 ** c):
        comps = tuple(i for i in range(c) if bits >> i & 1)
        y = StructuredOutput(family, comps)
        if comps in oracle:
            assert sp.outputs[int(sp.indices((y,))[0])] == y
        else:
            with pytest.raises(ValueError, match="is not a valid structure of"):
                sp.indices((y,))
    # unsorted, repeated and out-of-range components: refused when built or
    # when looked up, as the loader does both in one step
    y = max(oracle, key=len)
    for comps in (y[::-1], y[:1] * 2 + y[2:], y[:-1] + (c,), (-1,) + y[1:]):
        with pytest.raises(ValueError):
            sp.indices((StructuredOutput(family, comps),))


@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(3, 2)])
def test_enumeration_sorted_unique_and_valid(family):
    outs = space(family).outputs
    keys = [y.components for y in outs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert set(keys) == brute_force_components(family)
    for y in outs:
        assert tuple(sorted(set(y.components))) == y.components  # canonical form is a fixpoint


def test_enumeration_budget_is_enforced_not_truncated():
    with pytest.raises(FamilyTooLargeError):
        space(SpanningTreeFamily(12))
    with pytest.raises(FamilyTooLargeError):
        space(SubsetFamily(8, 30))  # 5,852,925 outputs


def test_subset_budget_is_checked_before_enumerating(monkeypatch):
    monkeypatch.setattr(spaces.itertools, "combinations", lambda *_: pytest.fail("enumerated"))
    with pytest.raises(FamilyTooLargeError, match="5852925 outputs exceed"):
        space(SubsetFamily(8, 30))


def test_num_outputs_reported_by_family():
    assert SET_4_15.num_outputs == 1365
    assert TREE6.num_outputs == 7776
    assert DagFamily(3, 1).num_outputs == 16


# ---------------------------------------------------------------------------
# feature map


def test_feature_map_single_pair():
    fam = SubsetFamily(2, 5)
    x = np.ones(fam.feature_dim)
    y = StructuredOutput(fam, (1, 3))
    phi = feature_map(fam, x, y)
    assert phi.sum() == 1.0
    assert phi[unordered_pair_index(1, 3, 5)] == 1.0


def test_feature_map_zero_input_gives_zero_vector():
    fam = SubsetFamily(3, 6)
    y = space(fam).outputs[5]
    assert not feature_map(fam, np.zeros(fam.feature_dim), y).any()


def test_feature_map_counts_pairs_inside_the_subset():
    x = np.ones(SET_4_15.feature_dim)
    y = StructuredOutput(SET_4_15, (0, 1, 2, 3))
    assert feature_map(SET_4_15, x, y).sum() == 6  # C(4,2)


def test_feature_map_nonzero_entries_are_exactly_one():
    rng = np.random.default_rng(0)
    for fam in (SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(3, 2)):
        outs = space(fam).outputs
        for _ in range(20):
            x = rng.integers(0, 2, fam.feature_dim)
            y = outs[rng.integers(len(outs))]
            phi = feature_map(fam, x, y)
            nz = phi[phi != 0]
            assert (nz == 1.0).all()


def test_feature_map_tree_fires_on_joined_node_pairs():
    fam = SpanningTreeFamily(3)
    y = next(y for y in space(fam).outputs
             if {edge_of(fam, c) for c in y.components} == {(0, 1), (1, 2)})
    phi = feature_map(fam, np.ones(3), y)
    assert phi[unordered_pair_index(0, 1, 3)] == 1.0
    assert phi[unordered_pair_index(1, 2, 3)] == 1.0
    assert phi[unordered_pair_index(0, 2, 3)] == 0.0


def test_feature_map_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        feature_map(SET_4_15, np.ones(10), space(SET_4_15).outputs[0])


def test_feature_map_rejects_invalid_structures():
    x = np.ones(SET_4_15.feature_dim)
    for comps in [(0, 1, 2), (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 15)]:
        with pytest.raises(ValueError, match="not a valid structure"):
            feature_map(SET_4_15, x, StructuredOutput(SET_4_15, comps))
    dag = DagFamily(3, 2)
    with pytest.raises(ValueError, match="not a valid structure"):  # 0->1, 1->0
        feature_map(dag, np.ones(dag.feature_dim), StructuredOutput(dag, (0, 2)))
    with pytest.raises(ValueError, match="is a structure of SubsetFamily"):
        feature_map(SET_4_15, x, StructuredOutput(SubsetFamily(3, 15), (0, 1, 2)))


def test_feature_map_needs_an_enumerable_family():
    tree = SpanningTreeFamily(8)  # 8 ** 7 trees, past the enumeration budget
    with pytest.raises(FamilyTooLargeError):
        feature_map(tree, np.ones(tree.feature_dim), StructuredOutput(tree, tuple(range(7))))


# ---------------------------------------------------------------------------
# hamming distance


def test_hamming_identical_is_zero():
    y = space(SET_4_15).outputs[17]
    assert hamming(y, y) == 0.0


def test_hamming_disjoint_subsets_is_one():
    fam = SubsetFamily(4, 15)
    a = StructuredOutput(fam, (0, 1, 2, 3))
    b = StructuredOutput(fam, (4, 5, 6, 7))
    assert hamming(a, b) == 1.0


def test_hamming_tree_single_edge_swap_is_point_two():
    outs = space(TREE6).outputs
    a = outs[0]
    swapped = next(b for b in outs if component_distance(a, b) == 2)
    assert hamming(a, swapped) == pytest.approx(0.2)


def test_dag_normalizer_is_twice_max_edges():
    assert DagFamily(5, 2).hamming_normalizer == 14
    # two edge-disjoint maximal DAGs realize the normalizer
    outs = space(DagFamily(3, 2)).outputs
    assert max(component_distance(a, b) for a in outs for b in outs) \
        == DagFamily(3, 2).hamming_normalizer


@pytest.mark.parametrize("family", [SubsetFamily(2, 5), SpanningTreeFamily(3), DagFamily(3, 1)])
def test_hamming_is_a_metric(family):
    outs = space(family).outputs
    for a in outs:
        assert hamming(a, a) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b, c = (outs[int(i)] for i in rng.integers(0, len(outs), 3))
        assert hamming(a, b) == hamming(b, a)
        if a.components != b.components:
            assert hamming(a, b) > 0.0
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c) + 1e-15


def test_hamming_rejects_mixed_families():
    with pytest.raises(ValueError):
        hamming(space(SubsetFamily(2, 5)).outputs[0],
                space(SubsetFamily(2, 6)).outputs[0])


@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(3, 2)],
                         ids=repr)
def test_pair_distances_match_component_distance(family):
    # the packed-mask distances behind hamming_loss and the hinge terms,
    # against set differences of the component tuples
    sp = space(family)
    idx = np.arange(sp.size)
    got = sp.pair_distances(idx[:, None], idx[None, :])
    want = [[component_distance(a, b) for b in sp.outputs] for a in sp.outputs]
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# neighborhoods


def test_neighbors_k_zero_is_empty():
    y = space(SET_4_15).outputs[0]
    assert neighbors_k(SET_4_15, y, 0) == []
    assert not space(SET_4_15).neighbor_csr(0)[1].size


def test_neighbors_k_saturates_to_everything_but_self():
    fam = SubsetFamily(2, 5)
    y = space(fam).outputs[3]
    nb = neighbors_k(fam, y, fam.hamming_normalizer)
    assert len(nb) == len(space(fam).outputs) - 1
    indptr, _ = space(fam).neighbor_csr(fam.hamming_normalizer)
    assert (np.diff(indptr) == len(nb)).all()


def test_subset_single_swap_neighbor_count():
    y = space(SET_4_15).outputs[100]
    assert len(neighbors_k(SET_4_15, y, 2)) == 4 * 11
    indptr, _ = space(SET_4_15).neighbor_csr(2)
    assert (np.diff(indptr) == 4 * 11).all()


@pytest.mark.parametrize("family,k", [(SubsetFamily(3, 6), 2), (SpanningTreeFamily(4), 2),
                                      (DagFamily(3, 2), 1), (DagFamily(3, 2), 3)])
def test_neighbors_match_direct_distance_filter(family, k, monkeypatch):
    # a fresh space's neighbor table, row by row, against the outputs that
    # component_distance puts within k
    monkeypatch.setattr(spaces, "_SPACE_CACHE", {})
    outs = space(family).outputs
    want = [[z.components for z in outs
             if z.components != y.components and component_distance(y, z) <= k] for y in outs]
    assert [[n.components for n in neighbors_k(family, y, k)] for y in outs] == want
    indptr, data = space(family).neighbor_csr(k)
    assert [[outs[j].components for j in data[indptr[i]:indptr[i + 1]]]
            for i in range(len(outs))] == want


def test_neighbor_csr_agrees_with_single_row_lookup():
    sp = space(SubsetFamily(3, 6))
    indptr, data = sp.neighbor_csr(2)
    for idx in (0, 5, 19):
        np.testing.assert_array_equal(data[indptr[idx]:indptr[idx + 1]],
                                      neighbor_indices(sp, idx, 2))


# ---------------------------------------------------------------------------
# enumerated-space tables against per-output constructions


TABLE_FAMILIES = [
    SubsetFamily(2, 5), SubsetFamily(3, 6), SET_4_15,
    SubsetFamily(2, 70),  # 70 components: two mask words
    SubsetFamily(2, 64), SubsetFamily(2, 65),  # each side of the one-word limit
    SpanningTreeFamily(4), SpanningTreeFamily(5), TREE6,
    DagFamily(3, 2), DagFamily(4, 1), DagFamily(5, 1),  # hold the empty DAG
]


@pytest.fixture
def fresh_space(monkeypatch):
    """Builds spaces into an empty cache, so each test sees a cold build."""
    monkeypatch.setattr(spaces, "_SPACE_CACHE", {})
    return space


def check_outputs_lookups_and_masks(family, sp, ref):
    assert sp.size == len(sp.outputs) == len(ref.outputs)
    assert [y.components for y in sp.outputs] == [y.components for y in ref.outputs]
    assert sp.outputs[-1] is sp.outputs[sp.size - 1] is sp.outputs[sp.size - 1]
    assert full_candidate_set(family) is sp.outputs
    np.testing.assert_array_equal(sp.indices(ref.outputs), np.arange(sp.size))
    picks = np.random.default_rng(0).integers(0, sp.size, size=50)
    for i in picks[:5].tolist():
        assert sp.index(ref.outputs[i]) == ref.index_of[ref.outputs[i].components] == i
    S = Dataset(family, np.zeros((picks.size, family.feature_dim), dtype=np.uint8),
                tuple(ref.outputs[i] for i in picks))
    np.testing.assert_array_equal(S.indices, picks)
    masks = masks_reference(family, ref.outputs)
    assert sp.masks.dtype == masks.dtype and np.array_equal(sp.masks, masks)


def check_feature_tables(family, sp, ref):
    incidence = incidence_reference(family, ref.outputs)
    assert sp.incidence.dtype == incidence.dtype and np.array_equal(sp.incidence, incidence)
    assert sp.feature_indices.dtype == np.int64 and sp.feature_indices.flags.c_contiguous
    assert np.array_equal(sp.feature_indices, feature_indices_reference(incidence))


@pytest.mark.parametrize("family", TABLE_FAMILIES, ids=repr)
def test_tables_match_per_output_constructions(family, fresh_space, monkeypatch):
    ref = tuple_space(family)
    sp = fresh_space(family)
    check_outputs_lookups_and_masks(family, sp, ref)
    check_feature_tables(family, sp, ref)
    radii = [1, 2, 3, 4]
    if sp.size <= 2000:  # the saturating radius lists every other output
        radii = sorted({*radii, family.hamming_normalizer})
    tables = [sp.neighbor_csr(k) for k in radii]
    # again in blocks of a quarter of the rows, so that every family scans in several
    monkeypatch.setattr(sp, "_neighbor_csr", {})
    monkeypatch.setattr(spaces, "_NEIGHBOR_BLOCK_PAIRS", sp.size * max(1, sp.size // 4))
    tables += [sp.neighbor_csr(k) for k in radii]
    want = neighbor_csr_references(masks_reference(family, ref.outputs), radii)
    for (indptr, data), (want_indptr, want_data) in zip(tables, want * 2):
        assert indptr.dtype == data.dtype == np.int64
        assert np.array_equal(indptr, want_indptr) and np.array_equal(data, want_data)


# Larger spaces skip what takes seconds there: the all-pairs neighbor scans,
# and on tree:7 the per-output incidence rows.
@pytest.mark.parametrize("family,feature_tables",
                         [(SubsetFamily(4, 30), True), (SpanningTreeFamily(7), False)], ids=repr)
def test_large_spaces_match_the_tuple_construction(family, feature_tables, fresh_space):
    ref = tuple_space(family)
    sp = fresh_space(family)
    check_outputs_lookups_and_masks(family, sp, ref)
    if feature_tables:
        check_feature_tables(family, sp, ref)


@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SubsetFamily(2, 70), TREE6,
                                    DagFamily(3, 2)], ids=repr)
def test_index_refuses_what_the_space_does_not_hold(family):
    sp = space(family)
    y = sp.outputs[sp.size // 2]
    c = family.component_count
    # an out-of-range component is refused when the structure is built, with
    # the space's message
    for comps in (y.components[:-1],  # one component short, or (DAGs) another DAG
                  y.components[:-1] + (c,), (-1,) + y.components[1:]):
        if comps in {z.components for z in sp.outputs}:
            continue
        with pytest.raises(ValueError, match=r"is not a valid structure of"):
            sp.index(StructuredOutput(family, comps))
        with pytest.raises(ValueError, match=r"is not a valid structure of"):
            sp.indices([y, StructuredOutput(family, comps), y])
    if isinstance(family, DagFamily):  # both directions of one edge
        with pytest.raises(ValueError, match=r"\(0, 2\) is not a valid structure of"):
            sp.index(StructuredOutput(family, (0, 2)))
    other = SubsetFamily(2, 3)
    with pytest.raises(ValueError, match=r"is a structure of SubsetFamily\(k=2, universe=3\)"):
        sp.indices([y, StructuredOutput(other, (0, 1))])


def test_a_component_past_int64_is_refused_as_invalid():
    # it raised OverflowError from the lookup's int64 array, in every caller
    # but the loader
    fam = SubsetFamily(3, 6)
    x = np.ones(fam.feature_dim)
    X = np.ones((1, fam.feature_dim), dtype=np.uint8)
    for use in (lambda y: Dataset(fam, X, (y,)), lambda y: feature_map(fam, x, y),
                lambda y: crf_pmf(fam, x, x, [space(fam).outputs[0], y], 1.0)):
        with pytest.raises(ValueError, match=r"^\(0, 1, 1180591620717411303424\) is not a "
                                             r"valid structure of SubsetFamily"):
            use(StructuredOutput(fam, (0, 1, 2 ** 70)))


def test_neighbor_csr_edge_radii():
    fam = SubsetFamily(2, 5)
    sp = space(fam)
    indptr, data = sp.neighbor_csr(1)  # swaps move distance 2: nobody is that close
    assert not data.size and not indptr.any()
    indptr, data = sp.neighbor_csr(fam.hamming_normalizer)  # everybody but self
    assert np.array_equal(np.diff(indptr), np.full(sp.size, sp.size - 1))
    for i in range(sp.size):
        assert i not in data[indptr[i]:indptr[i + 1]]


def test_empty_dag_has_an_empty_feature_column():
    sp = space(DagFamily(3, 2))
    assert sp.outputs[0].components == ()
    assert not sp.incidence[0].any()
    assert (sp.feature_indices[:, 0] == DagFamily(3, 2).feature_dim).all()


# Every score, feature sum and feature row outside spaces.py goes through
# these methods; dag:4,2 holds outputs with fewer edges than the table is
# wide (the empty DAG has none), so sentinel entries are gathered and summed.
@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(4, 2)],
                         ids=repr)
def test_feature_layout_methods_match_per_pair_loops(family):
    sp = space(family)
    incidence = incidence_reference(family, tuple_space(family).outputs)
    rng = np.random.default_rng(31)
    m, n = 5, 80
    xw = rng.normal(size=(m, family.feature_dim))
    rows = rng.integers(0, m - 1, size=n)  # sample m - 1 has no entry
    idx = np.concatenate([[0, sp.size - 1], rng.integers(0, sp.size, size=n - 2)])
    if isinstance(family, DagFamily):
        assert (sp.feature_indices[:, idx] == family.feature_dim).any()

    rows_got = sp.feature_rows(idx)
    assert rows_got.dtype == incidence.dtype and np.array_equal(rows_got, incidence[idx])
    assert np.array_equal(sp.feature_rows(np.arange(sp.size)), incidence)

    np.testing.assert_array_equal(sp.gather_scores(xw, rows, idx),
                                  gather_scores_reference(incidence, xw, rows, idx))
    one_row = gather_scores_reference(incidence, xw[2:3], np.zeros_like(idx), idx)
    np.testing.assert_array_equal(sp.gather_scores(xw[2:3], 0, idx), one_row)

    weights = rng.random(n)
    sums = sp.feature_sums(weights, rows, idx, m)
    np.testing.assert_array_equal(sums, feature_sums_reference(incidence, weights, rows, idx, m))
    assert not sums[m - 1].any()

    probs = rng.random((sp.size, m))
    np.testing.assert_allclose(
        sp.feature_sums_full(probs),
        feature_sums_reference(incidence, probs.T.ravel(), np.arange(m).repeat(sp.size),
                               np.tile(np.arange(sp.size), m), m), rtol=1e-12)


# ---------------------------------------------------------------------------
# inputs and structures


def test_make_input_validates():
    fam = SubsetFamily(2, 4)
    x = make_input(fam, [0, 1, 1, 0, 1, 0])
    assert x.dtype == np.uint8 and x.tolist() == [0, 1, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        make_input(fam, [0, 1])
    with pytest.raises(ValueError):
        make_input(fam, [0, 2, 0, 0, 0, 0])


def test_structured_output_requires_sorted_components():
    with pytest.raises(ValueError):
        StructuredOutput(SubsetFamily(2, 4), (3, 1))


@given(st.integers(min_value=0, max_value=19))
@settings(max_examples=20, deadline=None)
def test_space_index_roundtrip(i):
    sp = space(SubsetFamily(3, 6))
    assert sp.index(sp.outputs[i]) == i
