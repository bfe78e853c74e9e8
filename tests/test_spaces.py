import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randcrf import (DagFamily, FamilyTooLargeError, SpanningTreeFamily, StructuredOutput,
                     SubsetFamily, component_distance, enumerate_outputs, feature_map,
                     hamming, make_input, neighbors_k, space)
from randcrf.spaces import ordered_pair_index, unordered_pair_index

from oracles import (brute_force_dag_components, brute_force_tree_components,
                     feature_indices_reference, incidence_reference, masks_reference,
                     neighbor_csr_reference)

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
    assert len(enumerate_outputs(SET_4_15)) == 1365


def test_singleton_subsets():
    outs = enumerate_outputs(SubsetFamily(1, 3))
    assert [y.components for y in outs] == [(0,), (1,), (2,)]


@pytest.mark.parametrize("v", [3, 4, 6])
def test_tree_enumeration_matches_brute_force(v):
    got = {y.components for y in enumerate_outputs(SpanningTreeFamily(v))}
    assert got == brute_force_tree_components(v)
    assert len(got) == v ** (v - 1)


@pytest.mark.parametrize("v,p", [(3, 1), (3, 2), (4, 2)])
def test_dag_enumeration_matches_brute_force(v, p):
    got = {y.components for y in enumerate_outputs(DagFamily(v, p))}
    assert got == brute_force_dag_components(v, p)


@pytest.mark.parametrize("family", [SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(3, 2)])
def test_enumeration_sorted_unique_and_valid(family):
    outs = enumerate_outputs(family)
    keys = [y.canonical_key for y in outs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for y in outs:
        assert family.is_valid(y.components)
        assert tuple(sorted(set(y.components))) == y.components  # canonical form is a fixpoint


def test_enumeration_budget_is_enforced_not_truncated():
    with pytest.raises(FamilyTooLargeError):
        enumerate_outputs(SpanningTreeFamily(12))
    with pytest.raises(FamilyTooLargeError):
        enumerate_outputs(SET_4_15, budget=100)
    assert len(enumerate_outputs(SET_4_15, budget=1365)) == 1365


def test_enumerate_validates_input_dimension():
    with pytest.raises(ValueError):
        enumerate_outputs(SubsetFamily(2, 4), x=np.ones(3))


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
    y = enumerate_outputs(fam)[5]
    assert not feature_map(fam, np.zeros(fam.feature_dim), y).any()


def test_feature_map_counts_pairs_inside_the_subset():
    x = np.ones(SET_4_15.feature_dim)
    y = StructuredOutput(SET_4_15, (0, 1, 2, 3))
    assert feature_map(SET_4_15, x, y).sum() == 6  # C(4,2)


def test_feature_map_nonzero_entries_are_exactly_one():
    rng = np.random.default_rng(0)
    for fam in (SubsetFamily(3, 6), SpanningTreeFamily(4), DagFamily(3, 2)):
        outs = enumerate_outputs(fam)
        for _ in range(20):
            x = rng.integers(0, 2, fam.feature_dim)
            y = outs[rng.integers(len(outs))]
            phi = feature_map(fam, x, y)
            nz = phi[phi != 0]
            assert (nz == 1.0).all()


def test_feature_map_tree_fires_on_joined_node_pairs():
    fam = SpanningTreeFamily(3)
    y = next(y for y in enumerate_outputs(fam)
             if {fam.edge_of(c) for c in y.components} == {(0, 1), (1, 2)})
    phi = feature_map(fam, np.ones(3), y)
    assert phi[unordered_pair_index(0, 1, 3)] == 1.0
    assert phi[unordered_pair_index(1, 2, 3)] == 1.0
    assert phi[unordered_pair_index(0, 2, 3)] == 0.0


def test_feature_map_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        feature_map(SET_4_15, np.ones(10), enumerate_outputs(SET_4_15)[0])


def test_feature_map_rejects_invalid_structures():
    x = np.ones(SET_4_15.feature_dim)
    for comps in [(0, 1, 2), (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 15)]:
        with pytest.raises(ValueError, match="not a valid structure"):
            feature_map(SET_4_15, x, StructuredOutput(SET_4_15, comps))
    dag = DagFamily(3, 2)
    with pytest.raises(ValueError, match="not a valid structure"):  # 0->1, 1->0
        feature_map(dag, np.ones(dag.feature_dim), StructuredOutput(dag, (0, 2)))


# ---------------------------------------------------------------------------
# hamming distance


def test_hamming_identical_is_zero():
    y = enumerate_outputs(SET_4_15)[17]
    assert hamming(y, y) == 0.0


def test_hamming_disjoint_subsets_is_one():
    fam = SubsetFamily(4, 15)
    a = StructuredOutput(fam, (0, 1, 2, 3))
    b = StructuredOutput(fam, (4, 5, 6, 7))
    assert hamming(a, b) == 1.0


def test_hamming_tree_single_edge_swap_is_point_two():
    outs = enumerate_outputs(TREE6)
    a = outs[0]
    swapped = next(b for b in outs if component_distance(a, b) == 2)
    assert hamming(a, swapped) == pytest.approx(0.2)


def test_dag_normalizer_is_twice_max_edges():
    assert DagFamily(5, 2).hamming_normalizer == 14
    # two edge-disjoint maximal DAGs realize the normalizer
    outs = enumerate_outputs(DagFamily(3, 2))
    assert max(component_distance(a, b) for a in outs for b in outs) \
        == DagFamily(3, 2).hamming_normalizer


@pytest.mark.parametrize("family", [SubsetFamily(2, 5), SpanningTreeFamily(3), DagFamily(3, 1)])
def test_hamming_is_a_metric(family):
    outs = enumerate_outputs(family)
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
        hamming(enumerate_outputs(SubsetFamily(2, 5))[0],
                enumerate_outputs(SubsetFamily(2, 6))[0])


# ---------------------------------------------------------------------------
# neighborhoods


def test_neighbors_k_zero_is_empty():
    y = enumerate_outputs(SET_4_15)[0]
    assert neighbors_k(SET_4_15, None, y, 0) == []


def test_neighbors_k_saturates_to_everything_but_self():
    fam = SubsetFamily(2, 5)
    y = enumerate_outputs(fam)[3]
    nb = neighbors_k(fam, None, y, fam.hamming_normalizer)
    assert len(nb) == len(enumerate_outputs(fam)) - 1


def test_subset_single_swap_neighbor_count():
    y = enumerate_outputs(SET_4_15)[100]
    assert len(neighbors_k(SET_4_15, None, y, 2)) == 4 * 11


@pytest.mark.parametrize("family,k", [(SubsetFamily(3, 6), 2), (SpanningTreeFamily(4), 2),
                                      (DagFamily(3, 2), 1), (DagFamily(3, 2), 3)])
def test_neighbors_match_direct_distance_filter(family, k):
    outs = enumerate_outputs(family)
    rng = np.random.default_rng(2)
    for idx in rng.integers(0, len(outs), 10):
        y = outs[int(idx)]
        got = [n.components for n in neighbors_k(family, None, y, k)]
        want = [z.components for z in outs
                if z.components != y.components and component_distance(y, z) <= k]
        assert got == want


def test_neighbor_csr_agrees_with_single_row_lookup():
    sp = space(SubsetFamily(3, 6))
    indptr, data = sp.neighbor_csr(2)
    for idx in (0, 5, 19):
        row = data[indptr[idx]:indptr[idx + 1]]
        d = sp.distances_to(idx)
        np.testing.assert_array_equal(row, np.nonzero((d > 0) & (d <= 2))[0])


# ---------------------------------------------------------------------------
# enumerated-space tables against per-output constructions


@pytest.mark.parametrize("family", [
    SubsetFamily(2, 5), SubsetFamily(3, 6), SET_4_15,
    SubsetFamily(2, 70),  # 70 components: two mask words
    SpanningTreeFamily(4), SpanningTreeFamily(5),
    DagFamily(3, 2), DagFamily(4, 1), DagFamily(5, 1),  # hold the empty DAG
], ids=repr)
def test_tables_match_per_output_constructions(family):
    sp = space(family)
    masks = masks_reference(sp)
    incidence = incidence_reference(sp)
    assert sp.masks.dtype == masks.dtype and np.array_equal(sp.masks, masks)
    assert sp.incidence.dtype == incidence.dtype and np.array_equal(sp.incidence, incidence)
    assert sp.feature_indices.dtype == np.int64
    assert np.array_equal(sp.feature_indices, feature_indices_reference(incidence))
    for k in sorted({1, 2, 3, 4, family.hamming_normalizer}):
        indptr, data = sp.neighbor_csr(k)
        want_indptr, want_data = neighbor_csr_reference(masks, k)
        assert indptr.dtype == data.dtype == np.int64
        assert np.array_equal(indptr, want_indptr) and np.array_equal(data, want_data)


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


# ---------------------------------------------------------------------------
# inputs and structures


def test_make_input_validates():
    fam = SubsetFamily(2, 4)
    x = make_input(fam, [0, 1, 1, 0, 1, 0])
    assert x.bits.dtype == np.uint8
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
