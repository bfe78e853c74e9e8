"""Enumerable structured-output families and their feature geometry.

Three small enumerable families are provided: fixed-size subsets of a ground
set, rooted spanning trees with edges directed away from the root, and DAGs
with a bounded number of parents per node.  A structure is a strictly sorted
tuple of integer component indices: chosen elements for subsets, directed
parent->child edges for trees and DAGs.

Features live on a per-family grid of candidate pairs (unordered element
pairs for subsets, unordered node pairs for trees, ordered node pairs for
DAGs), so observed inputs, feature vectors, and weight vectors share one
coordinate system of dimension ``feature_dim``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

ENUMERATION_BUDGET = 250_000
_DAG_SCAN_LIMIT = 4_000_000

#: Mask pairs per block of the all-pairs neighbor scan.  Besides bounding
#: memory, the size matters to training: freeing a block this large (about
#: 15 MB of XORed masks for the benchmark families) raises glibc's dynamic
#: mmap and trim thresholds above the trainers' ~1 MB m x r temporaries, which
#: then reuse heap memory.  With 128-row blocks the thresholds stayed low and
#: those temporaries page-faulted on every iteration: 14-27k minor faults per
#: training, and on a 2-core x86 VM set:4,15 crf_all went 52 -> 94 ms and
#: dag:5,1 crf_rand 27 -> 89 ms.
_NEIGHBOR_BLOCK_PAIRS = 4_000_000

#: Feature vectors are plain float arrays of length ``family.feature_dim``.
#: By construction every nonzero entry equals 1.
FeatureVector = np.ndarray


class FamilyTooLargeError(ValueError):
    """Enumerating the family would exceed the configured budget."""


# ---------------------------------------------------------------------------
# pair indexing
#
# Unordered pairs {i, j} of [0, n), i < j, are numbered lexicographically:
# {0,1}, {0,2}, ..., {0,n-1}, {1,2}, ...  Ordered pairs (i, j), i != j, are
# numbered row by row with the diagonal skipped: (0,1), (0,2), ..., (1,0),
# (1,2), ...

def unordered_pair_index(i: int, j: int, n: int) -> int:
    """Position of the pair {i, j} (i != j) in the canonical unordered order."""
    if i > j:
        i, j = j, i
    if not (0 <= i < j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def ordered_pair_index(i: int, j: int, n: int) -> int:
    """Position of the ordered pair (i, j), i != j, in the canonical order."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for n={n}")
    return i * (n - 1) + j - (j > i)


def unordered_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class SubsetFamily:
    """Sets of exactly ``k`` elements chosen from ``universe`` candidates."""

    k: int
    universe: int

    def __post_init__(self):
        if not 1 <= self.k <= self.universe:
            raise ValueError(f"need 1 <= k <= universe, got k={self.k}, universe={self.universe}")
        if self.universe < 2:
            raise ValueError("universe must contain at least 2 elements")

    @property
    def feature_dim(self) -> int:
        return math.comb(self.universe, 2)

    @property
    def component_count(self) -> int:
        return self.universe

    @property
    def hamming_normalizer(self) -> int:
        return 2 * self.k

    @property
    def num_outputs(self) -> int:
        return math.comb(self.universe, self.k)

    def is_valid(self, components: tuple[int, ...]) -> bool:
        return (
            len(components) == self.k
            and _strictly_sorted(components)
            and all(0 <= c < self.universe for c in components)
        )

    def incidence_row(self, components: tuple[int, ...]) -> FeatureVector:
        return _incidence_row(self, components)

    def _feature_cells(self, rows: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # every output holds exactly k sorted elements; each pair of them fires
        a, b = np.triu_indices(self.k, 1)
        chosen = comps.reshape(-1, self.k)
        return (rows.reshape(-1, self.k)[:, a].ravel(),
                _unordered_pair_columns(chosen[:, a].ravel(), chosen[:, b].ravel(), self.universe))

    def _iter_components(self) -> Iterator[tuple[int, ...]]:
        return itertools.combinations(range(self.universe), self.k)


@dataclass(frozen=True)
class SpanningTreeFamily:
    """Rooted spanning trees of labelled nodes, edges directed away from the root.

    Components are directed parent->child edges indexed over ordered node
    pairs; the root is the unique node without a parent.  The feature grid is
    the coarser set of unordered node pairs, so a feature coordinate {i, j}
    fires when the tree joins i and j in either direction.
    """

    num_nodes: int

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("need at least 2 nodes")

    @property
    def feature_dim(self) -> int:
        return math.comb(self.num_nodes, 2)

    @property
    def component_count(self) -> int:
        return self.num_nodes * (self.num_nodes - 1)

    @property
    def hamming_normalizer(self) -> int:
        return 2 * (self.num_nodes - 1)

    @property
    def num_outputs(self) -> int:
        return self.num_nodes ** (self.num_nodes - 1)

    def edge_of(self, component: int) -> tuple[int, int]:
        """Decode a component index into a (parent, child) node pair."""
        v = self.num_nodes
        i, rem = divmod(component, v - 1)
        j = rem + (rem >= i)
        return i, j

    def is_valid(self, components: tuple[int, ...]) -> bool:
        v = self.num_nodes
        if len(components) != v - 1 or not _strictly_sorted(components):
            return False
        if not all(0 <= c < self.component_count for c in components):
            return False
        edges = [self.edge_of(c) for c in components]
        children = [c for _, c in edges]
        if len(set(children)) != len(children):
            return False
        roots = set(range(v)) - set(children)
        if len(roots) != 1:
            return False
        # every node reachable from the root along parent->child edges
        out = {}
        for p, c in edges:
            out.setdefault(p, []).append(c)
        seen = {roots.pop()}
        stack = list(seen)
        while stack:
            for c in out.get(stack.pop(), ()):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return len(seen) == v

    def incidence_row(self, components: tuple[int, ...]) -> FeatureVector:
        return _incidence_row(self, components)

    def _feature_cells(self, rows: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each edge fires its unordered node pair
        parent, child = _edge_nodes(comps, self.num_nodes)
        return rows, _unordered_pair_columns(np.minimum(parent, child), np.maximum(parent, child),
                                             self.num_nodes)

    def _iter_components(self) -> Iterator[tuple[int, ...]]:
        v = self.num_nodes
        for seq in itertools.product(range(v), repeat=v - 2):
            adj = _prufer_adjacency(seq, v)
            for root in range(v):
                yield _orient_from(adj, root, v)


@dataclass(frozen=True)
class DagFamily:
    """DAGs over labelled nodes with at most ``max_parents`` parents per node.

    Components are directed parent->child edges; the feature grid coincides
    with the component grid (ordered node pairs).
    """

    num_nodes: int
    max_parents: int

    def __post_init__(self):
        if self.num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not 1 <= self.max_parents < self.num_nodes:
            raise ValueError("max_parents must be in [1, num_nodes)")

    @property
    def feature_dim(self) -> int:
        return self.num_nodes * (self.num_nodes - 1)

    @property
    def component_count(self) -> int:
        return self.feature_dim

    @property
    def hamming_normalizer(self) -> int:
        # twice the maximum edge count: node i of a topological order admits
        # min(i, max_parents) parents, and two edge-disjoint maximal DAGs exist
        # (opposite topological orders)
        return 2 * sum(min(i, self.max_parents) for i in range(self.num_nodes))

    @property
    def num_outputs(self) -> int:
        return space(self).size

    def edge_of(self, component: int) -> tuple[int, int]:
        v = self.num_nodes
        i, rem = divmod(component, v - 1)
        j = rem + (rem >= i)
        return i, j

    def is_valid(self, components: tuple[int, ...]) -> bool:
        v = self.num_nodes
        if not _strictly_sorted(components):
            return False
        if not all(0 <= c < self.component_count for c in components):
            return False
        edges = [self.edge_of(c) for c in components]
        indeg = [0] * v
        out = {}
        for p, c in edges:
            indeg[c] += 1
            out.setdefault(p, []).append(c)
        if any(d > self.max_parents for d in indeg):
            return False
        # Kahn's algorithm: acyclic iff all nodes drain
        ready = [n for n in range(v) if indeg[n] == 0]
        drained = 0
        while ready:
            n = ready.pop()
            drained += 1
            for c in out.get(n, ()):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return drained == v

    def incidence_row(self, components: tuple[int, ...]) -> FeatureVector:
        return _incidence_row(self, components)

    def _feature_cells(self, rows: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the feature grid is the component grid
        return rows, comps

    def _iter_components(self) -> Iterator[tuple[int, ...]]:
        v, p = self.num_nodes, self.max_parents
        parent_sets = [
            [ps for size in range(p + 1)
             for ps in itertools.combinations([u for u in range(v) if u != n], size)]
            for n in range(v)
        ]
        counts = [len(ps) for ps in parent_sets]
        scan = math.prod(counts)
        if scan > _DAG_SCAN_LIMIT:
            raise FamilyTooLargeError(
                f"{self}: scanning {scan} parent-set combinations exceeds the enumeration budget")
        choice = np.indices(counts).reshape(v, -1).T
        adj = np.zeros((choice.shape[0], v, v), dtype=np.uint8)
        for n in range(v):
            for ci, ps in enumerate(parent_sets[n]):
                rows = choice[:, n] == ci
                for par in ps:
                    adj[rows, par, n] = 1
        reach = adj.copy()
        for _ in range(max(1, math.ceil(math.log2(v)))):
            reach = reach | (np.matmul(reach, reach) > 0)
        acyclic = ~reach[:, np.arange(v), np.arange(v)].any(axis=1)
        # row-major (parent, child) order is ascending component order
        dag, parent, child = np.nonzero(adj[acyclic])
        comps = (parent * (v - 1) + child - (child > parent)).tolist()
        ends = np.cumsum(np.bincount(dag, minlength=int(acyclic.sum()))).tolist()
        for lo, hi in zip([0] + ends, ends):
            yield tuple(comps[lo:hi])


StructureFamily = Union[SubsetFamily, SpanningTreeFamily, DagFamily]

# Each family maps flat (output row, component) arrays to the (output row,
# feature column) cells its outputs fire through ``_feature_cells``; one
# output's incidence row and the whole space's incidence matrix both come
# from that map.


def _unordered_pair_columns(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """``unordered_pair_index`` over arrays with i < j elementwise."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _edge_nodes(comps: np.ndarray, v: int) -> tuple[np.ndarray, np.ndarray]:
    """(parent, child) node arrays of ordered-pair component indices."""
    parent, rem = np.divmod(comps, v - 1)
    return parent, rem + (rem >= parent)


def _incidence_row(family: StructureFamily, components: tuple[int, ...]) -> FeatureVector:
    # the maps assume valid structures (a subset's map pairs elements k at a time)
    if not family.is_valid(tuple(components)):
        raise ValueError(f"{tuple(components)} is not a valid structure of {family}")
    comps = np.asarray(components, dtype=np.int64)
    row = np.zeros(family.feature_dim)
    row[family._feature_cells(np.zeros_like(comps), comps)[1]] = 1.0
    return row


def _strictly_sorted(components: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(components, components[1:]))


def _prufer_adjacency(seq: Sequence[int], v: int) -> dict[int, list[int]]:
    """Undirected adjacency of the labelled tree encoded by a Pruefer sequence."""
    degree = [1] * v
    for s in seq:
        degree[s] += 1
    leaves = [n for n in range(v) if degree[n] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    adj: dict[int, list[int]] = {n: [] for n in range(v)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _orient_from(adj: dict[int, list[int]], root: int, v: int) -> tuple[int, ...]:
    comps = []
    seen = {root}
    stack = [root]
    while stack:
        p = stack.pop()
        for c in adj[p]:
            if c not in seen:
                seen.add(c)
                comps.append(ordered_pair_index(p, c, v))
                stack.append(c)
    return tuple(sorted(comps))


# ---------------------------------------------------------------------------
# structures and inputs


@dataclass(frozen=True)
class StructuredOutput:
    """A structure: a strictly sorted, duplicate-free tuple of component indices."""

    family: StructureFamily
    components: tuple[int, ...]

    def __post_init__(self):
        if not _strictly_sorted(self.components):
            raise ValueError(f"components must be strictly sorted, got {self.components}")

    @property
    def canonical_key(self) -> tuple[int, ...]:
        return self.components


@dataclass(frozen=True, eq=False)
class StructuredInput:
    """Observed 0/1 vector over the family's candidate-pair coordinates."""

    bits: np.ndarray


def make_input(family: StructureFamily, bits) -> StructuredInput:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.shape != (family.feature_dim,):
        raise ValueError(f"expected {family.feature_dim} bits, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("input bits must be 0/1")
    return StructuredInput(arr)


def input_bits(family: StructureFamily, x) -> np.ndarray:
    """Coerce a StructuredInput or raw 0/1 vector to a float array of length d."""
    arr = x.bits if isinstance(x, StructuredInput) else np.asarray(x)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (family.feature_dim,):
        raise ValueError(f"expected {family.feature_dim} bits, got shape {arr.shape}")
    return arr


def random_input(family: StructureFamily, rng: np.random.Generator) -> StructuredInput:
    """Bits drawn iid Bernoulli(1/2)."""
    return StructuredInput(rng.integers(0, 2, size=family.feature_dim, dtype=np.uint8))


# ---------------------------------------------------------------------------
# enumeration


class EnumeratedSpace:
    """All outputs of a family in canonical order, with score/distance machinery.

    ``incidence`` is the (size x feature_dim) 0/1 matrix whose row y is the
    feature-grid incidence of output y, so the feature vector of (x, y) is
    ``incidence[y] * x`` and scores for every output are a single mat-vec.
    """

    def __init__(self, family: StructureFamily, outputs: Sequence[StructuredOutput]):
        self.family = family
        self.outputs: tuple[StructuredOutput, ...] = tuple(outputs)
        self.size = len(self.outputs)
        self.index_of = {y.components: i for i, y in enumerate(self.outputs)}
        if len(self.index_of) != self.size:
            raise ValueError("duplicate structures in enumeration")
        lengths = np.fromiter((len(y.components) for y in self.outputs), dtype=np.int64,
                              count=self.size)
        comps = np.fromiter(itertools.chain.from_iterable(y.components for y in self.outputs),
                            dtype=np.int64, count=int(lengths.sum()))
        rows = np.repeat(np.arange(self.size), lengths)
        self.masks = np.zeros((self.size, (family.component_count + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(self.masks, (rows, comps >> 6),
                         np.left_shift(np.uint64(1), (comps & 63).astype(np.uint64)))
        self.incidence = np.zeros((self.size, family.feature_dim))
        self.incidence[family._feature_cells(rows, comps)] = 1.0
        self._neighbors: dict[tuple[int, int], np.ndarray] = {}
        self._neighbor_csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._feature_indices: np.ndarray | None = None

    @property
    def feature_indices(self) -> np.ndarray:
        """(max_nnz x size) indices of each output's active feature coordinates:
        column y lists output y's coordinates ascending, padded with the
        sentinel ``feature_dim`` (pointing at a zero column).  Row-major, so
        gathering one slot for many outputs reads a contiguous row."""
        if self._feature_indices is None:
            rows, cols = np.nonzero(self.incidence)
            counts = np.bincount(rows, minlength=self.size)
            # slot of each entry within its output: entries come row by row
            slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
            out = np.full((max(int(counts.max(initial=0)), 1), self.size), self.family.feature_dim,
                          dtype=np.int64)
            out[slot, rows] = cols
            self._feature_indices = out
        return self._feature_indices

    def neighbor_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, data) of the distance-<=k neighbor lists of every output,
        each list ascending (canonical order).

        Scans all pairs of outputs in blocks of rows: per block, the XOR of
        the packed masks is popcounted into small unsigned distances, one
        compare of ``distance - 1`` (which wraps to the type's maximum for
        the output itself) against k keeps the neighbors, and one flat
        ``nonzero`` lists them.  Generating each ball by toggling
        components and looking the results up in the sorted masks was
        measured slower at the benchmark's sizes (dag:5,1: 64 ms against
        21 ms on a 2-core x86 VM)."""
        cached = self._neighbor_csr.get(k)
        if cached is None:
            r, words = self.masks.shape
            dist_type = np.uint8 if words == 1 else np.uint16
            limit = min(max(k, 0), int(np.iinfo(dist_type).max))
            counts = np.empty(r, dtype=np.int64)
            pieces = []
            chunk = max(1, _NEIGHBOR_BLOCK_PAIRS // max(1, r))
            for lo in range(0, r, chunk):
                hi = min(r, lo + chunk)
                dist = np.bitwise_count(self.masks[lo:hi, None, :] ^ self.masks[None, :, :])
                dist = dist.reshape(hi - lo, r) if words == 1 else dist.sum(axis=2, dtype=dist_type)
                dist -= 1  # wraps to the maximum for the output itself
                flat = np.flatnonzero(dist < limit)
                row = flat // r
                counts[lo:hi] = np.bincount(row, minlength=hi - lo)
                pieces.append(flat - row * r)
            indptr = np.zeros(r + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            cached = (indptr, np.concatenate(pieces) if pieces else np.empty(0, np.int64))
            self._neighbor_csr[k] = cached
        return cached

    def index(self, y: StructuredOutput) -> int:
        try:
            return self.index_of[y.components]
        except KeyError:
            raise ValueError(f"{y.components} is not a valid structure of {self.family}") from None

    def scores(self, x, w: np.ndarray) -> np.ndarray:
        """Linear scores of every output for one input."""
        return self.incidence @ (input_bits(self.family, x) * w)

    def score_matrix(self, bit_matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(size x m) scores for a batch of inputs given as an (m x d) bit matrix."""
        return self.incidence @ (bit_matrix * w).T

    def distances_to(self, idx: int) -> np.ndarray:
        """Component symmetric-difference sizes from output ``idx`` to every output."""
        return np.bitwise_count(self.masks ^ self.masks[idx]).sum(axis=1).astype(np.int64)

    def pair_distances(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise symmetric-difference sizes between two index arrays."""
        return np.bitwise_count(self.masks[left] ^ self.masks[right]).sum(axis=-1).astype(np.int64)

    def neighbor_indices(self, idx: int, k: int) -> np.ndarray:
        """Indices of outputs within unnormalized distance k of ``idx``, excluding it."""
        csr = self._neighbor_csr.get(k)
        if csr is not None:
            indptr, data = csr
            return data[indptr[idx]:indptr[idx + 1]]
        key = (idx, k)
        cached = self._neighbors.get(key)
        if cached is None:
            d = self.distances_to(idx)
            cached = np.nonzero((d > 0) & (d <= k))[0]
            self._neighbors[key] = cached
        return cached


_SPACE_CACHE: dict[StructureFamily, EnumeratedSpace] = {}


def _budget_precheck(family: StructureFamily, budget: int) -> None:
    if isinstance(family, (SubsetFamily, SpanningTreeFamily)):
        n = family.num_outputs
        if n > budget:
            raise FamilyTooLargeError(f"{family}: {n} outputs exceed the enumeration budget {budget}")


def space(family: StructureFamily) -> EnumeratedSpace:
    """The cached enumeration of the family (built once per process)."""
    sp = _SPACE_CACHE.get(family)
    if sp is None:
        _budget_precheck(family, ENUMERATION_BUDGET)
        comps = sorted(family._iter_components())
        if len(comps) > ENUMERATION_BUDGET:
            raise FamilyTooLargeError(
                f"{family}: {len(comps)} outputs exceed the enumeration budget {ENUMERATION_BUDGET}")
        sp = EnumeratedSpace(family, [StructuredOutput(family, c) for c in comps])
        _SPACE_CACHE[family] = sp
    return sp


def enumerate_outputs(family: StructureFamily, x=None, *, budget: int | None = None) -> list[StructuredOutput]:
    """Every valid structure exactly once, sorted by canonical key.

    The feasible set does not depend on the input's bits; ``x`` is accepted for
    dimension validation only.  Raises FamilyTooLargeError instead of
    truncating when the family exceeds ``budget``.
    """
    b = ENUMERATION_BUDGET if budget is None else budget
    _budget_precheck(family, b)
    sp = space(family)
    if sp.size > b:
        raise FamilyTooLargeError(f"{family}: {sp.size} outputs exceed the enumeration budget {b}")
    if x is not None:
        input_bits(family, x)
    return list(sp.outputs)


# ---------------------------------------------------------------------------
# feature map and distances


def feature_map(family: StructureFamily, x, y: StructuredOutput) -> FeatureVector:
    """Joint feature vector: coordinate (i, j) fires iff the input bit (i, j)
    is set and the structure contains the pair (both elements chosen, or the
    edge present).  Raises ValueError for a structure the family rejects."""
    if y.family != family:
        raise ValueError("structure does not belong to this family")
    return family.incidence_row(y.components) * input_bits(family, x)


def component_distance(y: StructuredOutput, y2: StructuredOutput) -> int:
    """Unnormalized Hamming distance: component symmetric-difference size."""
    if y.family != y2.family:
        raise ValueError("structures from different families")
    return len(set(y.components) ^ set(y2.components))


def hamming(y: StructuredOutput, y2: StructuredOutput) -> float:
    """Normalized Hamming distance in [0, 1]: symmetric difference over the
    family's maximum achievable symmetric-difference size."""
    return component_distance(y, y2) / y.family.hamming_normalizer


def neighbors_k(family: StructureFamily, x, y: StructuredOutput, k: int) -> list[StructuredOutput]:
    """All valid structures within unnormalized distance k of y, excluding y,
    in canonical order."""
    if y.family != family:
        raise ValueError("structure does not belong to this family")
    if k <= 0:
        return []
    sp = space(family)
    return [sp.outputs[i] for i in sp.neighbor_indices(sp.index(y), k)]
