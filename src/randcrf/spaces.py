"""Enumerable structured-output families and their feature geometry.

Three small enumerable families are provided: fixed-size subsets of a ground
set, rooted spanning trees with edges directed away from the root, and DAGs
with a bounded number of parents per node.  A structure is a strictly sorted
tuple of integer component indices: chosen elements for subsets, directed
parent->child edges for trees and DAGs.

Trees and DAGs share one parent-set scan and one acyclicity check: a rooted
spanning tree on v nodes is enumerated as a single-root DAG with one parent
per non-root node (at most one parent per node, v - 1 edges).

Features live on a per-family grid of candidate pairs (unordered element
pairs for subsets, unordered node pairs for trees, ordered node pairs for
DAGs), so observed inputs, feature vectors, and weight vectors share one
coordinate system of dimension ``feature_dim``.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

ENUMERATION_BUDGET = 250_000
_SCAN_LIMIT = 4_000_000

#: Mask pairs per block of the all-pairs neighbor scan, sized to stay in
#: cache: a block's XORed 64-bit masks take 0.5 MB, its popcounts and compare
#: a few hundred kB more, within one core's 2 MB L2.  Cold set-up (space,
#: table and feature indices; median of 7 fresh processes on a 2-core x86 VM)
#: against 4,000,000-pair blocks: set:4,15 19 -> 8 ms, dag:5,1 13 -> 11 ms,
#: set:4,20 63 -> 37 ms, tree:6 121 -> 68 ms, dag:5,2 540 -> 384 ms.
#: 131,072 pairs was 1-2 ms faster on set:4,20 and tree:6 and slower on the
#: other three; 32,768 lost to per-block overhead on the larger families.
_NEIGHBOR_BLOCK_PAIRS = 65_536

#: glibc malloc thresholds (bytes), set once per process at import.  With
#: glibc's defaults the thresholds stay low until the process frees some
#: large block, and until then the trainers' 0.2-11 MB per-iteration
#: temporaries are fresh mmap memory that page-faults on every iteration: a
#: process that trained set:4,15 crf_all without first building a neighbor
#: table took 14.5k minor faults and twice the time per training.  Fixed
#: thresholds keep those temporaries on the heap whatever ran before.  The
#: trim threshold must exceed what an iteration frees at the heap top: at
#: 32 MiB, dag:5,2 (m = 100, r = 13,956) crf_all and svm_all took 33k minor
#: faults and about twice the time per training.
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 64 << 20


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds (which also stops glibc from
    moving them); does nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # macOS, Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


_set_malloc_thresholds()

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


def _ordered_pair(index, n: int):
    """The ordered pair (i, j) at ``index``, the inverse of ``ordered_pair_index``;
    elementwise (two arrays) for an index array."""
    i, rem = divmod(index, n - 1)
    return i, rem + (rem >= i)


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

    def is_valid(self, components: tuple[int, ...]) -> bool:
        v = self.num_nodes
        return len(components) == v - 1 and _valid_parent_sets(components, v, 1)

    def _feature_cells(self, rows: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # each edge fires its unordered node pair
        parent, child = _ordered_pair(comps, self.num_nodes)
        return rows, _unordered_pair_columns(np.minimum(parent, child), np.maximum(parent, child),
                                             self.num_nodes)

    def _iter_components(self) -> Iterator[tuple[int, ...]]:
        return _parent_set_scan(self, 1, self.num_nodes - 1)


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

    def is_valid(self, components: tuple[int, ...]) -> bool:
        return _valid_parent_sets(components, self.num_nodes, self.max_parents)

    def _feature_cells(self, rows: np.ndarray, comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the feature grid is the component grid
        return rows, comps

    def _iter_components(self) -> Iterator[tuple[int, ...]]:
        return _parent_set_scan(self, self.max_parents)


StructureFamily = Union[SubsetFamily, SpanningTreeFamily, DagFamily]

# Each family maps flat (output row, component) arrays to the (output row,
# feature column) cells its outputs fire through ``_feature_cells``; one
# output's ``feature_map`` and the whole space's incidence matrix both come
# from that map.


def _unordered_pair_columns(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """``unordered_pair_index`` over arrays with i < j elementwise."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _strictly_sorted(components: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(components, components[1:]))


def _drained(parents: Sequence, zero=0):
    """Bitmask of the nodes that drain, given each node's parents as a bitmask:
    Python ints for one structure (``zero`` = 0), or uint8 arrays for many at
    once (``zero`` = np.uint8(0), v <= 7).  A node drains once all its parents
    have drained, so a structure is acyclic exactly when all v nodes drain;
    each round drains at least one more node of an acyclic one."""
    full = (zero | 1 << len(parents)) - 1
    drained = zero
    for _ in parents:
        last = drained
        for n, mask in enumerate(parents):
            drained |= ((mask & ~drained) == 0) * (zero | 1 << n)
        if isinstance(drained, int) and drained in (last, full):
            break  # one structure: stop once a round drains nothing new or all is drained
    return drained


def _valid_parent_sets(components: Sequence[int], v: int, max_parents: int) -> bool:
    """Whether strictly sorted, in-range parent->child edge components choose
    at most ``max_parents`` parents per node acyclically."""
    if not _strictly_sorted(components):
        return False
    if components and not (0 <= components[0] and components[-1] < v * (v - 1)):
        return False
    parents = [0] * v
    for c in components:
        parent, rest = divmod(c, v - 1)
        parents[rest + (rest >= parent)] |= 1 << parent
    if max(map(int.bit_count, parents)) > max_parents:
        return False
    return _drained(parents) == (1 << v) - 1


def _parent_set_scan(family: StructureFamily, max_parents: int,
                     edges: int | None = None) -> Iterator[tuple[int, ...]]:
    """Components of every acyclic choice of at most ``max_parents`` parents
    per node (with ``edges`` edges, when given), unsorted, found by draining
    every combination of parent sets at once as uint8 arrays."""
    v = family.num_nodes
    count = sum(math.comb(v - 1, size) for size in range(max_parents + 1))  # sets per node
    # count >= v, so the limit keeps v <= 7 and a parent mask fits in uint8
    if count ** v > _SCAN_LIMIT:
        raise FamilyTooLargeError(f"{family}: scanning {count ** v} parent-set combinations "
                                  "exceeds the enumeration budget")
    options = [np.array([m for m in range(1 << v) if not m >> n & 1
                         and m.bit_count() <= max_parents], dtype=np.uint8) for n in range(v)]
    # node n's parent set varies with stride count ** (v - 1 - n) over the combinations
    parents = [np.tile(np.repeat(options[n], count ** (v - 1 - n)), count ** n) for n in range(v)]
    keep = _drained(parents, np.uint8(0)) == (1 << v) - 1
    if edges is not None:
        keep &= sum(np.bitwise_count(mask) for mask in parents) == edges
    kept = np.stack([mask[keep] for mask in parents], axis=1)  # parent masks by child
    parent, child = _ordered_pair(np.arange(v * (v - 1)), v)
    present = (kept[:, child] >> parent.astype(np.uint8)) & 1  # columns in component order
    comps = np.nonzero(present)[1].tolist()
    ends = np.cumsum(present.sum(axis=1)).tolist()
    for lo, hi in zip([0] + ends, ends):
        yield tuple(comps[lo:hi])


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


def make_input(family: StructureFamily, bits) -> np.ndarray:
    """An observed input: a uint8 0/1 vector over the family's candidate-pair
    coordinates."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.shape != (family.feature_dim,):
        raise ValueError(f"expected {family.feature_dim} bits, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("input bits must be 0/1")
    return arr


def input_bits(family: StructureFamily, x) -> np.ndarray:
    """Coerce a 0/1 vector to a float array of length d."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (family.feature_dim,):
        raise ValueError(f"expected {family.feature_dim} bits, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# enumeration


class EnumeratedSpace:
    """All outputs of a family in canonical order, with score/distance machinery.

    ``incidence`` is the (size x feature_dim) 0/1 matrix whose row y is the
    feature-grid incidence of output y, so the feature vector of (x, y) is
    ``incidence[y] * x`` and ``score_matrix`` scores every output for a batch
    of inputs in one matrix product.
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
        # int32 halves the scatters' temporaries (fresh tree:7 build: peak RSS 128 -> 111 MB)
        comps = np.fromiter(itertools.chain.from_iterable(y.components for y in self.outputs),
                            dtype=np.int32, count=int(lengths.sum()))
        rows = np.repeat(np.arange(self.size, dtype=np.int32), lengths)
        self.masks = np.zeros((self.size, (family.component_count + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(self.masks, (rows, comps >> 6),
                         np.left_shift(np.uint64(1), (comps & 63).astype(np.uint64)))
        self.incidence = np.zeros((self.size, family.feature_dim))
        self.incidence[family._feature_cells(rows, comps)] = 1.0
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
        if y.family is not self.family and y.family != self.family:
            raise ValueError(f"{y.components} is a structure of {y.family}, not of {self.family}")
        try:
            return self.index_of[y.components]
        except KeyError:
            raise ValueError(f"{y.components} is not a valid structure of {self.family}") from None

    def score_matrix(self, bit_matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(size x m) scores for a batch of inputs given as an (m x d) bit matrix."""
        return self.incidence @ (bit_matrix * w).T

    def pair_distances(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise symmetric-difference sizes between two index arrays."""
        return np.bitwise_count(self.masks[left] ^ self.masks[right]).sum(axis=-1).astype(np.int64)


_SPACE_CACHE: dict[StructureFamily, EnumeratedSpace] = {}


def space(family: StructureFamily) -> EnumeratedSpace:
    """The cached enumeration of the family (built once per process): every
    valid structure exactly once, sorted by component tuple.  Raises
    FamilyTooLargeError instead of truncating when the family exceeds
    ``ENUMERATION_BUDGET``."""
    sp = _SPACE_CACHE.get(family)
    if sp is None:
        comps = list(itertools.islice(family._iter_components(), ENUMERATION_BUDGET + 1))
        if len(comps) > ENUMERATION_BUDGET:
            raise FamilyTooLargeError(
                f"{family}: more outputs than the enumeration budget {ENUMERATION_BUDGET}")
        comps.sort()
        sp = EnumeratedSpace(family, [StructuredOutput(family, c) for c in comps])
        _SPACE_CACHE[family] = sp
    return sp


# ---------------------------------------------------------------------------
# feature map


def feature_map(family: StructureFamily, x, y: StructuredOutput) -> FeatureVector:
    """Joint feature vector: coordinate (i, j) fires iff the input bit (i, j)
    is set and the structure contains the pair (both elements chosen, or the
    edge present).  Raises ValueError for a structure the family rejects."""
    if y.family != family:
        raise ValueError("structure does not belong to this family")
    # the maps assume valid structures (a subset's map pairs elements k at a time)
    if not family.is_valid(y.components):
        raise ValueError(f"{y.components} is not a valid structure of {family}")
    comps = np.asarray(y.components, dtype=np.int64)
    row = np.zeros(family.feature_dim)
    row[family._feature_cells(np.zeros_like(comps), comps)[1]] = 1.0
    return row * input_bits(family, x)
