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
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

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


class InvalidStructureError(ValueError):
    """A structure its space does not hold, at ``position`` of an ``indices`` batch."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


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

    def _feature_cells(self, comps: np.ndarray) -> np.ndarray:
        # every output holds exactly k sorted elements; each pair of them fires, ascending
        a, b = np.triu_indices(self.k, 1)
        return _unordered_pair_columns(comps[:, a], comps[:, b], self.universe)

    def _components(self) -> np.ndarray:
        # itertools.combinations lists the subsets in lexicographic order already
        _check_budget(self, self.num_outputs)
        return np.fromiter(itertools.combinations(range(self.universe), self.k),
                           dtype=np.dtype((np.int32, (self.k,))), count=self.num_outputs)


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

    def _feature_cells(self, comps: np.ndarray) -> np.ndarray:
        # each edge fires its unordered node pair
        parent, child = _ordered_pair(comps, self.num_nodes)
        return _unordered_pair_columns(np.minimum(parent, child), np.maximum(parent, child),
                                       self.num_nodes)

    def _components(self) -> np.ndarray:
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

    def _feature_cells(self, comps: np.ndarray) -> np.ndarray:
        # the feature grid is the component grid
        return comps

    def _components(self) -> np.ndarray:
        return _parent_set_scan(self, self.max_parents)


StructureFamily = Union[SubsetFamily, SpanningTreeFamily, DagFamily]

# Each family lists its outputs as one canonical component array
# (``_components``): a row per output, its components ascending and padded
# with -1, rows in the lexicographic order of the component tuples.  It maps
# such rows to the feature columns they fire (``_feature_cells``), padded
# with -1 where the components are; the space's ``feature_indices``, which
# only the space's own methods read, come from that map.


def _unordered_pair_columns(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """``unordered_pair_index`` over arrays with i < j elementwise."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def _drained(parents: Sequence[np.ndarray]) -> np.ndarray:
    """Bitmask of the nodes that drain in each of many structures, given each
    node's parents as a uint8 bitmask array (v <= 7).  A node drains once all
    its parents have drained, so a structure is acyclic exactly when all v
    nodes drain; each round drains at least one more node of an acyclic one."""
    drained = np.zeros_like(parents[0])
    for _ in parents:
        for n, mask in enumerate(parents):
            drained |= ((mask & ~drained) == 0) * np.uint8(1 << n)
    return drained


def _parent_set_scan(family: StructureFamily, max_parents: int,
                     edges: int | None = None) -> np.ndarray:
    """Canonical component array of every acyclic choice of at most
    ``max_parents`` parents per node (with ``edges`` edges, when given),
    found by draining every combination of parent sets at once as uint8 arrays."""
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
    keep = _drained(parents) == (1 << v) - 1
    if edges is not None:
        keep &= sum(np.bitwise_count(mask) for mask in parents) == edges
    kept = np.stack([mask[keep] for mask in parents], axis=1)  # parent masks by child
    _check_budget(family, len(kept))
    parent, child = _ordered_pair(np.arange(v * (v - 1)), v)
    present = (kept[:, child] >> parent.astype(np.uint8)) & 1  # columns in component order
    counts = present.sum(axis=1)
    comps = np.full((len(kept), int(counts.max())), -1, dtype=np.int32)
    # a boolean assignment fills row by row, as nonzero lists each row's components
    comps[np.arange(comps.shape[1]) < counts[:, None]] = np.nonzero(present)[1]
    return comps[np.lexsort(comps.T[::-1])]  # -1 sorts a shorter tuple before its extensions


def _check_budget(family: StructureFamily, size: int) -> None:
    if size > ENUMERATION_BUDGET:
        raise FamilyTooLargeError(
            f"{family}: {size} outputs exceed the enumeration budget {ENUMERATION_BUDGET}")


# ---------------------------------------------------------------------------
# structures and inputs


@dataclass(frozen=True)
class StructuredOutput:
    """A structure: a strictly sorted tuple of component indices in [0, component_count)."""

    family: StructureFamily
    components: tuple[int, ...]

    def __post_init__(self):
        comps = self.components
        if not all(a < b for a, b in zip(comps, comps[1:])):
            raise ValueError(f"components must be strictly sorted, got {comps}")
        if comps and not (0 <= comps[0] and comps[-1] < self.family.component_count):
            raise ValueError(f"{comps} is not a valid structure of {self.family}")


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


def _packed_masks(rows: np.ndarray, comps: np.ndarray, n: int, words: int) -> np.ndarray:
    """(n x words) uint64 masks with bit ``comps[e]`` set in row ``rows[e]``."""
    masks = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(masks, (rows, comps >> 6),
                     np.left_shift(np.uint64(1), (comps & 63).astype(np.uint64)))
    return masks


def _mask_keys(masks: np.ndarray) -> np.ndarray:
    """One sortable key per row of packed masks: the word itself, or the
    row's bytes when the masks take several words."""
    if masks.shape[1] == 1:
        return masks[:, 0]
    return np.ascontiguousarray(masks).view(np.dtype((np.void, 8 * masks.shape[1])))[:, 0]


class _Outputs(Sequence):
    """A space's outputs in canonical order, each ``StructuredOutput`` built
    from its component row on first access and kept, so an output is always
    the same object."""

    def __init__(self, family: StructureFamily, components: np.ndarray):
        self._family = family
        self._components = components
        self._built: list[StructuredOutput | None] = [None] * len(components)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        y = self._built[i]
        if y is None:
            row = self._components[i]
            y = self._built[i] = StructuredOutput(self._family, tuple(row[row >= 0].tolist()))
        return y

    def __eq__(self, other):
        # equal to a tuple of the same outputs, as the tuple it stands for
        if not isinstance(other, (_Outputs, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class EnumeratedSpace:
    """All outputs of a family in canonical order, with score/distance machinery.

    Everything derives from ``components``, the family's canonical component
    array (row y lists output y's components ascending, padded with -1):
    ``outputs`` makes each ``StructuredOutput`` on first access, ``masks``
    packs each row's components into bits (``indices`` looks structures up
    in them), and ``feature_indices`` lists each row's features.  Only the
    space's own methods read that layout: ``gather_scores``,
    ``score_matrix`` and ``score_rows`` score outputs, ``feature_rows``
    builds their 0/1 rows (``incidence`` holds all of them), and
    ``feature_sums`` and ``feature_sums_full`` add weighted rows up.
    """

    def __init__(self, family: StructureFamily, components: np.ndarray):
        self.family = family
        self.components = components
        self.size = len(components)
        self.outputs = _Outputs(family, components)
        rows, slots = np.nonzero(components >= 0)
        self.masks = _packed_masks(rows, components[rows, slots], self.size,
                                   (family.component_count + 63) // 64)
        d = family.feature_dim
        cells = family._feature_cells(components).astype(np.int64)
        cells[cells < 0] = d
        cells.sort(axis=1)
        if not cells.shape[1]:  # no output fires a feature (subsets of one element)
            cells = np.full((self.size, 1), d, dtype=np.int64)
        #: (max_nnz x size): column y lists output y's active features
        #: ascending, padded with the sentinel ``feature_dim``, which the
        #: methods point at a zero column.  Row-major, so gathering one slot
        #: for many outputs reads a contiguous row.
        self.feature_indices = np.ascontiguousarray(cells.T)
        self.incidence = self.feature_rows(np.arange(self.size))
        self._neighbor_csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._masks_sorted: tuple[np.ndarray, np.ndarray] | None = None

    def neighbor_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, data) of the distance-<=k neighbor lists of every output,
        each list ascending (canonical order).

        Scans all pairs of outputs in blocks of rows: per block, the XOR of
        the packed masks is popcounted into small unsigned distances, one
        compare of ``distance - 1`` (which wraps to the type's maximum for
        the output itself) against k keeps the neighbors, and one flat
        ``nonzero`` lists them.  Generic balls, built by toggling every
        one or two components and looking the results up by
        ``searchsorted`` in the sorted masks, were slower at k = 2
        (in-process, median of 15 on a 2-core x86 VM, generated against
        scanned): set:4,15 9.4 against 4.0 ms, dag:5,1 14.1 against
        3.9 ms, set:4,20 65 against 31 ms, tree:6 250 against 73 ms,
        dag:5,2 278 against 242 ms."""
        cached = self._neighbor_csr.get(k)
        if cached is None:
            r, words = self.masks.shape
            dist_type = np.uint8 if words == 1 else np.uint16
            limit = min(max(k, 0), int(np.iinfo(dist_type).max))
            counts = np.empty(r, dtype=np.int64)
            pieces = []
            chunk = max(1, _NEIGHBOR_BLOCK_PAIRS // r)
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
            cached = (indptr, np.concatenate(pieces))
            self._neighbor_csr[k] = cached
        return cached

    def index(self, y: StructuredOutput) -> int:
        """Position of ``y`` in canonical order; see ``indices``."""
        return int(self.indices((y,))[0])

    def indices(self, ys: Sequence[StructuredOutput]) -> np.ndarray:
        """Positions of the structures ``ys`` in canonical order, looked up by
        ``searchsorted`` over the sorted packed masks.  Raises for the first
        one that belongs to another family (ValueError) or is not a valid
        structure of this one (InvalidStructureError)."""
        for position, y in enumerate(ys):
            if y.family is not self.family and y.family != self.family:
                self.indices(ys[:position])  # an invalid structure earlier is named first
                raise ValueError(f"{y.components} is a structure of {y.family}, not of {self.family}")
        if self._masks_sorted is None:
            keys = _mask_keys(self.masks)
            order = np.argsort(keys)
            self._masks_sorted = keys[order], order
        keys, order = self._masks_sorted
        comps = [y.components for y in ys]
        lengths = np.fromiter(map(len, comps), dtype=np.int64, count=len(comps))
        flat = np.fromiter(itertools.chain.from_iterable(comps), dtype=np.int64,
                           count=int(lengths.sum()))
        rows = np.arange(len(comps)).repeat(lengths)
        masks = _packed_masks(rows, flat, len(comps), self.masks.shape[1])
        found = order[keys.searchsorted(_mask_keys(masks)).clip(max=self.size - 1)]
        valid = (self.masks[found] == masks).all(axis=1)
        if not valid.all():
            position = int(valid.argmin())
            raise InvalidStructureError(
                f"{comps[position]} is not a valid structure of {self.family}", position)
        return found

    def score_matrix(self, bit_matrix: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(size x m) scores for a batch of inputs given as an (m x d) bit matrix."""
        return self.score_rows(bit_matrix * w)

    def score_rows(self, xw: np.ndarray) -> np.ndarray:
        """(size x n) scores of every output under each row of the (n x d)
        input*weight matrix ``xw``: one BLAS product."""
        return self.incidence @ xw.T

    def gather_scores(self, xw: np.ndarray, rows, idx: np.ndarray) -> np.ndarray:
        """Score of output ``idx[e]`` under row ``rows[e]`` of the (n x d)
        input*weight matrix ``xw``, for every entry e: that row's entries
        at the output's active features, gathered for the pair alone.
        numpy adds across the rows of a C-ordered array one row at a time,
        so each sum runs in ascending feature order, whatever the BLAS (but
        a lone pair from a table 8 or more wide is added pairwise)."""
        padded = np.concatenate([xw, np.zeros((xw.shape[0], 1))], axis=1)
        positions = self.feature_indices.take(idx, axis=1)
        positions += rows * padded.shape[1]
        return np.add.reduce(padded.ravel().take(positions), axis=0)

    def feature_sums(self, weights: np.ndarray, rows, idx: np.ndarray, m: int) -> np.ndarray:
        """(m x d) sums: row i adds ``weights[e] * incidence[idx[e]]`` over
        the entries e with ``rows[e] == i``, each coordinate in entry order
        (a row that no entry names is zero)."""
        d1 = self.family.feature_dim + 1
        positions = self.feature_indices.take(idx, axis=1)
        positions += rows * d1
        # entry-major order, so each feature accumulates in entry order
        sums = np.bincount(positions.T.ravel(), weights=weights.repeat(positions.shape[0]),
                           minlength=m * d1)
        return sums.reshape(m, d1)[:, :-1]

    def feature_sums_full(self, probs: np.ndarray) -> np.ndarray:
        """(m x d) sums over the whole space: row i adds ``probs[y, i] *
        incidence[y]`` over every output y, in one BLAS product
        ``incidence.T @ probs`` whose rounding is the kernel's (and varies
        with its thread count)."""
        return (self.incidence.T @ probs).T

    def feature_rows(self, idx: np.ndarray) -> np.ndarray:
        """The 0/1 feature rows ``incidence[idx]``, built from
        ``feature_indices``: an (n x d) view of rows one column wider, where
        the padding lands."""
        rows = np.zeros((idx.size, self.family.feature_dim + 1))
        rows[np.arange(idx.size), self.feature_indices[:, idx]] = 1.0
        return rows[:, :-1]

    def pair_distances(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise symmetric-difference sizes between two index arrays."""
        return np.bitwise_count(self.masks[left] ^ self.masks[right]).sum(axis=-1).astype(np.int64)


_SPACE_CACHE: dict[StructureFamily, EnumeratedSpace] = {}


def space(family: StructureFamily) -> EnumeratedSpace:
    """The cached enumeration of the family (built once per process): every
    valid structure exactly once, sorted by component tuple.  Raises
    FamilyTooLargeError instead of truncating when the family exceeds
    ``ENUMERATION_BUDGET``; a subset family before it enumerates anything."""
    sp = _SPACE_CACHE.get(family)
    if sp is None:
        sp = _SPACE_CACHE[family] = EnumeratedSpace(family, family._components())
    return sp


# ---------------------------------------------------------------------------
# feature map


def feature_map(family: StructureFamily, x, y: StructuredOutput) -> FeatureVector:
    """Joint feature vector: coordinate (i, j) fires iff the input bit (i, j)
    is set and the structure contains the pair (both elements chosen, or the
    edge present): the structure's feature row in the family's space, times
    the input.  Like every function over structures it needs an enumerable
    family (FamilyTooLargeError past the enumeration budget), and the space's
    ``indices`` raises ValueError for a structure of another family or not a
    valid one of this one."""
    sp = space(family)
    return sp.feature_rows(sp.indices((y,)))[0] * input_bits(family, x)
