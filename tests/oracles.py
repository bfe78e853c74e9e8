"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's enumeration and scoring
machinery: structures are generated by exhaustive scans with direct validity
checks, scores by explicit feature dot products, and the proposal pass by a
literal transcription of its definition.
"""

import itertools

import numpy as np

from randcrf import (DagFamily, SpanningTreeFamily, SubsetFamily, enumerate_outputs,
                     feature_map, neighbors_k)
from randcrf.spaces import unordered_pair_index


def all_ordered_pairs(v):
    return [(i, j) for i in range(v) for j in range(v) if i != j]


def brute_force_tree_components(v):
    """All rooted directed spanning trees on v labelled nodes, found by scanning
    every (v-1)-subset of directed edges and checking validity from scratch."""
    pairs = all_ordered_pairs(v)
    found = set()
    for combo in itertools.combinations(range(len(pairs)), v - 1):
        edges = [pairs[c] for c in combo]
        children = [c for _, c in edges]
        if len(set(children)) != len(children):
            continue
        roots = set(range(v)) - set(children)
        if len(roots) != 1:
            continue
        reach = set(roots)
        frontier = list(reach)
        heads = {}
        for p, c in edges:
            heads.setdefault(p, []).append(c)
        while frontier:
            for c in heads.get(frontier.pop(), ()):
                if c not in reach:
                    reach.add(c)
                    frontier.append(c)
        if len(reach) == v:
            found.add(tuple(combo))
    return found


def brute_force_dag_components(v, max_parents):
    """All bounded-in-degree DAGs on v labelled nodes by scanning every subset
    of directed edges, with acyclicity checked by repeated source removal."""
    pairs = all_ordered_pairs(v)
    found = set()
    for bits in range(2 ** len(pairs)):
        comps = tuple(c for c in range(len(pairs)) if bits >> c & 1)
        edges = [pairs[c] for c in comps]
        indeg = [0] * v
        for _, c in edges:
            indeg[c] += 1
        if any(x > max_parents for x in indeg):
            continue
        remaining = list(edges)
        nodes = set(range(v))
        while nodes:
            sinks_in = {c for _, c in remaining}
            sources = nodes - sinks_in
            if not sources:
                break
            nodes -= sources
            remaining = [(p, c) for p, c in remaining if p not in sources]
        if not nodes:
            found.add(comps)
    return found


def score_of(family, x, y, w):
    return float(feature_map(family, x, y) @ np.asarray(w, dtype=np.float64))


def exhaustive_map_decode(family, x, w):
    """Argmax by scanning the enumeration; ties to the earliest (canonical) output."""
    best = None
    best_score = -np.inf
    for y in enumerate_outputs(family):
        s = score_of(family, x, y, w)
        if s > best_score:
            best, best_score = y, s
    return best


def propose_reference(family, x, y_observed, w, cfg, rng):
    """Literal transcription of one proposal draw: alpha-mixture start, then a
    single pass over the start's snapshot neighborhood in canonical order,
    moving whenever the neighbor's score reaches the running candidate's."""
    outputs = enumerate_outputs(family)
    u = rng.random(2)
    if u[0] < cfg.alpha:
        start = outputs[int(u[1] * len(outputs))]
    else:
        start = y_observed
    current = start
    for nb in neighbors_k(family, x, start, cfg.k):
        if score_of(family, x, nb, w) >= score_of(family, x, current, w):
            current = nb
    return current


def random_instance(family, rng, m=4, w_scale=1.0, integer_weights=False):
    """A small random (w, S-like) instance: bit matrix, observed outputs, weights."""
    outputs = enumerate_outputs(family)
    d = family.feature_dim
    X = rng.integers(0, 2, size=(m, d), dtype=np.uint8)
    ys = tuple(outputs[int(i)] for i in rng.integers(0, len(outputs), size=m))
    if integer_weights:
        w = rng.integers(-3, 4, size=d).astype(np.float64)
    else:
        w = rng.normal(0.0, w_scale, size=d)
    return X, ys, w


# ---------------------------------------------------------------------------
# per-output constructions of the enumerated-space tables


def masks_reference(sp):
    """Packed component bitmasks, one bit set per component of each output."""
    masks = np.zeros((sp.size, (sp.family.component_count + 63) // 64), dtype=np.uint64)
    for i, y in enumerate(sp.outputs):
        for c in y.components:
            masks[i, c >> 6] |= np.uint64(1 << (c & 63))
    return masks


def incidence_row_reference(family, components):
    """Feature-grid incidence of one structure, pair by pair."""
    row = np.zeros(family.feature_dim)
    if isinstance(family, SubsetFamily):
        for a, b in itertools.combinations(components, 2):
            row[unordered_pair_index(a, b, family.universe)] = 1.0
    elif isinstance(family, SpanningTreeFamily):
        for c in components:
            p, q = family.edge_of(c)
            row[unordered_pair_index(p, q, family.num_nodes)] = 1.0
    else:
        assert isinstance(family, DagFamily)
        row[list(components)] = 1.0
    return row


def incidence_reference(sp):
    return np.vstack([incidence_row_reference(sp.family, y.components) for y in sp.outputs])


def feature_indices_reference(incidence):
    """(width x size) ascending active coordinates per output, padded with d."""
    d = incidence.shape[1]
    nz = [np.nonzero(row)[0] for row in incidence]
    width = max((len(a) for a in nz), default=0) or 1
    out = np.full((width, len(nz)), d, dtype=np.int64)
    for i, a in enumerate(nz):
        out[:len(a), i] = a
    return out


def neighbor_csr_reference(masks, k):
    """CSR of the outputs at component distance 1..k from each output, by an
    int64 distance row per output."""
    counts, data = [], []
    for row in masks:
        dist = np.bitwise_count(masks ^ row).sum(axis=1).astype(np.int64)
        hit = np.nonzero((dist > 0) & (dist <= k))[0].astype(np.int64)
        counts.append(hit.size)
        data.append(hit)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.concatenate(data)
