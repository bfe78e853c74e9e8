"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's enumeration and scoring
machinery: structures are generated by exhaustive scans with direct validity
checks, scores by explicit feature dot products, neighborhoods by
brute-force component distances, and the proposal pass by a literal
transcription of its definition.  The exceptions are the
restricted-loss and augmentation references at the end: they are the
per-sample loops that the library's segment reductions replaced, and they
index and score through the enumerated space; so does the Monte-Carlo
estimate of the exact loss, which decodes fresh Gumbel draws instead of
using the closed form.
"""

import itertools

import numpy as np

from randcrf import (DagFamily, LossKind, LossReport, SpanningTreeFamily, SubsetFamily,
                     feature_map, gumbel_from_uniform, space)
from randcrf.gumbel_crf import pmf_matrix
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


def edge_of(family, component):
    """The (parent, child) node pair of a tree or DAG edge component."""
    return all_ordered_pairs(family.num_nodes)[component]


def prob_of(dist, y):
    """The probability a ``CrfDistribution`` gives output ``y``."""
    return float(dist.probs[dist.support.index(y)])


def score_of(family, x, y, w):
    return float(feature_map(family, x, y) @ np.asarray(w, dtype=np.float64))


def component_distance(y, y2):
    """Unnormalized Hamming distance: component symmetric-difference size."""
    if y.family != y2.family:
        raise ValueError("structures from different families")
    return len(set(y.components) ^ set(y2.components))


def hamming(y, y2):
    """Normalized Hamming distance in [0, 1]: symmetric difference over the
    family's maximum achievable symmetric-difference size."""
    return component_distance(y, y2) / y.family.hamming_normalizer


def exhaustive_map_decode(family, x, w):
    """Argmax by scanning the enumeration; ties to the earliest (canonical) output."""
    best = None
    best_score = -np.inf
    for y in space(family).outputs:
        s = score_of(family, x, y, w)
        if s > best_score:
            best, best_score = y, s
    return best


def distances_to(sp, idx):
    """Component symmetric-difference sizes from output ``idx`` to every
    output of the enumerated space, one set difference at a time."""
    comps = set(sp.outputs[idx].components)
    return np.array([len(comps ^ set(z.components)) for z in sp.outputs], dtype=np.int64)


def neighbor_indices(sp, idx, k):
    """Indices of the outputs at component distance 1..k from output ``idx``."""
    d = distances_to(sp, idx)
    return np.nonzero((d > 0) & (d <= k))[0]


def neighbors_k(family, y, k):
    """All valid structures within component distance k of y, excluding y, in
    canonical order, by brute-force distances over the enumeration (never
    through the space's neighbor table)."""
    sp = space(family)
    return [sp.outputs[i] for i in neighbor_indices(sp, sp.index(y), k)]


def propose_reference(family, x, y_observed, w, cfg, rng):
    """Literal transcription of one proposal draw: alpha-mixture start, then a
    single pass over the start's snapshot neighborhood in canonical order,
    moving whenever the neighbor's score reaches the running candidate's."""
    outputs = space(family).outputs
    u = rng.random(2)
    if u[0] < cfg.alpha:
        start = outputs[int(u[1] * len(outputs))]
    else:
        start = y_observed
    current = start
    for nb in neighbors_k(family, start, cfg.k):
        if score_of(family, x, nb, w) >= score_of(family, x, current, w):
            current = nb
    return current


def random_instance(family, rng, m=4, w_scale=1.0, integer_weights=False):
    """A small random (w, S-like) instance: bit matrix, observed outputs, weights."""
    outputs = space(family).outputs
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
            p, q = edge_of(family, c)
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


# ---------------------------------------------------------------------------
# per-sample restricted losses and augmentation


def _restricted_observed_prob(sp, x, w_eff, cs, y):
    idx = np.array([sp.index(o) for o in cs])
    pos = np.nonzero(idx == sp.index(y))[0]
    if pos.size == 0:
        raise ValueError("candidate set does not contain the observed output")
    scores = sp.incidence[idx] @ (x * w_eff)
    e = np.exp(scores - scores.max())
    return e[pos[0]] / e.sum(), idx


def randomized_loss_reference(w, S, sets, beta):
    """Per-sample probability of missing the observed output under the
    decoder restricted to each candidate set, one sample at a time."""
    sp = space(S.family)
    X = np.asarray(S.inputs, dtype=np.float64)
    w_eff = np.asarray(w, dtype=np.float64) / beta
    return np.array([1.0 - _restricted_observed_prob(sp, X[i], w_eff, cs, y)[0]
                     for i, (cs, y) in enumerate(zip(sets, S.outputs))])


def loss_gap_reference(w, S, sets, beta):
    """Minus the mean of (restricted probability of the observed output)
    times (full-space mass outside the candidate set), one sample at a time."""
    sp = space(S.family)
    X = np.asarray(S.inputs, dtype=np.float64)
    full_probs, _ = pmf_matrix(sp, X, w, beta)
    w_eff = np.asarray(w, dtype=np.float64) / beta
    gap = 0.0
    for i, (cs, y) in enumerate(zip(sets, S.outputs)):
        q, idx = _restricted_observed_prob(sp, X[i], w_eff, cs, y)
        gap -= q * (1.0 - full_probs[idx, i].sum())
    return gap / S.m


def augment_reference(sets, S):
    """Component tuples of each set after adding its observed output where
    missing, by a sorted merge."""
    out = []
    for cs, y in zip(sets, S.outputs):
        comps = [o.components for o in cs]
        out.append(comps if y.components in comps else sorted(comps + [y.components]))
    return out


# ---------------------------------------------------------------------------
# sampled and per-sample references for the CRF losses and objective


def monte_carlo_loss(w, S, beta, draws, seed):
    """Empirical zero-one loss of the perturbed decoder over fresh Gumbel
    draws: an estimate of the exact CRF loss as an ``EXACT_CRF`` report,
    returned with the binomial standard error of the dataset mean."""
    if draws < 1:
        raise ValueError("draws must be >= 1")
    sp = space(S.family)
    y_idx = np.array([sp.index(y) for y in S.outputs])
    scores = sp.score_matrix(np.asarray(S.inputs, dtype=np.float64),
                             np.asarray(w, dtype=np.float64))
    rng = np.random.default_rng(seed)
    chunk = max(1, 8_000_000 // sp.size)
    per = np.empty(S.m)
    for i in range(S.m):
        misses = 0
        done = 0
        while done < draws:
            n = min(chunk, draws - done)
            gamma = gumbel_from_uniform(rng.random((n, sp.size)), beta)
            hits = np.argmax(scores[:, i] + gamma, axis=1)
            misses += int((hits != y_idx[i]).sum())
            done += n
        per[i] = misses / draws
    stderr = float(np.sqrt((per * (1 - per) / draws).sum()) / S.m)
    return LossReport(float(per.mean()), per, LossKind.EXACT_CRF), stderr


def log_likelihood(w, S, sets, beta):
    """Mean log restricted probability of the observed outputs (the CRF
    methods' training objective), one sample at a time."""
    sp = space(S.family)
    X = np.asarray(S.inputs, dtype=np.float64)
    w_eff = np.asarray(w, dtype=np.float64) / beta
    return float(np.mean([np.log(_restricted_observed_prob(sp, X[i], w_eff, cs, y)[0])
                          for i, (cs, y) in enumerate(zip(sets, S.outputs))]))
