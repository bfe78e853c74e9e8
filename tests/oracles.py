"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's enumeration and scoring
machinery: structures are generated by exhaustive scans with direct validity
checks (whole spaces up to tree:7 by one array scan over every combination of
parent sets, read back into sorted tuples), scores by explicit feature dot products, neighborhoods by
brute-force component distances, and the proposal pass by a literal
transcription of its definition.  The exceptions are the
restricted-loss, hinge and augmentation references at the end: they are the
per-sample loops that the library's segment reductions replaced, and they
index and score through the enumerated space; so does the Monte-Carlo
estimate of the exact loss, which decodes fresh Gumbel draws instead of
using the closed form.  The random datasets, candidate sets and CSV reader
that several test modules share live here too.
"""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from randcrf import (DagFamily, Dataset, LossKind, LossReport, SpanningTreeFamily,
                     StructuredOutput, SubsetFamily, feature_map, gumbel_from_uniform, space)
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
# builders the test modules share


def make_dataset(family, rng, m):
    """A ``random_instance`` of m samples as a Dataset, with its weights."""
    X, ys, w = random_instance(family, rng, m=m)
    return Dataset(family, X, ys), w


def random_augmented_sets(S, rng, max_extra=5):
    """Per-sample candidate sets: the observed output plus up to
    ``max_extra`` distinct outputs drawn uniformly, in canonical order."""
    sp = space(S.family)
    sets = []
    for y in S.outputs:
        extras = rng.choice(sp.size, size=int(rng.integers(0, max_extra + 1)), replace=False)
        idx = sorted({int(e) for e in extras} | {sp.index(y)})
        sets.append(tuple(sp.outputs[i] for i in idx))
    return sets


def strip_timing(path):
    """A metrics CSV's text without its ``train_seconds`` column."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = [i for i, name in enumerate(rows[0]) if name == "train_seconds"]
    return "\n".join(",".join(c for i, c in enumerate(row) if i not in drop) for row in rows)


# ---------------------------------------------------------------------------
# the tuple-based construction of an enumerated space and its tables


def _drain(parents):
    """Bitmask of the nodes that drain, given uint8 arrays of each node's
    parents: a node drains once all its parents have drained."""
    drained = np.zeros_like(parents[0])
    for _ in parents:
        for n, mask in enumerate(parents):
            drained |= ((mask & ~drained) == 0) * np.uint8(1 << n)
    return drained


def parent_set_tuples(v, max_parents, edges=None):
    """Component tuples of every acyclic choice of at most ``max_parents``
    parents per node (with ``edges`` edges, when given), unsorted: every
    combination of parent sets, drained at once as uint8 arrays and read
    back as one tuple per structure.  Used up to tree:7, where the
    per-subset scans above are too slow."""
    count = sum(math.comb(v - 1, size) for size in range(max_parents + 1))
    options = [np.array([m for m in range(1 << v) if not m >> n & 1
                         and m.bit_count() <= max_parents], dtype=np.uint8) for n in range(v)]
    parents = [np.tile(np.repeat(options[n], count ** (v - 1 - n)), count ** n) for n in range(v)]
    keep = _drain(parents) == (1 << v) - 1
    if edges is not None:
        keep &= sum(np.bitwise_count(mask) for mask in parents) == edges
    kept = np.stack([mask[keep] for mask in parents], axis=1)
    pairs = np.array(all_ordered_pairs(v))
    present = (kept[:, pairs[:, 1]] >> pairs[:, 0].astype(np.uint8)) & 1
    comps = np.nonzero(present)[1].tolist()
    ends = np.cumsum(present.sum(axis=1)).tolist()
    return [tuple(comps[lo:hi]) for lo, hi in zip([0] + ends, ends)]


@dataclass(frozen=True, eq=False)
class TupleSpace:
    """A family's outputs as the sorted component tuples give them, one
    ``StructuredOutput`` each, with a dict from tuples to positions."""

    outputs: tuple
    index_of: dict


def tuple_space(family):
    """Sorted component tuples -> ``StructuredOutput``s -> dict: subsets
    from ``itertools.combinations``, trees and DAGs from
    ``parent_set_tuples``."""
    if isinstance(family, SubsetFamily):
        comps = list(itertools.combinations(range(family.universe), family.k))
    elif isinstance(family, SpanningTreeFamily):
        comps = parent_set_tuples(family.num_nodes, 1, family.num_nodes - 1)
    else:
        comps = parent_set_tuples(family.num_nodes, family.max_parents)
    comps.sort()
    return TupleSpace(tuple(StructuredOutput(family, c) for c in comps),
                      {c: i for i, c in enumerate(comps)})


def masks_reference(family, outputs):
    """Packed component bitmasks: each output's components as the bits of
    one Python integer, cut into 64-bit words."""
    words = (family.component_count + 63) // 64
    bits = [sum(1 << c for c in y.components) for y in outputs]
    return np.array([[b >> 64 * j & (1 << 64) - 1 for j in range(words)] for b in bits],
                    dtype=np.uint64)


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


def incidence_reference(family, outputs):
    return np.vstack([incidence_row_reference(family, y.components) for y in outputs])


def feature_indices_reference(incidence):
    """(width x size) ascending active coordinates per output, padded with d."""
    d = incidence.shape[1]
    nz = [np.nonzero(row)[0] for row in incidence]
    width = max((len(a) for a in nz), default=0) or 1
    out = np.full((width, len(nz)), d, dtype=np.int64)
    for i, a in enumerate(nz):
        out[:len(a), i] = a
    return out


def gather_scores_reference(incidence, xw, rows, idx):
    """Score of output ``idx[e]`` under row ``rows[e]`` of ``xw``, one pair
    at a time, adding its active features in ascending order."""
    scores = np.zeros(len(idx))
    for e, (i, y) in enumerate(zip(rows, idx)):
        for j in np.nonzero(incidence[y])[0]:
            scores[e] += xw[i, j]
    return scores


def feature_sums_reference(incidence, weights, rows, idx, m):
    """Row i adds ``weights[e] * incidence[idx[e]]`` over the entries e with
    ``rows[e] == i``, one entry at a time in entry order."""
    sums = np.zeros((m, incidence.shape[1]))
    for weight, i, y in zip(weights, rows, idx):
        for j in np.nonzero(incidence[y])[0]:
            sums[i, j] += weight
    return sums


def neighbor_csr_references(masks, radii):
    """For each radius k, the CSR of the outputs at component distance 1..k
    from each output, from one int64 distance row per output."""
    counts = {k: [] for k in radii}
    data = {k: [] for k in radii}
    for row in masks:
        dist = np.bitwise_count(masks ^ row).sum(axis=1).astype(np.int64)
        for k in radii:
            hit = np.nonzero((dist > 0) & (dist <= k))[0].astype(np.int64)
            counts[k].append(hit.size)
            data[k].append(hit)
    tables = []
    for k in radii:
        indptr = np.zeros(len(masks) + 1, dtype=np.int64)
        np.cumsum(counts[k], out=indptr[1:])
        tables.append((indptr, np.concatenate(data[k])))
    return tables


# ---------------------------------------------------------------------------
# per-sample restricted softmax, losses and augmentation


def segment_softmax_reference(scores):
    """Softmax of one segment's scores and its log-partition, entry by entry
    in float64, the normalizer summed exactly by ``math.fsum``."""
    shift = max(scores)
    e = [math.exp(v - shift) for v in scores]
    z = math.fsum(e)
    return np.array([v / z for v in e]), shift + math.log(z)


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


def hinge_terms_reference(w, S, sets):
    """Per-sample structured-hinge margins and the mean subgradient, one
    sample at a time: each set's loss-augmented argmax in canonical order
    (ties to the earliest), scored by adding features in ascending order,
    and its feature row minus the observed one, times the input."""
    family = S.family
    sp = space(family)
    X = np.asarray(S.inputs, dtype=np.float64)
    xw = X * np.asarray(w, dtype=np.float64)
    margins, rows = [], []
    for i, (cs, y) in enumerate(zip(sets, S.outputs)):
        idx = sorted(sp.index(z) for z in cs) + [sp.index(y)]
        scores = gather_scores_reference(sp.incidence, xw, [i] * len(idx), idx)
        aug = scores[:-1] + [hamming(sp.outputs[j], y) for j in idx[:-1]]
        best = int(np.argmax(aug))
        margins.append(aug[best] - scores[-1])
        rows.append((incidence_row_reference(family, sp.outputs[idx[best]].components)
                     - incidence_row_reference(family, y.components)) * X[i])
    return np.array(margins), np.array(rows).mean(axis=0)


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
    scores = sp.score_rows(np.asarray(S.inputs, dtype=np.float64) * np.asarray(w, dtype=np.float64))
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
