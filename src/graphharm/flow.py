"""st-potentials, st-electrical flows, and edge centrality measures.

An st-potential is p_st = L^+(1_s - 1_t) = Y (Y_s - Y_t) in the
resistance embedding Y (`spectra.embedding` at k=1); the matching flow is
f_st = W boundary^T p_st, signed relative to each edge's stored
orientation.  The all-pairs centralities need no loop over pairs: the
squared-flow sum is n w_e B_e^2, and the current-flow sum is a sorted
row w_e (L^+[u_e] - L^+[v_e]) against fixed coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import harmonic, spectra
from .graph import Graph, GraphError, _integer_in, require_connected, require_seed, require_vertex
from .harmonic import EdgeScores


@dataclass(frozen=True)
class Potential:
    source: int
    target: int
    values: np.ndarray  # vertex-indexed


@dataclass(frozen=True)
class Flow:
    source: int
    target: int
    values: np.ndarray  # edge-indexed, signed by stored orientation


def st_potential(g: Graph, s: int, t: int) -> Potential:
    s, t = require_vertex(g, s), require_vertex(g, t)
    if s == t:
        raise GraphError("st-potential requires s != t")
    Y = spectra.embedding(harmonic._connected_dec(g), 1.0)
    return Potential(s, t, Y @ (Y[s] - Y[t]))


def st_flow(g: Graph, s: int, t: int) -> Flow:
    p = st_potential(g, s, t)
    return Flow(p.source, p.target, g._w * (p.values[g._u] - p.values[g._v]))


def squared_flow_centrality(g: Graph) -> EdgeScores:
    """Per edge, sum over unordered pairs of f_st(e)^2 / w_e.

    That sum is n * w_e * B_e^2, read off the biharmonic edge scores in
    O(m n); `validate` checks it against the pair sum itself.
    """
    return EdgeScores(g.n * g._w * harmonic.biharmonic_edge_sq(g).values)


def current_flow_centrality(g: Graph) -> EdgeScores:
    """C_e = sum over unordered pairs of |f_st(e)|.

    Row a = w_e (L^+[u_e] - L^+[v_e]) holds f_st(e) = a_s - a_t; sorted
    ascending, sum_{s<t} |a_s - a_t| = sum_i a_(i) (2i - n + 1) (0-based i).
    Rows are formed and sorted in blocks of about spectra._BLOCK_ELEMENTS
    floats, so beside L^+ no m x n array is held.
    """
    P = spectra.pinv_powers(harmonic._connected_dec(g), 1)[0]
    coeffs = 2.0 * np.arange(g.n) - g.n + 1.0
    out = np.empty(g.m)
    step = max(1, spectra._BLOCK_ELEMENTS // g.n)
    for lo in range(0, g.m, step):
        F = P[g._u[lo:lo + step]] - P[g._v[lo:lo + step]]
        F *= g._w[lo:lo + step, None]
        F.sort(axis=1)
        out[lo:lo + step] = F @ coeffs
    return EdgeScores(out)


# A block of BFS sources in edge_betweenness spans about this many entries
# per temporary (block x n vertex states, block x 2m arc reads).
_SOURCE_BLOCK_ELEMENTS = 2**18


def edge_betweenness(g: Graph) -> EdgeScores:
    """Shortest-path edge betweenness on the hop metric (`_betweenness`) of a connected g."""
    require_connected(g)
    return EdgeScores(_betweenness(g.n, g._u, g._v))


def _betweenness(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Edge betweenness of the edges (u, v), which must connect 0..n-1.

    Brandes' accumulation, run for a block of sources at once, one BFS
    level at a time over the 2m arcs grouped by tail.  The key of (source
    row r, vertex x) is r n + x.  Each level expands the arcs leaving its
    frontier; an arc that reaches an unseen key is a shortest-path DAG
    arc and passes its tail's path count sigma on.  A block of b sources
    has b (n - 1) keys to reach; once every one is, the BFS stops, so the
    last level's arcs, which reach nothing new, are never expanded.  Going
    back, DAG arc (x, y) carries sigma(x) (1 + delta(y)) / sigma(y), which
    is both its edge's share and x's gain in delta.  The work is O(n m) in
    all, but every BFS level costs one round of numpy steps per block of
    sources, so on a graph of diameter D the about D n / block rounds
    dominate: a long path pays in step overhead, not in arithmetic.  Path
    counts are integers, exact in float64 up to 2**53.  Each unordered
    pair is counted from both ends.
    """
    m = len(u)
    if m == 0:
        return np.zeros(0)
    tails = np.stack([u, v], axis=1).ravel()  # arc 2e runs u -> v, arc 2e+1 v -> u
    order = np.argsort(tails, kind="stable")  # the arcs leaving each vertex, in edge order, as one run
    hop = np.stack([v, u], axis=1).ravel()[order] - tails[order]  # key change along each arc
    edge_ids = order // 2
    deg = np.bincount(tails, minlength=n)
    start = np.cumsum(deg) - deg  # each vertex's first arc
    scores = np.zeros(m)
    step = max(1, _SOURCE_BLOCK_ELEMENTS // (n + 2 * m))
    for lo in range(0, n, step):
        b = min(lo + step, n) - lo
        frontier = np.arange(b) * (n + 1) + lo  # the sources' keys
        sigma = np.zeros(b * n)
        sigma[frontier] = 1.0
        mark = np.full(b * n, -1)  # >= 0 once a key is reached
        mark[frontier] = 0
        unseen = b * (n - 1)
        dag = []  # per level: tail keys, head keys, arc indices
        while unseen:
            x = frontier % n
            cnt = deg[x]
            ends = np.cumsum(cnt)
            arc = np.arange(ends[-1]) + np.repeat(start[x] - ends + cnt, cnt)
            tail = np.repeat(frontier, cnt)
            head = tail + hop[arc]
            fresh = mark[head] < 0
            tail, head, arc = tail[fresh], head[fresh], arc[fresh]
            pos = np.arange(len(head))
            mark[head] = pos
            frontier = head[mark[head] == pos]  # each new key once
            unseen -= len(frontier)
            np.add.at(sigma, head, sigma[tail])
            dag.append((tail, head, arc))
        delta = np.zeros(b * n)
        shares = []
        for tail, head, _ in reversed(dag):
            share = sigma[tail] / sigma[head] * (1.0 + delta[head])
            np.add.at(delta, tail, share)
            shares.append(share)
        arcs = np.concatenate([arc for _, _, arc in reversed(dag)])
        scores += np.bincount(edge_ids[arcs], np.concatenate(shares), minlength=m)
    return scores / 2.0


def spearman(scores_a: EdgeScores, scores_b: EdgeScores) -> float:
    """Spearman rank correlation, with average ranks per tie group (`harmonic.tie_groups`)."""
    a, b = scores_a.values, scores_b.values
    if len(a) != len(b):
        raise GraphError(f"edge sets differ in size ({len(a)} vs {len(b)})")
    if len(a) < 2:
        raise GraphError("need at least 2 edges for a rank correlation")
    return float(np.corrcoef(np.vstack([_average_ranks(a), _average_ranks(b)]))[1, 0])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of finite x; each tie group (`harmonic.tie_groups`) gets the mean of its positions."""
    if not np.all(np.isfinite(x)):
        raise GraphError("scores must be finite to be ranked")
    groups = harmonic.tie_groups(x)
    counts = np.bincount(groups)
    if len(counts) == 1:
        raise GraphError("degenerate ranking: all scores tied")
    return (np.cumsum(counts) - (counts - 1) / 2)[groups]


KHARMONIC_K = {"resistance": 1.0, "biharmonic2": 2.0, "kharmonic2": None}  # None: the caller's k
MEASURES = (*KHARMONIC_K, "current-flow", "betweenness")


def measure_k(measure: str, k: float | None = None) -> float | None:
    """The k of the squared k-harmonic edge distance (H^k_e)^2 that a measure
    scores, from `KHARMONIC_K`, or None for current-flow and betweenness."""
    if measure not in MEASURES:
        raise GraphError(f"unknown measure {measure!r}; choose from {MEASURES}")
    if measure in KHARMONIC_K and KHARMONIC_K[measure] is None:
        if k is None:
            raise GraphError(f"measure {measure} requires a value of k")
        return float(k)
    return KHARMONIC_K.get(measure)


def edge_measure(g: Graph, measure: str, k: float | None = None) -> EdgeScores:
    """Evaluate a named per-edge centrality measure."""
    hk = measure_k(measure, k)
    if hk is not None:
        return harmonic.edge_kharmonic_sq(g, hk)
    if measure == "current-flow":
        return current_flow_centrality(g)
    return edge_betweenness(g)


def _non_edges(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The pool of all non-edges (u < v) of g, in row-major order."""
    iu, iv = np.triu_indices(g.n, 1)
    free = g.adjacency()[iu, iv] == 0
    return iu[free], iv[free]


def _sample_non_edges(pool: tuple[np.ndarray, np.ndarray], count: int, rng: np.random.Generator):
    """`count` distinct non-edges (u, v, 1.0), drawn from `_non_edges(g)`."""
    pool_u, pool_v = pool
    if not len(pool_u):
        raise GraphError("graph is already complete; no edges can be added")
    if count > len(pool_u):
        raise GraphError(f"cannot add {count} edges; only {len(pool_u)} non-edges exist")
    idx = np.sort(rng.choice(len(pool_u), size=count, replace=False))
    return [(u, v, 1.0) for u, v in zip(pool_u[idx].tolist(), pool_v[idx].tolist())]


def resilience_experiment(
    g: Graph,
    measure: str,
    num_added: int,
    trials: int,
    seed: int,
    k: float | None = None,
) -> list[float]:
    """Spearman correlation of a measure against its perturbed self.

    Each trial adds `num_added` uniformly random non-edges (derived
    sub-seed), recomputes the measure, and correlates the scores on the
    ORIGINAL edges only, which are ranked once.  A measure read off L^+ or (L^+)^2
    (`measure_k` 1 or 2) adds to its scores the change that one
    rank-`num_added` Woodbury update makes (`spectra.pinv_update_reads`),
    O(n^2 a + m a) from g's eigenvectors; any other measure is recomputed
    on the perturbed graph.  num_added and trials must be integers of at least 1.
    """
    if not (_integer_in(num_added, 1, np.inf) and _integer_in(trials, 1, np.inf)):
        raise GraphError(f"need num_added >= 1 and trials >= 1, got {num_added} and {trials}")
    seed = require_seed(seed)
    require_connected(g)
    original = edge_measure(g, measure, k)
    hk = measure_k(measure, k)
    pool = _non_edges(g)
    out, ranks = [], None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        extra = _sample_non_edges(pool, num_added, rng)
        if hk in (1, 2):
            s, t, w = (np.array(col) for col in zip(*extra))
            dec = harmonic.decomposition(g)
            values = original.values + spectra.pinv_update_reads(dec, hk, s, t, w, g._u, g._v)
        else:
            values = edge_measure(g.with_edges_added(extra), measure, k).values[: g.m]
        ranks = _average_ranks(original.values) if ranks is None else ranks  # once, after the first sample
        out.append(float(np.corrcoef(np.vstack([ranks, _average_ranks(values)]))[1, 0]))  # as `spearman`
    return out
