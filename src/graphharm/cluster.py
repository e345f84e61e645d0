"""Clustering: Lloyd's k-means over spectral embeddings, Girvan-Newman
with pluggable edge measures, sweep cuts, and purity evaluation.

The k-harmonic k-means algorithms embed vertices so that pairwise
Euclidean distances equal the (rank-r) k-harmonic distance, then run
seeded k-means.  The k -> 0 limit of the rank-r embedding is the
classical unnormalized spectral clustering embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flow, harmonic, spectra
from .graph import Cut, Graph, GraphError, component_labels, connected_subgraph, cut_from_side


@dataclass(frozen=True)
class Clustering:
    assignment: np.ndarray  # vertex -> cluster id in 0..c-1
    c: int
    provenance: dict = field(compare=False)

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


def lloyd_iterations(points, c, seed, max_iters=300):
    """Generator of (assignment, inertia) per Lloyd iteration.

    Centroids start at c distinct points chosen uniformly at random.
    Empty clusters are reseeded to the point farthest from its centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    if c > n:
        raise GraphError(f"cannot form c={c} clusters from {n} points")
    if c < 1 or d == 0:
        raise GraphError("need c >= 1 clusters and at least one coordinate")
    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=c, replace=False)].copy()
    prev = None
    for _ in range(max_iters):
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
        assign = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(n), assign]
        for cid in range(c):
            if not np.any(assign == cid):
                far = int(np.argmax(dist_to_own))
                assign[far] = cid
                dist_to_own[far] = 0.0
        inertia = 0.0
        for cid in range(c):
            members = pts[assign == cid]
            centroids[cid] = members.mean(axis=0)
            inertia += float(np.sum((members - centroids[cid]) ** 2))
        yield assign.copy(), inertia
        if prev is not None and np.array_equal(assign, prev):
            return
        prev = assign


def kmeans(points, c: int, seed: int, max_iters: int = 300):
    """Lloyd's algorithm; returns (Clustering, final inertia)."""
    assign, inertia = None, float("inf")
    for assign, inertia in lloyd_iterations(points, c, seed, max_iters):
        pass
    clustering = Clustering(
        assign, c, {"algorithm": "kmeans", "params": {"max_iters": max_iters}, "seed": seed}
    )
    return clustering, inertia


def kharmonic_kmeans(g: Graph, c: int, k: float, seed: int, dec=None) -> Clustering:
    """k-means over the full-rank k-harmonic embedding (k=2: biharmonic)."""
    dec = harmonic._connected_dec(g, dec)
    pts = spectra.embedding(dec, k)
    clustering, _ = kmeans(pts, c, seed)
    return Clustering(
        clustering.assignment,
        c,
        {"algorithm": "kharmonic_kmeans", "params": {"k": k}, "seed": seed},
    )


def low_rank_kharmonic_kmeans(
    g: Graph, c: int, k: float, r: int | None = None, seed: int = 0, dec=None
) -> Clustering:
    """k-means over the rank-r k-harmonic embedding; r defaults to c."""
    dec = harmonic._connected_dec(g, dec)
    r = c if r is None else r
    pts = spectra.embedding(dec, k, r)
    clustering, _ = kmeans(pts, c, seed)
    return Clustering(
        clustering.assignment,
        c,
        {"algorithm": "low_rank_kharmonic_kmeans", "params": {"k": k, "r": r}, "seed": seed},
    )


def spectral_clustering(g: Graph, c: int, seed: int, dec=None) -> Clustering:
    """Unnormalized spectral clustering.

    Embeds with the eigenvectors of the c smallest strictly positive
    eigenvalues, unweighted; this is the k -> 0 limit of the rank-c
    k-harmonic embedding.
    """
    if c >= g.n:
        raise GraphError(f"spectral clustering needs c < n, got c={c}, n={g.n}")
    dec = harmonic._connected_dec(g, dec)
    pts = spectra.embedding(dec, 0.0, c)
    clustering, _ = kmeans(pts, c, seed)
    return Clustering(
        clustering.assignment, c, {"algorithm": "spectral", "params": {}, "seed": seed}
    )


GN_MEASURES = ("biharmonic2", "kharmonic2", "betweenness")
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def girvan_newman(g: Graph, c: int, measure: str = "biharmonic2", k: float = 2.0) -> Clustering:
    """Delete the globally maximal edge until >= c components remain.

    Each edge is scored within its connected component.  One loop runs
    over g's edge arrays and deletes by an alive mask; it builds no graph
    per deletion.  A deletion changes only the component that held the
    edge, so only that component is scored again, and a test on its
    remaining edges (`component_labels`) decides whether it split:

    - if it did not, and the scores are read off L^+ or (L^+)^2
      (`flow.pinv_order`), the component's matrices take the rank-one
      `spectra.pinv_update` in O(n^2) and its scores are read off them
      in O(m);
    - otherwise each piece is decomposed and scored afresh.  So is a
      deletion with 1 - w_e R_e below sqrt(eps), where the update would
      divide by a near-zero, and every deletion under `betweenness` or a
      fractional k.

    Ties, within 1e-12 relative (`top_edge`), break toward the lowest
    edge index, so the algorithm is deterministic.
    `validate._girvan_newman_reference` is the loop that rebuilds the
    graph and re-decomposes after every deletion.
    """
    if c > g.n:
        raise GraphError(f"cannot form c={c} clusters on {g.n} vertices")
    if measure not in GN_MEASURES:
        raise GraphError(f"unknown GN measure {measure!r}; choose from {GN_MEASURES}")
    if measure == "biharmonic2":
        k = 2.0
    order = flow.pinv_order(measure, k)
    u, v, w = g._u, g._v, g._w
    alive = np.ones(g.m, dtype=bool)
    label = component_labels(g.n, u, v)  # each vertex's component, named by its smallest member
    pos = np.empty(g.n, dtype=np.int64)  # each vertex's index within its component
    scores = np.empty(g.m)  # latest score of each edge
    pinv = {}  # component label -> its (L^+, (L^+)^2 or None), or None without order
    roots = np.unique(label)
    stale = [(np.flatnonzero(label == r), np.flatnonzero(label[u] == r)) for r in roots]
    count = len(roots)
    while count < c and alive.any():
        for verts, ids in stale:  # connected pieces: ascending vertices, edge ids
            pos[verts] = np.arange(len(verts))
            if len(ids):
                pinv[verts[0]] = _score_piece(g, verts, ids, measure, k, order, scores)
        live = np.flatnonzero(alive)
        e = live[top_edge(scores[live])]
        alive[e] = False
        root = label[u[e]]
        verts = np.flatnonzero(label == root)
        ids = np.flatnonzero(alive & (label[u] == root))
        lu, lv = pos[u[ids]], pos[v[ids]]
        parts = component_labels(len(verts), lu, lv)
        if not parts.any() and _delete_edge(pinv[root], pos[u[e]], pos[v[e]], w[e]):
            scores[ids] = spectra.quadratic_reads(pinv[root][order - 1], lu, lv)
            stale = []
        else:
            pieces = np.unique(parts)
            stale = [(verts[parts == r], ids[parts[lu] == r]) for r in pieces]
            label[verts] = verts[parts]
            count += len(pieces) - 1
            del pinv[root]
    assignment = np.unique(label, return_inverse=True)[1]
    return Clustering(
        assignment,
        count,
        {"algorithm": f"girvan_newman[{measure}]", "params": {"k": k, "c": c}, "seed": None},
    )


def _score_piece(g, verts, ids, measure, k, order, scores):
    """Score a connected piece of g afresh; return its (L^+, (L^+)^2 or
    None) when the scores are read off them (order 1 or 2), else None."""
    sub = connected_subgraph(g, verts, ids)
    scores[ids] = flow.edge_measure(sub, measure, k).values
    return spectra.pinv_powers(harmonic.decomposition(sub), order) if order else None


def _delete_edge(pinv, a, b, w) -> bool:
    """Remove edge (a, b) of weight w from a piece's (L^+, (L^+)^2 or None)
    in place; False, with nothing changed, without matrices or when
    1 - w R_e < sqrt(eps), where the update divides by a near-zero."""
    if pinv is None:
        return False
    P, Q = pinv
    if 1.0 - w * (P[a, a] + P[b, b] - 2.0 * P[a, b]) < _SQRT_EPS:
        return False
    spectra.pinv_update(P, Q, [a], [b], [-w])
    return True


def top_edge(scores: np.ndarray) -> int:
    """Position of the first score within 1e-12 relative of the maximum.

    Scores equal in exact arithmetic (symmetric edges) differ by rounding
    that depends on the route that computed them, so a tie is taken up
    to that rounding and goes to the lowest index.
    """
    return int(np.argmax(scores >= scores.max() * (1.0 - 1e-12)))


def sweep_cut(g: Graph, x) -> Cut:
    """Best superlevel-set cut of a vertex vector by isoperimetric ratio.

    S = {v : x(v) >= t} over all distinct thresholds; ties prefer larger
    |S|, then smaller threshold.  O(n log n + m): the crossing count and
    |S| of every threshold come from one pass over the edges.
    """
    levels, idx = np.unique(_sweep_levels(g, x), return_inverse=True)
    L = len(levels)
    if L < 2:
        raise GraphError("sweep vector is constant")
    # entry j-1 belongs to threshold level j = 1..L-1 (level 0 would select
    # all of V); edge (u, v) crosses it iff lo < j <= hi
    lo = np.minimum(idx[g._u], idx[g._v])
    hi = np.maximum(idx[g._u], idx[g._v])
    crossing = np.cumsum(np.bincount(lo, minlength=L) - np.bincount(hi, minlength=L))[:-1]
    size = g.n - np.cumsum(np.bincount(idx, minlength=L))[:-1]
    ratio = (g.n * crossing) / (size * (g.n - size))
    best = int(np.argmin(ratio)) + 1  # first minimum: the largest side among ties
    return cut_from_side(g, np.nonzero(idx >= best)[0])


def _sweep_levels(g: Graph, x) -> np.ndarray:
    """The sweep vector as float64, with levels that differ only by float
    noise merged (exactly equal potentials on hanging subtrees otherwise
    split across thresholds)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphError(f"vector length {x.shape} does not match n={g.n}")
    if not np.all(np.isfinite(x)):
        raise GraphError("sweep vector has non-finite entries")
    span = np.ptp(x)
    if span > 0:
        x = np.round(x / span, 9) * span
    return x


def purity(pred: Clustering, truth) -> float:
    """Fraction of vertices matching their cluster's majority true label."""
    truth = np.asarray(truth)
    assign = np.asarray(getattr(pred, "assignment", pred))
    if len(truth) != len(assign):
        raise GraphError(
            f"assignment length {len(assign)} != label length {len(truth)}"
        )
    total = 0
    for cid in np.unique(assign):
        labels, counts = np.unique(truth[assign == cid], return_counts=True)
        total += int(counts.max())
    return total / len(truth)
