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
from .graph import Cut, Graph, GraphError, component_subgraphs, connected_components, cut_from_side


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


def girvan_newman(g: Graph, c: int, measure: str = "biharmonic2", k: float = 2.0) -> Clustering:
    """Delete the globally maximal edge until >= c components remain.

    Each edge is scored within its connected component
    (`component_subgraphs`).  A deletion changes only the component that
    held the edge, so only that component (or the two it splits into) is
    scored again; every other component is the same subgraph as before and
    keeps its scores.  Ties break toward the lowest edge index, so the
    algorithm is deterministic.
    """
    if c > g.n:
        raise GraphError(f"cannot form c={c} clusters on {g.n} vertices")
    if measure not in GN_MEASURES:
        raise GraphError(f"unknown GN measure {measure!r}; choose from {GN_MEASURES}")
    if measure == "biharmonic2":
        k = 2.0
    work = g
    comps = connected_components(work)
    stale = component_subgraphs(work, comps)
    ids = np.arange(g.m)  # index in g of each edge of work
    scores = np.empty(g.m)  # latest score of each edge of g
    while len(comps) < c and work.m > 0:
        for sub, edge_ids in stale:
            if sub.m:
                scores[ids[edge_ids]] = flow.edge_measure(sub, measure, k).values
        vals = scores[ids]
        e_max = int(np.lexsort((np.arange(len(vals)), -vals))[0])
        u, v, _ = work.edges[e_max]
        work = work.without_edge(e_max)
        ids = np.delete(ids, e_max)
        comps = connected_components(work)
        stale = component_subgraphs(work, [comp for comp in comps if u in comp or v in comp])
    assignment = np.empty(g.n, dtype=np.int64)
    for cid, comp in enumerate(comps):
        assignment[list(comp)] = cid
    return Clustering(
        assignment,
        len(comps),
        {"algorithm": f"girvan_newman[{measure}]", "params": {"k": k, "c": c}, "seed": None},
    )


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
