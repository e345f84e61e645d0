"""Clustering: Lloyd's k-means over spectral embeddings, Girvan-Newman
with pluggable edge measures, sweep cuts, and purity evaluation.

The k-harmonic k-means algorithms embed vertices so that pairwise
Euclidean distances equal the (rank-r) k-harmonic distance, then run
seeded k-means.  The k -> 0 limit of the rank-r embedding is the
classical unnormalized spectral clustering embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, harmonic, spectra
from .graph import (Cut, Graph, GraphError, _integer_in, component_labels, connected_subgraph, cut_from_side,
                    require_points, require_seed)


@dataclass(frozen=True)
class Clustering:
    assignment: np.ndarray  # vertex -> cluster id in 0..c-1
    c: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)


MAX_ITERS = 300  # Lloyd iterations before k-means stops without a repeat


def lloyd_iterations(points, c, seed):
    """Generator of (assignment, inertia) per Lloyd iteration.

    Centroids start at c distinct points chosen uniformly at random.  Each
    iteration costs two O(n c d) products, the squared distances
    |x|^2 - 2 x.c + |c|^2 and the centroid sums, and holds n x c arrays.
    An empty cluster, in ascending id, takes the point farthest from its
    own centroid among clusters of at least two members (ties to the
    lowest index), so every cluster keeps a member.
    """
    pts = require_points(points)
    n = len(pts)
    if not _integer_in(c, 1, n):
        raise GraphError(f"cannot form c={c} clusters from {n} points")
    rng = np.random.default_rng(require_seed(seed))
    sq = np.einsum("ij,ij->i", pts, pts)
    d2 = _sq_distances(pts, sq, pts[rng.choice(n, size=c, replace=False)])
    rows = np.arange(n)
    prev = None
    for _ in range(MAX_ITERS):
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=c)
        for cid in np.flatnonzero(counts == 0):
            far = int(np.argmax(np.where(counts[assign] >= 2, d2[rows, assign], -1.0)))
            counts[assign[far]] -= 1
            assign[far], counts[cid] = cid, 1
        members = np.zeros((c, n))
        members[assign, rows] = 1.0
        d2 = _sq_distances(pts, sq, (members @ pts) / counts[:, None])
        yield assign.copy(), float(np.sum(d2[rows, assign]))
        if prev is not None and np.array_equal(assign, prev):
            return
        prev = assign


def _sq_distances(pts, sq, centroids) -> np.ndarray:
    """n x c squared distances from one product, clipped at 0 where
    rounding makes them negative."""
    d2 = pts @ centroids.T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += np.einsum("ij,ij->i", centroids, centroids)
    return np.maximum(d2, 0.0, out=d2)


def kmeans(points, c: int, seed: int):
    """Lloyd's algorithm; returns (Clustering, final inertia).  Points far
    from the origin, compared with their spread, lose digits to the expansion
    |x|^2 - 2 x.c + |c|^2 (`_sq_distances`); the library's embeddings are centred."""
    assign, inertia = None, float("inf")
    for assign, inertia in lloyd_iterations(points, c, seed):
        pass
    return Clustering(assign, c), inertia


def kharmonic_kmeans(g: Graph, c: int, k: float, seed: int) -> Clustering:
    """k-means over the full-rank k-harmonic embedding (k=2: biharmonic)."""
    return kmeans(spectra.embedding(harmonic._connected_dec(g), k), c, seed)[0]


def low_rank_kharmonic_kmeans(g: Graph, c: int, k: float, r: int | None = None, seed: int = 0) -> Clustering:
    """k-means over the rank-r k-harmonic embedding; r defaults to c."""
    r = c if r is None else r
    return kmeans(spectra.embedding(harmonic._connected_dec(g), k, r), c, seed)[0]


def spectral_clustering(g: Graph, c: int, seed: int) -> Clustering:
    """Unnormalized spectral clustering.

    Embeds with the eigenvectors of the c smallest strictly positive
    eigenvalues, unweighted; this is the k -> 0 limit of the rank-c
    k-harmonic embedding.
    """
    if c >= g.n:
        raise GraphError(f"spectral clustering needs c < n, got c={c}, n={g.n}")
    return kmeans(spectra.embedding(harmonic._connected_dec(g), 0.0, c), c, seed)[0]


GN_MEASURES = ("biharmonic2", "kharmonic2", "betweenness")
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def girvan_newman(g: Graph, c: int, measure: str = "biharmonic2", k: float = 2.0) -> Clustering:
    """Delete the globally maximal edge until >= c components remain.

    Each edge is scored within its connected component, in one loop over g's
    edge arrays with an alive mask, and a deletion re-scores only the
    component that held the edge.  An edge whose ends keep a common
    neighbour, read off an n x n matrix of alive adjacency, lay on a cycle;
    only after any other does a search of the remaining edges
    (`component_labels`) decide whether the component split.  When the
    scores are read off L^+ or (L^+)^2 (`flow.measure_k` 1 or 2), each
    component keeps both matrices:

    - if it did not split, they take the rank-one `spectra.pinv_update` in
      O(n^2) and the scores are read off them in O(m), unless
      1 - w_e R_e < sqrt(eps), where the update would divide by a near-zero
      (`_delete_edge`);
    - if it split, each piece inherits them from the parent's, taken before
      the bridge went (`_inherit`): for sides S and T, L_S^+ = J P_SS J and
      (L_S^+)^2 = J (Q_SS - P_ST P_TS - p p^T / |S|) J, p = P_SS 1,
      J = I - 1 1^T / |S|, unless the piece's max|L_S^+| < sqrt(eps) times
      the parent's max|L^+|, where the centring has cancelled its digits.

    Any other piece is scored afresh: under `betweenness` by
    `flow._betweenness` on its relabelled edges, else from a fresh
    decomposition of a Graph on slices of g's arrays (`connected_subgraph`).
    `top_edge` (`harmonic.top_of_ties`) deletes the lowest edge index in the
    top tie group of `harmonic.tie_groups`, so the run is deterministic.
    `validate._girvan_newman_reference` is the loop that rebuilds the
    graph and re-decomposes after every deletion.
    """
    if not _integer_in(c, 1, g.n):
        raise GraphError(f"cannot form c={c} clusters on {g.n} vertices")
    if measure not in GN_MEASURES:
        raise GraphError(f"unknown GN measure {measure!r}; choose from {GN_MEASURES}")
    hk = flow.measure_k(measure, k)  # None: betweenness, the one GN measure not read off a decomposition
    order = {1: 1, 2: 2}.get(hk)  # the power of L^+ the scores are read off, if any
    u, v, w = g._u, g._v, g._w
    alive = np.ones(g.m, dtype=bool)
    adj = np.zeros((g.n, g.n), dtype=bool)  # the alive edges' adjacency
    adj[u, v] = adj[v, u] = True
    label = component_labels(g.n, u, v)  # each vertex's component, named by its smallest member
    pos = np.empty(g.n, dtype=np.int64)  # each vertex's index within its component
    scores = np.empty(g.m)  # latest score of each edge
    pinv = {}  # component label -> its (L^+, (L^+)^2 or None), or None without order
    roots = np.flatnonzero(label == np.arange(g.n))
    stale = [(np.flatnonzero(label == r), np.flatnonzero(label[u] == r), None) for r in roots]
    count = len(roots)
    while count < c and alive.any():
        for verts, ids, parent in stale:  # connected pieces: ascending vertices, edge ids, `_inherit`'s input
            pos[verts] = np.arange(len(verts))
            if len(ids):
                pinv[verts[0]] = _score_piece(g, verts, ids, pos, parent, hk, order, scores)
        live = np.flatnonzero(alive)
        e = live[top_edge(scores[live])]
        a, b = u[e], v[e]
        alive[e] = adj[a, b] = adj[b, a] = False
        root = label[a]
        verts = np.flatnonzero(label == root)
        ids = np.flatnonzero(alive & (label[u] == root))
        lu, lv = pos[u[ids]], pos[v[ids]]
        on_cycle = (adj[a] & adj[b]).any()
        parts = np.zeros(len(verts), dtype=np.int64) if on_cycle else component_labels(len(verts), lu, lv)
        if not parts.any() and _delete_edge(pinv[root], pos[a], pos[b], w[e]):
            scores[ids] = spectra.quadratic_reads(pinv[root][order - 1], lu, lv)
            stale = []
        else:
            pieces = np.flatnonzero(parts == np.arange(len(verts)))
            split = pinv[root] if len(pieces) > 1 else None  # a bridge went: its pieces inherit
            stale = [(verts[parts == r], ids[parts[lu] == r], None if split is None else (split, parts == r))
                     for r in pieces]
            label[verts] = verts[parts]
            count += len(pieces) - 1
            del pinv[root]
    return Clustering(np.unique(label, return_inverse=True)[1], count)


def _score_piece(g, verts, ids, pos, parent, hk, order, scores):
    """Score a connected piece of g by (H^hk_e)^2, or by betweenness when hk is None; return the (L^+,
    (L^+)^2 or None) that order 1 or 2 reads the scores off, inherited from `parent` (`_inherit`) when
    the guard allows, else None."""
    lu, lv = pos[g._u[ids]], pos[g._v[ids]]
    pinv = None if parent is None else _inherit(*parent)
    if pinv is not None:
        scores[ids] = spectra.quadratic_reads(pinv[order - 1], lu, lv)
        return pinv
    if hk is None:
        scores[ids] = flow._betweenness(len(verts), lu, lv)
        return None
    sub = connected_subgraph(g, verts, ids)
    scores[ids] = harmonic.edge_kharmonic_sq(sub, hk).values
    return spectra.pinv_powers(harmonic.decomposition(sub), order) if order else None


def _inherit(pinv, inside):
    """The (L_S^+, (L_S^+)^2 or None) of side S (mask `inside`) of a bridge, from the parent's (P, Q or None)
    with the bridge (`girvan_newman`), in O(|S|^2 (1 + |T|)); None when max|L_S^+| < sqrt(eps) max|P|.
    J M J is M less its row and column means r, plus its mean."""
    P, Q = pinv
    S = np.ix_(inside, inside)
    r = P[S].mean(axis=1)  # p / |S|
    P_S = P[S] - (r[:, None] + r) + r.mean()
    if np.abs(P_S).max() < _SQRT_EPS * np.abs(P).max():
        return None
    if Q is None:
        return P_S, None
    P_ST = P[np.ix_(inside, ~inside)]
    M = Q[S] - P_ST @ P_ST.T - len(r) * np.outer(r, r)
    r = M.mean(axis=1)
    return P_S, M - (r[:, None] + r) + r.mean()


def _delete_edge(pinv, a, b, w) -> bool:
    """Remove edge (a, b) of weight w from a piece's (L^+, (L^+)^2 or None)
    in place; False, with nothing changed, without matrices or when
    1 - w R_e < sqrt(eps), where the update divides by a near-zero."""
    if pinv is None:
        return False
    P, Q = pinv
    if 1.0 - w * spectra.quadratic_reads(P, a, b) < _SQRT_EPS:
        return False
    spectra.pinv_update(P, Q, [a], [b], [-w])
    return True


top_edge = harmonic.top_of_ties  # the position Girvan-Newman deletes


def sweep_cut(g: Graph, x) -> Cut:
    """Best superlevel-set cut of a vertex vector by isoperimetric ratio.

    S = {v : level(v) >= t} over the levels of x (`_sweep_levels`); ties
    prefer larger |S|, then smaller threshold.  O(n log n + m): the
    crossing count and |S| of every threshold come from one pass over the
    edges.
    """
    idx = _sweep_levels(g, x)
    L = int(idx.max(initial=0)) + 1
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
    """The level 0.. of each entry of the sweep vector: its tie group
    (`harmonic.tie_groups`), so entries that differ only by float noise share
    a threshold (exactly equal potentials on hanging subtrees otherwise
    split across thresholds)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise GraphError(f"vector length {x.shape} does not match n={g.n}")
    if not np.all(np.isfinite(x)):
        raise GraphError("sweep vector has non-finite entries")
    return harmonic.tie_groups(x)


def purity(pred: Clustering, truth) -> float:
    """Fraction of vertices matching their cluster's majority true label."""
    truth = np.asarray(truth)
    assign = np.asarray(getattr(pred, "assignment", pred))
    if len(truth) != len(assign):
        raise GraphError(
            f"assignment length {len(assign)} != label length {len(truth)}"
        )
    clusters, a = np.unique(assign, return_inverse=True)
    labels, t = np.unique(truth, return_inverse=True)
    shape = (len(clusters), len(labels))
    table = np.bincount(a * shape[1] + t, minlength=shape[0] * shape[1]).reshape(shape)
    return int(table.max(axis=1).sum()) / len(truth)
