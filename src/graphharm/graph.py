"""Weighted undirected graph with a fixed edge order.

The edge order matters: column e of the boundary matrix is the e-th listed
edge, and all flow signs are taken relative to the stored orientation
(u, v).  Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction and precondition failures."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph."""


class EdgeError(GraphError):
    """An edge that breaks a rule of `Graph`; carries its index."""

    def __init__(self, e: int, u: int, v: int, message: str):
        super().__init__(f"edge {e} ({u},{v}): {message}")
        self.edge = e


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with positively weighted, ordered edges.

    Vertices are the integers 0..n-1.  ``edges[e] = (u, v, w)`` fixes both
    the index and the orientation of edge e.  Every Graph is checked when
    built: n < 0 raises `GraphError`; the first edge with an endpoint outside
    0..n-1, a self-loop, a weight not finite and > 0, or an earlier edge's
    unordered pair raises `EdgeError`, naming the first rule it breaks.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    # dense arrays derived once at construction, shared by all queries
    _u: np.ndarray = field(init=False, repr=False, compare=False)
    _v: np.ndarray = field(init=False, repr=False, compare=False)
    _w: np.ndarray = field(init=False, repr=False, compare=False)
    # connected components, computed on first use
    _components: tuple[frozenset[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # Laplacian eigendecomposition, set by harmonic.decomposition on first use
    _decomposition: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n, edges = self.n, self.edges
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        try:
            u = np.array([e[0] for e in edges], dtype=np.int64)
            v = np.array([e[1] for e in edges], dtype=np.int64)
        except OverflowError:  # an endpoint beyond int64 is out of range: clip it to -1 or n
            u, v = (np.array([min(max(int(e[i]), -1), n) for e in edges], dtype=np.int64) for i in (0, 1))
        w = np.array([e[2] for e in edges], dtype=np.float64)
        # one mask per rule, in reporting order; a duplicate repeats an earlier key lo*n + hi
        # (a key shared via an out-of-range endpoint marks nothing before the first bad edge)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        duplicate = np.zeros(len(key), dtype=bool)
        duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        rules = np.stack([(lo < 0) | (hi >= n), u == v, ~(np.isfinite(w) & (w > 0)), duplicate])
        bad = np.flatnonzero(rules.any(axis=0))
        if bad.size:
            e = int(bad[0])
            rule = int(np.argmax(rules[:, e]))
            message = (f"endpoint out of range 0..{n - 1}", "self-loop",
                       f"weight must be positive, got {w[e]}", "duplicate edge")[rule]
            raise EdgeError(e, int(edges[e][0]), int(edges[e][1]), message)
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_w", w)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> np.ndarray:
        return self._w.copy()

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        A[self._u, self._v] = self._w
        A[self._v, self._u] = self._w
        return A

    def degrees(self) -> np.ndarray:
        """Weighted degrees."""
        d = np.zeros(self.n)
        np.add.at(d, self._u, self._w)
        np.add.at(d, self._v, self._w)
        return d

    def laplacian(self) -> np.ndarray:
        """L = D - A, equivalently boundary @ W @ boundary.T."""
        A = self.adjacency()
        return np.diag(A.sum(axis=1)) - A

    def boundary(self) -> np.ndarray:
        """Signed incidence matrix: column e is +1 at u, -1 at v."""
        B = np.zeros((self.n, self.m))
        cols = np.arange(self.m)
        B[self._u, cols] = 1.0
        B[self._v, cols] = -1.0
        return B

    def weighted_boundary(self) -> np.ndarray:
        """boundary @ W^{1/2}."""
        return self.boundary() * np.sqrt(self._w)

    def with_weight(self, e: int, w: float) -> "Graph":
        """Copy of the graph with edge e reweighted."""
        u, v, _ = self.edges[e]
        edges = list(self.edges)
        edges[e] = (u, v, float(w))
        return Graph(self.n, tuple(edges))

    def without_edge(self, e: int) -> "Graph":
        """Copy with edge e removed; later edges shift down by one index."""
        edges = self.edges[:e] + self.edges[e + 1:]
        return Graph(self.n, edges)

    def with_edges_added(self, new_edges) -> "Graph":
        """Copy with extra edges appended; existing indices are preserved."""
        extra = tuple((int(u), int(v), float(w)) for u, v, w in new_edges)
        return Graph(self.n, self.edges + extra)


def build_graph(n: int, edges) -> Graph:
    """A Graph from rows (u, v) or (u, v, w), coerced to (int, int, float); w defaults to 1.0."""
    return Graph(n, tuple((int(u), int(v), float(rest[0]) if rest else 1.0) for u, v, *rest in edges))


def connected_components(g: Graph) -> list[set[int]]:
    """Partition of vertices by connectivity, ordered by smallest member."""
    return [set(c) for c in _components(g)]


def _components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected components by hooking and pointer jumping.

    label[x] points towards x's root, the smallest vertex of its
    component.  Each round hooks the larger root of every edge whose ends
    have different roots onto the smaller one, then jumps every pointer
    to its root; the rounds end when no edge joins two roots.  No loop
    runs per vertex, edge or BFS level, so a long path costs a few rounds
    of O(log n) jumps, not one step per level.
    """
    if g._components is None:
        label = np.arange(g.n)
        while True:
            lu, lv = label[g._u], label[g._v]
            joins = lu != lv
            if not joins.any():
                break
            lu, lv = lu[joins], lv[joins]
            np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
            while True:
                up = label[label]
                if np.array_equal(up, label):
                    break
                label = up
        _, sizes = np.unique(label, return_counts=True)  # ascending roots: by smallest member
        groups = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1]) if g.n else []
        object.__setattr__(g, "_components", tuple(frozenset(c.tolist()) for c in groups))
    return g._components


def component_subgraphs(g: Graph, comps) -> list[tuple[Graph, np.ndarray]]:
    """Each listed component of g as (subgraph, indices in g of its edges).

    comps is `connected_components(g)` or a part of it; the subgraphs come
    in its order.  A component's vertices are relabelled 0.. in increasing
    order and its edges keep g's order, so a score computed on the
    subgraph is the score of g's edge.  Each subgraph is known to be
    connected, so no search runs on it again.
    """
    comp_of = np.full(g.n, len(comps), dtype=np.int64)
    local = np.empty(g.n, dtype=np.int64)
    for c, comp in enumerate(comps):
        verts = sorted(comp)
        comp_of[verts] = c
        local[verts] = np.arange(len(verts))
    edge_comp = comp_of[g._u]
    counts = np.bincount(edge_comp, minlength=len(comps) + 1)
    groups = np.split(np.argsort(edge_comp, kind="stable"), np.cumsum(counts)[:-1])
    out = []
    for comp, ids in zip(comps, groups):
        edges = zip(local[g._u[ids]].tolist(), local[g._v[ids]].tolist(), g._w[ids].tolist())
        sub = Graph(len(comp), tuple(edges))
        object.__setattr__(sub, "_components", (frozenset(range(len(comp))),))
        out.append((sub, ids))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(_components(g)) == 1


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def require_vertex(g: Graph, v) -> int:
    """v as a Python int, if it is an integer vertex index in 0..n-1."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)) or not 0 <= v < g.n:
        raise GraphError(f"vertex {v!r} is not an integer in 0..{g.n - 1}")
    return int(v)


def csr_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, heads, edge ids) of the 2m arcs, grouped by tail.

    One stable argsort of the arcs by tail lists the arcs leaving x at
    indptr[x]:indptr[x+1], in edge order (arc 2e runs u -> v, arc 2e+1
    runs v -> u).
    """
    tails = np.stack([g._u, g._v], axis=1).ravel()
    heads = np.stack([g._v, g._u], axis=1).ravel()
    order = np.argsort(tails, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=g.n))))
    return indptr, heads[order], order // 2


def bridges(g: Graph) -> list[int]:
    """Edge indices whose removal increases the number of components.

    Iterative Tarjan lowlink walk over `csr_adjacency`; O(n + m).
    """
    indptr, heads, edge_ids = csr_adjacency(g)
    indptr, nbr, eid = indptr.tolist(), heads.tolist(), edge_ids.tolist()
    disc = [-1] * g.n
    low = [0] * g.n
    in_edge = [-1] * g.n  # DFS tree edge into each vertex
    nxt = indptr[:-1]  # next arc of each vertex to walk
    out: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [root]
        while stack:
            x = stack[-1]
            p = nxt[x]
            if p < indptr[x + 1]:
                nxt[x] = p + 1
                if eid[p] == in_edge[x]:
                    continue
                y = nbr[p]
                if disc[y] == -1:
                    disc[y] = low[y] = timer
                    timer += 1
                    in_edge[y] = eid[p]
                    stack.append(y)
                else:
                    low[x] = min(low[x], disc[y])
            else:
                stack.pop()
                if stack:
                    px = stack[-1]
                    low[px] = min(low[px], low[x])
                    if low[x] > disc[px]:
                        out.append(in_edge[x])
    return sorted(out)


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition (S, V\\S) with its crossing edges and ratio."""

    side: frozenset[int]
    crossing_edges: tuple[int, ...]
    ratio: float


def cut_from_side(g: Graph, side) -> Cut:
    """Cut determined by the vertex set S, with isoperimetric ratio.

    ratio = n * |E(S, V\\S)| / (|S| * (n - |S|)).
    """
    S = frozenset(int(v) for v in side)
    if not S or len(S) >= g.n:
        raise GraphError("cut side must be a proper nonempty vertex subset")
    if any(v < 0 or v >= g.n for v in S):
        raise GraphError("cut side contains an invalid vertex")
    crossing = tuple(
        e for e, (u, v, _) in enumerate(g.edges) if (u in S) != (v in S)
    )
    k = len(S)
    ratio = g.n * len(crossing) / (k * (g.n - k))
    return Cut(S, crossing, ratio)
