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
    """An invalid edge given to `build_graph`; carries its index."""

    def __init__(self, e: int, u: int, v: int, message: str):
        super().__init__(f"edge {e} ({u},{v}): {message}")
        self.edge = e


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with positively weighted, ordered edges.

    Vertices are the integers 0..n-1.  ``edges[e] = (u, v, w)`` fixes both
    the index and the orientation of edge e.
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
        u = np.array([e[0] for e in self.edges], dtype=np.int64)
        v = np.array([e[1] for e in self.edges], dtype=np.int64)
        w = np.array([e[2] for e in self.edges], dtype=np.float64)
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_w", w)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def weights(self) -> np.ndarray:
        return self._w.copy()

    def endpoints(self, e: int) -> tuple[int, int]:
        u, v, _ = self.edges[e]
        return u, v

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

    def neighbors_lists(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return adj

    def with_weight(self, e: int, w: float) -> "Graph":
        """Copy of the graph with edge e reweighted."""
        if w <= 0:
            raise GraphError(f"edge {e}: weight must be positive, got {w}")
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
        return build_graph(self.n, self.edges + extra)


def build_graph(n: int, edges) -> Graph:
    """Validate and build a Graph, preserving the given edge order."""
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    clean = []
    for e, (u, v, *rest) in enumerate(edges):
        w = float(rest[0]) if rest else 1.0
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise EdgeError(e, u, v, f"endpoint out of range 0..{n - 1}")
        if u == v:
            raise EdgeError(e, u, v, "self-loop")
        if w <= 0 or not np.isfinite(w):
            raise EdgeError(e, u, v, f"weight must be positive, got {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeError(e, u, v, "duplicate edge")
        seen.add(key)
        clean.append((u, v, w))
    return Graph(n, tuple(clean))


def connected_components(g: Graph) -> list[set[int]]:
    """Partition of vertices by connectivity, ordered by smallest member."""
    return [set(c) for c in _components(g)]


def _components(g: Graph) -> tuple[frozenset[int], ...]:
    if g._components is None:
        adj = g.neighbors_lists()
        seen = [False] * g.n
        comps = []
        for start in range(g.n):
            if seen[start]:
                continue
            comp = {start}
            seen[start] = True
            stack = [start]
            while stack:
                x = stack.pop()
                for y, _ in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        comp.add(y)
                        stack.append(y)
            comps.append(frozenset(comp))
        object.__setattr__(g, "_components", tuple(comps))
    return g._components


def component_subgraphs(g: Graph) -> list[tuple[Graph, np.ndarray]]:
    """Each connected component as (subgraph, indices in g of its edges).

    Components come in `connected_components` order.  A component's
    vertices are relabelled 0.. in increasing order and its edges keep g's
    order, so a score computed on the subgraph is the score of g's edge.
    Each subgraph is known to be connected, so no search runs on it again.
    """
    comps = _components(g)
    comp_of = np.empty(g.n, dtype=np.int64)
    local = np.empty(g.n, dtype=np.int64)
    for c, comp in enumerate(comps):
        verts = sorted(comp)
        comp_of[verts] = c
        local[verts] = np.arange(len(verts))
    edge_comp = comp_of[g._u]
    counts = np.bincount(edge_comp, minlength=len(comps))
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


def bridges(g: Graph) -> list[int]:
    """Edge indices whose removal increases the number of components.

    Iterative Tarjan lowlink computation; O(n + m).
    """
    adj = g.neighbors_lists()
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # stack entries: (vertex, incoming edge index, iterator position)
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            x, in_edge, it = stack[-1]
            advanced = False
            for y, e in it:
                if e == in_edge:
                    continue
                if disc[y] == -1:
                    disc[y] = low[y] = timer
                    timer += 1
                    stack.append((y, e, iter(adj[y])))
                    advanced = True
                    break
                low[x] = min(low[x], disc[y])
            if not advanced:
                stack.pop()
                if stack:
                    px = stack[-1][0]
                    low[px] = min(low[px], low[x])
                    if low[x] > disc[px]:
                        out.append(in_edge)
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
