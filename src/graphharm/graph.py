"""Weighted undirected graph with a fixed edge order.

The edge order matters: column e of the boundary matrix is the e-th listed
edge, and all flow signs are taken relative to the stored orientation
(u, v).  Graphs are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction and precondition failures."""


class DisconnectedGraphError(GraphError):
    """Raised when an operation requires a connected graph."""


class EdgeError(GraphError):
    """An edge that breaks a rule of `Graph`; carries its index.  Its endpoints print as given."""

    def __init__(self, e: int, u, v, message: str):
        super().__init__(f"edge {e} ({u},{v}): {message}")
        self.edge = e


# The duplicate-edge key lo * n + hi stays within int64 up to this many vertices.
MAX_VERTICES = 2**31


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Graph:
    """Undirected simple graph with positively weighted, ordered edges.

    Vertices are 0..n-1.  Row e = (u, v, w) or (u, v), of weight 1.0, of
    ``Graph(n, rows)`` fixes the index and orientation of edge e, kept only
    in the read-only arrays ``_u``, ``_v``, ``_w``.  Every Graph is checked
    when built: a row of another length or an n that is not an integer in
    0..`MAX_VERTICES` raises `GraphError`; the first edge with an endpoint not
    an integer in 0..n-1, a self-loop, a weight not a finite `numbers.Real` > 0 (a
    bool is none), or an earlier edge's unordered pair raises `EdgeError`, naming the
    first rule it breaks.
    """

    n: int
    _u: np.ndarray
    _v: np.ndarray
    _w: np.ndarray
    # `component_labels` of the edges, computed on first use
    _labels: np.ndarray | None = None
    # Laplacian eigendecomposition, set by harmonic.decomposition on first use
    _decomposition: object = None

    def __init__(self, n: int, edges):
        self._store(n, *_columns(edges))

    @classmethod
    def _from_arrays(cls, n: int, u, v, w) -> "Graph":
        """The checked Graph on the edge columns u, v, w, which it takes over."""
        return cls.__new__(cls)._store(n, u, v, w)

    def _store(self, n, u, v, w) -> "Graph":
        """Check the edge columns, keep them read-only, and return self."""
        if _integer_in(n, -np.inf, -1):  # an integer n out of range keeps its own two messages
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        if _integer_in(n, MAX_VERTICES + 1, np.inf):
            raise GraphError(f"vertex count {n} exceeds the largest supported, {MAX_VERTICES}")
        n = require_count("vertex count", n, 0, MAX_VERTICES)
        given = u, v, w  # an error names the endpoints, and a weight that is no number, as given
        (u, frac_u), (v, frac_v) = (_endpoints(x, n) for x in given[:2])
        w, untyped = _weights(w)
        # one mask per rule, in reporting order; a duplicate repeats an earlier key lo*n + hi
        # (a key shared via a bad endpoint marks nothing before the first bad edge)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        duplicate = np.zeros(len(key), dtype=bool)
        duplicate[order[1:][key[order[1:]] == key[order[:-1]]]] = True
        rules = np.stack([frac_u | frac_v, (lo < 0) | (hi >= n), u == v, ~(np.isfinite(w) & (w > 0)), duplicate])
        bad = np.flatnonzero(rules.any(axis=0))
        if bad.size:
            e = int(bad[0])
            rule = int(np.argmax(rules[:, e]))
            message = ("endpoint is not an integer", f"endpoint out of range 0..{n - 1}", "self-loop",
                       f"weight must be positive, got {given[2][e] if untyped[e] else w[e]}", "duplicate edge")[rule]
            raise EdgeError(e, given[0][e], given[1][e], message)
        object.__setattr__(self, "n", n)
        for name, x in (("_u", u), ("_v", v), ("_w", w)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)
        return self

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The rows ((u, v, w), ...), built from the arrays on each call: O(m), not for loops.  They
        come at exact size from one record array; zip over three lists kept malloc's heap from shrinking."""
        return tuple(np.rec.fromarrays((self._u, self._v, self._w)).tolist())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._u, other._u) and np.array_equal(self._v, other._v)
                and np.array_equal(self._w, other._w))

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self._u)

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
        """L = D - A, equivalently boundary @ W @ boundary.T, in one n x n array."""
        L = np.zeros((self.n, self.n))
        L[self._u, self._v] = L[self._v, self._u] = -self._w
        with np.errstate(over="ignore"):  # a degree beyond float64 is inf, which `decompose` reports
            np.fill_diagonal(L, 0.0 - L.sum(axis=1))  # D bit for bit: +0.0, not -0.0, when isolated
        return L

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
        weights = self._w.astype(object)  # w is checked as given, like a row's weight
        weights[require_count("edge", e, 0, self.m - 1)] = w
        return Graph._from_arrays(self.n, self._u, self._v, weights)

    def without_edge(self, e: int) -> "Graph":
        """Copy with edge e removed; later edges shift down by one index."""
        e = require_count("edge", e, 0, self.m - 1)
        return Graph._from_arrays(self.n, *(np.delete(x, e) for x in (self._u, self._v, self._w)))

    def with_edges_added(self, new_edges) -> "Graph":
        """Copy with the rows (u, v, w) or (u, v), of weight 1.0, appended; existing indices are preserved."""
        columns = (np.append(x, col) for x, col in zip((self._u, self._v, self._w), _columns(new_edges)))
        return Graph._from_arrays(self.n, *columns)


def _columns(rows) -> list[list]:
    """The u, v and w columns of rows (u, v, w) or (u, v), of weight 1.0, read in one pass (a generator
    works); a row of another length raises `GraphError`.  The one row reader of `Graph`."""
    rows = [tuple(row) if np.iterable(row) else (row,) for row in rows]
    for e, row in enumerate(rows):
        if len(row) not in (2, 3):
            raise GraphError(f"row {e} is not (u, v) or (u, v, w): {row!r}")
    return [[(*row, 1.0)[i] for row in rows] for i in range(3)]


def _endpoints(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An endpoint column as int64, -1 where an entry is not an integer (NaN, inf, 0.5), and the mask
    of those entries.  An integer beyond -1..n becomes -1 or n: still out of range, within int64."""
    x = np.asarray(x)
    if x.dtype.kind in "iu":  # the generators' and derivations' columns: nothing to round
        return x.astype(np.int64, copy=False), np.zeros(len(x), dtype=bool)
    try:
        f = np.asarray(x, dtype=np.float64)
    except OverflowError:  # an int beyond float64
        f = np.array([min(max(a, -1), n) if isinstance(a, int) else a for a in x], dtype=np.float64)
    frac = ~(np.isfinite(f) & (f == np.floor(f)))
    return np.where(frac, -1, np.clip(f, -1, n)).astype(np.int64), frac


def _weights(w) -> tuple[np.ndarray, np.ndarray]:
    """A weight column as float64, NaN where an entry is a bool or not a `numbers.Real` (a string, None),
    and the mask of those entries."""
    if isinstance(w, np.ndarray) and w.dtype.kind in "fiu":  # the generators' and derivations' columns
        return w.astype(np.float64, copy=False), np.zeros(len(w), dtype=bool)
    untyped = np.array([isinstance(x, (bool, np.bool_)) or not isinstance(x, Real) for x in w], dtype=bool)
    return np.array([np.nan if bad else x for x, bad in zip(w, untyped)], dtype=np.float64), untyped


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest member of each vertex's component under the edges (u, v).

    Hooking and pointer jumping: label[x] points towards x's root.  Each
    round hooks the larger root of every edge whose ends have different
    roots onto the smaller one, then jumps every pointer to its root; the
    rounds end when no edge joins two roots.  No loop runs per vertex,
    edge or BFS level, so a long path costs a few rounds of O(log n)
    jumps, not one step per level.
    """
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        joins = lu != lv
        if not joins.any():
            return label
        lu, lv = lu[joins], lv[joins]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _labels(g: Graph) -> np.ndarray:
    """`component_labels` of g's edges, memoised on g and read-only."""
    if g._labels is None:
        label = component_labels(g.n, g._u, g._v)
        label.setflags(write=False)
        object.__setattr__(g, "_labels", label)
    return g._labels


def connected_subgraph(g: Graph, verts: np.ndarray, ids: np.ndarray) -> Graph:
    """g's edges `ids` on the ascending vertices `verts`, relabelled 0.. in
    that order; the edges keep g's order, so a score computed on the
    subgraph is the score of g's edge.  The caller knows the piece is
    connected, so it is recorded as one component and no search runs on
    it again.
    """
    lu, lv = np.searchsorted(verts, g._u[ids]), np.searchsorted(verts, g._v[ids])
    sub = Graph._from_arrays(len(verts), lu, lv, g._w[ids])
    label = np.zeros(len(verts), dtype=np.int64)
    label.setflags(write=False)
    object.__setattr__(sub, "_labels", label)
    return sub


def is_connected(g: Graph) -> bool:
    return not _labels(g).any()


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def _integer_in(x, lo: int, hi: int) -> bool:
    """Whether x is an int or numpy integer, not a bool, in lo..hi: the library's one integer rule."""
    return not isinstance(x, (bool, np.bool_)) and isinstance(x, (int, np.integer)) and lo <= x <= hi


def require_count(what: str, x, lo, hi) -> int:
    """x as a Python int, if it is an integer in lo..hi (`_integer_in`); else a GraphError naming `what`.
    The one rule for every count and index the library takes: none is truncated, and no bool is one."""
    if not _integer_in(x, lo, hi):
        raise GraphError(f"{what} {x!r} is not an integer in {lo}..{hi}")
    return int(x)


def require_vertex(g: Graph, v) -> int:
    """v as a Python int, if it is an integer vertex index in 0..n-1."""
    return require_count("vertex", v, 0, g.n - 1)


def require_seed(seed) -> int:
    """seed as a Python int, if it is a nonnegative integer, the seeds the library's generators take."""
    if not _integer_in(seed, 0, np.inf):
        raise GraphError(f"seed {seed!r} is not a nonnegative integer")
    return int(seed)


def require_points(points) -> np.ndarray:
    """points as a float64 n x d array, d >= 1, with every coordinate finite and at most sqrt(float64 max / 4d)
    in size, less rounding room, so no squared distance overflows; points that pass cost a max and a min pass."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise GraphError(f"points must be an n x d array with d >= 1, got shape {pts.shape}")
    bound = np.sqrt(np.finfo(np.float64).max * (1 - 1e-9) / (4 * pts.shape[1]))  # 1e-9: room for rounding
    if pts.size and not (-bound <= pts.min() and pts.max() <= bound):
        i = int(np.argmin((np.abs(pts) <= bound).all(axis=1)))  # the first bad point: NaN fails the test too
        finite = np.isfinite(pts[i]).all()
        why = f"beyond ±{bound:.3g}, where squared distances overflow" if finite else "that is not finite"
        raise GraphError(f"point {i} has a coordinate {why}: {pts[i].tolist()}")
    return pts


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
    side = list(side)
    if not all(_integer_in(v, 0, g.n - 1) for v in side):
        raise GraphError("cut side contains an invalid vertex")
    S = frozenset(int(v) for v in side)
    if not S or len(S) >= g.n:
        raise GraphError("cut side must be a proper nonempty vertex subset")
    inside = np.zeros(g.n, dtype=bool)
    inside[list(S)] = True
    crossing = tuple(np.flatnonzero(inside[g._u] != inside[g._v]).tolist())
    k = len(S)
    ratio = g.n * len(crossing) / (k * (g.n - k))
    return Cut(S, crossing, ratio)
