import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphharm import cluster, flow, generators, harmonic, validate
from graphharm.graph import (
    DisconnectedGraphError,
    EdgeError,
    Graph,
    GraphError,
    MAX_VERTICES,
    component_labels,
    connected_subgraph,
    cut_from_side,
    _labels,
    is_connected,
    require_points,
    require_connected,
    require_seed,
)
from graphharm.validate import bridges


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0, 1.0), (0, 1, 1.0)])


def test_build_rejects_duplicate_unordered():
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_build_rejects_bad_endpoint():
    with pytest.raises(GraphError, match="endpoint"):
        Graph(3, [(0, 3, 1.0)])


def test_build_rejects_nonpositive_weight():
    with pytest.raises(GraphError, match="weight"):
        Graph(3, [(0, 1, 0.0)])
    with pytest.raises(GraphError, match="weight"):
        Graph(3, [(0, 1, -2.0)])


def _reference_build(n, edges):
    """The per-edge loop that checked rows before `Graph` did: the
    reference for the rules, their order and their messages."""
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
    return tuple(clean)


def _outcome(build, n, edges):
    """The edges built, or the error's type, edge index and message."""
    try:
        built = build(n, edges)
    except GraphError as exc:
        return type(exc), getattr(exc, "edge", None), str(exc)
    return built if isinstance(built, tuple) else built.edges


@pytest.mark.parametrize(
    "edges, edge, message",
    [
        (((0, 1, 1.0), (0, 5, 1.0)), 1, "endpoint out of range 0..2"),
        (((-1, 1, 1.0),), 0, "endpoint out of range 0..2"),
        (((0, 1, 1.0), (2, 2, 1.0)), 1, "self-loop"),
        (((0, 1, float("nan")),), 0, "weight must be positive, got nan"),
        (((0, 1, float("inf")),), 0, "weight must be positive, got inf"),
        (((0, 1, 0.0),), 0, "weight must be positive, got 0.0"),
        (((0, 1, -1.0),), 0, "weight must be positive, got -1.0"),
        (((0, 1, "2"),), 0, "weight must be positive, got 2"),
        (((0, 1, True),), 0, "weight must be positive, got True"),
        (((0, 1, None),), 0, "weight must be positive, got None"),
        (((0, 1, 2.0), (1, 2, True)), 1, "weight must be positive, got True"),  # numpy would read 1.0
        (((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)), 2, "duplicate edge"),
        (((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)), 1, "duplicate edge"),
        # the first rule an edge breaks names it
        (((0, 1, 1.0), (1, 1, -1.0)), 1, "self-loop"),
        (((0, 3, float("nan")),), 0, "endpoint out of range 0..2"),
        (((0.5, 1), (1.9, 2)), 0, "endpoint is not an integer"),
        (((0, 1), (1, float("nan"))), 1, "endpoint is not an integer"),
        (((0, 1), (float("inf"), 1)), 1, "endpoint is not an integer"),
        (((0, 1), (1, -float("inf"), 0.0)), 1, "endpoint is not an integer"),
    ],
)
def test_constructor_checks_each_rule(edges, edge, message):
    with pytest.raises(EdgeError, match=f": {message}$") as info:
        Graph(3, edges)
    assert info.value.edge == edge


def test_constructor_rejects_negative_vertex_count():
    with pytest.raises(GraphError, match="vertex count must be nonnegative, got -1"):
        Graph(-1, ())


def test_constructor_rejects_a_vertex_count_beyond_the_key_range():
    # n beyond MAX_VERTICES would overflow the duplicate key lo * n + hi
    for n in (10**20, MAX_VERTICES + 1):
        with pytest.raises(GraphError, match=f"vertex count {n} exceeds"):
            Graph(n, ())
    assert Graph(MAX_VERTICES, ((0, MAX_VERTICES - 1, 1.0),)).m == 1


@pytest.mark.parametrize("w", [float("nan"), float("inf"), 0.0, -1.0, "1", True, np.True_])
def test_with_weight_is_checked(p3, w):
    with pytest.raises(EdgeError, match=f"edge 1 \\(1,2\\): weight must be positive, got {w}"):
        p3.with_weight(1, w)


@pytest.mark.parametrize(
    "extra, message",
    [
        ([(1, 2, 1.0)], "edge 2 \\(1,2\\): duplicate edge"),
        ([(2, 1, 1.0)], "edge 2 \\(2,1\\): duplicate edge"),
        ([(0, 2, 1.0), (2, 2, 1.0)], "edge 3 \\(2,2\\): self-loop"),
        ([(0, 3, 1.0)], "edge 2 \\(0,3\\): endpoint out of range 0..2"),
        ([(0, 0.5, 1.0)], "edge 2 \\(0,0.5\\): endpoint is not an integer"),
        ([(float("nan"), 2)], "edge 2 \\(nan,2\\): endpoint is not an integer"),
    ],
)
def test_with_edges_added_is_checked(p3, extra, message):
    with pytest.raises(EdgeError, match=message):
        p3.with_edges_added(extra)


def _malformed(rng):
    """A random edge list that mixes out-of-range endpoints, self-loops,
    bad weights and repeated pairs, in both orientations."""
    n = -int(rng.integers(1, 3)) if rng.random() < 0.04 else int(rng.integers(2, 16))
    edges = []
    for _ in range(int(rng.integers(1, 30))):
        u, v = (int(x) for x in rng.choice(max(n, 2), size=2, replace=False))
        w = float(rng.uniform(0.1, 5.0))
        fault = int(rng.integers(0, 12))
        if fault == 0:
            # 2**70 does not fit in int64
            v = int(rng.choice([-1, n, n + 4, 2**40, 2**70, -(2**70)]))
        elif fault == 1:
            v = u
        elif fault == 2:
            w = float(rng.choice([0.0, -2.5, np.nan, np.inf, -np.inf]))
        elif fault == 3 and edges:
            u, v = edges[int(rng.integers(len(edges)))][:2]
            u, v = (v, u) if rng.random() < 0.5 else (u, v)
        edges.append((u, v, w) if rng.random() < 0.9 else (u, v))
    return n, edges


def test_constructor_reports_what_the_reference_loop_reports():
    reported = []
    for seed in range(400):
        n, edges = _malformed(np.random.default_rng(seed))
        expect = _outcome(_reference_build, n, edges)
        assert _outcome(Graph, n, edges) == expect
        full = tuple((u, v, rest[0] if rest else 1.0) for u, v, *rest in edges)
        assert _outcome(Graph, n, full) == expect
        if isinstance(expect[0], type):
            reported.append(expect[2])
    # most lists are malformed, and each rule is reported on many of them
    assert len(reported) >= 300
    for rule in ("endpoint", "self-loop", "weight", "duplicate", "vertex count"):
        assert sum(rule in text for text in reported) >= 10, rule


def test_laplacian_matches_boundary_factorization():
    g = generators.erdos_renyi(12, 0.4, seed=3)
    B = g.boundary()
    L = g.laplacian()
    assert np.allclose(B @ np.diag(g.weights) @ B.T, L, atol=1e-12)
    Bt = g.weighted_boundary()
    assert np.allclose(Bt @ Bt.T, L, atol=1e-12)


def test_laplacian_rows_sum_to_zero():
    g = generators.complete(5)
    assert np.allclose(g.laplacian().sum(axis=1), 0.0)


@pytest.mark.parametrize("weights", ["unit", "uniform", "log-uniform"])
def test_laplacian_is_degree_minus_adjacency_bit_for_bit(weights):
    g = generators.erdos_renyi(80, 0.1, seed=4)
    rng = np.random.default_rng(7)
    w = {"unit": np.ones(g.m), "uniform": rng.uniform(0.1, 10.0, g.m),
         "log-uniform": np.exp(rng.uniform(-8.0, 8.0, g.m))}[weights]
    # vertex 80 is isolated: its diagonal must be +0.0, as D - A gives
    g = Graph(g.n + 1, tuple((u, v, float(x)) for (u, v, _), x in zip(g.edges, w)))
    A = g.adjacency()
    expect = np.diag(A.sum(axis=1)) - A
    L = g.laplacian()
    assert np.array_equal(L, expect) and np.array_equal(np.signbit(L), np.signbit(expect))


def test_laplacian_memory_is_one_matrix():
    """At most 1.1 n^2 floats, as tracemalloc sees numpy's arrays: L itself."""
    g = generators.erdos_renyi(600, 0.02, 2)
    tracemalloc.start()
    try:
        g.laplacian()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * g.n**2 * 8


@pytest.mark.parametrize("call", [
    lambda: generators.erdos_renyi(5, 0.5, -1),
    lambda: generators.sbm([3, 3], 0.5, 0.1, -2),
    lambda: cluster.kmeans([[0.0], [1.0], [2.0]], 2, -1),
    lambda: validate.run_suite(["foster"], seed=-1, trials=1),
    lambda: flow.resilience_experiment(generators.path(6), "resistance", 1, 1, -1),
    lambda: generators.erdos_renyi(5, 0.5, 1.5),
], ids=["erdos_renyi", "sbm", "kmeans", "run_suite", "resilience", "float"])
def test_seed_must_be_a_nonnegative_integer(call):
    with pytest.raises(GraphError, match="seed .* is not a nonnegative integer"):
        call()


def test_degrees_and_adjacency(p3):
    assert np.array_equal(p3.degrees(), [1.0, 2.0, 1.0])
    A = p3.adjacency()
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0
    assert np.allclose(A, A.T)


def test_connected_components_splits():
    g = Graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    assert _labels(g).tolist() == _plain_labels(g) == [0, 0, 2, 2, 2]
    assert not is_connected(g)
    with pytest.raises(DisconnectedGraphError):
        require_connected(g)


def test_connected_subgraph_relabels_in_order():
    # components {0, 2, 5, 7} and {1, 4, 6} with interleaved edges, and an
    # isolated vertex 3
    edges = [(5, 0, 1.0), (6, 1, 2.0), (2, 7, 3.0), (4, 1, 0.5), (0, 2, 1.5), (7, 5, 1.0)]
    g = Graph(8, edges)
    label = component_labels(g.n, g._u, g._v)
    roots = np.flatnonzero(label == np.arange(g.n))
    ids = [np.flatnonzero(label[g._u] == r) for r in roots]
    parts = [connected_subgraph(g, np.flatnonzero(label == r), x) for r, x in zip(roots, ids)]
    assert [sub.n for sub in parts] == [4, 3, 1]
    assert [x.tolist() for x in ids] == [[0, 2, 4, 5], [1, 3], []]
    assert parts[0].edges == ((2, 0, 1.0), (1, 3, 3.0), (0, 1, 1.5), (3, 2, 1.0))
    assert parts[1].edges == ((2, 0, 2.0), (1, 0, 0.5))
    assert parts[2].edges == ()
    for sub in parts:
        # the labels are preset, and equal what a fresh search finds
        assert sub._labels is not None
        assert np.array_equal(sub._labels, component_labels(sub.n, sub._u, sub._v))
        assert is_connected(Graph(sub.n, sub.edges))
    p4 = generators.path(4)
    assert connected_subgraph(p4, np.arange(4), np.arange(3)).edges == p4.edges


def test_constructor_reads_rows_of_two_or_three_fields_once():
    rows = [(0, 1), (1, 2, 2.5)]
    assert Graph(3, iter(rows)) == Graph(3, rows) == Graph(3, [(0, 1, 1.0), (1, 2, 2.5)])
    for bad in ((0,), (0, 1, 1.0, 7), 5):
        with pytest.raises(GraphError, match=r"^row 1 is not \(u, v\) or \(u, v, w\)"):
            Graph(3, [(0, 1), bad])


@pytest.mark.parametrize("e", [-1, 2, 1.5, True])
def test_edge_index_must_be_an_integer_in_0_to_m_minus_1(p3, e):
    for derive in (p3.without_edge, lambda e: p3.with_weight(e, 2.0)):
        with pytest.raises(GraphError, match=rf"^edge {re.escape(repr(e))} is not an integer in 0\.\.1$"):
            derive(e)


def test_with_weight_and_without_edge(p3):
    g2 = p3.with_weight(0, 5.0)
    assert g2.weights[0] == 5.0 and p3.weights[0] == 1.0
    g3 = p3.without_edge(0)
    assert g3.m == 1 and not is_connected(g3)


def test_with_edges_added_appends(p3):
    g = p3.with_edges_added([(0, 2, 1.0)])
    assert g.m == 3
    assert g.edges[2][:2] == (0, 2)


def test_with_edges_added_reads_rows_as_the_constructor_does(p3):
    # rows of two fields take weight 1.0; a row of another length is the constructor's GraphError
    assert p3.with_edges_added([(0, 2)]) == p3.with_edges_added(iter([(0, 2)])) == Graph(3, [(0, 1), (1, 2), (0, 2)])
    for row in [(0,), (0, 2, 1.0, 4.0), 7]:
        with pytest.raises(GraphError, match=r"^row 1 is not \(u, v\) or \(u, v, w\): ") as info:
            p3.with_edges_added([(0, 2), row])
        assert not isinstance(info.value, EdgeError)


def test_integral_endpoint_columns_of_any_dtype_pass(p3):
    assert Graph(3, [(0.0, 1.0), (np.float64(1.0), np.int32(2))]) == p3
    assert p3.with_edges_added([]) == p3  # np.append of nothing gives float64 columns
    assert Graph._from_arrays(3, np.array([0.0, 1.0]), np.array([1, 2], dtype=np.uint8), [1.0, 1.0]) == p3


def test_bridge_in_barbell(barbell):
    assert bridges(barbell) == [3]


def test_tree_is_all_bridges():
    t = generators.balanced_tree(2, 3)
    assert bridges(t) == list(range(t.m))


def test_cycle_has_no_bridges():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    assert bridges(g) == []


def _plain_components(g):
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for start in range(g.n):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        seen.add(start)
        while queue:
            for y in adj[queue.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def _plain_labels(g):
    """Each vertex's smallest component member, from `_plain_components`."""
    label = [0] * g.n
    for comp in _plain_components(g):
        for x in comp:
            label[x] = min(comp)
    return label


def _brute_bridges(g):
    count = len(_plain_components(g))
    return [e for e in range(g.m) if len(_plain_components(g.without_edge(e))) > count]


@pytest.mark.parametrize("degree", [2.2, 4.0])  # 4.0 draws triangles, whose edges are never searched
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=14))
def test_bridges_match_removal_oracle(degree, seed, n):
    g = generators.erdos_renyi(n, degree / n, seed)
    if g.m > 50:
        return
    assert bridges(g) == _brute_bridges(g)


def test_bridges_of_two_squares_joined_by_a_path():
    # no triangle, so every edge is searched; only the path edges 4 and 5 cut the graph
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5)])
    assert bridges(g) == [4, 5]


def _random_forest(n, rng):
    """Each vertex joins an earlier one or starts a new tree (or stays alone)."""
    return [(int(rng.integers(0, v)), v, 1.0) for v in range(1, n) if rng.random() < 0.7]


@pytest.mark.parametrize("seed", range(16))
def test_components_and_bridges_match_plain_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    forest = Graph(n, _random_forest(n, rng))
    assert bridges(forest) == list(range(forest.m))
    # a few extra edges close cycles over parts of the forest
    extra = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(seed % 5, 2)) if a != b}
    extra -= {(min(u, v), max(u, v)) for u, v, _ in forest.edges}
    sparse = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n])
    for g in (forest, forest.with_edges_added([(a, b, 1.0) for a, b in sorted(extra)]), sparse):
        assert component_labels(g.n, g._u, g._v).tolist() == _plain_labels(g)
        assert bridges(g) == _brute_bridges(g)


def test_cut_from_side(barbell):
    cut = cut_from_side(barbell, {0, 1, 2})
    assert cut.crossing_edges == (3,)
    # ratio = n * crossing / (|S| * |V\S|)
    assert cut.ratio == pytest.approx(6 * 1 / (3 * 3))


@pytest.mark.parametrize("seed", range(10))
def test_cut_from_side_matches_the_edge_loop(seed):
    rng = np.random.default_rng(seed)
    g = generators.erdos_renyi(int(rng.integers(5, 30)), 0.3, seed)
    side = rng.choice(g.n, size=int(rng.integers(1, g.n)), replace=False).tolist()
    cut = cut_from_side(g, side)
    S = set(side)
    crossing = tuple(e for e, (u, v, _) in enumerate(g.edges) if (u in S) != (v in S))
    assert cut.side == frozenset(S)
    assert cut.crossing_edges == crossing
    assert all(type(e) is int for e in cut.crossing_edges)
    assert cut.ratio == g.n * len(crossing) / (len(S) * (g.n - len(S)))


@pytest.mark.parametrize("side, message", [
    ([], "proper nonempty"), (range(6), "proper nonempty"), ([0, 6], "invalid vertex"), ([-1], "invalid vertex"),
    ([0.5], "invalid vertex"), ([True], "invalid vertex"),
])
def test_cut_from_side_rejects_improper_sides(barbell, side, message):
    with pytest.raises(GraphError, match=message):
        cut_from_side(barbell, side)


def test_memoised_decomposition_leaves_equality_and_repr_alone():
    a = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    b = Graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    harmonic.decomposition(a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "Graph(n=3, edges=((0, 1, 1.0), (1, 2, 2.0)))"


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33])
def test_points_at_the_coordinate_bound_give_finite_distances(d):
    # every sign pattern at the bound: no squared distance in knn or k-means overflows
    bound = np.sqrt(np.finfo(np.float64).max * (1 - 1e-9) / (4 * d))
    pts = bound * np.random.default_rng(d).choice([-1.0, 0.0, 1.0], size=(9, d))
    pts[0], pts[1] = bound, -bound
    assert require_points(pts) is pts
    assert generators.knn(pts, 2).m >= 9
    assert np.isfinite(cluster.kmeans(pts, 3, 0)[1])
    beyond = pts.copy()
    beyond[4, d - 1] = np.nextafter(-bound, -np.inf)
    with pytest.raises(GraphError, match=rf"^point 4 has a coordinate beyond ±.*, where squared distances overflow: "):
        require_points(beyond)


@pytest.mark.parametrize("points, message", [
    ([0.0, 1.0, 2.0], r"^points must be an n x d array with d >= 1, got shape \(3,\)$"),
    (np.zeros((4, 0)), r"^points must be an n x d array with d >= 1, got shape \(4, 0\)$"),
    (np.zeros((2, 2, 1)), r"^points must be an n x d array"),
    ([[0.0, 1.0], [1e200, 0.0], [np.nan, 0.0]], r"^point 1 has a coordinate beyond ±.*: \[1e\+200, 0.0\]$"),
    ([[0.0, 1.0], [np.nan, 0.0], [1e200, 0.0]], r"^point 1 has a coordinate that is not finite: \[nan, 0.0\]$"),
    ([[0.0], [-np.inf]], r"^point 1 has a coordinate that is not finite: \[-inf\]$"),
], ids=["1-D", "no-coordinates", "3-D", "huge-first", "nan-first", "-inf"])
def test_require_points_names_the_first_bad_point(points, message):
    with pytest.raises(GraphError, match=message):
        require_points(points)


def test_require_points_accepts_no_rows_and_copies_nothing():
    assert require_points(np.zeros((0, 3))).shape == (0, 3)
    pts = np.random.default_rng(0).normal(size=(20000, 8))
    tracemalloc.start()
    try:
        assert require_points(pts) is pts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000  # the points are 1.28 MB


_POINTS = np.arange(10.0)[:, None]

# argument -> (call taking the value, pattern its error message starts with, an in-range value)
_COUNT_ARGUMENTS = {
    "Graph n": (lambda x: Graph(x, [(0, 1)]), r"^vertex count", 3),
    "complete n": (generators.complete, r"^vertex count", 3),
    "path n": (generators.path, r"^vertex count", 3),
    "star n": (generators.star, r"^vertex count", 3),
    "erdos_renyi n": (lambda x: generators.erdos_renyi(x, 0.5, 0), r"^vertex count", 6),
    "balanced_tree branching": (lambda x: generators.balanced_tree(x, 2), r"^branching ", 2),
    "balanced_tree depth": (lambda x: generators.balanced_tree(2, x), r"^depth ", 2),
    "sbm sizes": (lambda x: generators.sbm([x, 3], 0.9, 0.3, 0), r"^cluster size ", 3),
    "knn k": (lambda x: generators.knn(_POINTS, x), r"^k ", 2),
    "generate n": (lambda x: generators.generate("path", {"n": x}), r"^vertex count|^model path requires n$", 3),
    "require_seed": (require_seed, r"^seed ", 3),
    "run_suite trials": (lambda x: validate.run_suite(["foster"], n_range=(8, 9), trials=x), r"^trials ", 1),
    "run_suite n_min": (lambda x: validate.run_suite(["foster"], n_range=(x, 9), trials=1), r"^n_min ", 8),
    "run_suite n_max": (lambda x: validate.run_suite(["foster"], n_range=(8, x), trials=1), r"^n_max ", 9),
}


@pytest.mark.parametrize("bad", [2.5, float("nan"), True, np.True_, -1, "3", None],
                         ids=["float", "nan", "bool", "numpy-bool", "negative", "str", "None"])
@pytest.mark.parametrize("argument", list(_COUNT_ARGUMENTS))
def test_every_count_is_an_integer_in_range_or_a_graph_error_naming_it(argument, bad):
    call, names, good = _COUNT_ARGUMENTS[argument]
    with pytest.raises(GraphError) as info:
        call(bad)
    assert re.search(names, str(info.value)), str(info.value)
    call(np.int64(good))  # a numpy integer in range is a count


def test_require_count_returns_a_python_int_and_names_the_range():
    assert type(Graph(np.int64(3), ()).n) is int
    with pytest.raises(GraphError, match=r"^vertex count 2\.5 is not an integer in 0\.\.2147483648$"):
        Graph(2.5, ())


@pytest.mark.parametrize("endpoint", [(0, 10**400), (-10**400, 1)], ids=["above", "below"])
def test_endpoint_beyond_float64_is_out_of_range(endpoint):
    with pytest.raises(EdgeError, match=r"^edge 0 .*: endpoint out of range 0\.\.2$"):
        Graph(3, [endpoint])
