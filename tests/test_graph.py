import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphharm import generators, harmonic
from graphharm.graph import (
    DisconnectedGraphError,
    EdgeError,
    Graph,
    GraphError,
    build_graph,
    bridges,
    component_subgraphs,
    connected_components,
    cut_from_side,
    is_connected,
    require_connected,
)


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        build_graph(3, [(0, 0, 1.0), (0, 1, 1.0)])


def test_build_rejects_duplicate_unordered():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])


def test_build_rejects_bad_endpoint():
    with pytest.raises(GraphError, match="endpoint"):
        build_graph(3, [(0, 3, 1.0)])


def test_build_rejects_nonpositive_weight():
    with pytest.raises(GraphError, match="weight"):
        build_graph(3, [(0, 1, 0.0)])
    with pytest.raises(GraphError, match="weight"):
        build_graph(3, [(0, 1, -2.0)])


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
        (((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)), 2, "duplicate edge"),
        (((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)), 1, "duplicate edge"),
        # the first rule an edge breaks names it
        (((0, 1, 1.0), (1, 1, -1.0)), 1, "self-loop"),
        (((0, 3, float("nan")),), 0, "endpoint out of range 0..2"),
    ],
)
def test_constructor_checks_each_rule(edges, edge, message):
    with pytest.raises(EdgeError, match=f": {message}$") as info:
        Graph(3, edges)
    assert info.value.edge == edge


def test_constructor_rejects_negative_vertex_count():
    for build in (Graph, build_graph):
        with pytest.raises(GraphError, match="vertex count must be nonnegative, got -1"):
            build(-1, ())


@pytest.mark.parametrize("w", [float("nan"), float("inf"), 0.0, -1.0])
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
        assert _outcome(build_graph, n, edges) == expect
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


def test_degrees_and_adjacency(p3):
    assert np.array_equal(p3.degrees(), [1.0, 2.0, 1.0])
    A = p3.adjacency()
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0
    assert np.allclose(A, A.T)


def test_connected_components_splits():
    g = build_graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    comps = connected_components(g)
    assert comps == [{0, 1}, {2, 3, 4}]
    assert not is_connected(g)
    with pytest.raises(DisconnectedGraphError):
        require_connected(g)


def test_connected_components_returns_fresh_sets():
    g = build_graph(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    comps = connected_components(g)
    comps[0].add(4)
    comps[1].clear()
    comps.append({99})
    assert connected_components(g) == [{0, 1}, {2, 3, 4}]
    assert not is_connected(g)


def test_component_subgraphs_relabel_in_order():
    # components {0, 2, 5, 7} and {1, 4, 6} with interleaved edges, and an
    # isolated vertex 3
    edges = [(5, 0, 1.0), (6, 1, 2.0), (2, 7, 3.0), (4, 1, 0.5), (0, 2, 1.5), (7, 5, 1.0)]
    g = build_graph(8, edges)
    parts = component_subgraphs(g, connected_components(g))
    assert [sub.n for sub, _ in parts] == [4, 3, 1]
    assert [ids.tolist() for _, ids in parts] == [[0, 2, 4, 5], [1, 3], []]
    assert parts[0][0].edges == ((2, 0, 1.0), (1, 3, 3.0), (0, 1, 1.5), (3, 2, 1.0))
    assert parts[1][0].edges == ((2, 0, 2.0), (1, 0, 0.5))
    assert parts[2][0].edges == ()
    for sub, _ in parts:
        # the memo is preset, and equals what a fresh search finds
        assert sub._components == (frozenset(range(sub.n)),)
        assert connected_components(build_graph(sub.n, sub.edges)) == [set(range(sub.n))]
    assert [sub.n for sub, _ in component_subgraphs(g, connected_components(g)[1:2])] == [3]
    p4 = generators.path(4)
    assert [sub.n for sub, _ in component_subgraphs(p4, connected_components(p4))] == [4]


def test_with_weight_and_without_edge(p3):
    g2 = p3.with_weight(0, 5.0)
    assert g2.weights[0] == 5.0 and p3.weights[0] == 1.0
    g3 = p3.without_edge(0)
    assert g3.m == 1 and not is_connected(g3)


def test_with_edges_added_appends(p3):
    g = p3.with_edges_added([(0, 2, 1.0)])
    assert g.m == 3
    assert g.edges[2][:2] == (0, 2)


def test_bridge_in_barbell(barbell):
    assert bridges(barbell) == [3]


def test_tree_is_all_bridges():
    t = generators.balanced_tree(2, 3)
    assert bridges(t) == list(range(t.m))


def test_cycle_has_no_bridges():
    g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
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


def _brute_bridges(g):
    count = len(_plain_components(g))
    return [e for e in range(g.m) if len(_plain_components(g.without_edge(e))) > count]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=14))
def test_bridges_match_removal_oracle(seed, n):
    g = generators.erdos_renyi(n, 2.2 / n, seed)
    if g.m > 50:
        return
    assert bridges(g) == _brute_bridges(g)


def _random_forest(n, rng):
    """Each vertex joins an earlier one or starts a new tree (or stays alone)."""
    return [(int(rng.integers(0, v)), v, 1.0) for v in range(1, n) if rng.random() < 0.7]


@pytest.mark.parametrize("seed", range(16))
def test_components_and_bridges_match_plain_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    forest = build_graph(n, _random_forest(n, rng))
    assert bridges(forest) == list(range(forest.m))
    # a few extra edges close cycles over parts of the forest
    extra = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(seed % 5, 2)) if a != b}
    extra -= {(min(u, v), max(u, v)) for u, v, _ in forest.edges}
    sparse = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.5 / n])
    for g in (forest, forest.with_edges_added([(a, b, 1.0) for a, b in sorted(extra)]), sparse):
        assert connected_components(g) == _plain_components(g)
        assert bridges(g) == _brute_bridges(g)


def test_cut_from_side(barbell):
    cut = cut_from_side(barbell, {0, 1, 2})
    assert cut.crossing_edges == (3,)
    # ratio = n * crossing / (|S| * |V\S|)
    assert cut.ratio == pytest.approx(6 * 1 / (3 * 3))


def test_memoised_decomposition_leaves_equality_and_repr_alone():
    a = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    b = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    harmonic.decomposition(a)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "Graph(n=3, edges=((0, 1, 1.0), (1, 2, 2.0)))"
