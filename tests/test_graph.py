import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphharm import generators, harmonic
from graphharm.graph import (
    DisconnectedGraphError,
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
