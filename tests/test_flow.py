import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphharm
from graphharm import flow, generators, harmonic, io, spectra, validate
from graphharm.flow import (
    current_flow_centrality,
    edge_betweenness,
    edge_measure,
    resilience_experiment,
    spearman,
    squared_flow_centrality,
    st_flow,
    st_potential,
)
from graphharm.graph import Graph, GraphError
from graphharm.harmonic import EdgeScores
from graphharm.validate import min_norm_certificate
from conftest import random_weighted


def test_path_potential_values(p3):
    p = st_potential(p3, 0, 2).values
    assert np.allclose(p, [1.0, 0.0, -1.0], atol=1e-12)


def test_potential_properties():
    g = random_weighted(12, 0.4, seed=9)
    p = st_potential(g, 2, 7).values
    assert float(np.sum(p)) == pytest.approx(0.0, abs=1e-10)
    assert p[2] - p[7] == pytest.approx(harmonic.effective_resistance(g, 2, 7), abs=1e-10)
    assert float(p @ p) == pytest.approx(
        harmonic.biharmonic_distance(g, 2, 7) ** 2, abs=1e-10
    )
    assert p[2] == pytest.approx(float(np.max(p)), abs=1e-12)
    assert p[7] == pytest.approx(float(np.min(p)), abs=1e-12)


def test_flow_conservation():
    g = random_weighted(10, 0.5, seed=4)
    f = st_flow(g, 0, 5).values
    div = g.boundary() @ f
    expected = np.zeros(g.n)
    expected[0], expected[5] = 1.0, -1.0
    assert np.allclose(div, expected, atol=1e-10)


def test_flow_energy_equals_resistance():
    g = random_weighted(10, 0.5, seed=4)
    f = st_flow(g, 1, 8)
    energy = float(np.sum(f.values**2 / g.weights))
    assert energy == pytest.approx(harmonic.effective_resistance(g, 1, 8), abs=1e-10)


def test_flow_on_path_is_unit(p3):
    assert np.allclose(st_flow(p3, 0, 2).values, [1.0, 1.0], atol=1e-12)


def test_min_norm_certificate():
    g = random_weighted(9, 0.6, seed=3)
    f = st_flow(g, 0, 4)
    assert min_norm_certificate(g, f)
    # a flow with a circulation added is still feasible but not minimal
    cyc = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    good = st_flow(cyc, 0, 2)
    bumped = flow.Flow(good.source, good.target,
                       good.values + np.array([1.0, 1.0, 1.0, 1.0]))
    assert not min_norm_certificate(cyc, bumped)
    # exact, not sampled: a bump of 1e-6 along one unit circulation of a
    # graph with hundreds of independent cycles is caught
    g = generators.erdos_renyi(40, 0.5, seed=1)
    f = st_flow(g, 3, 17)
    assert min_norm_certificate(g, f)
    circulation = np.linalg.svd(g.boundary())[2][-1]  # a unit vector in ker boundary
    assert np.allclose(g.boundary() @ circulation, 0.0, atol=1e-12)
    assert not min_norm_certificate(g, flow.Flow(3, 17, f.values + 1e-6 * circulation))


def test_squared_flow_matches_closed_form():
    # the library reads n w_e B_e^2; the pair sum over the slow-route flow
    # matrix is the identity's other side
    g = random_weighted(12, 0.5, seed=6)
    G = validate._flow_matrix(g, harmonic.decomposition(g), 1.0)
    pair_sums = np.sum(validate._pair_differences(G) ** 2, axis=1)
    assert np.allclose(squared_flow_centrality(g).values, pair_sums, rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("make", [
    lambda: random_weighted(13, 0.5, seed=4),
    lambda: generators.sbm([8, 9], 0.6, 0.1, seed=2)[0],
    lambda: generators.path(7),
], ids=["weighted13", "sbm17", "path7"])
def test_current_flow_block_boundaries(monkeypatch, make, rows):
    # blocks of 1, 2 or 5 edges; at 5 each graph here ends on a short block
    g = make()
    monkeypatch.setattr(spectra, "_BLOCK_ELEMENTS", rows * g.n)
    G = validate._flow_matrix(g, harmonic.decomposition(g), 1.0) * np.sqrt(g.weights)[:, None]
    expect = np.sum(np.abs(validate._pair_differences(G)), axis=1)
    assert np.allclose(current_flow_centrality(g).values, expect, rtol=1e-12, atol=0)


def test_current_flow_memory_stays_near_pinv():
    # beside L^+ (n^2 floats) and the embedding it is formed from, only
    # blocks of edges are held: no m x n array (here m is about 5 n)
    g = generators.erdos_renyi(600, 10 / 600, seed=0)
    harmonic.decomposition(g)
    tracemalloc.start()
    try:
        current_flow_centrality(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * g.n**2 * 8


def test_flow_centralities_sum_st_flows():
    g = random_weighted(9, 0.5, seed=2)
    flows = [st_flow(g, s, t).values for s in range(g.n) for t in range(s + 1, g.n)]
    assert np.allclose(current_flow_centrality(g).values, np.sum(np.abs(flows), axis=0), rtol=1e-12, atol=0)
    assert np.allclose(squared_flow_centrality(g).values, np.sum(np.square(flows), axis=0) / g.weights, rtol=1e-12, atol=0)


def test_path_centralities(p3):
    assert np.allclose(squared_flow_centrality(p3).values, [2.0, 2.0], atol=1e-12)
    assert np.allclose(current_flow_centrality(p3).values, [2.0, 2.0], atol=1e-12)
    assert np.allclose(edge_betweenness(p3).values, [2.0, 2.0], atol=1e-12)


def test_betweenness_on_barbell(barbell):
    b = edge_betweenness(barbell).values
    assert int(np.argmax(b)) == 3  # the bridge carries all cross pairs
    assert b[3] == pytest.approx(9.0)


def test_betweenness_counts_k4(k4):
    # all shortest paths are direct edges; each edge carries only its own pair
    assert np.allclose(edge_betweenness(k4).values, 1.0, atol=1e-12)


@pytest.mark.parametrize("block", [1, 7, 2**18])
@pytest.mark.parametrize("make", [
    lambda: generators.erdos_renyi(40, 0.15, seed=3),
    lambda: generators.sbm([12, 12, 12], 0.5, 0.05, seed=1)[0],
    lambda: validate.sample_graph("tree", 30, seed=2),
    lambda: generators.path(9),
    lambda: _grid(5, 7),
], ids=["er40", "sbm36", "tree30", "path9", "grid5x7"])
def test_betweenness_matches_brandes_loop(monkeypatch, make, block):
    # block elements 1 and 7 force one and a few sources per block
    g = make()
    monkeypatch.setattr(flow, "_SOURCE_BLOCK_ELEMENTS", block)
    expect = validate._betweenness_reference(g)
    assert np.allclose(edge_betweenness(g).values, expect, rtol=1e-12, atol=0)


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1, 1.0) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c, 1.0) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def test_betweenness_on_a_long_path():
    # one BFS level per vertex: the level loop must stay cheap in memory and time
    g = generators.path(400)
    expect = validate._betweenness_reference(g)
    assert np.allclose(edge_betweenness(g).values, expect, rtol=1e-12, atol=0)
    # edge (i, i+1) separates i+1 vertices from the other 399 - i
    assert np.array_equal(expect, [(i + 1) * (399 - i) for i in range(399)])
    assert edge_betweenness(Graph(1, [])).values.shape == (0,)


def test_spearman_perfect_and_reversed():
    a = EdgeScores(np.array([1.0, 2.0, 3.0, 4.0]))
    b = EdgeScores(np.array([10.0, 20.0, 30.0, 40.0]))
    assert spearman(a, b) == pytest.approx(1.0)
    c = EdgeScores(np.array([4.0, 3.0, 2.0, 1.0]))
    assert spearman(a, c) == pytest.approx(-1.0)


def test_spearman_rejects_degenerate():
    a = EdgeScores(np.array([1.0, 1.0, 1.0]))
    b = EdgeScores(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(GraphError, match="degenerate"):
        spearman(a, b)
    with pytest.raises(GraphError, match="size"):
        spearman(b, EdgeScores(np.array([1.0, 2.0])))


def test_spearman_rejects_a_single_edge():
    one = EdgeScores(np.array([1.0]))
    with pytest.raises(GraphError, match=r"^need at least 2 edges for a rank correlation$"):
        spearman(one, one)


@pytest.mark.parametrize("call", [st_potential, st_flow])
def test_st_potential_and_flow_reject_s_equal_t(call):
    with pytest.raises(GraphError, match=r"^st-potential requires s != t$"):
        call(generators.path(4), 2, 2)


def test_resilience_rejects_more_edges_than_the_non_edges():
    # path(4) has the 3 non-edges (0, 2), (0, 3) and (1, 3)
    with pytest.raises(GraphError, match=r"^cannot add 4 edges; only 3 non-edges exist$"):
        resilience_experiment(generators.path(4), "resistance", num_added=4, trials=1, seed=0)


@pytest.mark.parametrize(
    "g", [generators.complete(9), Graph(12, [(i, (i + 1) % 12, 1.0) for i in range(12)])]
)
def test_spearman_ties_scores_equal_up_to_rounding(g):
    # every edge of K9 and of C12 has the same resistance and biharmonic
    # distance; rounding alone must not rank them
    with pytest.raises(GraphError, match="degenerate"):
        spearman(edge_measure(g, "biharmonic2"), edge_measure(g, "resistance"))


def test_spearman_is_route_independent():
    # criterion 7's input has edge scores that are equal in exact
    # arithmetic; the embedding and (L^+)^k routes round them differently
    pts, _ = io.bundled_points("ring300")
    g = generators.knn(pts, 25)
    dec = harmonic.decomposition(g)
    fast, slow = [], []
    for k in (1.0, 2.0):
        M = spectra.pinv_power(dec, k)
        fast.append(harmonic.edge_kharmonic_sq(g, k, dec))
        slow.append(EdgeScores(M[g._u, g._u] + M[g._v, g._v] - 2.0 * M[g._u, g._v]))
    assert spearman(*fast) == spearman(*slow)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_non_finite(bad):
    a = EdgeScores(np.array([1.0, 2.0, 3.0, 4.0]))
    b = EdgeScores(np.array([1.0, bad, 3.0, 2.0]))
    with pytest.raises(GraphError, match="finite"):
        spearman(a, b)
    with pytest.raises(GraphError, match="finite"):
        spearman(b, a)


def _rank_pairs(seed):
    """Tied and untied score vectors, including all-distinct and two-level ones.

    Ties are exact: the shifted vector is rounded again, since a sum such as
    -1.3 + 1 lands one ulp from -0.3, and `spearman` ties such near-equal
    scores where scipy ranks them apart.
    """
    rng = np.random.default_rng(seed)
    for n in (2, 3, 7, 40, 150):
        yield rng.standard_normal(n), rng.standard_normal(n)
        yield rng.integers(0, 3, n).astype(float), rng.integers(0, 5, n).astype(float)
        x = np.round(rng.standard_normal(n), 1)
        yield x, np.round(x + rng.integers(0, 2, n), 1)


def test_spearman_matches_scipy_exactly():
    stats = pytest.importorskip("scipy.stats")
    for a, b in _rank_pairs(0):
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        expected = float(stats.spearmanr(a, b)[0])
        assert spearman(EdgeScores(a), EdgeScores(b)) == expected


def test_spearman_matches_count_based_ranks():
    def ranks(x):
        # rank of x_i: 1 + #{x_j < x_i} + (#{x_j == x_i} - 1) / 2
        return np.array([np.sum(x < xi) + (np.sum(x == xi) + 1) / 2 for xi in x])

    for a, b in _rank_pairs(1):
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        ra, rb = ranks(a) - np.mean(ranks(a)), ranks(b) - np.mean(ranks(b))
        expected = float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))
        assert spearman(EdgeScores(a), EdgeScores(b)) == pytest.approx(
            expected, abs=1e-12
        )


@pytest.mark.parametrize("measure", ["resistance", "biharmonic2", "current-flow"])
@pytest.mark.parametrize("g", [
    generators.complete(12),
    Graph(20, [(i, (i + 1) % 20) for i in range(20)]),
    generators.star(10),
], ids=["complete12", "cycle20", "star10"])
def test_edges_tied_in_exact_arithmetic_rank_in_index_order(g, measure):
    # every edge is symmetric to every other; rounding must not order them
    assert edge_measure(g, measure).ranks.tolist() == list(range(g.m))


def test_edge_measure_dispatch():
    g = generators.erdos_renyi(10, 0.5, seed=5)
    for name in flow.MEASURES:
        scores = edge_measure(g, name, k=3.0)
        assert scores.values.shape == (g.m,)
    with pytest.raises(GraphError, match="requires"):
        edge_measure(g, "kharmonic2")
    with pytest.raises(GraphError, match="unknown measure"):
        edge_measure(g, "pagerank")


def test_measure_k_reads_the_table():
    assert flow.MEASURES == (*flow.KHARMONIC_K, "current-flow", "betweenness")
    assert [flow.measure_k(m, 1.5) for m in flow.MEASURES] == [1.0, 2.0, 1.5, None, None]
    assert [flow.measure_k(m) for m in ("resistance", "biharmonic2", "current-flow", "betweenness")] == [1.0, 2.0, None, None]
    with pytest.raises(GraphError, match="^measure kharmonic2 requires a value of k$"):
        flow.measure_k("kharmonic2")
    with pytest.raises(GraphError, match="^unknown measure 'pagerank'; choose from"):
        flow.measure_k("pagerank", 2.0)


_NAMED_READERS = {
    "resistance": lambda g: harmonic.edge_kharmonic_sq(g, 1.0),
    "biharmonic2": harmonic.biharmonic_edge_sq,
    "kharmonic2": lambda g: harmonic.edge_kharmonic_sq(g, 1.5),
    "current-flow": current_flow_centrality,
    "betweenness": edge_betweenness,
}


@pytest.mark.parametrize("measure", flow.MEASURES)
def test_edge_measure_equals_its_named_reader_bit_for_bit(measure):
    g, _ = generators.sbm([12, 12], 0.5, 0.1, 3)
    fresh, _ = generators.sbm([12, 12], 0.5, 0.1, 3)  # its own decomposition
    assert edge_measure(g, measure, 1.5).values.tobytes() == _NAMED_READERS[measure](fresh).values.tobytes()


def _is_measure_name(node) -> bool:
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return any(isinstance(x, ast.Constant) and isinstance(x.value, str) and x.value in flow.MEASURES for x in items)


def test_only_the_flow_module_compares_measure_names():
    """What an edge measure is (`flow.KHARMONIC_K`) is known to `flow.py`
    alone: no other module of the package compares a string with a
    measure name."""
    package = Path(graphharm.__file__).parent
    comparisons = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "flow.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and any(map(_is_measure_name, (node.left, *node.comparators)))
    ]
    assert comparisons == []


def test_resilience_is_deterministic():
    g = generators.erdos_renyi(20, 0.3, seed=1)
    a = resilience_experiment(g, "resistance", num_added=3, trials=4, seed=7)
    b = resilience_experiment(g, "resistance", num_added=3, trials=4, seed=7)
    assert a == b
    assert len(a) == 4
    assert all(-1.0 <= r <= 1.0 for r in a)


def _non_edges_by_comprehension(g, count, rng):
    existing = {(min(u, v), max(u, v)) for u, v, _ in g.edges}
    pool = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in existing]
    idx = rng.choice(len(pool), size=count, replace=False)
    return [(pool[i][0], pool[i][1], 1.0) for i in sorted(idx)]


@pytest.mark.parametrize("seed", range(20))
def test_sampled_non_edges_match_the_pair_comprehension(seed):
    g = generators.erdos_renyi(15 + seed, 0.4, seed)
    count = 1 + seed % 7
    drawn = flow._sample_non_edges(flow._non_edges(g), count, np.random.default_rng([seed, 1]))
    assert drawn == _non_edges_by_comprehension(g, count, np.random.default_rng([seed, 1]))
    assert all(type(x) is int for u, v, _ in drawn for x in (u, v))


@pytest.mark.parametrize("measure, k", [("resistance", None), ("biharmonic2", None), ("kharmonic2", 1.0), ("kharmonic2", 2.0),
                                      ("current-flow", None), ("betweenness", None)])
def test_resilience_update_matches_the_rebuild_route(measure, k):
    g, _ = generators.sbm([12, 12], 0.5, 0.1, 3)
    fast = resilience_experiment(g, measure, num_added=6, trials=4, seed=2, k=k)
    slow = validate._resilience_reference(g, measure, 6, 4, 2, k)
    assert np.allclose(fast, slow, rtol=1e-12, atol=0)


def test_resilience_rebuilds_for_other_measures(monkeypatch):
    g, _ = generators.sbm([8, 8], 0.6, 0.2, 1)
    monkeypatch.setattr(flow.spectra, "pinv_update_reads", None)  # never reached on this route
    for measure, k in (("kharmonic2", 2.5), ("current-flow", None), ("betweenness", None)):
        assert resilience_experiment(g, measure, 3, 2, 0, k) == validate._resilience_reference(g, measure, 3, 2, 0, k)


def test_resilience_rejects_complete_graph(k4):
    with pytest.raises(GraphError):
        resilience_experiment(k4, "resistance", num_added=1, trials=1, seed=0)


@pytest.mark.parametrize("measure", flow.MEASURES)
@pytest.mark.parametrize("num_added, trials", [(0, 2), (-1, 2), (2, 0), (2, 1.5), (2.5, 2), (True, 2)])
def test_resilience_rejects_an_empty_experiment(measure, num_added, trials):
    # the low-rank route (resistance, biharmonic2, kharmonic2 at k=2) and the rebuild route alike
    g, _ = generators.sbm([6, 6], 0.7, 0.2, 1)
    with pytest.raises(GraphError, match="num_added >= 1 and trials >= 1"):
        resilience_experiment(g, measure, num_added=num_added, trials=trials, seed=0, k=2.0)
