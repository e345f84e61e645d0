"""Edge betweenness, betweenness Girvan-Newman, current-flow centrality and
resistances against networkx, a library written independently of this one:
an oracle that shares no code with graphharm or with `validate`'s
references.  Skipped where networkx is not installed; graphharm does not
depend on it."""

import numpy as np
import pytest

from graphharm import cluster, flow, generators, harmonic
from conftest import random_weighted, shuffled

nx = pytest.importorskip("networkx")


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_weighted_edges_from(zip(g._u.tolist(), g._v.tolist(), g._w.tolist()))
    return h


def _on_edges(g, expect):
    """networkx's per-edge dict, read in g's edge order whichever way round it keys an edge."""
    return [expect.get((u, v), expect.get((v, u))) for u, v in zip(g._u.tolist(), g._v.tolist())]


@pytest.mark.parametrize("g", [
    generators.erdos_renyi(40, 0.15, 1),
    generators.erdos_renyi(120, 0.1, 1),
    generators.sbm([15] * 3, 0.5, 0.06, 0)[0],
    shuffled(generators.sbm([20] * 3, 0.5, 0.05, 0)[0], 5),
    generators.balanced_tree(2, 5),
    generators.path(30),
], ids=["er40", "er120", "sbm15x3", "sbm20x3-shuffled", "tree2,5", "path30"])
def test_edge_betweenness_matches_networkx(g):
    expect = _on_edges(g, nx.edge_betweenness_centrality(_nx_graph(g), normalized=False, weight=None))
    np.testing.assert_allclose(flow._betweenness(g.n, g._u, g._v), expect, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(flow.edge_betweenness(g).values, expect, rtol=1e-13, atol=0.0)


WEIGHTED = [random_weighted(30, 0.2, 1), random_weighted(40, 0.15, 2, 1e-2, 1e2),
            generators.sbm([15] * 3, 0.5, 0.06, 0)[0]]
WEIGHTED_IDS = ["er30-weighted", "er40-weights-1e-2..1e2", "sbm15x3"]


@pytest.mark.parametrize("g", WEIGHTED, ids=WEIGHTED_IDS)
def test_current_flow_centrality_is_twice_networkx(g):
    # graphharm sums |f_st(e)| over unordered pairs; networkx's unnormalised
    # value divides that sum by 2, so that its normalised one is it times 2 / ((n-1)(n-2))
    expect = nx.edge_current_flow_betweenness_centrality(_nx_graph(g), normalized=False, weight="weight")
    np.testing.assert_allclose(flow.current_flow_centrality(g).values, 2.0 * np.array(_on_edges(g, expect)),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("g", WEIGHTED, ids=WEIGHTED_IDS)
def test_resistances_match_networkx(g):
    # graphharm's weights are conductances, which networkx inverts unless told not to
    h = _nx_graph(g)
    R = nx.resistance_distance(h, weight="weight", invert_weight=False)
    expect = [R[u][v] for u, v in zip(g._u.tolist(), g._v.tolist())]
    np.testing.assert_allclose(harmonic.edge_kharmonic_sq(g, 1.0).values, expect, rtol=1e-12, atol=0.0)
    assert harmonic.total_resistance(g) == pytest.approx(
        nx.effective_graph_resistance(h, weight="weight", invert_weight=False), rel=1e-12, abs=0.0)


def _partition(assignment):
    return {frozenset(np.flatnonzero(assignment == a).tolist()) for a in np.unique(assignment)}


@pytest.mark.parametrize("seed", range(10))
def test_betweenness_girvan_newman_matches_networkx(seed):
    # networkx yields the partition after each split: 2, then 3 communities
    g, _ = generators.sbm([15] * 3, 0.5, 0.06, seed)
    levels = nx.algorithms.community.girvan_newman(_nx_graph(g))
    for c in (2, 3):
        expect = {frozenset(part) for part in next(levels)}
        assert _partition(cluster.girvan_newman(g, c, "betweenness").assignment) == expect
