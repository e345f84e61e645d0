"""Edge betweenness and betweenness Girvan-Newman against networkx, a library
written independently of this one: an oracle that shares no code with
graphharm or with `validate`'s references.  Skipped where networkx is not
installed; graphharm does not depend on it."""

import numpy as np
import pytest

from graphharm import cluster, flow, generators

nx = pytest.importorskip("networkx")


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(zip(g._u.tolist(), g._v.tolist()))
    return h


@pytest.mark.parametrize("g", [
    generators.erdos_renyi(40, 0.15, 1),
    generators.sbm([15] * 3, 0.5, 0.06, 0)[0],
    generators.balanced_tree(2, 5),
    generators.path(30),
], ids=["er40", "sbm15x3", "tree2,5", "path30"])
def test_edge_betweenness_matches_networkx(g):
    expect = nx.edge_betweenness_centrality(_nx_graph(g), normalized=False)
    on_edges = [expect.get((u, v), expect.get((v, u))) for u, v in zip(g._u.tolist(), g._v.tolist())]
    np.testing.assert_allclose(flow.edge_betweenness(g).values, on_edges, rtol=1e-12, atol=0.0)


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
