"""`Graph` keeps its edges in one store, the read-only arrays `_u`, `_v`,
`_w`, and every derived, generated or loaded graph is checked on them."""

import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphharm
from graphharm import generators, io
from graphharm.graph import EdgeError, Graph, connected_subgraph

_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [3.0, 1.0], [0.0, 2.0]])


def _loaded(tmp_path, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    return io.load_edge_list(path)


# name -> (graph made in tmp_path, n, the rows Graph takes for it)
DERIVED = {
    "without_edge": (lambda tmp: generators.path(4).without_edge(1), 4, [(0, 1), (2, 3)]),
    "with_weight": (lambda tmp: generators.path(3).with_weight(1, 2.5), 3, [(0, 1), (1, 2, 2.5)]),
    "with_edges_added": (lambda tmp: generators.path(3).with_edges_added([(2, 0, 0.5)]), 3,
                         [(0, 1), (1, 2), (2, 0, 0.5)]),
    "connected_subgraph": (
        lambda tmp: connected_subgraph(Graph(6, [(4, 1, 2.0), (0, 5), (1, 3, 0.5), (5, 2)]),
                                       np.array([1, 3, 4]), np.array([0, 2])),
        3, [(2, 0, 2.0), (0, 1, 0.5)]),
    "complete": (lambda tmp: generators.complete(4), 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "path": (lambda tmp: generators.path(4), 4, [(0, 1), (1, 2), (2, 3)]),
    "star": (lambda tmp: generators.star(4), 4, [(0, 1), (0, 2), (0, 3)]),
    "balanced_tree": (lambda tmp: generators.balanced_tree(2, 2), 7,
                      [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
    "erdos_renyi": (lambda tmp: generators.erdos_renyi(6, 0.5, 0), 6,
                    [(0, 5), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4)]),
    "sbm": (lambda tmp: generators.sbm([3, 3], 0.9, 0.2, 1)[0], 6,
            [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
    "knn": (lambda tmp: generators.knn(_POINTS, 1), 5, [(0, 1), (0, 4), (2, 3)]),
    "load_edge_list": (lambda tmp: _loaded(tmp, "# header below\nn 5\n3 1 2.5\n0 4\n"), 5, [(3, 1, 2.5), (0, 4)]),
}


@pytest.mark.parametrize("make, n, rows", DERIVED.values(), ids=DERIVED)
def test_every_graph_is_the_checked_store_of_its_rows(make, n, rows, tmp_path):
    g, expect = make(tmp_path), Graph(n, rows)
    assert g == expect and hash(g) == hash(expect) and repr(g) == repr(expect)
    assert (g._u.dtype, g._v.dtype, g._w.dtype) == (np.int64, np.int64, np.float64)
    for x in (g._u, g._v, g._w):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = x[0]


@pytest.mark.parametrize("make, message", [
    (lambda p3: p3.with_weight(1, 0.0), "edge 1 (1,2): weight must be positive, got 0.0"),
    (lambda p3: p3.with_edges_added([(0, 2, 1.0), (0, 2**70, 1.0)]),
     "edge 3 (0,1180591620717411303424): endpoint out of range 0..2"),
    (lambda p3: p3.with_edges_added([(2, 1, 1.0)]), "edge 2 (2,1): duplicate edge"),
    (lambda p3: connected_subgraph(p3, np.array([0, 1]), np.array([0, 1])),
     "edge 1 (1,2): endpoint out of range 0..1"),
], ids=["weight", "beyond-int64", "duplicate", "subgraph"])
def test_an_illegal_derivation_raises_the_edge_error(p3, make, message):
    with pytest.raises(EdgeError) as info:
        make(p3)
    assert str(info.value) == message


@pytest.mark.parametrize("make, prefix", [
    (lambda: generators.erdos_renyi(300, 0.05, 7), "e0bc6a7f27e1da41"),
    (lambda: generators.sbm([20] * 3, 0.5, 0.05, 0)[0], "d44b32f101a9da07"),
    (lambda: generators.knn(io.bundled_points("blobs300")[0], 10), "607d1a5c3f7d278c"),
    (lambda: generators.balanced_tree(3, 5), "c3b39654436d451c"),
    (lambda: generators.complete(12), "24eb876220ec860a"),
    (lambda: generators.path(9), "5e7033e3d8cc679d"),
    (lambda: generators.star(7), "a8dad23ff052a048"),
], ids=["erdos_renyi", "sbm", "knn", "balanced_tree", "complete", "path", "star"])
def test_saved_edge_lists_keep_their_bytes(make, prefix, tmp_path):
    path = tmp_path / "g.txt"
    g = make()
    io.save_edge_list(g, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == prefix
    assert io.load_edge_list(path) == g


def test_a_graph_holds_its_edges_once():
    # m near 10^4: the three arrays are 0.24 MB; a tuple of m row tuples would add 1.5 MB
    generators.erdos_renyi(20, 0.5, 1)  # first-call caches are not the graph's
    tracemalloc.start()
    try:
        g = generators.erdos_renyi(2000, 0.005, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 9000 < g.m < 11000
    assert held < 0.4e6


def test_only_the_graph_module_reads_edges():
    """The edge storage format is known to `graph.py` alone: no other
    module of the package reads a `.edges` attribute."""
    package = Path(graphharm.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "edges"
    ]
    assert readers == []
