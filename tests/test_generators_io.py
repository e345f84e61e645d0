import re

import numpy as np
import pytest

from graphharm import generators, io
from graphharm.generators import GenerationError
from graphharm.graph import Graph, GraphError, is_connected
from graphharm.io import ParseError


def test_complete_graph_size():
    g = generators.complete(5)
    assert (g.n, g.m) == (5, 10)


def test_path_and_star():
    assert generators.path(6).m == 5
    s = generators.star(6)
    assert s.m == 5 and s.degrees()[0] == 5


def test_balanced_tree_count():
    g = generators.balanced_tree(2, 3)
    assert g.n == 15 and g.m == 14
    assert is_connected(g)


def test_erdos_renyi_deterministic_and_connected():
    a = generators.erdos_renyi(30, 0.2, seed=12)
    b = generators.erdos_renyi(30, 0.2, seed=12)
    assert a.edges == b.edges
    assert is_connected(a)


def test_erdos_renyi_gives_up_on_hopeless_density():
    with pytest.raises(GenerationError):
        generators.erdos_renyi(50, 0.001, seed=0)


def test_sbm_labels_and_block_structure():
    g, labels = generators.sbm([10, 10], 0.9, 0.05, seed=4)
    assert g.n == 20 and np.array_equal(np.sort(np.unique(labels)), [0, 1])
    within = sum(1 for u, v, _ in g.edges if labels[u] == labels[v])
    assert within > g.m / 2


@pytest.mark.parametrize("p_in, p_out", [(1.5, 0.1), (-0.2, 0.1), (float("nan"), 0.1), (0.5, 2.0), (0.5, float("nan")),
                                         ("0.5", 0.1), (True, 0.1), (0.5, None)])
def test_sbm_rejects_bad_probabilities(p_in, p_out):
    with pytest.raises(GraphError, match=r"must be in \[0,1\]") as info:
        generators.sbm([5, 5], p_in, p_out, seed=0)
    assert not isinstance(info.value, GenerationError)


@pytest.mark.parametrize("p", ["0.5", None, True, np.True_])
def test_erdos_renyi_rejects_a_probability_that_is_not_a_real_number(p):
    with pytest.raises(GraphError, match=rf"^edge probability must be in \[0,1\], got {re.escape(repr(p))}$"):
        generators.erdos_renyi(10, p, 0)


def test_knn_graph_is_symmetric_union():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(25, 2))
    g = generators.knn(pts, 4)
    degs = g.degrees()
    assert np.all(degs >= 4)  # union symmetrization only adds neighbors
    assert np.all(g.weights == 1.0)


def test_knn_tie_break_is_deterministic():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    a = generators.knn(pts, 1)
    b = generators.knn(pts.copy(), 1)
    assert a.edges == b.edges


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_a_point_that_is_not_finite(bad):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, bad], [4.0, bad]])
    with pytest.raises(GraphError, match=rf"^point 3 has a coordinate that is not finite: \[3.0, {bad}\]$"):
        generators.knn(pts, 1)


def test_knn_rejects_points_that_are_not_numbers():
    with pytest.raises(GraphError, match=r"^points must be an n x d array of real numbers: could not convert string"):
        generators.knn([["a", "b"]], 1)


def test_knn_rejects_points_whose_squared_distances_overflow():
    # the squared distances would be inf, and point 0 would pick itself as a self-loop
    with pytest.raises(GraphError, match=r"^point 1 has a coordinate beyond ±6.7e\+153, where squared distances overflow"):
        generators.knn([[0.0], [1e200], [2e200], [3e200]], 1)


def test_generate_dispatcher():
    g = generators.generate("path", {"n": 7})
    assert g.m == 6
    with pytest.raises((GenerationError, GraphError, KeyError)):
        generators.generate("hypercube", {"n": 8})


@pytest.mark.parametrize(
    "model, params",
    [("path", {}), ("erdos_renyi", {"n": 5}), ("sbm", {"sizes": [3, 3], "p_in": 0.5, "p_out": None}),
     ("knn", {"k": 2})],
)
def test_generate_reports_missing_parameters(model, params):
    with pytest.raises(GraphError, match=f"model {model} requires"):
        generators.generate(model, params)


def _per_pair_sample(labels, p_in, p_out, seed):
    """The per-pair loop the row sampler replaced: one rng.random() per pair
    (u, v > u) in order, resampled with sub-seeds until connected."""
    n = len(labels)
    for attempt in range(generators.MAX_CONNECT_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < (p_in if labels[u] == labels[v] else p_out):
                    edges.append((u, v, 1.0))
        g = Graph(n, edges)
        if is_connected(g):
            return g
    raise AssertionError("no connected reference sample")


@pytest.mark.parametrize("n, p, seed", [(12, 0.3, 0), (25, 0.12, 4), (60, 0.1, 3), (300, 0.05, 1)])
def test_erdos_renyi_pinned_to_per_pair_draws(n, p, seed):
    expected = _per_pair_sample(np.zeros(n), p, p, seed)
    assert generators.erdos_renyi(n, p, seed).edges == expected.edges


@pytest.mark.parametrize(
    "sizes, p_in, p_out, seed",
    [([10, 10, 10], 0.7, 0.1, 1), ([50, 50, 50], 0.3, 0.02, 1), ([5, 7], 0.5, 0.05, 2)],
)
def test_sbm_pinned_to_per_pair_draws(sizes, p_in, p_out, seed):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    g, got_labels = generators.sbm(sizes, p_in, p_out, seed)
    assert g.edges == _per_pair_sample(labels, p_in, p_out, seed).edges
    assert np.array_equal(got_labels, labels)


def test_edge_list_roundtrip(tmp_path):
    g, _ = generators.sbm([6, 6], 0.8, 0.2, seed=9)
    path = tmp_path / "g.txt"
    io.save_edge_list(g, path)
    g2 = io.load_edge_list(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_edge_list_parses_comments_and_weights(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\nn 3\n0 1\n1 2 2.5\n")
    g = io.load_edge_list(path)
    assert g.n == 3 and g.weights[1] == 2.5 and g.weights[0] == 1.0


def test_edge_list_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n1 two\n")
    with pytest.raises(ParseError, match=r":2: could not parse"):
        io.load_edge_list(path)


@pytest.mark.parametrize("text, line", [("n 99999999999999999999\n0 1\n", 1), ("0 1\n1 99999999999\n2 3\n", 2)])
def test_edge_list_reports_a_vertex_count_beyond_the_limit(tmp_path, text, line):
    path = tmp_path / "big.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f":{line}: vertex count .* exceeds") as info:
        io.load_edge_list(path)
    assert info.value.line == line


def test_sbm_rejects_an_empty_size_list():
    with pytest.raises(GraphError, match=r"^cluster sizes must be a nonempty list of positive counts$"):
        generators.sbm([], 0.5, 0.1, seed=0)


@pytest.mark.parametrize("text, line, message", [
    ("n 3 4\n0 1\n", 1, "header must be 'n COUNT'"),
    ("n 3\n0 1 1.0 7\n", 2, "expected 'u v \\[w\\]', got '0 1 1.0 7'"),
    ("# a negative count\nn -3\n0 1\n", 2, "vertex count must be nonnegative, got -3"),
], ids=["header-fields", "four-fields", "negative-count"])
def test_edge_list_names_the_bad_line(tmp_path, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: {message}$") as info:
        io.load_edge_list(path)
    assert info.value.line == line


@pytest.mark.parametrize("text, message", [
    ("", ":1: missing header row"),
    ("x,y\n1.0,2.0\n3.0,4.0,5.0\n", ":3: expected 2 columns, got 3"),
    ("x,y\n1.0,2.0\n1.0,two\n", ":3: could not parse row \\['1.0', 'two'\\]"),
    ("x,label\n1.0,0\n2.0,0.5\n", ":3: could not parse row \\['2.0', '0.5'\\]"),
], ids=["no-header", "ragged", "bad-number", "bad-label"])
def test_points_csv_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "pts.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}{message}$"):
        io.load_points_csv(path)


def test_points_csv_roundtrip(tmp_path):
    pts = np.array([[0.5, 1.5], [2.0, -1.0]])
    labels = np.array([0, 1])
    path = tmp_path / "pts.csv"
    io.save_points_csv(pts, path, labels=labels)
    pts2, labels2 = io.load_points_csv(path)
    assert np.allclose(pts, pts2)
    assert np.array_equal(labels, labels2)


def test_points_csv_without_labels(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    pts, labels = io.load_points_csv(path)
    assert pts.shape == (2, 2) and labels is None


@pytest.mark.parametrize("header, shape", [("x,y", (0, 2)), ("x,y,label", (0, 2)), ("label", (0, 0))])
def test_points_csv_without_rows_keeps_its_columns(tmp_path, header, shape):
    path = tmp_path / "pts.csv"
    path.write_text(header + "\n")
    pts, labels = io.load_points_csv(path)
    assert pts.shape == shape and pts.dtype == np.float64
    assert (labels is None) == (not header.endswith("label"))


def test_bundled_datasets_load():
    pts, labels = io.bundled_points("blobs300")
    assert pts.shape == (300, 2) and len(labels) == 300
    ring, none = io.bundled_points("ring300")
    assert ring.shape == (300, 2) and none is None
    # the ring dataset really is an annulus: radii stay well off zero
    radii = np.linalg.norm(ring, axis=1)
    assert radii.min() > 1.5


def test_bundled_unknown_name():
    with pytest.raises(GraphError, match="available"):
        io.bundled_points("nonexistent")
