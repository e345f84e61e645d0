import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphharm
from graphharm import cluster, flow, generators, harmonic, spectra, validate
from graphharm.graph import DisconnectedGraphError, Graph, GraphError
from graphharm.harmonic import (
    EdgeScores,
    biharmonic_distance,
    biharmonic_edge_sq,
    edge_kharmonic_sq,
    effective_resistance,
    kharmonic_matrix,
    kharmonic_rank_sq_matrix,
    kharmonic_sq_matrix,
    total_resistance,
)
from graphharm.validate import rtot_derivative_check
from conftest import random_weighted


def test_path_resistance_adds_up(p3):
    assert effective_resistance(p3, 0, 2) == pytest.approx(2.0, abs=1e-12)
    assert effective_resistance(p3, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_tree_edges_have_unit_resistance():
    t = generators.balanced_tree(3, 2)
    r = edge_kharmonic_sq(t, 1.0).values
    assert np.allclose(r, 1.0, atol=1e-12)


def test_parallel_conductances_add():
    # doubling an edge weight halves its resistance
    g = generators.path(2).with_weight(0, 2.0)
    assert effective_resistance(g, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_complete_graph_biharmonic_sq(k4):
    b = biharmonic_edge_sq(k4).values
    assert np.allclose(b, 2.0 / 16.0, atol=1e-12)


def test_path_center_edge_biharmonic(p4, p3):
    b4 = biharmonic_edge_sq(p4).values
    assert b4[1] == pytest.approx(1.0, abs=1e-12)
    b3 = biharmonic_edge_sq(p3).values
    assert np.allclose(b3, 2.0 / 3.0, atol=1e-12)


def test_down_laplacian_route_agrees():
    g = random_weighted(14, 0.4, seed=5)
    direct = g.weights * biharmonic_edge_sq(g).values
    via = validate._down_laplacian_diagonal(g)
    assert np.allclose(via, direct, atol=1e-10)


@pytest.mark.parametrize("family", ["er_weighted", "tree", "sbm"])
@pytest.mark.parametrize("seed", range(3))
def test_down_laplacian_diagonal_matches_the_edge_space_pinv(family, seed):
    g = validate.sample_graph(family, 12 + 9 * seed, seed)
    A = g.weighted_boundary()
    oracle = np.diag(np.linalg.pinv(A.T @ A, hermitian=True))  # the m x m route
    assert np.allclose(validate._down_laplacian_diagonal(g), oracle, rtol=1e-10, atol=0)


def test_total_resistance_path(p3):
    assert total_resistance(p3) == pytest.approx(4.0, abs=1e-12)


def test_distance_from_a_vertex_to_itself_is_zero_and_still_checked():
    g = generators.path(4)
    assert harmonic.kharmonic_distance(g, 2.5, 2, 2) == 0.0
    with pytest.raises(spectra.SpectraError, match=r"^k must be finite, got k=nan$"):
        harmonic.kharmonic_distance(g, float("nan"), 2, 2)
    with pytest.raises(DisconnectedGraphError):
        harmonic.kharmonic_distance(Graph(3, [(0, 1)]), 2.0, 2, 2)


def test_one_vertex_graph_has_zero_distance_and_no_edge_scores():
    g = Graph(1, ())
    assert harmonic.kharmonic_distance(g, 2.0, 0, 0) == 0.0
    assert harmonic.edge_kharmonic_sq(g, 2.0).values.shape == (0,)
    assert flow.squared_flow_centrality(g).values.shape == (0,)


def test_total_resistance_is_pair_sum():
    g = generators.erdos_renyi(9, 0.5, seed=4)
    R = kharmonic_sq_matrix(g, 1.0)
    assert total_resistance(g) == pytest.approx(float(np.sum(np.triu(R, 1))), abs=1e-9)


def test_kharmonic_interpolates_known_powers():
    g = generators.erdos_renyi(10, 0.5, seed=8)
    D1 = kharmonic_sq_matrix(g, 1.0)
    R = [[effective_resistance(g, s, t) if s != t else 0.0 for t in range(g.n)] for s in range(g.n)]
    assert np.allclose(D1, R, atol=1e-10)
    assert kharmonic_matrix(g, 2.0)[0, 5] == pytest.approx(
        biharmonic_distance(g, 0, 5), abs=1e-12
    )


def test_kharmonic_matrix_is_a_metric():
    g = generators.erdos_renyi(8, 0.5, seed=6)
    for k in (0.5, 1.0, 2.0, 3.0):
        D = kharmonic_matrix(g, k)
        assert np.allclose(D, D.T, atol=1e-12)
        assert np.allclose(np.diag(D), 0.0, atol=1e-9)
        n = g.n
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert D[a, c] <= D[a, b] + D[b, c] + 1e-9


def test_rank_truncation_is_monotone():
    g = generators.erdos_renyi(10, 0.5, seed=11)
    full = kharmonic_sq_matrix(g, 2.0)
    prev = np.zeros_like(full)
    for r in range(1, g.n):
        cur = kharmonic_rank_sq_matrix(g, 2.0, r)
        assert np.all(cur >= prev - 1e-11)
        prev = cur
    assert np.allclose(prev, full, atol=1e-9)


def test_derivative_of_total_resistance():
    g = random_weighted(15, 0.4, seed=2)
    analytic, numeric = rtot_derivative_check(g, 3)
    assert analytic == pytest.approx(numeric, abs=1e-6)
    assert analytic < 0  # adding conductance always lowers R_tot
    with pytest.raises(GraphError, match="weight must be positive"):
        rtot_derivative_check(g, 3, h=g.edges[3][2])


def test_deletion_identity_on_triangle():
    # K3: R_e = 2/3 and B_e^2 = 2/9, so -n B_e^2 / (1 - R_e) = -2 matches
    # R_tot(G) - R_tot(G - e) = 2 - 4, where the printed 1 + R_e gives -0.4
    g = generators.complete(3)
    lhs, rhs = validate._check_deletion(g)
    assert np.allclose(lhs, -2.0, atol=1e-12) and np.allclose(rhs, -2.0, atol=1e-12)
    r_e, b_sq = effective_resistance(g, 0, 1), biharmonic_distance(g, 0, 1) ** 2
    assert -g.n * b_sq / (1.0 + r_e) == pytest.approx(-0.4, abs=1e-12)


def test_ranking_breaks_ties_by_index():
    s = EdgeScores(np.array([1.0, 3.0, 1.0, 3.0]))
    assert list(s.ranking) == [1, 3, 0, 2]
    assert list(s.ranks) == [2, 0, 3, 1]
    listed = EdgeScores([3.0, 1.0])  # any 1-D sequence of reals is kept as float64
    assert listed.values.dtype == np.float64 and list(listed.ranking) == [0, 1]


@pytest.mark.parametrize("values, message", [
    ("abc", r"^scores must be a 1-D array of real numbers: could not convert string to float: 'abc'$"),
    ([1.0, "x"], r"^scores must be a 1-D array of real numbers: could not convert string to float: 'x'$"),
    ([[1.0], [2.0, 3.0]], r"^scores must be a 1-D array of real numbers: .*inhomogeneous shape"),
    ([[1.0, 2.0]], r"^scores must be a 1-D array, got shape \(1, 2\)$"),
    (None, r"^scores must be a 1-D array, got shape \(\)$"),
    (3.0, r"^scores must be a 1-D array, got shape \(\)$"),
], ids=["string", "string-entry", "ragged", "2-D", "None", "scalar"])
def test_edge_scores_name_their_shape_or_bad_entry(values, message):
    with pytest.raises(GraphError, match=message):
        EdgeScores(values)


def test_tie_groups_chain_gaps_up_to_rounding():
    x = np.array([3.0, 1.0, 3.0 - 1e-15, 2.0, 3.0 - 2e-15])
    assert harmonic.tie_groups(x).tolist() == [2, 0, 2, 1, 2]
    assert harmonic.tie_groups(np.array([1.0, 1.0 + 1e-9])).tolist() == [0, 1]
    assert harmonic.tie_groups(np.zeros(0)).tolist() == []


@pytest.mark.parametrize("seed", range(20))
def test_tie_groups_follow_the_values_not_their_order(seed):
    # groups depend only on the sorted values: a shuffled vector's groups are its
    # groups shuffled, through repeats, +-0.0 and chains of gaps just under the tolerance
    rng = np.random.default_rng(seed)
    chain = 2.0 - 0.9e-12 * 2.0 * np.arange(6)
    x = rng.choice(np.concatenate(([0.0, -0.0, 1.0, -1.0, 1.0 + 3e-12], chain)), 200)
    groups = harmonic.tie_groups(x)
    perm = rng.permutation(len(x))
    assert harmonic.tie_groups(x[perm]).tolist() == groups[perm].tolist()
    assert groups[x == 0.0].min() == groups[x == 0.0].max()


def test_top_of_ties_is_the_first_index_of_the_top_tie_group():
    chain = 3.0 - 0.9e-12 * 3.0 * np.arange(4, -1, -1)  # gaps just under the tolerance
    assert harmonic.top_of_ties(np.concatenate(([1.0], chain, [2.0]))) == 1
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.integers(0, 4, 30) * (1.0 + rng.choice([0.0, 1e-13, 1e-11], 30))
        groups = harmonic.tie_groups(x)
        assert harmonic.top_of_ties(x) == np.flatnonzero(groups == groups.max())[0]


def _bowtie(w):
    # two triangles sharing vertex 2, edge (2, 4) of weight w
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4, w)])


def test_unresolved_spectrum_names_both_counts_and_the_weight_ratio():
    with pytest.raises(spectra.SpectraError, match=r"kernel dimension 2 for 1 connected .* ratio 1e\+13"):
        harmonic.decomposition(_bowtie(1e13))
    assert np.all(np.isfinite(biharmonic_edge_sq(_bowtie(1e12)).values))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=20))
def test_foster_identity_random(seed, n):
    g = generators.erdos_renyi(n, 0.5, seed)
    r = edge_kharmonic_sq(g, 1.0).values
    assert float(np.sum(g.weights * r)) == pytest.approx(n - 1, rel=1e-9)


def test_decomposition_is_memoised_per_graph():
    g = generators.erdos_renyi(12, 0.5, seed=3)
    dec = harmonic.decomposition(g)
    assert harmonic.decomposition(g) is dec
    for derived in (g.with_weight(0, 2.0), g.without_edge(0), g.with_edges_added([])):
        own = harmonic.decomposition(derived)
        assert own is not dec
        fresh = spectra.decompose(derived.laplacian())
        assert np.array_equal(own.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(own.eigenvectors, fresh.eigenvectors)


@pytest.mark.parametrize("bad", [-1, 4, 4.0, 1.0, True, np.float64(1.0), "1", None])
def test_vertex_indices_must_be_integers_in_range(p4, bad):
    calls = (
        lambda s, t: effective_resistance(p4, s, t),
        lambda s, t: biharmonic_distance(p4, s, t),
        lambda s, t: harmonic.kharmonic_distance(p4, 2.5, s, t),
        lambda s, t: flow.st_potential(p4, s, t),
        lambda s, t: flow.st_flow(p4, s, t),
    )
    for call in calls:
        for s, t in ((bad, 0), (0, bad), (bad, bad)):
            with pytest.raises(GraphError, match="not an integer"):
                call(s, t)


def test_numpy_integer_vertices_are_accepted(p4):
    assert effective_resistance(p4, np.int64(0), np.int32(3)) == pytest.approx(3.0, abs=1e-12)
    assert flow.st_potential(p4, np.int64(0), 3).source == 0


def test_reads_build_no_full_matrix(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("full (L^+)^k built on a read path")

    monkeypatch.setattr(spectra, "pinv_power", refuse)
    g = random_weighted(14, 0.4, seed=7)
    effective_resistance(g, 0, 5)
    biharmonic_distance(g, 0, 5)
    harmonic.kharmonic_distance(g, 2.5, 0, 5)
    edge_kharmonic_sq(g, 1.5)
    biharmonic_edge_sq(g)
    for measure in ("resistance", "biharmonic2", "current-flow"):
        flow.edge_measure(g, measure)
    flow.st_potential(g, 0, 5)
    flow.st_flow(g, 0, 5)
    flow.squared_flow_centrality(g)
    flow.current_flow_centrality(g)
    for measure in ("biharmonic2", "kharmonic2"):
        cluster.girvan_newman(g, 3, measure, k=2.5)


def test_decomposition_of_another_graph_is_rejected():
    g = generators.star(5)
    # other sizes, another graph on the same vertices, and g reweighted
    for other in (generators.path(8), generators.path(3), generators.path(5), g.with_weight(0, 5.0)):
        dec = harmonic.decomposition(other)
        calls = (
            lambda: effective_resistance(g, 1, 2, dec),
            lambda: total_resistance(g, dec),
            lambda: edge_kharmonic_sq(g, 2.0, dec),
            lambda: kharmonic_sq_matrix(g, 1.0, dec),
        )
        for call in calls:
            with pytest.raises(GraphError, match="decomposition is of a graph on"):
                call()


def test_only_harmonic_readers_take_a_decomposition():
    # flow and cluster read the decomposition memoised on g; every exported name resolves
    for module in (flow, cluster):
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                assert "dec" not in inspect.signature(fn).parameters, f"{module.__name__}.{name}"
    assert all(hasattr(graphharm, name) for name in graphharm.__all__)


@pytest.mark.parametrize("k", [80.0, float("nan")])
def test_unrepresentable_power_raises_without_warning(k):
    # on path(400), lambda_2 ~ 6e-5, so lambda_2^-80 ~ 1e336 overflows float64;
    # a NaN k is refused before any power is taken
    g = generators.path(400)
    message = "overflows at k=80" if np.isfinite(k) else "k must be finite, got k=nan"
    calls = (
        lambda: harmonic.kharmonic_distance(g, k, 0, 399),
        lambda: edge_kharmonic_sq(g, k),
        lambda: cluster.kharmonic_kmeans(g, 2, k, 0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(spectra.SpectraError, match=message):
                call()
