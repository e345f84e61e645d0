import warnings

import numpy as np
import pytest

from graphharm import cluster, flow, generators, harmonic, io, spectra, validate
from graphharm.cluster import (
    girvan_newman,
    kharmonic_kmeans,
    kmeans,
    low_rank_kharmonic_kmeans,
    purity,
    spectral_clustering,
    sweep_cut,
)
from graphharm.graph import Graph, GraphError


def _two_blobs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 0.3, size=(20, 2))
    b = rng.normal((5, 5), 0.3, size=(20, 2))
    return np.vstack([a, b]), np.array([0] * 20 + [1] * 20)


def test_kmeans_separates_blobs():
    pts, truth = _two_blobs()
    res, inertia = kmeans(pts, 2, seed=1)
    assert purity(res, truth) == 1.0
    assert inertia >= 0


def test_kmeans_is_deterministic():
    pts, _ = _two_blobs()
    a1, i1 = kmeans(pts, 3, seed=5)
    a2, i2 = kmeans(pts, 3, seed=5)
    assert np.array_equal(a1.assignment, a2.assignment) and i1 == i2


@pytest.mark.parametrize("points, message", [
    ([[np.nan, 0], [1, 1], [2, 2], [3, 3]], r"^point 0 has a coordinate that is not finite: \[nan, 0.0\]$"),
    ([[0, 0], [1, 1], [2, np.inf], [3, 3]], r"^point 2 has a coordinate that is not finite: \[2.0, inf\]$"),
    ([[1e200], [2e200], [0], [1]], r"^point 0 has a coordinate beyond ±6.7e\+153, where squared distances overflow"),
    ([0, 1, 2, 3], r"^points must be an n x d array with d >= 1, got shape \(4,\)$"),
], ids=["nan", "inf", "huge", "1-D"])
def test_kmeans_rejects_points_without_finite_distances(points, message):
    with pytest.raises(GraphError, match=message):
        kmeans(points, 2, 0)


@pytest.mark.parametrize("c", [0, 5, 2.5, True])
def test_kmeans_rejects_a_cluster_count_outside_1_to_n(c):
    with pytest.raises(GraphError, match=rf"^cannot form c={c} clusters from 4 points$"):
        kmeans([[0.0], [1.0], [2.0], [3.0]], c, 0)


def test_kmeans_handles_more_clusters_than_natural():
    pts, _ = _two_blobs()
    res, _ = kmeans(pts, 5, seed=2)
    assert len(set(res.assignment.tolist())) == 5  # empty clusters get reseeded


def _reference_lloyd(points, c, seed):
    """The broadcasting Lloyd loop, one n x c x d array per iteration and a
    loop over the clusters: the oracle for `cluster.lloyd_iterations` on
    inputs whose empty clusters, if any, it reseeds without emptying another."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(n, size=c, replace=False)].copy()
    prev = None
    for _ in range(cluster.MAX_ITERS):
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
        assign = np.argmin(d2, axis=1)
        dist_to_own = d2[np.arange(n), assign]
        for cid in range(c):
            if not np.any(assign == cid):
                far = int(np.argmax(dist_to_own))
                assign[far] = cid
                dist_to_own[far] = 0.0
        inertia = 0.0
        for cid in range(c):
            members = pts[assign == cid]
            centroids[cid] = members.mean(axis=0)
            inertia += float(np.sum((members - centroids[cid]) ** 2))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
    return assign, inertia


def _lloyd_inputs():
    """(points, c, seed): criterion 6's SBMs under its four embeddings, the
    blobs300 k-NN graph's rank-3 embedding and seeded normal points."""
    for seed in range(10):
        g, _ = generators.sbm([50, 50, 50], 0.6, 0.2, seed=seed)
        dec = harmonic.decomposition(g)
        for k, r in ((10.0, 3), (10.0, None), (0.0, 3), (1.0, None)):
            yield spectra.embedding(dec, k, r), 3, seed
    pts, _ = io.bundled_points("blobs300")
    blobs = spectra.embedding(harmonic.decomposition(generators.knn(pts, 10)), 10.0, 3)
    for seed in range(5):
        yield blobs, 3, seed
    for seed in range(10):
        yield np.random.default_rng(seed).normal(size=(200, 5)), 7, seed


def test_kmeans_matches_the_reference_loop():
    for pts, c, seed in _lloyd_inputs():
        res, inertia = kmeans(pts, c, seed)
        assign, expect = _reference_lloyd(pts, c, seed)
        assert res.assignment.tolist() == assign.tolist()
        assert abs(inertia - expect) <= 1e-12 * expect


def test_empty_clusters_are_reseeded_without_emptying_another():
    # the rank-1 embedding of a star puts its six leaves on one point, and
    # duplicate-heavy points start from coinciding centroids
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = low_rank_kharmonic_kmeans(generators.star(7), 5, 2.0, 1, 0)
        assert np.all(np.bincount(res.assignment, minlength=5) > 0)
        for seed in range(50):
            pts = rng.integers(0, 3, size=(int(rng.integers(6, 30)), 2)).astype(float)
            assert np.all(np.bincount(kmeans(pts, 6, seed)[0].assignment, minlength=6) > 0)


def test_kharmonic_kmeans_on_two_blocks():
    g, truth = generators.sbm([15, 15], 0.8, 0.05, seed=3)
    res = kharmonic_kmeans(g, 2, k=2.0, seed=0)
    assert purity(res, truth) == 1.0
    assert res.c == 2 and len(res.assignment) == g.n


def test_low_rank_matches_full_at_max_rank():
    g, _ = generators.sbm([10, 10], 0.8, 0.1, seed=1)
    full = kharmonic_kmeans(g, 2, k=2.0, seed=4)
    lr = low_rank_kharmonic_kmeans(g, 2, k=2.0, r=g.n - 1, seed=4)
    assert np.array_equal(full.assignment, lr.assignment)


def test_low_rank_default_rank_recovers_blocks():
    g, truth = generators.sbm([15, 15, 15], 0.7, 0.05, seed=0)
    res = low_rank_kharmonic_kmeans(g, 3, k=10.0, seed=0)
    assert purity(res, truth) == 1.0


def test_spectral_clustering_on_two_blocks():
    g, truth = generators.sbm([15, 15], 0.8, 0.05, seed=2)
    res = spectral_clustering(g, 2, seed=0)
    assert purity(res, truth) == 1.0


def test_spectral_requires_fewer_clusters_than_vertices():
    g = generators.complete(4)
    with pytest.raises(GraphError):
        spectral_clustering(g, 4, seed=0)


@pytest.mark.parametrize("measure", ["biharmonic2", "kharmonic2", "betweenness"])
def test_girvan_newman_splits_barbell(barbell, measure):
    res = girvan_newman(barbell, 2, measure=measure)
    assert set(np.where(res.assignment == res.assignment[0])[0]) in ({0, 1, 2}, {3, 4, 5})


@pytest.mark.parametrize("measure", ["biharmonic2", "kharmonic2", "betweenness"])
def test_girvan_newman_scores_a_split_graph(measure):
    # three triangles joined in a path by two bridges: after the first
    # bridge goes, the second is found by scoring each component on its own
    tri = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    edges = [(u + 3 * b, v + 3 * b, w) for b in range(3) for u, v, w in tri]
    g = Graph(9, edges + [(2, 3, 1.0), (5, 6, 1.0)])
    res = girvan_newman(g, 3, measure=measure, k=2.5)
    assert res.c == 3
    assert res.assignment.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def _pinned(sbm_args, measure, expected, name=None):
    return pytest.param(sbm_args, measure, expected, id=f"{measure}-{name or expected}")


# Assignments recorded with the one-source Brandes loop and with every
# component re-scored after each deletion, so that any change to
# Girvan-Newman or its measures shows up here.  The 50 x 3 and 20 x 3 SBMs
# are the Girvan-Newman inputs of the cluster-sbm benchmark.
@pytest.mark.parametrize(
    "sbm_args, measure, expected",
    [
        _pinned(([10] * 3, 0.7, 0.1, 0), "biharmonic2", "000000000000010000200000000000"),
        _pinned(([10] * 3, 0.7, 0.1, 0), "kharmonic2", "000000000000010000200000000000"),
        _pinned(([10] * 3, 0.7, 0.1, 0), "betweenness", "000000000011111111112222222222"),
        _pinned(([10] * 3, 0.7, 0.1, 1), "biharmonic2", "001000200000000000000000000000", "seed1"),
        _pinned(([10] * 3, 0.7, 0.1, 1), "kharmonic2", "000000100022222222222222222222", "seed1"),
        _pinned(([10] * 3, 0.7, 0.1, 1), "betweenness", "000000000011111111112222222222", "seed1"),
        _pinned(([10] * 3, 0.7, 0.1, 2), "biharmonic2", "000000000000001000002222222222", "seed2"),
        _pinned(([10] * 3, 0.7, 0.1, 2), "kharmonic2", "000000000000001000002222222222", "seed2"),
        _pinned(([10] * 3, 0.7, 0.1, 2), "betweenness", "000000000011111111112222222222", "seed2"),
        _pinned(([50] * 3, 0.6, 0.2, 0), "biharmonic2", "0" * 78 + "1" + "0" * 61 + "2" + "0" * 9, "sbm50"),
        _pinned(([20] * 3, 0.5, 0.05, 0), "betweenness", "0" * 20 + "1" * 20 + "2" * 20, "sbm20"),
    ],
)
def test_girvan_newman_pinned_on_sbm(sbm_args, measure, expected):
    g, _ = generators.sbm(*sbm_args)
    res = girvan_newman(g, 3, measure=measure, k=2.5)
    assert "".join(map(str, res.assignment)) == expected


def _weighted_tree():
    rng = np.random.default_rng(3)
    return Graph(12, [(int(rng.integers(0, v)), v, float(rng.uniform(0.1, 10.0))) for v in range(1, 12)])


def _heavy_edge_beside_light_path():
    # two 5-cliques joined by edge (0, 5) and by the path 1-10-11-6 whose
    # end edges weigh 2e-9: 1 - w R = 1e-9 on (0, 5).  The light edges
    # score highest and go first, so (0, 5) is a bridge by its turn.
    clique = [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]
    edges = clique + [(u + 5, v + 5, w) for u, v, w in clique]
    return Graph(12, edges + [(0, 5, 1.0), (1, 10, 2e-9), (10, 11, 1.0), (11, 6, 2e-9)])


@pytest.mark.parametrize(
    "make",
    [lambda b: generators.path(8), lambda b: _weighted_tree(), lambda b: b, lambda b: _heavy_edge_beside_light_path()],
    ids=["path8", "weighted-tree", "barbell", "heavy-edge"],
)
@pytest.mark.parametrize("measure, k", [(m, k) for m in cluster.GN_MEASURES for k in (1.0, 2.0, 2.5)])
def test_girvan_newman_matches_the_rebuilding_loop(barbell, make, measure, k):
    # every deletion on the path and the tree is a bridge; the barbell and
    # the heavy edge interleave rank-one updates with fresh decompositions
    g = make(barbell)
    for c in range(1, g.n + 1):
        res = girvan_newman(g, c, measure=measure, k=k)
        assert res.assignment.tolist() == validate._girvan_newman_reference(g, c, measure, k).tolist()
        assert res.c == len(set(res.assignment.tolist())) >= c


@pytest.mark.parametrize("seed", range(6))
def test_girvan_newman_matches_the_rebuilding_loop_on_sampled_graphs(seed):
    for family in validate.FAMILIES:
        g = validate.sample_graph(family, 12 + seed, seed)
        for c in (2, 3, 5):
            assert girvan_newman(g, c).assignment.tolist() == validate._girvan_newman_reference(g, c).tolist()


def test_girvan_newman_breaks_ties_up_to_rounding_toward_the_lowest_index(barbell):
    # after the bridge, the six triangle edges tie in exact arithmetic and
    # (0, 1) goes; then (0, 2) and (1, 2) tie, and (0, 2) goes, whatever
    # rounding made of the scores
    res = girvan_newman(barbell, 3)
    assert res.assignment.tolist() == [0, 1, 1, 2, 2, 2]
    assert cluster.top_edge(np.array([1.0, 3.0 - 1e-15, 3.0, 2.0])) == 1
    assert cluster.top_edge(np.array([1.0, 3.0 - 1e-9, 3.0, 2.0])) == 2


def _counted_decompositions(monkeypatch):
    calls = []
    decompose = spectra.decompose
    monkeypatch.setattr(spectra, "decompose", lambda L: calls.append(len(L)) or decompose(L))
    return calls


def test_girvan_newman_decomposes_once_per_split(monkeypatch):
    # the cluster-sbm biharmonic2 input (78 deletions) sheds two single
    # vertices: one decomposition of the whole graph; the 149-vertex piece
    # left by the first split inherits its matrices from the whole graph's,
    # the second split ends the run before its pieces are scored, and every
    # other deletion is a rank-one update
    calls = _counted_decompositions(monkeypatch)
    g, _ = generators.sbm([50] * 3, 0.6, 0.2, 0)
    res = girvan_newman(g, 3, "biharmonic2")
    assert calls == [150]
    assert sorted(np.bincount(res.assignment).tolist()) == [1, 1, 148]


@pytest.mark.parametrize("measure, k", [("biharmonic2", 2.0), ("kharmonic2", 1.0)])
def test_girvan_newman_rebuilds_a_piece_whose_inherited_matrices_lost_their_digits(monkeypatch, measure, k):
    # once the light path's edges go, the parent's L^+ holds entries near
    # 1e9 and a clique's own are near 1, below sqrt(eps) of them: that piece
    # is decomposed afresh instead of inheriting
    calls = _counted_decompositions(monkeypatch)
    g = _heavy_edge_beside_light_path()
    res = girvan_newman(g, 4, measure, k)
    assert len(calls) > 1
    assert res.assignment.tolist() == validate._girvan_newman_reference(g, 4, measure, k).tolist()


def test_girvan_newman_rejects_unknown_measure(barbell):
    with pytest.raises(GraphError):
        girvan_newman(barbell, 2, measure="resistance")


@pytest.mark.parametrize("c", [0, -1, 7, 2.5, True])
def test_girvan_newman_rejects_a_cluster_count_outside_1_to_n(barbell, c):
    with pytest.raises(GraphError, match=rf"^cannot form c={c} clusters on 6 vertices$"):
        girvan_newman(barbell, c)


def test_sweep_cut_separates_endpoints(barbell):
    pot = flow.st_potential(barbell, 0, 5)
    cut = sweep_cut(barbell, pot.values)
    assert 0 in cut.side and 5 not in cut.side


def test_sweep_cut_finds_sparse_cut(barbell):
    pot = flow.st_potential(barbell, 0, 5)
    cut = sweep_cut(barbell, pot.values)
    assert cut.crossing_edges == (3,)
    assert cut.ratio == pytest.approx(6 / 9)


def test_sweep_levels_keep_a_tie_across_a_rounding_midpoint():
    # a and its successor differ by rounding only, yet round to different 9-decimal levels
    a = 0.5064765465
    assert sweep_cut(generators.path(4), [0.0, a, np.nextafter(a, 2), 1.0]).side == {1, 2, 3}


def test_sweep_cut_rejects_non_finite(barbell):
    x = np.arange(6, dtype=float)
    x[2] = np.nan
    with pytest.raises(GraphError, match="non-finite"):
        sweep_cut(barbell, x)


@pytest.mark.parametrize("x, message", [
    ([2.0] * 6, r"^sweep vector is constant$"),
    ([0.0, 1.0], r"^vector length \(2,\) does not match n=6$"),
], ids=["constant", "wrong-length"])
def test_sweep_cut_rejects_a_vector_with_no_cut(barbell, x, message):
    with pytest.raises(GraphError, match=message):
        sweep_cut(barbell, x)


def test_purity_rejects_lengths_that_differ():
    with pytest.raises(GraphError, match=r"^assignment length 3 != label length 2$"):
        purity(np.array([0, 1, 1]), [0, 1])


def test_girvan_newman_rescores_a_deletion_too_close_to_a_bridge():
    # edge (0, 1) is nearly a bridge: 1 - w R_01 = 1.0e-12, below sqrt(eps), where the update divides by it
    g = Graph(3, [(0, 1), (1, 2), (0, 2, 1e-12)])
    P, Q = spectra.pinv_powers(harmonic.decomposition(g), 2)
    assert 1.0 - spectra.quadratic_reads(P, 0, 1) == pytest.approx(1.0e-12, rel=1e-3)
    before = P.tobytes(), Q.tobytes()
    assert cluster._delete_edge((P, Q), 0, 1, 1.0) is False
    assert (P.tobytes(), Q.tobytes()) == before


def test_purity_extremes():
    truth = np.array([0, 0, 1, 1])
    assert purity(np.array([1, 1, 0, 0]), truth) == 1.0  # label permutation
    assert purity(np.array([0, 0, 0, 0]), truth) == 0.5


def test_clustering_assignment_is_readonly():
    g, _ = generators.sbm([8, 8], 0.9, 0.1, seed=0)
    res = spectral_clustering(g, 2, seed=0)
    with pytest.raises(ValueError):
        res.assignment[0] = 99
