import re
import tracemalloc

import numpy as np
import pytest

from graphharm import cluster, generators, harmonic, spectra
from graphharm.spectra import (
    SpectraError,
    decompose,
    embedding,
    embedding_sq_distances,
    pinv_power,
    pinv_powers,
    pinv_update,
    pinv_update_reads,
    quadratic_reads,
)


def _lap(n=10, p=0.5, seed=1):
    return generators.erdos_renyi(n, p, seed).laplacian()


def test_decompose_reconstructs():
    L = _lap()
    dec = decompose(L)
    V, lam = dec.eigenvectors, dec.eigenvalues
    assert np.allclose(V @ np.diag(lam) @ V.T, L, atol=1e-10)
    assert np.all(np.diff(lam) >= 0)


def test_kernel_dimension_counts_components():
    g = generators.path(4)
    assert decompose(g.laplacian()).kernel_dim == 1
    L = np.zeros((4, 4))
    L[:2, :2] = generators.path(2).laplacian()
    L[2:, 2:] = generators.path(2).laplacian()
    assert decompose(L).kernel_dim == 2


def test_kernel_eigenvalues_clamped_to_zero():
    dec = decompose(_lap())
    assert dec.eigenvalues[0] == 0.0


def test_decompose_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(SpectraError, match="symmetric"):
        decompose(M)


def test_decompose_rejects_a_matrix_that_is_not_psd():
    with pytest.raises(SpectraError, match=r"^matrix is not positive semidefinite \(lambda_min=-1\.0\)$"):
        decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_power_coefficients_reject_a_negative_k():
    dec = decompose(_lap())
    with pytest.raises(SpectraError, match=r"^negative exponents are not supported$"):
        spectra.power_coefficients(dec, -1.0)


@pytest.mark.parametrize("M, entry", [
    ([[np.nan, 0.0], [0.0, 1.0]], r"\(0, 0\) is not finite: nan"),
    ([[1.0, np.nan], [np.nan, 1.0]], r"\(0, 1\) is not finite: nan"),
    ([[np.inf, -1.0], [-1.0, 1.0]], r"\(0, 0\) is not finite: inf"),
])
def test_decompose_rejects_non_finite(M, entry):
    with pytest.raises(SpectraError, match=entry):
        decompose(np.array(M))


def test_decompose_names_the_first_non_finite_entry_past_the_first_block(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK_ELEMENTS", 20)  # blocks of 2 rows
    L = _lap()
    L[7, 2] = L[2, 7] = L[9, 9] = np.inf
    with pytest.raises(SpectraError, match=r"\(2, 7\) is not finite: inf"):
        decompose(L)


def test_a_degree_beyond_float64_reaches_the_typed_error_without_a_warning():
    # runs under the RuntimeWarning-as-error filter: the overflowing row sum
    # of `Graph.laplacian` must stay quiet and leave inf for `decompose`
    g = generators.path(3).with_weight(0, 1e308).with_weight(1, 1e308)
    L = g.laplacian()
    assert L[1, 1] == np.inf
    with pytest.raises(SpectraError, match=r"^matrix entry \(1, 1\) is not finite: inf$"):
        decompose(L)


def test_decompose_memory_beside_its_input():
    """At most 1.3 n^2 floats beside L, as tracemalloc sees them.

    numpy's own arrays (eigh's eigenvalues and eigenvectors, the check's
    row blocks) are visible to tracemalloc; eigh's internal copy of L and
    its LAPACK workspace are malloc'd inside numpy's linalg module, outside
    Python's tracing, and are not counted.
    """
    L = generators.erdos_renyi(600, 0.02, 2).laplacian()
    tracemalloc.start()
    try:
        decompose(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * L.size * 8


def _signs_by_column(X):
    X = X.copy()
    for i in range(X.shape[1]):
        col = X[:, i]
        j = int(np.argmax(np.abs(col)))
        if col[j] < 0:
            X[:, i] = -col
    return X


def test_sign_convention_is_deterministic():
    for L in (_lap(seed=9), _lap(n=300, p=0.1, seed=4), generators.complete(6).laplacian()):
        a = decompose(L).eigenvectors
        b = decompose(L.copy()).eigenvectors
        assert np.array_equal(a, b)
        # largest-magnitude entry of each eigenvector is positive
        for j in range(a.shape[1]):
            col = a[:, j]
            assert col[np.argmax(np.abs(col))] > 0
        # the same bits as flipping column by column, signs of zeros included
        expect = _signs_by_column(np.linalg.eigh((L + L.T) / 2.0)[1])
        assert np.array_equal(a, expect) and np.array_equal(np.signbit(a), np.signbit(expect))


@pytest.mark.parametrize("seed", [0, 1])
def test_nearly_symmetric_input_is_averaged(seed):
    # within the 1e-10 tolerance but not exactly symmetric: eigh gets (L + L^T) / 2
    L = _lap(n=40, p=0.2, seed=seed)
    E = np.triu(np.random.default_rng(seed).choice([-1e-13, 1e-13], size=L.shape), 1)
    M = L + E - E.T
    assert not np.array_equal(M, M.T)
    dec = decompose(M)
    lam, X = np.linalg.eigh((M + M.T) / 2.0)
    expect = _signs_by_column(X)
    assert np.array_equal(dec.eigenvalues[dec.kernel_dim:], lam[dec.kernel_dim:])
    assert np.array_equal(dec.eigenvectors, expect) and np.array_equal(np.signbit(dec.eigenvectors), np.signbit(expect))


def test_pinv_power_matches_numpy_pinv():
    L = _lap()
    dec = decompose(L)
    assert np.allclose(pinv_power(dec, 1.0), np.linalg.pinv(L, hermitian=True), atol=1e-10)
    P2 = np.linalg.pinv(L, hermitian=True)
    assert np.allclose(pinv_power(dec, 2.0), P2 @ P2, atol=1e-10)


def test_fractional_power_interpolates():
    dec = decompose(_lap())
    M = pinv_power(dec, 0.5)
    assert np.allclose(M @ M, pinv_power(dec, 1.0), atol=1e-10)


def test_low_rank_power_limits():
    dec = decompose(_lap())
    r_full = dec.n - 1
    assert np.array_equal(pinv_power(dec, 2.0, r_full), pinv_power(dec, 2.0))
    M1 = pinv_power(dec, 1.0, 1)
    assert np.linalg.matrix_rank(M1, tol=1e-10) == 1


def test_low_rank_rejects_bad_rank():
    dec = decompose(_lap())
    with pytest.raises(SpectraError):
        pinv_power(dec, 1.0, 0)
    with pytest.raises(SpectraError):
        pinv_power(dec, 1.0, dec.n)


def test_a_rank_is_an_integer_in_1_to_n_minus_kernel_dim():
    p6 = generators.path(6)
    calls = [
        (lambda: cluster.spectral_clustering(p6, 2.5, 0), "r=2.5"),
        (lambda: cluster.low_rank_kharmonic_kmeans(p6, 2, 2.0, 2.5), "r=2.5"),
        (lambda: harmonic.kharmonic_rank_sq_matrix(p6, 2, True), "r=True"),
        (lambda: pinv_power(decompose(p6.laplacian()), 1.0, 2.5), "r=2.5"),
        (lambda: embedding_sq_distances(decompose(p6.laplacian()), 1.0, [0], [1], np.True_), "r=np.True_"),
    ]
    for call, named in calls:
        with pytest.raises(SpectraError, match=f"rank {named} is not an integer in 1..5"):
            call()
    dec = decompose(p6.laplacian())
    assert np.array_equal(pinv_power(dec, 1.0, np.int64(3)), pinv_power(dec, 1.0, 3))


@pytest.mark.parametrize("k", [None, "2", True, [2.0], 1j])
def test_k_must_be_a_real_number(k):
    g = generators.path(5)
    with pytest.raises(SpectraError, match=f"^k must be a real number, got k={re.escape(repr(k))}$"):
        harmonic.kharmonic_sq_matrix(g, k)
    assert harmonic.kharmonic_sq_matrix(g, np.float32(2.0)).shape == (5, 5)


def test_embedding_gram_matrix_gives_distances():
    g = generators.erdos_renyi(8, 0.6, seed=2)
    dec = decompose(g.laplacian())
    X = embedding(dec, 2.0)
    M = pinv_power(dec, 2.0)
    # squared pairwise embedding distances equal the quadratic form
    for s in range(g.n):
        for t in range(g.n):
            d2 = float(np.sum((X[s] - X[t]) ** 2))
            q = M[s, s] + M[t, t] - 2 * M[s, t]
            assert d2 == pytest.approx(q, abs=1e-10)


def test_embedding_full_rank_needs_connected():
    L = np.zeros((4, 4))
    L[:2, :2] = generators.path(2).laplacian()
    L[2:, 2:] = generators.path(2).laplacian()
    dec = decompose(L)
    with pytest.raises(SpectraError):
        embedding(dec, 1.0)
    assert embedding(dec, 0.0, 2).shape == (4, 2)


def test_power_coefficients_underflow_is_clamped():
    dec = decompose(_lap())
    coeffs = spectra.power_coefficients(dec, 5000.0)
    assert np.all(np.isfinite(coeffs))
    assert np.all(coeffs >= 0)


def test_embedding_sq_distances_match_embedding_rows():
    # n = 300 puts more pairs in one call than fit in one block
    g = generators.erdos_renyi(300, 0.03, seed=2)
    dec = decompose(g.laplacian())
    rng = np.random.default_rng(0)
    s, t = rng.integers(0, g.n, size=(2, 500))
    for k in (1.0, 2.5):
        Y = embedding(dec, k)
        expect = np.sum((Y[s] - Y[t]) ** 2, axis=1)
        assert np.allclose(embedding_sq_distances(dec, k, s, t), expect, rtol=1e-12, atol=0)
    assert embedding_sq_distances(dec, 1.0, [], []).shape == (0,)


def _fresh(g):
    dec = decompose(g.laplacian())
    return pinv_power(dec, 1.0), pinv_power(dec, 2.0)


def test_pinv_powers_are_the_gram_matrices_of_the_embeddings():
    g = generators.erdos_renyi(12, 0.5, 3)
    P, Q = pinv_powers(decompose(g.laplacian()), 2)
    P1, Q1 = _fresh(g)
    assert np.allclose(P, P1, atol=1e-13) and np.allclose(Q, Q1, atol=1e-13)
    assert pinv_powers(decompose(g.laplacian()), 1)[1] is None


def test_pinv_update_deletes_and_adds_edges():
    g = generators.erdos_renyi(14, 0.5, 4)
    P, Q = pinv_powers(decompose(g.laplacian()), 2)
    u, v, w = g.edges[0]  # not a bridge in this graph
    pinv_update(P, Q, [u], [v], [-w])
    g = g.without_edge(0)
    for a, b in zip((P, Q), _fresh(g)):
        assert np.allclose(a, b, rtol=0, atol=1e-12)
    extra = [(0, 5, 2.0), (3, 9, 0.5)]
    assert all((x, y) not in {(p, q) for p, q, _ in g.edges} for x, y, _ in extra)
    P1 = P.copy()
    pinv_update(P1, None, [0, 3], [5, 9], [2.0, 0.5])
    pinv_update(P, Q, [0, 3], [5, 9], [2.0, 0.5])
    assert np.array_equal(P1, P)
    g = g.with_edges_added(extra)
    for a, b in zip((P, Q), _fresh(g)):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_pinv_update_reads_change_the_squared_distances(k):
    g = generators.erdos_renyi(14, 0.5, 5)
    dec = decompose(g.laplacian())
    extra = [(0, 5, 2.0), (3, 9, 0.5), (1, 2, 1.0)]
    extra = [e for e in extra if (e[0], e[1]) not in {(p, q) for p, q, _ in g.edges}]
    s, t, w = (np.array(col) for col in zip(*extra))
    before = embedding_sq_distances(dec, k, g._u, g._v)
    after = embedding_sq_distances(decompose(g.with_edges_added(extra).laplacian()), k, g._u, g._v)
    change = pinv_update_reads(dec, k, s, t, w, g._u, g._v)
    assert np.allclose(before + change, after, rtol=1e-12, atol=1e-14)


def test_quadratic_reads_are_squared_distances():
    g = generators.erdos_renyi(10, 0.5, 1)
    dec = decompose(g.laplacian())
    P, Q = pinv_powers(dec, 2)
    for M, k in ((P, 1.0), (Q, 2.0)):
        assert np.allclose(quadratic_reads(M, g._u, g._v), embedding_sq_distances(dec, k, g._u, g._v), atol=1e-13)
