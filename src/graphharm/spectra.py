"""Eigendecomposition of the Laplacian and pseudoinverse powers L^{k+}.

Everything downstream (distances, flows, embeddings) is driven by one
symmetric eigendecomposition.  Real exponents are supported via
lambda^{-k} = exp(-k ln lambda) on the strictly positive spectrum; the
kernel (one zero eigenvalue per connected component) is detected with a
scale-aware tolerance and clamped to exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .graph import _integer_in

# lambda^{-k} can underflow for large k; clamp at the smallest positive
# normal so downstream logs/ratios stay finite.
_COEFF_FLOOR = np.finfo(np.float64).tiny


class SpectraError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with paired orthonormal eigenvectors.

    The first `kernel_dim` eigenvalues are exactly 0.0 (clamped); they
    correspond to the connected components of the source graph.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kernel_dim: int
    zero_tol: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dim:]

    @property
    def positive_eigenvectors(self) -> np.ndarray:
        return self.eigenvectors[:, self.kernel_dim:]


# Floats in one block read by decompose's checks and signs, embedding_sq_distances,
# harmonic._sq_matrix or flow.current_flow_centrality: small temporaries at any n.
_BLOCK_ELEMENTS = 2**15


def decompose(L: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a nonempty symmetric PSD matrix with kernel detection.

    Eigenvalues below zero_tol = 64 eps n max(lambda_max, 1) are the
    kernel; one below -zero_tol means L is not PSD.  An exactly symmetric L
    (any Laplacian) goes to `eigh` uncopied: 4 n^2 floats beside L at the peak.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1] or L.size == 0:
        raise SpectraError(f"expected a nonempty square matrix, got shape {L.shape}")
    scale, asym, step = 1.0, 0.0, max(1, _BLOCK_ELEMENTS // L.shape[0])
    for lo in range(0, L.shape[0], step):
        rows = L[lo:lo + step]
        peak = np.abs(rows).max()
        if not np.isfinite(peak):
            i, j = np.argwhere(~np.isfinite(rows))[0]
            raise SpectraError(f"matrix entry ({lo + i}, {j}) is not finite: {rows[i, j]}")
        scale, asym = max(scale, peak), max(asym, np.abs(rows - L[:, lo:lo + step].T).max())
    if asym > 1e-10 * scale:
        raise SpectraError("matrix is not symmetric")
    lam, X = np.linalg.eigh(L if asym == 0.0 else (L + L.T) / 2.0)
    zero_tol = L.shape[0] * max(float(lam[-1]), 1.0) * np.finfo(np.float64).eps * 64
    if lam[0] < -zero_tol:
        raise SpectraError(f"matrix is not positive semidefinite (lambda_min={lam[0]})")
    kernel_dim = int(np.sum(lam < zero_tol))
    lam = lam.copy()
    lam[:kernel_dim] = 0.0
    # sign convention: largest-magnitude entry positive, ties by lowest index;
    # |X| is read in column blocks, so no n x n temporary is formed
    signs = np.ones(X.shape[1])
    for lo in range(0, X.shape[1], step):
        block = X[:, lo:lo + step]
        top = block[np.argmax(np.abs(block), axis=0), np.arange(block.shape[1])]
        signs[lo:lo + step][top < 0] = -1.0
    X *= signs
    lam.setflags(write=False)
    X.setflags(write=False)
    return SpectralDecomposition(lam, X, kernel_dim, float(zero_tol))


def power_coefficients(dec: SpectralDecomposition, k: float) -> np.ndarray:
    """lambda_i^{-k} over the positive eigenvalues, underflow-clamped; overflow raises."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, Real):
        raise SpectraError(f"k must be a real number, got k={k!r}")
    if not np.isfinite(k):
        raise SpectraError(f"k must be finite, got k={k}")
    if k < 0:
        raise SpectraError("negative exponents are not supported")
    lam = dec.positive_eigenvalues
    if k == 0:
        return np.ones_like(lam)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        coeffs = np.exp(-k * np.log(lam))
    if not np.isfinite(coeffs).all():
        raise SpectraError(f"lambda^-k overflows at k={k}; smallest positive eigenvalue {lam[0]:.6g}")
    return np.maximum(coeffs, _COEFF_FLOOR)


def pinv_power(dec: SpectralDecomposition, k: float, r: int | None = None) -> np.ndarray:
    """(L^+)^k = sum over positive eigenvalues of lambda^{-k} x x^T, or its
    truncation to the r smallest positive eigenvalues.

    k=0 yields the orthogonal projection onto the image of L.  The library
    reads every quantity off `embedding` instead; this n x n product is the
    slow route that `validate` and the tests compare those reads against.
    """
    X, coeffs = _truncated(dec, k, r)
    M = (X * coeffs) @ X.T
    return (M + M.T) / 2.0


def _truncated(dec: SpectralDecomposition, k: float, r: int | None):
    """The positive eigenvectors and their lambda^{-k}, or the r smallest: the one rank rule."""
    X = dec.positive_eigenvectors
    if r is not None and not _integer_in(r, 1, X.shape[1]):
        raise SpectraError(f"rank r={r!r} is not an integer in 1..{X.shape[1]}")
    return X[:, :r], power_coefficients(dec, k)[:r]


def _selected(dec: SpectralDecomposition, k: float, r: int | None):
    """Eigenvectors and lambda^{-k/2} factors behind embedding(dec, k, r)."""
    if r is None and dec.kernel_dim != 1:
        raise SpectraError(
            "full-rank embedding requires a connected graph "
            f"(kernel_dim={dec.kernel_dim}); pass an explicit rank r"
        )
    X, coeffs = _truncated(dec, k, r)
    return X, np.sqrt(coeffs)


def embedding(dec: SpectralDecomposition, k: float, r: int | None = None) -> np.ndarray:
    """Vertex embedding whose pairwise distances realize H^k (or H^{k,r}).

    Row v has coordinates lambda_i^{-k/2} * x_i(v) over the selected
    eigenvalues: all strictly positive ones, or the smallest r.
    """
    X, half = _selected(dec, k, r)
    return X * half


def pinv_powers(dec: SpectralDecomposition, order: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(P, Q) = (L^+, (L^+)^2) as Y Y^T of `embedding` at k = 1 and 2; Q is
    None at order 1.  The n x n matrices that `pinv_update` keeps current."""
    Y = embedding(dec, 1.0)
    P = Y @ Y.T
    if order == 1:
        return P, None
    Y = embedding(dec, 2.0)
    return P, Y @ Y.T


def _woodbury(U: np.ndarray, V: np.ndarray | None, s, t, w):
    """(X, W) for L gaining sum_j w_j b_j b_j^T, b_j = 1_{s_j} - 1_{t_j},
    from U = L^+ B and V = (L^+)^2 B (or None).

    Woodbury with C = (diag(1/w) + B^T U)^{-1} and X = U C gives
    L'^+ = L^+ - X U^T and, squaring, (L'^+)^2 = (L^+)^2 - V X^T - X W^T
    with W = V - X (U^T U).  A negative w_j removes weight; 1 + w_j R_j
    vanishes at a bridge, so the change must keep the kernel: it may
    neither join two components nor split one.
    """
    C = np.linalg.inv(np.diag(1.0 / np.asarray(w, dtype=np.float64)) + U[s] - U[t])
    X = U @ C
    return X, None if V is None else V - X @ (U.T @ U)


def pinv_update(P: np.ndarray, Q: np.ndarray | None, s, t, w) -> None:
    """Update (P, Q) = (L^+, (L^+)^2 or None) in place for L gaining
    sum_j w_j b_j b_j^T (`_woodbury`): O(n^2 a) for a changes, no
    decomposition, one n x n temporary."""
    U = P[:, s] - P[:, t]
    V = None if Q is None else Q[:, s] - Q[:, t]
    X, W = _woodbury(U, V, s, t, w)
    P -= np.dot(X, U.T)  # np.dot: BLAS at every a, where matmul loops over an inner dimension of 1
    if Q is not None:
        Q -= np.dot(V, X.T)
        Q -= np.dot(X, W.T)


def pinv_update_reads(dec: SpectralDecomposition, k: int, s, t, w, u, v) -> np.ndarray:
    """Change of the squared k-harmonic distances (k = 1 or 2) of the pairs
    (u, v) when L gains sum_j w_j b_j b_j^T (`_woodbury`).

    L^+ B and (L^+)^2 B are read off the eigenvectors, so no n x n matrix
    is formed: O(n^2 a + len(u) a) for a changes.
    """
    X = dec.positive_eigenvectors
    XB = (X[s] - X[t]).T
    U = X @ (power_coefficients(dec, 1.0)[:, None] * XB)
    V = X @ (power_coefficients(dec, 2.0)[:, None] * XB) if k == 2 else None
    Xw, W = _woodbury(U, V, s, t, w)
    dX, dU = Xw[u] - Xw[v], U[u] - U[v]
    if k == 1:
        return -np.einsum("ij,ij->i", dX, dU)
    dV, dW = V[u] - V[v], W[u] - W[v]
    return -np.einsum("ij,ij->i", dV, dX) - np.einsum("ij,ij->i", dX, dW)


def quadratic_reads(M: np.ndarray, s, t) -> np.ndarray:
    """M_ss + M_tt - 2 M_st for vertices or index arrays s and t: squared
    distances read off M = (L^+)^k."""
    d = M.diagonal()
    return d[s] + d[t] - 2.0 * M[s, t]


def embedding_sq_distances(dec: SpectralDecomposition, k: float, s, t, r: int | None = None) -> np.ndarray:
    """||Y_s[i] - Y_t[i]||^2 for index arrays s and t, Y = embedding(dec, k, r).

    Only the rows read are formed, in blocks of about 2**15 floats:
    O(len(s) * n) time and no n x n temporary.
    """
    X, half = _selected(dec, k, r)
    s, t = np.asarray(s), np.asarray(t)
    out = np.empty(len(s))
    step = max(1, _BLOCK_ELEMENTS // max(len(half), 1))  # no positive eigenvalue on one vertex
    for i in range(0, len(s), step):
        d = (X[s[i:i + step]] - X[t[i:i + step]]) * half
        out[i:i + step] = np.einsum("ij,ij->i", d, d)
    return out
