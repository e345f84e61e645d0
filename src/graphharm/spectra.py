"""Eigendecomposition of the Laplacian and pseudoinverse powers L^{k+}.

Everything downstream (distances, flows, embeddings) is driven by one
symmetric eigendecomposition.  Real exponents are supported via
lambda^{-k} = exp(-k ln lambda) on the strictly positive spectrum; the
kernel (one zero eigenvalue per connected component) is detected with a
scale-aware tolerance and clamped to exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# A block read by decompose's sign convention, embedding_sq_distances or
# harmonic._sq_matrix holds about this many floats: small temporaries at any n.
_BLOCK_ELEMENTS = 2**15


def default_zero_tol(n: int, lam_max: float) -> float:
    return n * max(lam_max, 1.0) * np.finfo(np.float64).eps * 64


def decompose(L: np.ndarray, zero_tol: float | None = None) -> SpectralDecomposition:
    """Eigendecompose a symmetric PSD matrix with kernel detection."""
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise SpectraError(f"expected a square matrix, got shape {L.shape}")
    scale = max(np.abs(L).max(), 1.0)
    if np.abs(L - L.T).max() > 1e-10 * scale:
        raise SpectraError("matrix is not symmetric")
    lam, X = np.linalg.eigh((L + L.T) / 2.0)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if zero_tol is None:
        zero_tol = default_zero_tol(L.shape[0], lam_max)
    if lam.size and lam[0] < -zero_tol:
        raise SpectraError(f"matrix is not positive semidefinite (lambda_min={lam[0]})")
    kernel_dim = int(np.sum(lam < zero_tol))
    lam = lam.copy()
    lam[:kernel_dim] = 0.0
    # sign convention: largest-magnitude entry positive, ties by lowest index;
    # |X| is read in column blocks, so no n x n temporary is formed
    signs = np.ones(X.shape[1])
    step = max(1, _BLOCK_ELEMENTS // max(X.shape[0], 1))
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
    X = dec.positive_eigenvectors
    coeffs = power_coefficients(dec, k)
    if r is not None:
        max_r = dec.n - dec.kernel_dim
        if not (1 <= r <= max_r):
            raise SpectraError(f"rank r={r} out of range 1..{max_r}")
        X, coeffs = X[:, :r], coeffs[:r]
    M = (X * coeffs) @ X.T
    return (M + M.T) / 2.0


def _selected(dec: SpectralDecomposition, k: float, r: int | None):
    """Eigenvectors and lambda^{-k/2} factors behind embedding(dec, k, r)."""
    if r is None:
        if dec.kernel_dim != 1:
            raise SpectraError(
                "full-rank embedding requires a connected graph "
                f"(kernel_dim={dec.kernel_dim}); pass an explicit rank r"
            )
        r = dec.n - dec.kernel_dim
    max_r = dec.n - dec.kernel_dim
    if not (1 <= r <= max_r):
        raise SpectraError(f"rank r={r} out of range 1..{max_r}")
    return dec.positive_eigenvectors[:, :r], np.sqrt(power_coefficients(dec, k)[:r])


def embedding(dec: SpectralDecomposition, k: float, r: int | None = None) -> np.ndarray:
    """Vertex embedding whose pairwise distances realize H^k (or H^{k,r}).

    Row v has coordinates lambda_i^{-k/2} * x_i(v) over the selected
    eigenvalues: all strictly positive ones, or the smallest r.
    """
    X, half = _selected(dec, k, r)
    return X * half


def embedding_sq_distances(dec: SpectralDecomposition, k: float, s, t) -> np.ndarray:
    """||Y_s[i] - Y_t[i]||^2 for index arrays s and t, Y = embedding(dec, k).

    Only the rows read are formed, in blocks of about 2**15 floats:
    O(len(s) * n) time and no n x n temporary.
    """
    X, half = _selected(dec, k, None)
    s, t = np.asarray(s), np.asarray(t)
    out = np.empty(len(s))
    step = max(1, _BLOCK_ELEMENTS // len(half))
    for i in range(0, len(s), step):
        d = (X[s[i:i + step]] - X[t[i:i + step]]) * half
        out[i:i + step] = np.einsum("ij,ij->i", d, d)
    return out
