"""Distance quantities built on pseudoinverse powers of the Laplacian.

The k-harmonic distance between s and t is

    H^k_st = sqrt((1_s - 1_t)^T (L^+)^k (1_s - 1_t)),

so (H^1)^2 is the effective resistance and H^2 the biharmonic distance.
It is the distance ||Y_s - Y_t|| in the embedding Y = X lambda^{-k/2}
(`spectra.embedding`), so after one O(n^3) decomposition, memoised on
the Graph, a pair costs O(n), the m edges O(m n), and the matrix one
product Y Y^T = (L^+)^k.

All-pairs sums (total resistance included) run over UNORDERED pairs, the
convention under which the Foster-style identities close numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .graph import Graph, GraphError, _labels, require_connected, require_vertex

_TIE_RTOL = 1e-12  # a sorted gap above this times max|x| starts a new tie group


def tie_groups(x: np.ndarray) -> np.ndarray:
    """Each score's tie group, 0.. ascending with the score; a new group starts only at a
    sorted gap above 1e-12 * max|x|, as scores equal in exact arithmetic differ by rounding
    that varies with the route and the BLAS thread count.  The library's one tie rule."""
    order = np.argsort(x)  # any order of equal scores gives the same groups
    xs = x[order]
    groups = np.empty_like(order)
    groups[order] = np.cumsum(np.diff(xs, prepend=xs[:1]) > _TIE_RTOL * np.max(np.abs(xs), initial=0.0))
    return groups


def top_of_ties(x: np.ndarray) -> int:
    """Lowest position in the top tie group of nonnegative x.  That group lies within
    len(x) gaps of 1e-12 * max(x) below the maximum, so only that window is grouped."""
    near = np.flatnonzero(x >= x.max() * (1.0 - len(x) * _TIE_RTOL))
    if len(near) == 1:
        return int(near[0])
    return int(near[np.argmax(tie_groups(x[near]))])  # argmax: the first of the top group


@dataclass(frozen=True)
class EdgeScores:
    """Per-edge scores (1-D float64), ranked by descending tie group (`tie_groups`), then ascending edge index."""

    values: np.ndarray

    def __post_init__(self):
        try:
            values = np.asarray(self.values, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # strings, complex numbers, ragged rows
            raise GraphError(f"scores must be a 1-D array of real numbers: {exc}") from None
        if values.ndim != 1:
            raise GraphError(f"scores must be a 1-D array, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def ranking(self) -> np.ndarray:
        return np.argsort(-tie_groups(self.values), kind="stable")

    @property
    def ranks(self) -> np.ndarray:
        """Position of each edge in the ranking (0 = highest score)."""
        return np.argsort(self.ranking)


def decomposition(g: Graph) -> spectra.SpectralDecomposition:
    """The eigendecomposition of g's Laplacian, computed once per Graph.

    It is kept on g (n^2 floats) and freed with it; its arrays are
    read-only, so every caller can share it.  A kernel larger than the
    component count (the weight spread hid an eigenvalue) is a SpectraError.
    """
    if g._decomposition is None:
        dec = spectra.decompose(g.laplacian())
        components = int(np.count_nonzero(_labels(g) == np.arange(g.n)))
        if dec.kernel_dim != components:
            raise spectra.SpectraError(f"unresolved spectrum: kernel dimension {dec.kernel_dim} for {components} "
                                       f"connected component(s); edge weight ratio {g._w.max() / g._w.min():.3g}")
        object.__setattr__(g, "_decomposition", dec)
    return g._decomposition


def _connected_dec(g: Graph, dec=None) -> spectra.SpectralDecomposition:
    """g's own decomposition; `dec`, if given, must be it (`decomposition(g)`)."""
    require_connected(g)
    if dec is not None and dec is not g._decomposition:
        raise GraphError(f"decomposition is of a graph on {dec.n} vertices other than g; pass decomposition(g)")
    return decomposition(g)


def _sq_matrix(dec: spectra.SpectralDecomposition, k: float, r: int | None = None) -> np.ndarray:
    """Squared distances between the rows of Y = embedding(dec, k, r), exactly symmetric.

    numpy computes Y @ Y.T as a symmetric rank-r update; d_i + d_j - 2 M_ij
    is then evaluated in that order, which keeps the result symmetric too.
    It overwrites M in row blocks, so no second n x n matrix is formed.
    """
    M = np.empty((dec.n, dec.n))  # before Y: the next n x n array reuses the memory Y frees
    Y = spectra.embedding(dec, k, r)
    np.matmul(Y, Y.T, out=M)
    del Y  # lowers the peak by n*r floats
    d = M.diagonal().copy()
    step = max(1, spectra._BLOCK_ELEMENTS // len(d))
    for lo in range(0, len(d), step):
        np.subtract(d[lo:lo + step, None] + d, 2.0 * M[lo:lo + step], out=M[lo:lo + step])
    np.fill_diagonal(M, 0.0)
    return np.maximum(M, 0.0, out=M)


def kharmonic_sq_matrix(g: Graph, k: float, dec=None) -> np.ndarray:
    """Symmetric matrix of squared k-harmonic distances (H^k)^2."""
    return _sq_matrix(_connected_dec(g, dec), k)


def kharmonic_matrix(g: Graph, k: float, dec=None) -> np.ndarray:
    D2 = kharmonic_sq_matrix(g, k, dec)
    return np.sqrt(D2, out=D2)


def kharmonic_distance(g: Graph, k: float, s: int, t: int, dec=None) -> float:
    s, t = require_vertex(g, s), require_vertex(g, t)
    dec = _connected_dec(g, dec)
    return float(np.sqrt(spectra.embedding_sq_distances(dec, k, [s], [t])[0]))


def kharmonic_rank_sq_matrix(g: Graph, k: float, r: int, dec=None) -> np.ndarray:
    """Squared rank-r k-harmonic distances (H^{k,r})^2."""
    return _sq_matrix(_connected_dec(g, dec), k, r)


def effective_resistance(g: Graph, s: int, t: int, dec=None) -> float:
    """R_st, the squared 1-harmonic distance."""
    return kharmonic_distance(g, 1.0, s, t, dec) ** 2


def biharmonic_distance(g: Graph, s: int, t: int, dec=None) -> float:
    return kharmonic_distance(g, 2.0, s, t, dec)


def edge_kharmonic_sq(g: Graph, k: float, dec=None) -> EdgeScores:
    """(H^k_e)^2 for every edge, as scores."""
    dec = _connected_dec(g, dec)
    return EdgeScores(spectra.embedding_sq_distances(dec, k, g._u, g._v))


def biharmonic_edge_sq(g: Graph, dec=None) -> EdgeScores:
    return edge_kharmonic_sq(g, 2.0, dec)


def total_resistance(g: Graph, dec=None) -> float:
    """Kirchhoff index: sum of R_st over unordered pairs = n * trace(L^+)."""
    dec = _connected_dec(g, dec)
    lam = dec.positive_eigenvalues
    return float(g.n * np.sum(1.0 / lam))

