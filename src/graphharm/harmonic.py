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
from .graph import Graph, GraphError, bridges, require_connected, require_vertex


@dataclass(frozen=True)
class EdgeScores:
    """Per-edge scores with a canonical ranking.

    Ranking is by descending score, ties broken by ascending edge index.
    """

    values: np.ndarray
    meaning: str

    @property
    def ranking(self) -> np.ndarray:
        # lexsort: last key is primary
        return np.lexsort((np.arange(len(self.values)), -self.values))

    @property
    def ranks(self) -> np.ndarray:
        """Position of each edge in the ranking (0 = highest score)."""
        ranking = self.ranking
        ranks = np.empty(len(ranking), dtype=np.int64)
        ranks[ranking] = np.arange(len(ranking))
        return ranks


def decomposition(g: Graph) -> spectra.SpectralDecomposition:
    """The eigendecomposition of g's Laplacian, computed once per Graph.

    It is kept on g (n^2 floats) and freed with it; its arrays are
    read-only, so every caller can share it.
    """
    if g._decomposition is None:
        object.__setattr__(g, "_decomposition", spectra.decompose(g.laplacian()))
    return g._decomposition


def _connected_dec(g: Graph, dec=None) -> spectra.SpectralDecomposition:
    """g's own decomposition; `dec`, if given, must be it (`decomposition(g)`)."""
    require_connected(g)
    if dec is not None and dec is not g._decomposition:
        raise GraphError(f"decomposition is of a graph on {dec.n} vertices other than g; pass decomposition(g)")
    return decomposition(g)


def pair_quadratic(M: np.ndarray, s: int, t: int) -> float:
    return float(M[s, s] + M[t, t] - 2.0 * M[s, t])


def _sq_matrix(Y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of Y, exactly symmetric.

    numpy computes Y @ Y.T as a symmetric rank-r update; d_i + d_j - 2 M_ij
    is then evaluated in that order, which keeps the result symmetric too.
    It overwrites M in row blocks, so no second n x n matrix is formed.
    """
    M = Y @ Y.T
    del Y  # lowers the peak by n*r floats; the caller passes a temporary
    d = M.diagonal().copy()
    step = max(1, spectra._BLOCK_ELEMENTS // len(d))
    for lo in range(0, len(d), step):
        np.subtract(d[lo:lo + step, None] + d, 2.0 * M[lo:lo + step], out=M[lo:lo + step])
    np.fill_diagonal(M, 0.0)
    return np.maximum(M, 0.0, out=M)


def kharmonic_sq_matrix(g: Graph, k: float, dec=None) -> np.ndarray:
    """Symmetric matrix of squared k-harmonic distances (H^k)^2."""
    return _sq_matrix(spectra.embedding(_connected_dec(g, dec), k))


def kharmonic_matrix(g: Graph, k: float, dec=None) -> np.ndarray:
    D2 = kharmonic_sq_matrix(g, k, dec)
    return np.sqrt(D2, out=D2)


def kharmonic_distance(g: Graph, k: float, s: int, t: int, dec=None) -> float:
    s, t = require_vertex(g, s), require_vertex(g, t)
    if s == t:
        require_connected(g)
        return 0.0
    dec = _connected_dec(g, dec)
    return float(np.sqrt(spectra.embedding_sq_distances(dec, k, [s], [t])[0]))


def kharmonic_rank_sq_matrix(g: Graph, k: float, r: int, dec=None) -> np.ndarray:
    """Squared rank-r k-harmonic distances (H^{k,r})^2."""
    return _sq_matrix(spectra.embedding(_connected_dec(g, dec), k, r))


def effective_resistance(g: Graph, s: int, t: int, dec=None) -> float:
    """R_st, the squared 1-harmonic distance."""
    return kharmonic_distance(g, 1.0, s, t, dec) ** 2


def resistance_matrix(g: Graph, dec=None) -> np.ndarray:
    return kharmonic_sq_matrix(g, 1.0, dec)


def biharmonic_distance(g: Graph, s: int, t: int, dec=None) -> float:
    return kharmonic_distance(g, 2.0, s, t, dec)


def edge_kharmonic_sq(g: Graph, k: float, dec=None) -> EdgeScores:
    """(H^k_e)^2 for every edge, as scores."""
    dec = _connected_dec(g, dec)
    return EdgeScores(spectra.embedding_sq_distances(dec, k, g._u, g._v), f"(H^{k:g}_e)^2")


def biharmonic_edge_sq(g: Graph, dec=None) -> EdgeScores:
    scores = edge_kharmonic_sq(g, 2.0, dec)
    return EdgeScores(scores.values, "B_e^2")


def biharmonic_edges_via_down_laplacian(g: Graph) -> EdgeScores:
    """w_e * B_e^2 read off the diagonal of the down-Laplacian pseudoinverse.

    L_down = W^{1/2} boundary^T boundary W^{1/2} is an m x m edge-space
    operator; this route shares nothing with the vertex-space one beyond
    the boundary matrix itself.
    """
    require_connected(g)
    Bt = g.weighted_boundary()
    L_down = Bt.T @ Bt
    diag = np.diag(np.linalg.pinv(L_down, hermitian=True)).copy()
    return EdgeScores(np.maximum(diag, 0.0), "w_e*B_e^2")


def total_resistance(g: Graph, dec=None) -> float:
    """Kirchhoff index: sum of R_st over unordered pairs = n * trace(L^+)."""
    dec = _connected_dec(g, dec)
    lam = dec.positive_eigenvalues
    return float(g.n * np.sum(1.0 / lam))


def rtot_derivative_check(g: Graph, e: int, h: float = 1e-4) -> tuple[float, float]:
    """Analytic vs central-difference derivative of R_tot in w_e.

    The analytic value is -n * B_e^2; the numeric one is a second-order
    central difference with step h.
    """
    require_connected(g)
    u, v, w = g.edges[e]
    analytic = -g.n * biharmonic_distance(g, u, v) ** 2
    up = total_resistance(g.with_weight(e, w + h))
    down = total_resistance(g.with_weight(e, w - h))
    numeric = (up - down) / (2.0 * h)
    return analytic, numeric


def edge_deletion_check(g: Graph, e: int, tol: float = 1e-8):
    """Probe for the R_tot(G) - R_tot(G\\e) formula on unweighted graphs.

    Returns (lhs, candidates, matched) where candidates holds
    -n*B_e^2/(1+R_e) and -n*B_e^2/(1-R_e) and matched names the candidate
    agreeing with the direct computation (the printed formula's "1+R_e"
    does not match; the "1-R_e" variant does).
    """
    if not np.allclose(g.weights, 1.0):
        raise GraphError("edge_deletion_check requires an unweighted graph")
    require_connected(g)
    if e in bridges(g):
        raise GraphError(f"edge {e} is a bridge; G\\e is disconnected")
    u, v, _ = g.edges[e]
    dec = decomposition(g)
    r_e = effective_resistance(g, u, v, dec)
    b_sq = biharmonic_distance(g, u, v, dec) ** 2
    lhs = total_resistance(g, dec) - total_resistance(g.without_edge(e))
    candidates = (-g.n * b_sq / (1.0 + r_e), -g.n * b_sq / (1.0 - r_e))
    names = ("1+R_e", "1-R_e")
    matched = None
    for name, cand in zip(names, candidates):
        if abs(cand - lhs) <= tol * max(1.0, abs(lhs)):
            matched = name
            break
    return lhs, candidates, matched

