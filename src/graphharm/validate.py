"""One-command numerical certification of every identity and bound.

Each named check samples seeded random graph families (Erdős–Rényi at
p=0.5, random trees, SBM, and weighted variants with weights in
[0.1, 10]) and returns both sides of its identities or bounds;
`run_suite` records the worst deviation against a fixed threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import cluster, flow, generators, harmonic, spectra
from .graph import (Cut, Graph, GraphError, component_labels, connected_subgraph, cut_from_side, require_connected,
                    require_count, require_seed)


@dataclass(frozen=True)
class CheckReport:
    name: str
    family: str
    seed: int
    worst_abs: float
    worst_rel: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def brute_force_distance(g: Graph, k: int, s: int, t: int) -> float:
    """Independent oracle for the k-harmonic distance, integer k >= 1.

    Builds L^+ by inverting the deflated Laplacian L + (1/n) 11^T (whose
    inverse minus (1/n) 11^T is L^+), multiplies it out k times, and reads
    the quadratic form.  No code shared with the spectral route.
    """
    if int(k) != k or k < 1:
        raise GraphError(f"oracle requires integer k >= 1, got {k}")
    require_connected(g)
    n = g.n
    P = np.full((n, n), 1.0 / n)
    Lpinv = np.linalg.solve(g.laplacian() + P, np.eye(n)) - P
    M = Lpinv.copy()
    for _ in range(int(k) - 1):
        M = M @ Lpinv
    x = np.zeros(n)
    x[s], x[t] = 1.0, -1.0
    return float(np.sqrt(max(x @ M @ x, 0.0)))


# ---------------------------------------------------------------------------
# graph sampling


def _random_tree(n: int, rng: np.random.Generator, weighted: bool) -> Graph:
    parents, weights = [], []
    for v in range(1, n):
        parents.append(int(rng.integers(0, v)))
        weights.append(float(rng.uniform(0.1, 10.0)) if weighted else 1.0)
    return Graph._from_arrays(n, parents, np.arange(1, n), weights)


FAMILIES = ("er", "tree", "er_weighted", "tree_weighted", "sbm")
UNWEIGHTED_FAMILIES = ("er", "tree", "sbm")


def sample_graph(family: str, n: int, seed: int) -> Graph:
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    rng = np.random.default_rng([seed, FAMILIES.index(family)])
    sub = int(rng.integers(0, 2**31))
    if family in ("er", "er_weighted"):
        g = generators.erdos_renyi(n, 0.5, sub)
        return g if family == "er" else Graph._from_arrays(n, g._u, g._v, rng.uniform(0.1, 10.0, g.m))
    if family in ("tree", "tree_weighted"):
        return _random_tree(n, rng, weighted=family == "tree_weighted")
    half = max(n // 2, 2)  # sbm
    return generators.sbm([half, n - half], 0.7, 0.15, sub)[0]


def _graphs(trials, n_lo, n_hi, seed, families, max_n, built):
    """Deterministic stream of (family, graph) test instances.  `built` maps
    (family, n, instance seed) to the graph already sampled for it, so the
    checks of one run share each graph and its memoised decomposition."""
    if max_n is not None:
        n_hi = min(n_hi, max_n)
        n_lo = min(n_lo, n_hi)
    out = []
    for i in range(trials):
        family = families[i % len(families)]
        rng = np.random.default_rng([require_seed(seed), i])
        key = (family, int(rng.integers(n_lo, n_hi + 1)), seed * 1000 + i)
        if key not in built:
            built[key] = sample_graph(*key)
        out.append((family, built[key]))
    return out


# ---------------------------------------------------------------------------
# individual checks; each returns its two sides (lhs, rhs), float arrays
# that broadcast together, and only run_suite compares them.  A one-sided
# bound returns its violation max(slack, 0), a yes/no test 1.0 for "no",
# and a count the count, each against 0.


def _sides(*pairs):
    """Several (lhs, rhs) comparisons as one pair of flat arrays."""
    pairs = [np.broadcast_arrays(np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)) for lhs, rhs in pairs]
    return np.concatenate([lhs.ravel() for lhs, _ in pairs]), np.concatenate([rhs.ravel() for _, rhs in pairs])


def _bridge_labels(g: Graph) -> dict[int, np.ndarray]:
    """Each bridge e of g, ascending, with the `component_labels` of g - e: one search per edge
    on no triangle, as an edge on a triangle lies on a cycle and one product (A A)[u_e, v_e] > 0
    over the 0/1 adjacency finds them all.  O(c m rounds) for c searched edges, below the
    O(n^3) `eigh` of every check that reads it."""
    A = np.sign(g.adjacency())
    out = {}
    for e in np.flatnonzero((A @ A)[g._u, g._v] == 0).tolist():
        keep = np.arange(g.m) != e
        label = component_labels(g.n, g._u[keep], g._v[keep])
        if label[g._u[e]] != label[g._v[e]]:
            out[e] = label
    return out


def bridges(g: Graph) -> list[int]:
    """Edge indices e, ascending, for which g - e has more components than g."""
    return list(_bridge_labels(g))


def _non_bridges(g: Graph) -> np.ndarray:
    return np.setdiff1d(np.arange(g.m), bridges(g))


def _check_foster(g: Graph):
    """Foster-style edge sums: sum w_e R_e = n - 1, n sum w_e B_e^2 = R_tot, and
    n sum w_e D_2k(e)^2 = sum_{s<t} D_{2k-1}(s, t)^2 at k in {0.5, 1, 1.5, 2, 3}."""
    dec = harmonic.decomposition(g)
    return _sides(
        (np.sum(g.weights * harmonic.edge_kharmonic_sq(g, 1.0, dec).values), g.n - 1),
        (g.n * np.sum(g.weights * harmonic.biharmonic_edge_sq(g, dec).values), harmonic.total_resistance(g, dec)),
        *((np.sum(np.triu(harmonic.kharmonic_sq_matrix(g, 2 * k - 1, dec), 1)),
           g.n * np.sum(g.weights * harmonic.edge_kharmonic_sq(g, 2 * k, dec).values))
          for k in (0.5, 1.0, 1.5, 2.0, 3.0)),
    )


def _down_laplacian_diagonal(g: Graph) -> np.ndarray:
    """w_e * B_e^2 read off the diagonal of the down-Laplacian pseudoinverse.

    L_down = A^T A with A = boundary W^{1/2} (n x m) is the edge-space
    operator.  Since (A^T A)^+ = A^+ (A^+)^T, its diagonal is the squared
    row norms of A^+: one O(n^2 m) SVD of A, and no m x m matrix.  This
    route shares nothing with the vertex-space one beyond the boundary
    matrix itself.
    """
    require_connected(g)
    A_pinv = np.linalg.pinv(g.weighted_boundary())
    return np.einsum("ij,ij->i", A_pinv, A_pinv)


def _check_down_laplacian(g: Graph):
    return _down_laplacian_diagonal(g), g.weights * harmonic.biharmonic_edge_sq(g).values


def _pair_differences(F: np.ndarray) -> np.ndarray:
    """F[:, s] - F[:, t] for every column pair s < t, one column per pair.

    The O(m n^2) oracle for both flow centralities: f_st(e) is
    sqrt(w_e) (F[e, s] - F[e, t]) in F = `_flow_matrix(g, dec, 1.0)`.
    """
    s, t = np.triu_indices(F.shape[1], 1)
    return F[:, s] - F[:, t]


def _flow_matrix(g: Graph, dec, k: float) -> np.ndarray:
    """The m x n rows sqrt(w_e) (M[u_e] - M[v_e]), M = `pinv_power(dec, k)`: the flow
    checks' slow route.  At k=1 row e against 1_s - 1_t gives f_st(e) / sqrt(w_e)."""
    return g.weighted_boundary().T @ spectra.pinv_power(dec, k)


def _check_flow_identity(g: Graph):
    """One pair-difference array D of `_flow_matrix` per k in {0.5, 1, 2}: squared, its row sums
    against n w_e D_2k(e)^2 (at k=1 the squared-flow centrality, which sums to R_tot) and its
    column sums against D_{2k-1}(s, t)^2; at k=1 its absolute row sums against C_e / sqrt(w_e)."""
    dec = harmonic.decomposition(g)
    pairs = np.triu_indices(g.n, 1)
    squared = flow.squared_flow_centrality(g).values
    sides = [(np.sum(squared), harmonic.total_resistance(g, dec))]
    for k in (0.5, 1.0, 2.0):
        D = _pair_differences(_flow_matrix(g, dec, k))
        if k == 1.0:
            sides.append((flow.current_flow_centrality(g).values, np.sqrt(g.weights) * np.sum(np.abs(D), axis=1)))
        D *= D
        edge_sums = squared if k == 1.0 else g.n * g.weights * harmonic.edge_kharmonic_sq(g, 2 * k, dec).values
        pair_sums = harmonic.kharmonic_sq_matrix(g, 2 * k - 1, dec)[pairs]
        sides += [(np.sum(D, axis=1), edge_sums), (np.sum(D, axis=0), pair_sums)]
    return _sides(*sides)


def _betweenness_reference(g: Graph) -> np.ndarray:
    """Brandes' algorithm one source at a time: the loop oracle for
    `flow.edge_betweenness`."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(zip(g._u.tolist(), g._v.tolist())):
        adj[u].append((v, e))
        adj[v].append((u, e))
    scores = np.zeros(g.m)
    for s in range(g.n):
        # BFS with path counting
        dist = np.full(g.n, -1)
        sigma = np.zeros(g.n)
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        head = 0
        preds: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        while head < len(order):
            x = order[head]
            head += 1
            for y, e in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    order.append(y)
                if dist[y] == dist[x] + 1:
                    sigma[y] += sigma[x]
                    preds[y].append((x, e))
        delta = np.zeros(g.n)
        for x in reversed(order):
            for p, e in preds[x]:
                share = sigma[p] / sigma[x] * (1.0 + delta[x])
                scores[e] += share
                delta[p] += share
    return scores / 2.0  # each pair counted from both ends


def _check_betweenness(g: Graph):
    return flow.edge_betweenness(g).values, _betweenness_reference(g)


def _check_cut_edge(g: Graph):
    """B_e^2 = |S| |V - S| / n and R_e = 1 for every bridge e, S the side of e's first end."""
    sides = _bridge_labels(g)
    ids = list(sides)
    S = np.array([np.count_nonzero(label == label[g._u[e]]) for e, label in sides.items()], dtype=float)
    b_sq, r = harmonic.biharmonic_edge_sq(g).values[ids], harmonic.edge_kharmonic_sq(g, 1.0).values[ids]
    return _sides((b_sq, S * (g.n - S) / g.n), (r, 1.0))


def _check_sparse_cut(g: Graph):
    """On 50 random vertex sets S, the B_e^2 of the cut edges sum to at
    least 1 / ratio(S), and the largest is at least that over their number."""
    b_sq = harmonic.biharmonic_edge_sq(g).values
    rng = np.random.default_rng(0)
    slack = []
    for _ in range(50):
        size = int(rng.integers(1, g.n))
        cut = cut_from_side(g, set(rng.choice(g.n, size=size, replace=False).tolist()))
        if cut.crossing_edges:
            crossing = b_sq[list(cut.crossing_edges)]
            bound = 1.0 / cut.ratio
            slack += [bound - np.sum(crossing), bound / len(crossing) - np.max(crossing)]
    return np.maximum(slack, 0.0), 0.0


def _sweep_cut_reference(g: Graph, x) -> Cut:
    """Level-by-level oracle for `cluster.sweep_cut`: one full cut per
    distinct threshold, O(levels * m)."""
    level = cluster._sweep_levels(g, x)
    if not level.any():
        raise GraphError("sweep vector is constant")
    best: Cut | None = None
    for t in range(1, level.max() + 1):  # threshold at level 0 would select all of V
        cut = cut_from_side(g, np.nonzero(level >= t)[0])
        if (
            best is None
            or cut.ratio < best.ratio
            or (cut.ratio == best.ratio and len(cut.side) > len(best.side))
        ):
            best = cut
    return best


def _check_sweep_separation(g: Graph):
    """A count of failures: the sweep of each edge's st-potential that does
    not separate the edge's ends, and the fast sweep cut that differs from
    its reference on two st-potentials and a vector of many ties."""
    P = spectra.pinv_powers(harmonic.decomposition(g), 1)[0]  # L^+: P[:, s] - P[:, t] is p_st
    failures = 0
    for u, v in zip(g._u.tolist(), g._v.tolist()):
        cut = cluster.sweep_cut(g, P[:, u] - P[:, v])
        failures += not (u in cut.side and v not in cut.side)
    rng = np.random.default_rng(5 * g.n + g.m)
    vectors = [P[:, s] - P[:, t] for s, t in (rng.choice(g.n, size=2, replace=False) for _ in range(2))]
    ties = rng.integers(0, 4, size=g.n)
    ties[:2] = (0, 1)  # never constant
    failures += sum(cluster.sweep_cut(g, x) != _sweep_cut_reference(g, x) for x in [*vectors, ties])
    return float(failures), 0.0


def rtot_derivative_check(g: Graph, e: int, h: float = 1e-4) -> tuple[float, float]:
    """Analytic vs central-difference derivative of R_tot in w_e.

    The analytic value is -n * B_e^2; the numeric one is a second-order
    central difference with step h.
    """
    u, v, w = int(g._u[e]), int(g._v[e]), float(g._w[e])
    analytic = -g.n * harmonic.biharmonic_distance(g, u, v) ** 2
    up = harmonic.total_resistance(g.with_weight(e, w + h))
    down = harmonic.total_resistance(g.with_weight(e, w - h))
    numeric = (up - down) / (2.0 * h)
    return analytic, numeric


def _check_derivative(g: Graph):
    # wide weight ranges inflate the O(h^2) truncation term together with
    # the derivative itself, so the deviation is normalized by the analytic side
    edges = np.random.default_rng(g.n).choice(g.m, size=min(5, g.m), replace=False)
    analytic, numeric = np.array([rtot_derivative_check(g, int(e)) for e in edges]).T
    return numeric, analytic


def _check_deletion(g: Graph):
    """R_tot(G) - R_tot(G - e) = -n w_e B_e^2 / (1 - w_e R_e) on up to five
    non-bridges: the trace of L^+'s Sherman-Morrison downdate."""
    dec = harmonic.decomposition(g)
    edges = _non_bridges(g)[:5]
    w = g.weights[edges]
    r = harmonic.edge_kharmonic_sq(g, 1.0, dec).values[edges]
    b_sq = harmonic.biharmonic_edge_sq(g, dec).values[edges]
    rtot = harmonic.total_resistance(g, dec)
    lhs = [rtot - harmonic.total_resistance(g.without_edge(int(e))) for e in edges]
    return np.array(lhs, dtype=float), -g.n * w * b_sq / (1.0 - w * r)


def _check_bounds(g: Graph):
    n = g.n
    dec = harmonic.decomposition(g)
    slack = [harmonic.biharmonic_edge_sq(g, dec).values - n]
    for k in (1, 2, 3, 5):
        off = harmonic.kharmonic_sq_matrix(g, k, dec)[np.triu_indices(n, 1)]
        slack += [2.0 / n**k - off, off - float(n) ** (2 * k)]
    return np.maximum(np.concatenate(slack), 0.0), 0.0


def _check_tightness(_g: Graph):
    B2 = harmonic.biharmonic_distance
    return _sides(
        # complete graphs hit the 2/n^2 lower bound exactly
        *((B2(generators.complete(n), 0, 1) ** 2, 2.0 / n**2) for n in (4, 7, 12)),
        # path endpoints realize the Omega(n^3) growth
        *((max(0.0, n**3 / 20.0 - B2(generators.path(n), 0, n - 1) ** 2), 0.0) for n in (11, 21, 41)),
        # path center edge: B^2 = n/4 exactly
        *((B2(generators.path(n), n // 2 - 1, n // 2) ** 2, n / 4.0) for n in (8, 16)),
    )


_CERTIFICATE_TOL = 1e-8


def min_norm_certificate(g: Graph, f: flow.Flow) -> bool:
    """Check f is the minimum-energy flow for its divergence.

    The electrical flow is the one flow of its divergence that obeys
    Kirchhoff's voltage law: f/w is a potential difference boundary^T p.
    The least-squares p leaves a residual that is the component of f/w
    along the circulations, so its norm is the exact worst case of
    <c, f/w> over unit circulations c.
    """
    target = f.values / g.weights
    Bt = g.boundary().T
    p = np.linalg.lstsq(Bt, target, rcond=None)[0]
    return bool(np.linalg.norm(Bt @ p - target) <= _CERTIFICATE_TOL * max(1.0, float(np.linalg.norm(target))))


def _check_potentials(g: Graph):
    """One st-potential p and one unit st-flow f per sampled pair: p sums to 0, spans R_st, has
    norm B_st and extremes at s and t; f has divergence 1_s - 1_t, energy R_st and the exact
    min-norm certificate, and carries at least 1 across a random cut separating s and t."""
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(g.n + g.m)
    sides = []
    for _ in range(5):
        s, t = (int(x) for x in rng.choice(g.n, size=2, replace=False))
        p = flow.st_potential(g, s, t).values
        f = flow.st_flow(g, s, t)
        r = harmonic.effective_resistance(g, s, t, dec)
        target = np.zeros(g.n)
        target[s], target[t] = 1.0, -1.0
        side = rng.random(g.n) < 0.5
        side[s], side[t] = True, False
        crossing = list(cut_from_side(g, np.flatnonzero(side)).crossing_edges)
        sides += [
            (np.sum(p), 0.0),
            (p[s] - p[t], r),
            (p @ p, harmonic.biharmonic_distance(g, s, t, dec) ** 2),
            # extrema are attained at s and t (possibly tied with neighbors
            # carrying no current), so compare values rather than indices
            (p[s], np.max(p)),
            (p[t], np.min(p)),
            (g.boundary() @ f.values, target),
            (np.sum(f.values**2 / g.weights), r),
            (float(not min_norm_certificate(g, f)), 0.0),
            (max(1.0 - np.sum(np.abs(f.values[crossing])), 0.0), 0.0),
        ]
    return _sides(*sides)


def _check_oracle(g: Graph):
    """The spectral distance over the brute-force one, against 1."""
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(3 * g.n + g.m)
    ratios = []
    for k in (1, 2, 3, 5):
        M = spectra.pinv_power(dec, float(k))
        for _ in range(4):
            s, t = (int(x) for x in rng.choice(g.n, size=2, replace=False))
            spectral = np.sqrt(max(spectra.quadratic_reads(M, s, t), 0.0))
            ratios.append(spectral / brute_force_distance(g, k, s, t))
    return np.array(ratios), 1.0


def _sq_matrix_reference(M: np.ndarray) -> np.ndarray:
    """Squared distances read entrywise off M = (L^+)^k."""
    v = np.arange(len(M))
    D2 = spectra.quadratic_reads(M, v[:, None], v)
    np.fill_diagonal(D2, 0.0)
    return np.maximum(D2, 0.0)


def _check_spectral_reads(g: Graph):
    """Embedding reads (pairs, edges, matrices, potentials, flows) against
    the (L^+)^k matrices they replace, the matrices' exact symmetry, and the
    memoised decomposition against a fresh one."""
    dec = harmonic.decomposition(g)
    fresh = spectra.decompose(g.laplacian())
    same = (
        dec is harmonic.decomposition(g)
        and np.array_equal(dec.eigenvalues, fresh.eigenvalues)
        and np.array_equal(dec.eigenvectors, fresh.eigenvectors)
        and (dec.kernel_dim, dec.zero_tol) == (fresh.kernel_dim, fresh.zero_tol)
    )
    sides = [(float(not same), 0.0)]
    rng = np.random.default_rng(11 * g.n + g.m)
    pairs = [tuple(int(x) for x in rng.choice(g.n, size=2, replace=False)) for _ in range(4)]
    r = max(1, (g.n - 1) // 2)
    for k in (1.0, 2.0, 2.5):
        M = spectra.pinv_power(dec, k)
        D2 = _sq_matrix_reference(M)
        for fast, slow in (
            (harmonic.kharmonic_sq_matrix(g, k, dec), D2),
            (harmonic.kharmonic_rank_sq_matrix(g, k, r, dec), _sq_matrix_reference(spectra.pinv_power(dec, k, r))),
        ):
            sides += [(fast, slow), (float(not np.array_equal(fast, fast.T)), 0.0)]
        sides += [(harmonic.kharmonic_distance(g, k, s, t, dec), np.sqrt(D2[s, t])) for s, t in pairs]
        sides.append((harmonic.edge_kharmonic_sq(g, k, dec).values, D2[g._u, g._v]))
        if k == 1.0:
            F = _flow_matrix(g, dec, 1.0) * np.sqrt(g.weights)[:, None]
            for s, t in pairs:
                sides.append((flow.st_potential(g, s, t).values, M[:, s] - M[:, t]))
                sides.append((flow.st_flow(g, s, t).values, F[:, s] - F[:, t]))
    return _sides(*sides)


def _girvan_newman_reference(g: Graph, c: int, measure: str = "biharmonic2", k: float = 2.0) -> np.ndarray:
    """Girvan-Newman that rebuilds the graph after every deletion and
    re-scores the component that lost the edge from a fresh
    decomposition: the oracle for `cluster.girvan_newman`'s assignment."""
    work = g
    label = component_labels(g.n, g._u, g._v)
    vertices = np.arange(g.n)  # a component's smallest member is labelled by itself
    stale = np.flatnonzero(label == vertices)  # components to score, by their smallest member
    ids = np.arange(g.m)  # index in g of each edge of work
    scores = np.empty(g.m)  # latest score of each edge of g
    while np.count_nonzero(label == vertices) < c and work.m > 0:
        for root in stale:
            edge_ids = np.flatnonzero(label[work._u] == root)
            if len(edge_ids):
                sub = connected_subgraph(work, np.flatnonzero(label == root), edge_ids)
                scores[ids[edge_ids]] = flow.edge_measure(sub, measure, k).values
        e_max = cluster.top_edge(scores[ids])
        u, v = work._u[e_max], work._v[e_max]
        work = work.without_edge(e_max)
        ids = np.delete(ids, e_max)
        label = component_labels(work.n, work._u, work._v)
        stale = sorted({label[u], label[v]})
    return np.unique(label, return_inverse=True)[1]


def _resilience_reference(g: Graph, measure: str, num_added: int, trials: int, seed: int, k=None) -> list[float]:
    """`flow.resilience_experiment` by recomputing the measure on each
    perturbed graph: the oracle for its low-rank update."""
    original = flow.edge_measure(g, measure, k)
    pool = flow._non_edges(g)
    out = []
    for trial in range(trials):
        extra = flow._sample_non_edges(pool, num_added, np.random.default_rng([seed, trial]))
        perturbed = flow.edge_measure(g.with_edges_added(extra), measure, k)
        out.append(flow.spearman(original, harmonic.EdgeScores(perturbed.values[: g.m])))
    return out


def _check_pinv_updates(g: Graph):
    """L^+ and (L^+)^2 kept by `spectra.pinv_update` against `pinv_power`
    of a fresh decomposition, after one non-bridge deletion and then a few
    added non-edges; at g's first bridge, if any, each piece's pair as
    Girvan-Newman inherits it (`cluster._inherit`) against the same of the
    piece, a single vertex aside; Girvan-Newman and the resilience
    correlations against the routes that recompute."""
    P, Q = spectra.pinv_powers(harmonic.decomposition(g), 2)
    sides = []
    for e, label in list(_bridge_labels(g).items())[:1]:
        cut = g.without_edge(e)
        for root in np.unique(label):
            inside = label == root
            if np.count_nonzero(inside) > 1:
                piece = connected_subgraph(cut, np.flatnonzero(inside), np.flatnonzero(inside[cut._u]))
                dec = spectra.decompose(piece.laplacian())
                inherited = cluster._inherit((P, Q), inside) or (np.inf, np.inf)  # None: the guard refused
                sides += [(inherited[0], spectra.pinv_power(dec, 1.0)), (inherited[1], spectra.pinv_power(dec, 2.0))]
    e = next(iter(_non_bridges(g).tolist()), None)
    if e is not None:
        spectra.pinv_update(P, Q, g._u[[e]], g._v[[e]], -g._w[[e]])
        g = g.without_edge(e)
        dec = spectra.decompose(g.laplacian())
        # copies: the update below works on P and Q in place
        sides += [(P.copy(), spectra.pinv_power(dec, 1.0)), (Q.copy(), spectra.pinv_power(dec, 2.0))]
    extra = flow._sample_non_edges(flow._non_edges(g), 3, np.random.default_rng(g.n))
    s, t, w = (np.array(col) for col in zip(*extra))
    spectra.pinv_update(P, Q, s, t, w)
    g = g.with_edges_added(extra)
    dec = spectra.decompose(g.laplacian())
    sides += [(P, spectra.pinv_power(dec, 1.0)), (Q, spectra.pinv_power(dec, 2.0))]
    gn_differs = not np.array_equal(cluster.girvan_newman(g, 2).assignment, _girvan_newman_reference(g, 2))
    measure = ("resistance", "biharmonic2")[g.m % 2]  # the correlations agree to 1e-12
    rho = flow.resilience_experiment(g, measure, 2, 1, g.m)
    rho_differs = not np.allclose(rho, _resilience_reference(g, measure, 2, 1, g.m), rtol=0.0, atol=1e-12)
    return _sides(*sides, (float(gn_differs), 0.0), (float(rho_differs), 0.0))


# name -> (fn, threshold, families, max_n)
CHECKS: dict = {
    "foster": (_check_foster, 1e-8, FAMILIES, None),
    "down_laplacian": (_check_down_laplacian, 1e-8, FAMILIES, 60),  # pinv of the n x m boundary
    "flow_identity": (_check_flow_identity, 1e-8, FAMILIES, 30),
    "cut_edge": (_check_cut_edge, 1e-9, ("tree", "sbm", "er"), None),
    "sparse_cut": (_check_sparse_cut, 1e-8, UNWEIGHTED_FAMILIES, 40),
    "sweep_separation": (_check_sweep_separation, 0.0, UNWEIGHTED_FAMILIES, 30),
    "derivative": (_check_derivative, 1e-5, ("er_weighted", "tree_weighted"), 40),
    "deletion": (_check_deletion, 1e-8, ("er",), 20),
    "bounds": (_check_bounds, 1e-12, UNWEIGHTED_FAMILIES, 60),
    "tightness": (_check_tightness, 1e-9, ("er",), 10),
    "potentials": (_check_potentials, 1e-8, FAMILIES, None),
    "betweenness": (_check_betweenness, 1e-12, FAMILIES, 20),
    "oracle": (_check_oracle, 1e-6, FAMILIES, 25),
    "spectral_reads": (_check_spectral_reads, 1e-10, FAMILIES, 30),
    "pinv_updates": (_check_pinv_updates, 1e-10, FAMILIES, 10),
}


def run_suite(
    suite=None,
    n_range: tuple[int, int] = (10, 60),
    trials: int = 20,
    seed: int = 0,
) -> list[CheckReport]:
    """Run named checks (all by default) and return one report per check:
    the instance with the largest max |lhs - rhs| / max(1, |rhs|) over its
    comparisons (a NaN counts as largest), and that instance's max |lhs - rhs|."""
    names = sorted(CHECKS) if suite is None or suite == "all" else list(suite)
    unknown = [x for x in names if x not in CHECKS]
    if unknown:
        raise GraphError(f"unknown check name(s) {unknown}; known: {sorted(CHECKS)}")
    trials = require_count("trials", trials, 1, np.inf)
    n_min = require_count("n_min", n_range[0], 8, np.inf)  # smaller graphs fail some checks' preconditions
    n_max = require_count("n_max", n_range[1], n_min, np.inf)
    reports = []
    built = {}
    for name in names:
        fn, threshold, families, max_n = CHECKS[name]
        count = 1 if name == "tightness" else trials  # tightness has fixed witnesses, not sampled graphs
        worst_abs = worst_rel = 0.0
        for family, g in _graphs(count, n_min, n_max, seed, families, max_n, built):
            lhs, rhs = fn(g)
            gap = np.abs(np.subtract(lhs, rhs))
            rel = float(np.max(gap / np.maximum(1.0, np.abs(rhs)), initial=0.0))
            if rel >= worst_rel or np.isnan(rel):
                worst_abs, worst_rel, worst_family = float(np.max(gap, initial=0.0)), rel, family
        passed = bool(worst_rel <= threshold)
        reports.append(CheckReport(name, worst_family, seed, worst_abs, worst_rel, threshold, passed))
    return reports


def format_report_table(reports) -> str:
    lines = [f"{'check':<22} {'family':<14} {'worst_rel':>12} {'threshold':>10}  result"]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<22} {r.family:<14} {r.worst_rel:>12.3e} {r.threshold:>10.1e}  {status}")
    return "\n".join(lines)
