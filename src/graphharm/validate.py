"""One-command numerical certification of every identity and bound.

Each named check samples seeded random graph families (Erdős–Rényi at
p=0.5, random trees, SBM, and weighted variants with weights in
[0.1, 10]), evaluates both sides of its identity or bound, and records
the worst deviation against a fixed threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import cluster, flow, generators, harmonic, spectra
from .graph import (
    Cut, Graph, GraphError, bridges, build_graph, component_labels, connected_subgraph, cut_from_side,
    require_connected,
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    family: str
    seed: int
    worst_abs: float
    worst_rel: float
    threshold: float
    passed: bool
    detail: str = ""

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
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        w = float(rng.uniform(0.1, 10.0)) if weighted else 1.0
        edges.append((u, v, w))
    return build_graph(n, edges)


def _reweight(g: Graph, rng: np.random.Generator) -> Graph:
    return build_graph(g.n, [(u, v, float(rng.uniform(0.1, 10.0))) for u, v, _ in g.edges])


FAMILIES = ("er", "tree", "er_weighted", "tree_weighted", "sbm")
UNWEIGHTED_FAMILIES = ("er", "tree", "sbm")


def sample_graph(family: str, n: int, seed: int) -> Graph:
    rng = np.random.default_rng([seed, FAMILIES.index(family)])
    sub = int(rng.integers(0, 2**31))
    if family == "er":
        return generators.erdos_renyi(n, 0.5, sub)
    if family == "er_weighted":
        return _reweight(generators.erdos_renyi(n, 0.5, sub), rng)
    if family == "tree":
        return _random_tree(n, rng, weighted=False)
    if family == "tree_weighted":
        return _random_tree(n, rng, weighted=True)
    if family == "sbm":
        half = max(n // 2, 2)
        g, _ = generators.sbm([half, n - half], 0.7, 0.15, sub)
        return g
    raise GraphError(f"unknown family {family!r}")


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
        rng = np.random.default_rng([seed, i])
        key = (family, int(rng.integers(n_lo, n_hi + 1)), seed * 1000 + i)
        if key not in built:
            built[key] = sample_graph(*key)
        out.append((family, built[key]))
    return out


# ---------------------------------------------------------------------------
# individual checks; each returns (worst_abs, worst_rel, detail)


def _rel(lhs: float, rhs: float) -> tuple[float, float]:
    a = abs(lhs - rhs)
    return a, a / max(1.0, abs(rhs))


def _check_foster(g: Graph):
    dec = harmonic.decomposition(g)
    lhs = float(np.sum(g.weights * harmonic.edge_kharmonic_sq(g, 1.0, dec).values))
    return _rel(lhs, g.n - 1)


def _check_biharmonic_foster(g: Graph):
    dec = harmonic.decomposition(g)
    lhs = g.n * float(np.sum(g.weights * harmonic.biharmonic_edge_sq(g, dec).values))
    return _rel(lhs, harmonic.total_resistance(g, dec))


def _check_kharmonic_foster(g: Graph):
    dec = harmonic.decomposition(g)
    worst = (0.0, 0.0)
    for k in (0.5, 1.0, 1.5, 2.0, 3.0):
        D2 = harmonic.kharmonic_sq_matrix(g, 2 * k - 1, dec)
        lhs = float(np.sum(np.triu(D2, 1)))
        rhs = g.n * float(
            np.sum(g.weights * harmonic.edge_kharmonic_sq(g, 2 * k, dec).values)
        )
        worst = max(worst, _rel(lhs, rhs))
    return worst


def _check_down_laplacian(g: Graph):
    dec = harmonic.decomposition(g)
    direct = g.weights * harmonic.biharmonic_edge_sq(g, dec).values
    return _rel_all(harmonic.biharmonic_edges_via_down_laplacian(g).values, direct)


def _pair_differences(F: np.ndarray) -> np.ndarray:
    """F[:, s] - F[:, t] for every column pair s < t, one column per pair."""
    s, t = np.triu_indices(F.shape[1], 1)
    return F[:, s] - F[:, t]


def _pair_sums(F: np.ndarray, term) -> np.ndarray:
    """Per row of F, the sum over column pairs s < t of term(F[:, s] - F[:, t]).

    The O(m n^2) oracle for both flow centralities: f_st(e) is
    sqrt(w_e) (G[e, s] - G[e, t]) in the k=1 generalized flow matrix G.
    """
    return np.sum(term(_pair_differences(F)), axis=1)


def _check_flow_identity(g: Graph):
    """Both flow centralities against the pair sums they close, and the
    squared-flow sums against R_tot."""
    dec = harmonic.decomposition(g)
    G = flow.generalized_flow_matrix(g, 1.0, dec)
    squared = flow.squared_flow_centrality(g, dec).values
    worst = _rel_all(squared, _pair_sums(G, np.square))
    G *= np.sqrt(g.weights)[:, None]
    worst = max(worst, _rel_all(flow.current_flow_centrality(g, dec).values, _pair_sums(G, np.abs)))
    return max(worst, _rel(float(np.sum(squared)), harmonic.total_resistance(g, dec)))


def _check_flow_edge_sums(g: Graph):
    dec = harmonic.decomposition(g)
    worst = (0.0, 0.0)
    for k in (0.5, 1.0, 2.0):
        lhs = _pair_sums(flow.generalized_flow_matrix(g, k, dec), np.square)
        rhs = g.n * g.weights * harmonic.edge_kharmonic_sq(g, 2 * k, dec).values
        worst = max(worst, _rel_all(lhs, rhs))
    return worst


def _check_flow_pair_sums(g: Graph):
    dec = harmonic.decomposition(g)
    pairs = np.triu_indices(g.n, 1)
    worst = (0.0, 0.0)
    for k in (0.5, 1.0, 2.0):
        lhs = np.sum(_pair_differences(flow.generalized_flow_matrix(g, k, dec)) ** 2, axis=0)
        worst = max(worst, _rel_all(lhs, harmonic.kharmonic_sq_matrix(g, 2 * k - 1, dec)[pairs]))
    return worst


def _betweenness_reference(g: Graph) -> np.ndarray:
    """Brandes' algorithm one source at a time: the loop oracle for
    `flow.edge_betweenness`."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v, _) in enumerate(g.edges):
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
    return _rel_all(flow.edge_betweenness(g).values, _betweenness_reference(g))


def _bridge_sides(g: Graph, e: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertices on u's side and on v's side of the bridge e = (u, v)."""
    label = component_labels(g.n, np.delete(g._u, e), np.delete(g._v, e))
    side = label == label[g._u[e]]
    return np.flatnonzero(side), np.flatnonzero(~side)


def _check_cut_edge(g: Graph):
    dec = harmonic.decomposition(g)
    b_sq = harmonic.biharmonic_edge_sq(g, dec).values
    worst = (0.0, 0.0)
    for e in bridges(g):
        S, T = _bridge_sides(g, e)
        worst = max(worst, _rel(float(b_sq[e]), len(S) * len(T) / g.n))
    return worst


def _check_cut_edge_resistance(g: Graph):
    dec = harmonic.decomposition(g)
    r = harmonic.edge_kharmonic_sq(g, 1.0, dec).values
    worst = (0.0, 0.0)
    for e in bridges(g):
        worst = max(worst, _rel(float(r[e]), 1.0))
    return worst


def _check_sparse_cut(g: Graph, cuts: int = 50, seed: int = 0):
    dec = harmonic.decomposition(g)
    b_sq = harmonic.biharmonic_edge_sq(g, dec).values
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cuts):
        size = int(rng.integers(1, g.n))
        S = set(rng.choice(g.n, size=size, replace=False).tolist())
        cut = cut_from_side(g, S)
        if not cut.crossing_edges:
            continue
        bound = 1.0 / cut.ratio
        total = float(np.sum(b_sq[list(cut.crossing_edges)]))
        worst = max(worst, bound - total)
        per_edge_bound = bound / len(cut.crossing_edges)
        worst = max(worst, per_edge_bound - float(np.max(b_sq[list(cut.crossing_edges)])))
    worst = max(worst, 0.0)
    return worst, worst


def _check_sweep_separation(g: Graph):
    Y = spectra.embedding(harmonic.decomposition(g), 1.0)
    P = Y @ Y.T  # L^+: column s - column t is the st-potential
    violations = 0.0
    for u, v, _ in g.edges:
        cut = cluster.sweep_cut(g, P[:, u] - P[:, v])
        if not (u in cut.side and v not in cut.side):
            violations += 1.0
    return violations, violations


def _sweep_cut_reference(g: Graph, x) -> Cut:
    """Level-by-level oracle for `cluster.sweep_cut`: one full cut per
    distinct threshold, O(levels * m)."""
    x = cluster._sweep_levels(g, x)
    levels = np.unique(x, return_inverse=True)[0]  # a plain np.unique imports numpy.ma, about 10 ms cold
    if len(levels) < 2:
        raise GraphError("sweep vector is constant")
    best: Cut | None = None
    for t in levels[1:]:  # threshold at the minimum would select all of V
        cut = cut_from_side(g, np.nonzero(x >= t)[0])
        if (
            best is None
            or cut.ratio < best.ratio
            or (cut.ratio == best.ratio and len(cut.side) > len(best.side))
        ):
            best = cut
    return best


def _check_sweep_cut(g: Graph):
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(5 * g.n + g.m)
    vectors = []
    for _ in range(2):
        s, t = rng.choice(g.n, size=2, replace=False)
        vectors.append(flow.st_potential(g, int(s), int(t), dec).values)
    ties = rng.integers(0, 4, size=g.n)
    ties[:2] = (0, 1)  # never constant
    vectors.append(ties)
    mismatches = float(sum(cluster.sweep_cut(g, x) != _sweep_cut_reference(g, x) for x in vectors))
    return mismatches, mismatches


def _check_derivative(g: Graph, h: float = 1e-4):
    # wide weight ranges inflate the O(h^2) truncation term together with
    # the derivative itself, so the deviation is normalized by its scale
    worst = (0.0, 0.0)
    m = g.m
    rng = np.random.default_rng(g.n)
    for e in rng.choice(m, size=min(5, m), replace=False):
        analytic, numeric = harmonic.rtot_derivative_check(g, int(e), h)
        a = abs(analytic - numeric)
        worst = max(worst, (a, a / max(1.0, abs(analytic))))
    return worst


def _check_deletion(g: Graph):
    bridge_set = set(bridges(g))
    non_bridges = [e for e in range(g.m) if e not in bridge_set]
    if not non_bridges:
        return 0.0, 0.0, "no deletable edge"
    matched_names = set()
    worst = (0.0, 0.0)
    for e in non_bridges[:5]:
        lhs, candidates, matched = harmonic.edge_deletion_check(g, e)
        if matched is None:
            dev = min(abs(lhs - c) for c in candidates)
            worst = max(worst, (dev, dev / max(1.0, abs(lhs))))
        else:
            matched_names.add(matched)
    return worst[0], worst[1], f"matched variant(s): {sorted(matched_names)}"


def _check_bounds(g: Graph):
    n = g.n
    dec = harmonic.decomposition(g)
    worst = 0.0
    for k in (1, 2, 3, 5):
        D2 = harmonic.kharmonic_sq_matrix(g, k, dec)
        off = D2[np.triu_indices(n, 1)]
        worst = max(worst, float(np.max(2.0 / n**k - off)))
        worst = max(worst, float(np.max(off - float(n) ** (2 * k))))
    b_edge = harmonic.biharmonic_edge_sq(g, dec).values
    worst = max(worst, float(np.max(b_edge - n)))
    worst = max(worst, 0.0)
    return worst, worst


def _check_tightness(_g: Graph):
    worst = (0.0, 0.0)
    # complete graphs hit the 2/n^2 lower bound exactly
    for n in (4, 7, 12):
        g = generators.complete(n)
        worst = max(worst, _rel(harmonic.biharmonic_distance(g, 0, 1) ** 2, 2.0 / n**2))
    # path endpoints realize the Omega(n^3) growth
    for n in (11, 21, 41):
        g = generators.path(n)
        b_sq = harmonic.biharmonic_distance(g, 0, n - 1) ** 2
        worst = max(worst, (max(0.0, n**3 / 20.0 - b_sq),) * 2)
    # path center edge: B^2 = n/4 exactly
    for n in (8, 16):
        g = generators.path(n)
        worst = max(
            worst,
            _rel(harmonic.biharmonic_distance(g, n // 2 - 1, n // 2) ** 2, n / 4.0),
        )
    return worst


def _check_potentials(g: Graph):
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(g.n + g.m)
    worst = (0.0, 0.0)
    for _ in range(5):
        s, t = rng.choice(g.n, size=2, replace=False)
        p = flow.st_potential(g, int(s), int(t), dec).values
        worst = max(worst, _rel(float(np.sum(p)), 0.0))
        worst = max(
            worst,
            _rel(float(p[s] - p[t]), harmonic.effective_resistance(g, int(s), int(t), dec)),
        )
        worst = max(
            worst,
            _rel(float(p @ p), harmonic.biharmonic_distance(g, int(s), int(t), dec) ** 2),
        )
        # extrema are attained at s and t (possibly tied with neighbors
        # carrying no current), so compare values rather than indices
        worst = max(worst, _rel(float(p[s]), float(np.max(p))))
        worst = max(worst, _rel(float(p[t]), float(np.min(p))))
    return worst


def _check_flows(g: Graph):
    dec = harmonic.decomposition(g)
    B = g.boundary()
    rng = np.random.default_rng(g.n + 7 * g.m)
    worst = (0.0, 0.0)
    for _ in range(5):
        s, t = rng.choice(g.n, size=2, replace=False)
        f = flow.st_flow(g, int(s), int(t), dec)
        div = B @ f.values
        target = np.zeros(g.n)
        target[s], target[t] = 1.0, -1.0
        worst = max(worst, _rel(float(np.max(np.abs(div - target))), 0.0))
        energy = float(np.sum(f.values**2 / g.weights))
        worst = max(
            worst, _rel(energy, harmonic.effective_resistance(g, int(s), int(t), dec))
        )
        if not flow.min_norm_certificate(g, f):
            worst = max(worst, (1.0, 1.0))
    return worst


def _check_cut_flow(g: Graph):
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(13 * g.n + g.m)
    worst = 0.0
    for _ in range(10):
        size = int(rng.integers(1, g.n))
        S = set(rng.choice(g.n, size=size, replace=False).tolist())
        s = int(rng.choice(sorted(S)))
        t = int(rng.choice(sorted(set(range(g.n)) - S)))
        f = flow.st_flow(g, s, t, dec)
        cut = cut_from_side(g, S)
        total = float(np.sum(np.abs(f.values[list(cut.crossing_edges)])))
        worst = max(worst, 1.0 - total)
    worst = max(worst, 0.0)
    return worst, worst


def _check_oracle(g: Graph):
    dec = harmonic.decomposition(g)
    rng = np.random.default_rng(3 * g.n + g.m)
    worst = (0.0, 0.0)
    for k in (1, 2, 3, 5):
        M = spectra.pinv_power(dec, float(k))
        for _ in range(4):
            s, t = rng.choice(g.n, size=2, replace=False)
            spectral = float(np.sqrt(max(spectra.quadratic_reads(M, int(s), int(t)), 0.0)))
            oracle = brute_force_distance(g, k, int(s), int(t))
            a = abs(spectral - oracle)
            worst = max(worst, (a, a / max(1e-30, oracle)))
    return worst


def _rel_all(lhs, rhs) -> tuple[float, float]:
    """Worst entrywise _rel of two arrays."""
    a = np.abs(np.asarray(lhs) - rhs)
    return float(np.max(a)), float(np.max(a / np.maximum(1.0, np.abs(rhs))))


def _sq_matrix_reference(M: np.ndarray) -> np.ndarray:
    """Squared distances read entrywise off M = (L^+)^k: M_ss + M_tt - 2 M_st."""
    d = np.diag(M)
    D2 = d[:, None] + d[None, :] - 2.0 * M
    np.fill_diagonal(D2, 0.0)
    return np.maximum(D2, 0.0)


def _check_spectral_reads(g: Graph):
    """Embedding reads (pairs, edges, matrices, potentials, flows,
    generalized flows) against the (L^+)^k matrices they replace, the
    matrices' exact symmetry, and the memoised decomposition against a
    fresh one."""
    dec = harmonic.decomposition(g)
    fresh = spectra.decompose(g.laplacian())
    same = (
        dec is harmonic.decomposition(g)
        and np.array_equal(dec.eigenvalues, fresh.eigenvalues)
        and np.array_equal(dec.eigenvectors, fresh.eigenvectors)
        and (dec.kernel_dim, dec.zero_tol) == (fresh.kernel_dim, fresh.zero_tol)
    )
    worst = (0.0, 0.0) if same else (1.0, 1.0)
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
            worst = max(worst, _rel_all(fast, slow) if np.array_equal(fast, fast.T) else (1.0, 1.0))
        for s, t in pairs:
            slow = np.sqrt(max(spectra.quadratic_reads(M, s, t), 0.0))
            worst = max(worst, _rel(harmonic.kharmonic_distance(g, k, s, t, dec), slow))
        worst = max(worst, _rel_all(harmonic.edge_kharmonic_sq(g, k, dec).values, D2[g._u, g._v]))
        worst = max(worst, _rel_all(flow.generalized_flow_matrix(g, k, dec), g.weighted_boundary().T @ M))
    M = spectra.pinv_power(dec, 1.0)
    F = (g.weights[:, None] * g.boundary().T) @ M
    for s, t in pairs:
        worst = max(worst, _rel_all(flow.st_potential(g, s, t, dec).values, M[:, s] - M[:, t]))
        worst = max(worst, _rel_all(flow.st_flow(g, s, t, dec).values, F[:, s] - F[:, t]))
    return worst


def _girvan_newman_reference(g: Graph, c: int, measure: str = "biharmonic2", k: float = 2.0) -> np.ndarray:
    """Girvan-Newman that rebuilds the graph after every deletion and
    re-scores the component that lost the edge from a fresh
    decomposition: the oracle for `cluster.girvan_newman`'s assignment."""
    if measure == "biharmonic2":
        k = 2.0
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
        u, v, _ = work.edges[e_max]
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
        out.append(flow.spearman(original, harmonic.EdgeScores(perturbed.values[: g.m], perturbed.meaning)))
    return out


def _check_pinv_updates(g: Graph):
    """L^+ and (L^+)^2 kept by `spectra.pinv_update` against `pinv_power`
    of a fresh decomposition, after one non-bridge deletion and then a few
    added non-edges; Girvan-Newman and the resilience correlations against
    the routes that recompute."""
    P, Q = spectra.pinv_powers(harmonic.decomposition(g), 2)
    worst = (0.0, 0.0)
    bridge_set = set(bridges(g))
    e = next((e for e in range(g.m) if e not in bridge_set), None)
    if e is not None:
        u, v, w = g.edges[e]
        spectra.pinv_update(P, Q, [u], [v], [-w])
        g = g.without_edge(e)
        dec = spectra.decompose(g.laplacian())
        worst = max(worst, _rel_all(P, spectra.pinv_power(dec, 1.0)), _rel_all(Q, spectra.pinv_power(dec, 2.0)))
    extra = flow._sample_non_edges(flow._non_edges(g), 3, np.random.default_rng(g.n))
    s, t, w = (np.array(col) for col in zip(*extra))
    spectra.pinv_update(P, Q, s, t, w)
    g = g.with_edges_added(extra)
    dec = spectra.decompose(g.laplacian())
    worst = max(worst, _rel_all(P, spectra.pinv_power(dec, 1.0)), _rel_all(Q, spectra.pinv_power(dec, 2.0)))
    if not np.array_equal(cluster.girvan_newman(g, 2).assignment, _girvan_newman_reference(g, 2)):
        worst = max(worst, (1.0, 1.0))
    measure = ("resistance", "biharmonic2")[g.m % 2]  # the correlations agree to 1e-12
    rho = flow.resilience_experiment(g, measure, 2, 1, g.m)
    if _rel_all(rho, _resilience_reference(g, measure, 2, 1, g.m))[1] > 1e-12:
        worst = max(worst, (1.0, 1.0))
    return worst


# name -> (fn, threshold, families, max_n)
CHECKS: dict = {
    "foster": (_check_foster, 1e-8, FAMILIES, None),
    "biharmonic_foster": (_check_biharmonic_foster, 1e-8, FAMILIES, None),
    "kharmonic_foster": (_check_kharmonic_foster, 1e-7, FAMILIES, None),
    "down_laplacian": (_check_down_laplacian, 1e-8, FAMILIES, 60),  # pinv of the n x m boundary
    "flow_identity": (_check_flow_identity, 1e-8, FAMILIES, 30),
    "flow_edge_sums": (_check_flow_edge_sums, 1e-7, FAMILIES, 15),
    "flow_pair_sums": (_check_flow_pair_sums, 1e-7, FAMILIES, 15),
    "cut_edge": (_check_cut_edge, 1e-9, ("tree", "sbm", "er"), None),
    "cut_edge_resistance": (_check_cut_edge_resistance, 1e-9, ("tree",), None),
    "sparse_cut": (_check_sparse_cut, 1e-8, UNWEIGHTED_FAMILIES, 40),
    "sweep_separation": (_check_sweep_separation, 0.0, UNWEIGHTED_FAMILIES, 30),
    "sweep_cut": (_check_sweep_cut, 0.0, UNWEIGHTED_FAMILIES, 30),
    "derivative": (_check_derivative, 1e-5, ("er_weighted", "tree_weighted"), 40),
    "deletion": (_check_deletion, 1e-8, ("er",), 20),
    "bounds": (_check_bounds, 1e-12, UNWEIGHTED_FAMILIES, 60),
    "tightness": (_check_tightness, 1e-9, ("er",), 10),
    "potentials": (_check_potentials, 1e-8, FAMILIES, None),
    "flows": (_check_flows, 1e-8, FAMILIES, None),
    "cut_flow": (_check_cut_flow, 1e-8, UNWEIGHTED_FAMILIES, 40),
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
    """Run named checks (all by default) and return one report per check."""
    names = sorted(CHECKS) if suite is None or suite == "all" else list(suite)
    unknown = [x for x in names if x not in CHECKS]
    if unknown:
        raise GraphError(f"unknown check name(s) {unknown}; known: {sorted(CHECKS)}")
    reports = []
    built = {}
    for name in names:
        fn, threshold, families, max_n = CHECKS[name]
        count = 1 if name == "tightness" else trials  # tightness has fixed witnesses, not sampled graphs
        instances = _graphs(count, n_range[0], n_range[1], seed, families, max_n, built)
        worst_abs = worst_rel = 0.0
        detail = ""
        worst_family = ""
        for family, g in instances:
            result = fn(g)
            if len(result) == 3:
                a, r, d = result
                if d:
                    detail = d
            else:
                a, r = result
            if r >= worst_rel:
                worst_abs, worst_rel, worst_family = a, r, family
        reports.append(
            CheckReport(
                name=name,
                family=worst_family or instances[0][0],
                seed=seed,
                worst_abs=float(worst_abs),
                worst_rel=float(worst_rel),
                threshold=threshold,
                passed=bool(worst_rel <= threshold),
                detail=detail,
            )
        )
    return reports


def format_report_table(reports) -> str:
    lines = [
        f"{'check':<22} {'family':<14} {'worst_rel':>12} {'threshold':>10}  result"
    ]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<22} {r.family:<14} {r.worst_rel:>12.3e} "
            f"{r.threshold:>10.1e}  {status}"
            + (f"  ({r.detail})" if r.detail else "")
        )
    return "\n".join(lines)
