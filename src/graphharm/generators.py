"""Seeded graph generators.

All generators are deterministic for a fixed (params, seed).  The random
models (Erdős–Rényi, stochastic block model) resample with derived
sub-seeds until the graph is connected, up to a bounded number of
attempts.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, GraphError, build_graph, is_connected

MAX_CONNECT_ATTEMPTS = 100


class GenerationError(GraphError):
    """Raised when a random model cannot produce a valid sample."""


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Hub vertex 0 joined to vertices 1..n-1."""
    return build_graph(n, [(0, i, 1.0) for i in range(1, n)])


def balanced_tree(branching: int, depth: int) -> Graph:
    """Rooted tree where every internal vertex has `branching` children."""
    if branching < 1 or depth < 0:
        raise GraphError("balanced_tree requires branching >= 1 and depth >= 0")
    edges = []
    frontier = [0]
    nxt = 1
    for _ in range(depth):
        new_frontier = []
        for p in frontier:
            for _ in range(branching):
                edges.append((p, nxt, 1.0))
                new_frontier.append(nxt)
                nxt += 1
        frontier = new_frontier
    return build_graph(nxt, edges)


def _er_sample(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, 1.0))
    return build_graph(n, edges)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p) sample; resamples until connected."""
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"edge probability must be in [0,1], got {p}")
    for attempt in range(MAX_CONNECT_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        g = _er_sample(n, p, rng)
        if is_connected(g):
            return g
    raise GenerationError(
        f"erdos_renyi(n={n}, p={p}): no connected sample in "
        f"{MAX_CONNECT_ATTEMPTS} attempts"
    )


def sbm(cluster_sizes, p_in: float, p_out: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Connected stochastic block model sample with ground-truth labels.

    Within-cluster edges appear with probability p_in, cross-cluster edges
    with probability p_out.
    """
    sizes = [int(s) for s in cluster_sizes]
    if not sizes or any(s <= 0 for s in sizes):
        raise GraphError("cluster sizes must be a nonempty list of positive counts")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= p <= 1.0):
            raise GraphError(f"{name} must be in [0,1], got {p}")
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    for attempt in range(MAX_CONNECT_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                p = p_in if labels[u] == labels[v] else p_out
                if rng.random() < p:
                    edges.append((u, v, 1.0))
        g = build_graph(n, edges)
        if is_connected(g):
            return g, labels
    raise GenerationError(
        f"sbm(sizes={sizes}, p_in={p_in}, p_out={p_out}): no connected "
        f"sample in {MAX_CONNECT_ATTEMPTS} attempts"
    )


def knn(points, k: int) -> Graph:
    """Symmetrized (union) unweighted k-nearest-neighbor graph.

    An edge {u, v} exists when either point lists the other among its k
    Euclidean nearest neighbors.  Distance ties break toward the lower
    point index.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k >= n:
        raise GraphError(f"k={k} must be smaller than the number of points ({n})")
    if k < 1:
        raise GraphError("k must be at least 1")
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    keys: set[tuple[int, int]] = set()
    for u in range(n):
        order = np.lexsort((np.arange(n), d2[u]))  # distance, then index
        for v in order[:k]:
            keys.add((min(u, int(v)), max(u, int(v))))
    return build_graph(n, [(u, v, 1.0) for u, v in sorted(keys)])


def generate(model: str, params: dict, seed: int = 0):
    """Dispatch by model name.

    Returns a Graph, except for "sbm" which returns (Graph, labels).
    """
    makers = {
        "complete": lambda: complete(int(params["n"])),
        "path": lambda: path(int(params["n"])),
        "star": lambda: star(int(params["n"])),
        "balanced_tree": lambda: balanced_tree(
            int(params["branching"]), int(params["depth"])
        ),
        "erdos_renyi": lambda: erdos_renyi(
            int(params["n"]), float(params["p"]), seed
        ),
        "sbm": lambda: sbm(
            params["sizes"], float(params["p_in"]), float(params["p_out"]), seed
        ),
        "knn": lambda: knn(params["points"], int(params["k"])),
    }
    if model not in makers:
        raise GraphError(f"unknown model {model!r}")
    return makers[model]()
