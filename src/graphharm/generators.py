"""Seeded graph generators.

All generators are deterministic for a fixed (params, seed).  The random
models (Erdős–Rényi, stochastic block model) resample with derived
sub-seeds until the graph is connected, up to a bounded number of
attempts.
"""

from __future__ import annotations

import numpy as np

from .graph import (MAX_VERTICES, Graph, GraphError, _integer_in, is_connected, require_count, require_points,
                    require_seed)

MAX_CONNECT_ATTEMPTS = 100


class GenerationError(GraphError):
    """Raised when a random model cannot produce a valid sample."""


def _unweighted(n: int, u, v) -> Graph:  # edge e joins u[e] and v[e] with weight 1
    return Graph._from_arrays(n, u, v, np.ones(len(u)))


def complete(n: int) -> Graph:
    n = require_count("vertex count", n, 0, MAX_VERTICES)
    return _unweighted(n, *np.triu_indices(n, 1))


def path(n: int) -> Graph:
    n = require_count("vertex count", n, 0, MAX_VERTICES)
    return _unweighted(n, np.arange(n - 1), np.arange(1, n))


def star(n: int) -> Graph:
    """Hub vertex 0 joined to vertices 1..n-1."""
    n = require_count("vertex count", n, 0, MAX_VERTICES)
    return _unweighted(n, np.zeros(max(n - 1, 0), dtype=np.int64), np.arange(1, n))


def balanced_tree(branching: int, depth: int) -> Graph:
    """Rooted tree where every internal vertex has `branching` children; v > 0 hangs off (v - 1) // branching."""
    branching, depth = require_count("branching", branching, 1, np.inf), require_count("depth", depth, 0, np.inf)
    children = np.arange(1, sum(branching**i for i in range(depth + 1)))
    return _unweighted(len(children) + 1, (children - 1) // branching, children)


def _check_probability(name: str, p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"{name} must be in [0,1], got {p}")


def _connected_blocks(labels: np.ndarray, p_in: float, p_out: float, seed: int, what: str) -> Graph:
    """Connected sample with each pair {u, v} an edge with probability
    p_in within a block, p_out across, resampled with sub-seeds until
    connected.

    Row u draws its n - u - 1 pairs (u, v > u) at once, the same stream
    as one draw per pair in that order.
    """
    n = len(labels)
    for attempt in range(MAX_CONNECT_ATTEMPTS):
        rng = np.random.default_rng([require_seed(seed), attempt])
        heads = []  # the v > u that row u joins to u
        for u in range(n - 1):
            p = np.where(labels[u + 1:] == labels[u], p_in, p_out)
            heads.append(np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1))
        tails = np.repeat(np.arange(len(heads)), [len(h) for h in heads])
        g = _unweighted(n, tails, np.concatenate([np.empty(0, dtype=np.int64), *heads]))
        if is_connected(g):
            return g
    raise GenerationError(f"{what}: no connected sample in {MAX_CONNECT_ATTEMPTS} attempts")


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Connected G(n, p) sample: the one-block stochastic block model."""
    n = require_count("vertex count", n, 0, MAX_VERTICES)
    _check_probability("edge probability", p)
    return _connected_blocks(np.zeros(n, dtype=np.int64), p, p, seed, f"erdos_renyi(n={n}, p={p})")


def sbm(cluster_sizes, p_in: float, p_out: float, seed: int) -> tuple[Graph, np.ndarray]:
    """Connected stochastic block model sample with ground-truth labels.

    Within-cluster edges appear with probability p_in, cross-cluster edges
    with probability p_out.
    """
    sizes = [require_count("cluster size", s, 1, MAX_VERTICES) for s in cluster_sizes]
    if not sizes:
        raise GraphError("cluster sizes must be a nonempty list of positive counts")
    _check_probability("p_in", p_in)
    _check_probability("p_out", p_out)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    what = f"sbm(sizes={sizes}, p_in={p_in}, p_out={p_out})"
    return _connected_blocks(labels, p_in, p_out, seed, what), labels


def knn(points, k: int) -> Graph:
    """Symmetrized (union) unweighted k-nearest-neighbor graph.

    An edge {u, v} exists when either point lists the other among its k
    Euclidean nearest neighbors.  Distance ties break toward the lower
    point index.
    """
    pts = require_points(points)
    n = len(pts)
    if _integer_in(k, n, np.inf):
        raise GraphError(f"k={k} must be smaller than the number of points ({n})")
    k = require_count("k", k, 1, n - 1)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    joined = np.zeros((n, n), dtype=bool)
    joined[np.arange(n)[:, None], np.argsort(d2, axis=1, kind="stable")[:, :k]] = True  # distance, then index
    return _unweighted(n, *np.nonzero(np.triu(joined | joined.T)))  # pairs u <= v, ascending


# model -> (required parameters, maker called with their values and the seed)
MODELS = {
    "complete": (("n",), lambda n, _: complete(n)),
    "path": (("n",), lambda n, _: path(n)),
    "star": (("n",), lambda n, _: star(n)),
    "balanced_tree": (("branching", "depth"), lambda b, d, _: balanced_tree(b, d)),
    "erdos_renyi": (("n", "p"), lambda n, p, seed: erdos_renyi(n, float(p), seed)),
    "sbm": (("sizes", "p_in", "p_out"), lambda sizes, p_in, p_out, seed: sbm(sizes, float(p_in), float(p_out), seed)),
    "knn": (("points", "k"), lambda points, k, _: knn(points, k)),
}


def generate(model: str, params: dict, seed: int = 0):
    """Dispatch by model name; a parameter given as None counts as missing.

    Returns a Graph, except for "sbm" which returns (Graph, labels).
    """
    if model not in MODELS:
        raise GraphError(f"unknown model {model!r}; choose from {tuple(MODELS)}")
    names, make = MODELS[model]
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise GraphError(f"model {model} requires {', '.join(missing)}")
    return make(*(params[name] for name in names), seed)
