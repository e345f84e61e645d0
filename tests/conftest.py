import numpy as np
import pytest

from graphharm import generators
from graphharm.graph import Graph


@pytest.fixture
def p3():
    return generators.path(3)


@pytest.fixture
def p4():
    return generators.path(4)


@pytest.fixture
def k4():
    return generators.complete(4)


@pytest.fixture
def barbell():
    # two triangles joined by a single bridge edge
    return Graph(
        6,
        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
         (2, 3, 1.0),
         (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)],
    )


def random_weighted(n: int, p: float, seed: int, lo=0.5, hi=2.0) -> Graph:
    rng = np.random.default_rng([seed, 1])
    g = generators.erdos_renyi(n, p, seed)
    return Graph(g.n, tuple((u, v, float(rng.uniform(lo, hi))) for u, v, _ in g.edges))


def shuffled(g: Graph, seed: int) -> Graph:
    """g with its edge list in a random order and each edge's ends in a random orientation."""
    rng = np.random.default_rng(seed)
    edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
    return Graph(g.n, [edges[i] for i in rng.permutation(g.m)])
