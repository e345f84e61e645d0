"""Graph distances from Laplacian pseudoinverse powers.

Effective-resistance, biharmonic, and k-harmonic distances with their
electrical flows, edge centralities, clustering algorithms, and a
numerical certification suite.  See the `graphharm` CLI for the command
surface.
"""

import os as _os

# GRAPHHARM_THREADS caps BLAS parallelism (0 or unset = library default).
# Must happen before numpy loads its threadpools, so it lives here; the CLI
# records the requested cap in its meta block.
_threads = _os.environ.get("GRAPHHARM_THREADS", "")
if _threads not in ("", "0"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .graph import (  # noqa: E402
    Cut,
    DisconnectedGraphError,
    Graph,
    GraphError,
    cut_from_side,
    is_connected,
)
from . import generators, io, spectra, harmonic, flow, cluster, validate  # noqa: E402

__all__ = [
    "Cut",
    "DisconnectedGraphError",
    "Graph",
    "GraphError",
    "cut_from_side",
    "is_connected",
    "generators",
    "io",
    "spectra",
    "harmonic",
    "flow",
    "cluster",
    "validate",
]
