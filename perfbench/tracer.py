"""Per-layer spans recorded from outside graphharm.

`Tracer.install()` replaces every public function of the graphharm
modules (and every public method of the classes they define) with a
wrapper that records a span ``[name, start, end, parent, note]``.  The
modules import each other's names with ``from .x import y``, so a
function is replaced in every module namespace that binds it.  Generator
functions are not spanned; their yields are counted instead.

Spans stay in memory.  `take()` hands back what was recorded since the
previous call, so the caller can cut the record into passes, and
`summarize()` turns one batch into per-layer numbers.  `uninstall()`
restores the original functions; with the tracer uninstalled graphharm
runs unmodified.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io", "graph", "generators", "spectra", "harmonic", "flow", "cluster", "validate")

# Self time of these spans is summed into `<group>_s`.
GROUPS = {
    "spectra.decompose": "spectra.decompose",
    "spectra.pinv_power": "spectra.pinv_power",
    "spectra.low_rank_power": "spectra.pinv_power",
    "spectra.embedding": "spectra.embedding",
    "harmonic.kharmonic_distance": "harmonic.pair",
    "harmonic.effective_resistance": "harmonic.pair",
    "harmonic.biharmonic_distance": "harmonic.pair",
    "harmonic.pair_quadratic": "harmonic.pair",
    "harmonic.kharmonic_sq_matrix": "harmonic.matrix",
    "harmonic.kharmonic_matrix": "harmonic.matrix",
    "harmonic.kharmonic_rank_sq_matrix": "harmonic.matrix",
    "harmonic.resistance_matrix": "harmonic.matrix",
    "harmonic.edge_kharmonic_sq": "harmonic.edge_scores",
    "harmonic.biharmonic_edge_sq": "harmonic.edge_scores",
    "harmonic.kharmonic_component_edge_sq": "harmonic.edge_scores",
    "harmonic.biharmonic_edges_via_down_laplacian": "harmonic.edge_scores",
    "flow.flow_matrix": "flow.flow_matrix",
    "flow.generalized_flow_matrix": "flow.flow_matrix",
    "flow.current_flow_centrality": "flow.current_flow",
    "flow.squared_flow_centrality": "flow.squared_flow",
    "flow.edge_betweenness": "flow.betweenness",
    "flow.spearman": "flow.spearman",
    "flow.resilience_experiment": "flow.resilience",
    "cluster.kmeans": "cluster.kmeans",
    "cluster.kharmonic_kmeans": "cluster.kmeans",
    "cluster.low_rank_kharmonic_kmeans": "cluster.kmeans",
    "cluster.spectral_clustering": "cluster.kmeans",
    "cluster.girvan_newman": "cluster.girvan_newman",
    "generators.erdos_renyi": "generators.erdos_renyi",
    "generators.sbm": "generators.sbm",
    "generators.knn": "generators.knn",
    "io.load_edge_list": "io.load_edge_list",
    "io.save_edge_list": "io.save_edge_list",
    "graph.build_graph": "graph.build_graph",
    "graph.Graph.laplacian": "graph.laplacian",
    "graph.connected_components": "graph.connected_components",
}

# Groups whose calls are counted as `<group>_calls`.  A call made from
# inside another call of the same group (biharmonic_distance calling
# kharmonic_distance) is not counted again.
COUNTED = (
    "spectra.decompose",
    "spectra.pinv_power",
    "harmonic.pair",
    "io.load_edge_list",
    "graph.connected_components",
)

# Operation count of one dense symmetric eigendecomposition with
# eigenvectors, 9 n^3 (Golub & Van Loan, "Matrix Computations", symmetric
# QR algorithm with accumulated eigenvectors).  A stated model, not a
# hardware counter.
def eigh_flop(n: int) -> float:
    return 9.0 * float(n) ** 3


# Extra fact kept with a span: the matrix order for decompositions, the
# subcommand for CLI entry calls.
_NOTES = {
    "spectra.decompose": lambda args: int(args[0].shape[0]),
    "cli.main": lambda args: args[0][0],
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self._spans: list[list] = []
        self._stack: list[list] = []
        self._yields: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"{self.package.__name__}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            self._replace(obj, meth_name, self._wrap(f"{layer}.{name}.{meth_name}", meth))
        for ns in [self.package, *modules]:
            for attr, val in list(vars(ns).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._replace(ns, attr, entry[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Spans and generator yield counts recorded since the last take."""
        spans, yields = list(self._spans), dict(self._yields)
        self._spans.clear()
        self._yields.clear()
        return spans, yields

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            yields = self._yields

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    yields[name] += 1
                    yield item

            return counted

        spans, stack, note = self._spans, self._stack, _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, note(args) if note else None]
            stack.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                spans.append(span)

        return traced


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the durations of its direct child spans, keyed by id(span)."""
    own = {id(span): span[2] - span[1] for span in spans}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            own[id(parent)] -= end - start
    return own


def summarize(spans: list[list], yields: dict[str, int]) -> dict[str, float]:
    """Additive per-layer numbers for one batch of spans.

    Times are self times (see `self_times`).  `cli.<subcommand>_s` and
    `validate.run_suite_s` are inclusive times of the entry calls instead.
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        name, start, end, parent, note = span
        self_s = own[id(span)]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += self_s
        group = GROUPS.get(name)
        if group is not None:
            out[f"{group}_s"] += self_s
            if group in COUNTED and (parent is None or GROUPS.get(parent[0]) != group):
                out[f"{group}_calls"] += 1
        if name == "spectra.decompose":
            out["spectra.eigh_gflop"] += eigh_flop(note) / 1e9
        elif name == "graph.Graph.without_edge" and parent is not None and parent[0] == "cluster.girvan_newman":
            out["cluster.gn_deletions"] += 1
        elif name == "cli.main":
            out[f"cli.{note}_s"] += end - start
        elif name == "validate.run_suite":
            out["validate.run_suite_s"] += end - start
    out["cluster.lloyd_iters"] += yields.get("cluster.lloyd_iterations", 0)
    return dict(out)


def post_eigh_ratio(spans: list[list]) -> float:
    """Largest single-call self time after a decomposition, over that decomposition's time.

    Each call is compared with the latest decomposition that ended before
    the call started; calls with no earlier decomposition in the batch are
    skipped.
    """
    own = self_times(spans)
    decs = sorted((end, end - start) for name, start, end, _, _ in spans if name == "spectra.decompose")
    ends = [end for end, _ in decs]
    best = 0.0
    for span in spans:
        name, start, end, _, _ = span
        i = bisect.bisect_right(ends, start)
        if name != "spectra.decompose" and i > 0 and decs[i - 1][1] > 0:
            best = max(best, own[id(span)] / decs[i - 1][1])
    return best
