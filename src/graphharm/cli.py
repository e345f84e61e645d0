"""Command-line surface.

Subcommands: distances, centrality, compare, resilience, cluster,
generate, validate.  JSON is the canonical output; CSV is a flat
projection.  Exit codes: 0 ok, 2 I/O or parse error, 3 violated math
precondition (e.g. disconnected input), 4 usage error.

Every run with a fixed seed and inputs is byte-reproducible; the JSON
meta block doubles as a run manifest (subcommand, parameters, seed,
version, input digests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext
from itertools import chain

import numpy as np

from . import __version__, _threads, cluster, flow, generators, harmonic, io, spectra, validate
from .generators import GenerationError
from .graph import DisconnectedGraphError, Graph, GraphError, require_seed
from .io import ParseError
from .spectra import SpectraError

EXIT_OK = 0
EXIT_IO = 2
EXIT_MATH = 3
EXIT_USAGE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _comma_list(cast):
    """argparse type for a comma list; a bad item is a usage error."""

    def parse(text: str) -> list:
        return [cast(x) for x in text.split(",")]

    parse.__name__ = f"comma list of {cast.__name__}"  # argparse names the type in its message
    return parse


def _seed(text: str) -> int:
    """argparse type for a seed (`graph.require_seed`; its GraphError is a ValueError)."""
    return require_seed(int(text))


_seed.__name__ = "nonnegative int"  # argparse names the type in its message


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _blas() -> dict:
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _meta(args, subcommand: str, extra: dict | None = None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output", "labels_out") and not k.startswith("_")
    }
    meta = {
        "subcommand": subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "blas": _blas(),
        "threads": _threads or "default",
    }
    if getattr(args, "graph", None):
        meta["graph_digest"] = _digest(args.graph)
    if extra:
        meta.update(extra)
    return meta


# rows per written block: the text of one block is the largest temporary
_BLOCK_ROWS = 4096


def _write_rows(fh, cols, template: str, sep: str) -> None:
    """Write template % row for each row of the columns, joined by sep, one
    block of rows at a time.  `.tolist()` prints ints with str and floats
    with repr, as json does for finite floats (the library returns no other)."""
    for lo in range(0, len(cols[0]), _BLOCK_ROWS):
        rows = zip(*(c[lo:lo + _BLOCK_ROWS].tolist() for c in cols))
        flat = tuple(chain.from_iterable(rows))
        fh.write((sep if lo else "") + sep.join([template] * (len(flat) // len(cols))) % flat)


def _write_json(fh, payload: dict | list, table: dict | None, key: str | None) -> None:
    """json.dumps(payload, indent=2, sort_keys=True) + newline, with payload[key]
    the rows of `table` as objects, written without building them."""
    text = json.dumps({**payload, key: []} if key else payload, indent=2, sort_keys=True) + "\n"
    if key is None or not len(next(iter(table.values()))):
        fh.write(text)
        return
    marker = f'\n  "{key}": ['
    head, tail = text.split(marker + "]")
    names = sorted(table)
    template = "    {\n" + ",\n".join(f'      "{name}": %s' for name in names) + "\n    }"
    fh.write(head + marker + "\n")
    _write_rows(fh, [table[name] for name in names], template, ",\n")
    fh.write("\n  ]" + tail)


def _emit(payload: dict | list, args, table: dict | None = None, key: str | None = None) -> None:
    """Write payload as JSON, or `table` (equal-length numpy columns, in CSV
    order) as CSV under --out csv; under JSON the table is payload[key]."""
    csv = getattr(args, "out", "json") == "csv"
    if csv and table is None:
        raise UsageError(f"{args.subcommand} has no CSV output; use --out json")
    path = getattr(args, "output", None)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        if csv:
            fh.write(",".join(table) + "\n")
            _write_rows(fh, list(table.values()), ",".join(["%s"] * len(table)) + "\n", "")
        else:
            _write_json(fh, payload, table, key)


def _parse_pairs(spec: str, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (s, t) of the pairs that `spec` names."""
    if spec == "all":
        return np.triu_indices(g.n, 1)
    if spec == "edges":
        return g._u, g._v
    pairs = []
    for chunk in spec.split(","):
        try:
            s, t = chunk.split(":")
            pairs.append((int(s), int(t)))
        except ValueError:
            raise UsageError(f"bad pair {chunk!r}; expected 's:t'")
    for s, t in pairs:
        if not (0 <= s < g.n) or not (0 <= t < g.n):
            raise UsageError(f"pair ({s},{t}) out of range for n={g.n}")
    s, t = zip(*pairs)
    return np.array(s, dtype=np.int64), np.array(t, dtype=np.int64)


# ---------------------------------------------------------------------------
# subcommands


def cmd_distances(args):
    """Rows (s, t, value, value_squared).  Only `all` forms the n x n matrix;
    edges and explicit pairs read the embedding rows of their vertices."""
    g = io.load_edge_list(args.graph)
    s, t = _parse_pairs(args.pairs, g)
    dec = harmonic._connected_dec(g)
    if args.pairs == "all":
        sq = harmonic._sq_matrix(dec, args.k, args.rank)[s, t]
    else:
        sq = spectra.embedding_sq_distances(dec, args.k, s, t, args.rank)
    payload = {"meta": _meta(args, "distances", {"k": args.k, "rank": args.rank})}
    _emit(payload, args, {"s": s, "t": t, "value": np.sqrt(sq), "value_squared": sq}, "rows")


def cmd_centrality(args):
    g = io.load_edge_list(args.graph)
    scores = flow.edge_measure(g, args.measure, args.k)
    table = {"index": np.arange(g.m), "u": g._u, "v": g._v, "score": scores.values, "rank": scores.ranks}
    _emit({"meta": _meta(args, "centrality", {"measure": args.measure})}, args, table, "edges")


def _load_scores_file(path) -> tuple[harmonic.EdgeScores, list[tuple[int, int]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edges = data["edges"]
        vals = np.array([e["score"] for e in edges], dtype=np.float64)
        keys = [(min(e["u"], e["v"]), max(e["u"], e["v"])) for e in edges]
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ParseError(path, 0, f"not a scores JSON file ({exc})")
    return harmonic.EdgeScores(vals), keys


def cmd_compare(args):
    a, keys_a = _load_scores_file(args.scores_a)
    b, keys_b = _load_scores_file(args.scores_b)
    if keys_a != keys_b:
        raise UsageError("score files cover different edge sets")
    rho = flow.spearman(a, b)
    payload = {"meta": _meta(args, "compare"), "spearman": rho}
    _emit(payload, args)


def cmd_resilience(args):
    g = io.load_edge_list(args.graph)
    corr = flow.resilience_experiment(
        g, args.measure, args.added, args.trials, args.seed, args.k
    )
    payload = {
        "meta": _meta(args, "resilience", {"measure": args.measure}),
        "correlations": corr,
        "mean": float(np.mean(corr)),
    }
    _emit(payload, args)


def _run_cluster_once(g, args, seed):
    if args.algo == "kmeans":
        return cluster.kharmonic_kmeans(g, args.clusters, args.k, seed)
    if args.algo == "lowrank":
        return cluster.low_rank_kharmonic_kmeans(g, args.clusters, args.k, args.rank, seed)
    if args.algo == "spectral":
        return cluster.spectral_clustering(g, args.clusters, seed)
    if args.algo == "gn":
        return cluster.girvan_newman(g, args.clusters, "kharmonic2", args.k)
    return cluster.girvan_newman(g, args.clusters, "betweenness")  # gn-betweenness, the last of the choices


def cmd_cluster(args):
    g = io.load_edge_list(args.graph)
    labels = None
    if args.labels:
        _, labels = io.load_points_csv(args.labels)
        if labels is None:
            raise UsageError(f"{args.labels}: no 'label' column in header")
    seeds = args.seeds or [args.seed]
    if args.k_grid:
        _cluster_k_sweep(g, args, labels, seeds)
        return
    results = [_run_cluster_once(g, args, s) for s in seeds]
    mean, ci95 = _mean_ci95([cluster.purity(r, labels) for r in results]) if labels is not None else (None, None)
    assignment = results[0].assignment
    payload = {
        "meta": _meta(args, "cluster", {"algo": args.algo, "n_runs": len(seeds)}),
        "assignment": assignment.tolist(),
        "purity": mean,
        "ci95": ci95,
    }
    _emit(payload, args, {"vertex": np.arange(len(assignment)), "cluster": assignment})


def _mean_ci95(purities: list) -> tuple[float, float | None]:
    """Mean purity and the half-width of its 95% interval (None for one run)."""
    ci = float(1.96 * np.std(purities, ddof=1) / np.sqrt(len(purities))) if len(purities) > 1 else None
    return float(np.mean(purities)), ci


def _cluster_k_sweep(g, args, labels, seeds):
    """--k-grid: the purity-vs-k table."""
    if labels is None:
        raise UsageError("--k-grid requires --labels to evaluate purity")
    means, cis = [], []
    for k in args.k_grid:
        sub = argparse.Namespace(**{**vars(args), "k": k})
        mean, ci = _mean_ci95([cluster.purity(_run_cluster_once(g, sub, s), labels) for s in seeds])
        means.append(mean)
        cis.append(0.0 if ci is None else ci)
    table = {"k": np.array(args.k_grid), "purity": np.array(means), "ci95": np.array(cis)}
    _emit({"meta": _meta(args, "cluster", {"algo": args.algo})}, args, table, "sweep")


def cmd_generate(args):
    points = io.load_points_csv(args.points)[0] if args.model == "knn" and args.points else None
    params = {
        "n": args.n, "p": args.p, "sizes": args.sizes, "p_in": args.p_in, "p_out": args.p_out,
        "branching": args.branching, "depth": args.depth, "points": points, "k": args.knn,
    }
    result = generators.generate(args.model, params, args.seed)
    g, labels = result if args.model == "sbm" else (result, None)
    io.save_edge_list(g, args.output)
    if args.labels_out:
        if labels is None:
            raise UsageError(f"model {args.model!r} produces no labels")
        io.save_points_csv(np.zeros((g.n, 0)), args.labels_out, labels=labels)
    _write_json(sys.stdout, {"meta": _meta(args, "generate"), "n": g.n, "m": g.m}, None, None)


def cmd_validate(args):
    suite = None if args.suite in (None, "all") else args.suite.split(",")
    reports = validate.run_suite(
        suite, n_range=(args.n_min, args.n_max), trials=args.trials, seed=args.seed
    )
    if args.json:
        _emit([r.to_dict() for r in reports], args)
    else:
        sys.stdout.write(validate.format_report_table(reports) + "\n")
    if not all(r.passed for r in reports):
        raise SystemExit(1)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphharm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common_output(p):
        p.add_argument("--out", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("distances", help="k-harmonic distances between vertex pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--pairs", default="all", help="all | edges | 's:t,s:t,...'")
    common_output(p)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("centrality", help="per-edge centrality scores with ranking")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure", required=True, choices=flow.MEASURES)
    p.add_argument("--k", type=float, default=None)
    common_output(p)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("compare", help="Spearman correlation of two score files")
    p.add_argument("--scores-a", required=True, dest="scores_a")
    p.add_argument("--scores-b", required=True, dest="scores_b")
    common_output(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("resilience", help="rank stability under random edge additions")
    p.add_argument("--graph", required=True)
    p.add_argument("--measure", required=True, choices=flow.MEASURES)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--added", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    common_output(p)
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser("cluster", help="graph clustering algorithms")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--algo",
        required=True,
        choices=("kmeans", "lowrank", "spectral", "gn", "gn-betweenness"),
    )
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seeds", type=_comma_list(_seed), help="comma list of seeds; emits mean purity and 95%% CI")
    p.add_argument("--labels", help="CSV with a label column for purity")
    p.add_argument("--k-grid", dest="k_grid", type=_comma_list(float), help="comma list of k values to sweep")
    common_output(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("generate", help="write a generated graph to an edge-list file")
    p.add_argument("--model", required=True, choices=tuple(generators.MODELS))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--sizes", type=_comma_list(int), help="comma list of block sizes for sbm")
    p.add_argument("--p-in", dest="p_in", type=float)
    p.add_argument("--p-out", dest="p_out", type=float)
    p.add_argument("--branching", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--points", help="points CSV for the knn model")
    p.add_argument("--knn", type=int, help="neighbor count k for the knn model")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, dest="output", help="edge-list output path")
    p.add_argument("--labels-out", dest="labels_out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="run the numerical certification suite")
    p.add_argument("--suite", default="all", help="comma list of checks, or 'all'")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n-min", dest="n_min", type=int, default=10)
    p.add_argument("--n-max", dest="n_max", type=int, default=60)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


# exit code of each handled error type, first match wins: subclasses of
# GraphError (ParseError, DisconnectedGraphError, GenerationError) come first
_EXIT_CODES = (
    ((UsageError,), EXIT_USAGE),
    ((ParseError, OSError, json.JSONDecodeError), EXIT_IO),
    ((DisconnectedGraphError, GenerationError), EXIT_MATH),
    ((GraphError, SpectraError), EXIT_USAGE),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
