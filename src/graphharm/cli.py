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

import numpy as np

from . import __version__, cluster, flow, generators, harmonic, io, validate
from .generators import GenerationError
from .graph import DisconnectedGraphError, Graph, GraphError
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


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _meta(args, subcommand: str, extra: dict | None = None) -> dict:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "output", "labels_out", "plot") and not k.startswith("_")
    }
    meta = {
        "subcommand": subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    if getattr(args, "graph", None):
        meta["graph_digest"] = _digest(args.graph)
    if extra:
        meta.update(extra)
    return meta


def _emit(payload: dict, args, csv_rows=None, csv_header=None) -> None:
    if getattr(args, "out", "json") == "csv" and csv_rows is not None:
        lines = [csv_header] + [",".join(str(x) for x in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_pairs(spec: str, g: Graph) -> list[tuple[int, int]]:
    if spec == "all":
        return [(s, t) for s in range(g.n) for t in range(s + 1, g.n)]
    if spec == "edges":
        return [(u, v) for u, v, _ in g.edges]
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
    return pairs


# ---------------------------------------------------------------------------
# subcommands


def cmd_distances(args):
    g = io.load_edge_list(args.graph)
    pairs = _parse_pairs(args.pairs, g)
    dec = harmonic.decomposition(g)
    if args.rank is None:
        D2 = harmonic.kharmonic_sq_matrix(g, args.k, dec)
    else:
        D2 = harmonic.kharmonic_rank_sq_matrix(g, args.k, args.rank, dec)
    rows = [
        {"s": s, "t": t, "value": float(np.sqrt(D2[s, t])), "value_squared": float(D2[s, t])}
        for s, t in pairs
    ]
    payload = {
        "meta": _meta(args, "distances", {"k": args.k, "rank": args.rank}),
        "rows": rows,
    }
    _emit(
        payload,
        args,
        csv_rows=[(r["s"], r["t"], repr(r["value"]), repr(r["value_squared"])) for r in rows],
        csv_header="s,t,value,value_squared",
    )


def _scores_payload(g: Graph, scores, args, subcommand: str) -> dict:
    ranks = scores.ranks
    edges = [
        {
            "index": e,
            "u": int(g.edges[e][0]),
            "v": int(g.edges[e][1]),
            "score": float(scores.values[e]),
            "rank": int(ranks[e]),
        }
        for e in range(g.m)
    ]
    return {"meta": _meta(args, subcommand, {"measure": args.measure}), "edges": edges}


def cmd_centrality(args):
    g = io.load_edge_list(args.graph)
    scores = flow.edge_measure(g, args.measure, args.k)
    payload = _scores_payload(g, scores, args, "centrality")
    if args.plot:
        ranking = scores.ranking
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write("rank,edge_index,score\n")
            for pos, e in enumerate(ranking):
                fh.write(f"{pos},{int(e)},{scores.values[e]!r}\n")
    _emit(
        payload,
        args,
        csv_rows=[
            (r["index"], r["u"], r["v"], repr(r["score"]), r["rank"])
            for r in payload["edges"]
        ],
        csv_header="index,u,v,score,rank",
    )


def _load_scores_file(path) -> tuple[harmonic.EdgeScores, list[tuple[int, int]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        edges = data["edges"]
        vals = np.array([e["score"] for e in edges], dtype=np.float64)
        keys = [(min(e["u"], e["v"]), max(e["u"], e["v"])) for e in edges]
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ParseError(path, 0, f"not a scores JSON file ({exc})")
    return harmonic.EdgeScores(vals, "loaded"), keys


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
    if args.algo == "gn-betweenness":
        return cluster.girvan_newman(g, args.clusters, "betweenness")
    raise UsageError(f"unknown algorithm {args.algo!r}")


def cmd_cluster(args):
    if args.clusters < 1:
        raise UsageError(f"--clusters must be positive, got {args.clusters}")
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
    purities = (
        [cluster.purity(r, labels) for r in results] if labels is not None else None
    )
    mean_purity = float(np.mean(purities)) if purities else None
    ci95 = (
        float(1.96 * np.std(purities, ddof=1) / np.sqrt(len(purities)))
        if purities and len(purities) > 1
        else None
    )
    payload = {
        "meta": _meta(args, "cluster", {"algo": args.algo, "n_runs": len(seeds)}),
        "assignment": [int(x) for x in results[0].assignment],
        "purity": mean_purity,
        "ci95": ci95,
    }
    _emit(
        payload,
        args,
        csv_rows=list(enumerate(payload["assignment"])),
        csv_header="vertex,cluster",
    )


def _cluster_k_sweep(g, args, labels, seeds):
    """--k-grid: purity-vs-k table, written to --plot as CSV."""
    if labels is None:
        raise UsageError("--k-grid requires --labels to evaluate purity")
    rows = []
    for k in args.k_grid:
        sub = argparse.Namespace(**{**vars(args), "k": k})
        purities = [cluster.purity(_run_cluster_once(g, sub, s), labels) for s in seeds]
        mean = float(np.mean(purities))
        ci = (
            float(1.96 * np.std(purities, ddof=1) / np.sqrt(len(purities)))
            if len(purities) > 1
            else 0.0
        )
        rows.append({"k": k, "purity": mean, "ci95": ci})
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write("k,purity,ci95\n")
            for r in rows:
                fh.write(f"{r['k']!r},{r['purity']!r},{r['ci95']!r}\n")
    payload = {"meta": _meta(args, "cluster", {"algo": args.algo}), "sweep": rows}
    _emit(payload, args)


def cmd_generate(args):
    points = None
    if args.model == "knn" and args.points:
        points, _ = io.load_points_csv(args.points)
    params = {
        "n": args.n, "p": args.p, "sizes": args.sizes, "p_in": args.p_in, "p_out": args.p_out,
        "branching": args.branching, "depth": args.depth, "points": points, "k": args.knn,
    }
    result = generators.generate(args.model, params, args.seed)
    labels = None
    if args.model == "sbm":
        g, labels = result
    else:
        g = result
    io.save_edge_list(g, args.output)
    if args.labels_out:
        if labels is None:
            raise UsageError(f"model {args.model!r} produces no labels")
        io.save_points_csv(np.zeros((g.n, 0)), args.labels_out, labels=labels)
    sys.stdout.write(
        json.dumps(
            {"meta": _meta(args, "generate"), "n": g.n, "m": g.m},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def cmd_validate(args):
    suite = None if args.suite in (None, "all") else args.suite.split(",")
    reports = validate.run_suite(
        suite, n_range=(args.n_min, args.n_max), trials=args.trials, seed=args.seed
    )
    if args.json:
        sys.stdout.write(
            json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
        )
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
    p.add_argument("--plot", help="write rank,score CSV to this path")
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=_comma_list(int), help="comma list of seeds; emits mean purity and 95%% CI")
    p.add_argument("--labels", help="CSV with a label column for purity")
    p.add_argument("--k-grid", dest="k_grid", type=_comma_list(float), help="comma list of k values to sweep")
    p.add_argument("--plot", help="write purity-vs-k CSV here (with --k-grid)")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, dest="output", help="edge-list output path")
    p.add_argument("--labels-out", dest="labels_out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="run the numerical certification suite")
    p.add_argument("--suite", default="all", help="comma list of checks, or 'all'")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-min", dest="n_min", type=int, default=10)
    p.add_argument("--n-max", dest="n_max", type=int, default=60)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FileNotFoundError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DisconnectedGraphError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (GraphError, SpectraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
