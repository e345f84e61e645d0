"""The CLI's tables against the route they replaced.

The oracle is the former writer: one dict per row under
json.dumps(payload, indent=2, sort_keys=True), and `_csv` over row tuples.
Each test feeds it the numbers the CLI reports and compares bytes, on
stdout and in an --output file.
"""

import json

import numpy as np
import pytest

from graphharm import cli, flow, generators, harmonic, io, spectra
from graphharm.cli import main


def _old_csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(str(x) for x in row) for row in rows]) + "\n"


def _old_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    g, labels = generators.sbm([8, 8], 0.8, 0.1, seed=2)
    paths = {"sbm": root / "sbm.txt", "er100": root / "er100.txt", "one": root / "one.txt",
             "disc": root / "disc.txt", "labels": root / "labels.csv"}
    io.save_edge_list(g, paths["sbm"])
    io.save_points_csv(np.zeros((g.n, 0)), paths["labels"], labels=labels)
    io.save_edge_list(generators.erdos_renyi(100, 0.08, 0), paths["er100"])
    paths["one"].write_text("n 1\n")
    paths["disc"].write_text("n 4\n0 1\n2 3\n")
    return {name: str(p) for name, p in paths.items()}


def _written(capsys, tmp_path, argv, where: str) -> tuple[str, dict]:
    """The CLI's text on stdout or in --output, and its JSON meta."""
    if where == "output":
        dest = tmp_path / "out.txt"
        assert main(argv + ["--output", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        text = dest.read_text(encoding="utf-8")
    else:
        assert main(argv) == 0
        text = capsys.readouterr().out
    meta_argv = list(argv)
    if "--out" in meta_argv:
        meta_argv[meta_argv.index("--out") + 1] = "json"
    assert main(meta_argv) == 0
    return text, json.loads(capsys.readouterr().out)["meta"]


def _distance_rows(argv_pairs: str, g, k: float, rank):
    """(s, t, value_squared) as the CLI's documented route for each --pairs form reads them."""
    dec = harmonic.decomposition(g)
    if argv_pairs == "all":
        D2 = harmonic.kharmonic_sq_matrix(g, k) if rank is None else harmonic.kharmonic_rank_sq_matrix(g, k, rank)
        return [(s, t, float(D2[s, t])) for s in range(g.n) for t in range(s + 1, g.n)]
    if argv_pairs == "edges":
        s, t = g._u, g._v
    else:
        s, t = zip(*((int(a), int(b)) for a, b in (c.split(":") for c in argv_pairs.split(","))))
    sq = spectra.embedding_sq_distances(dec, k, np.array(s), np.array(t), rank)
    return [(int(a), int(b), float(x)) for a, b, x in zip(s, t, sq)]


@pytest.mark.parametrize("where", ["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "graph, pairs, rank",
    [("sbm", "all", None), ("sbm", "all", 3), ("sbm", "edges", None), ("sbm", "edges", 3),
     ("sbm", "0:5,3:3,7:2", None), ("sbm", "0:5,3:3,7:2", 3), ("er100", "all", None)],
)
def test_distances_bytes_match_the_row_dict_route(graphs, tmp_path, capsys, graph, pairs, rank, fmt, where):
    argv = ["distances", "--graph", graphs[graph], "--k", "2", "--pairs", pairs, "--out", fmt]
    argv += [] if rank is None else ["--rank", str(rank)]
    text, meta = _written(capsys, tmp_path, argv, where)
    rows = _distance_rows(pairs, io.load_edge_list(graphs[graph]), 2.0, rank)
    if graph == "er100":
        assert len(rows) > cli._BLOCK_ROWS
    if fmt == "csv":
        expect = _old_csv("s,t,value,value_squared", [(s, t, repr(float(np.sqrt(x))), repr(x)) for s, t, x in rows])
    else:
        dicts = [{"s": s, "t": t, "value": float(np.sqrt(x)), "value_squared": x} for s, t, x in rows]
        expect = _old_json({"meta": meta, "rows": dicts})
    assert text == expect


@pytest.mark.parametrize("where", ["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("measure", flow.MEASURES)
def test_centrality_bytes_match_the_row_dict_route(graphs, tmp_path, capsys, measure, fmt, where):
    argv = ["centrality", "--graph", graphs["sbm"], "--measure", measure, "--k", "1.5", "--out", fmt]
    text, meta = _written(capsys, tmp_path, argv, where)
    g = io.load_edge_list(graphs["sbm"])
    scores = flow.edge_measure(g, measure, 1.5)
    values, ranks = scores.values.tolist(), scores.ranks.tolist()
    rows = [(e, u, v, values[e], ranks[e]) for e, (u, v, _) in enumerate(g.edges)]
    if fmt == "csv":
        expect = _old_csv("index,u,v,score,rank", [(e, u, v, repr(x), r) for e, u, v, x, r in rows])
    else:
        dicts = [{"index": e, "u": u, "v": v, "score": x, "rank": r} for e, u, v, x, r in rows]
        expect = _old_json({"meta": meta, "edges": dicts})
    assert text == expect


def test_an_empty_table_is_an_empty_list(graphs, tmp_path, capsys):
    argv = ["centrality", "--graph", graphs["one"], "--measure", "betweenness"]
    text, meta = _written(capsys, tmp_path, argv, "stdout")
    assert '\n  "edges": [],\n' in text
    assert text == _old_json({"meta": meta, "edges": []})
    assert main(argv + ["--out", "csv"]) == 0
    assert capsys.readouterr().out == "index,u,v,score,rank\n"


@pytest.mark.parametrize("where", ["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cluster_k_grid_bytes_match_the_row_dict_route(graphs, tmp_path, capsys, fmt, where):
    argv = ["cluster", "--graph", graphs["sbm"], "--algo", "kmeans", "--clusters", "2", "--labels",
            graphs["labels"], "--k-grid", "1,2,4.5", "--seeds", "0,1", "--out", fmt]
    text, meta = _written(capsys, tmp_path, argv, where)
    assert main(argv[:-2]) == 0
    sweep = json.loads(capsys.readouterr().out)["sweep"]
    table = _old_csv("k,purity,ci95", [(repr(r["k"]), repr(r["purity"]), repr(r["ci95"])) for r in sweep])
    assert text == (table if fmt == "csv" else _old_json({"meta": meta, "sweep": sweep}))


@pytest.mark.parametrize("where", ["stdout", "output"])
def test_cluster_csv_matches_the_row_route(graphs, tmp_path, capsys, where):
    argv = ["cluster", "--graph", graphs["sbm"], "--algo", "spectral", "--clusters", "2", "--out", "csv"]
    text, _ = _written(capsys, tmp_path, argv, where)
    assert main(argv[:-2]) == 0
    assignment = json.loads(capsys.readouterr().out)["assignment"]
    assert text == _old_csv("vertex,cluster", enumerate(assignment))


@pytest.mark.parametrize("block", [1, 2, 5])
def test_block_size_leaves_the_bytes_alone(graphs, capsys, monkeypatch, block):
    argvs = [
        ["centrality", "--graph", graphs["sbm"], "--measure", "resistance"],
        ["distances", "--graph", graphs["sbm"], "--k", "2", "--pairs", "0:1,2:3,4:5,6:7,8:9"],
        ["distances", "--graph", graphs["sbm"], "--k", "2", "--pairs", "0:1,2:3,4:5,6:7,8:9", "--out", "csv"],
    ]
    outs = []
    for rows in (cli._BLOCK_ROWS, block):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
        for argv in argvs:
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
    assert outs[: len(argvs)] == outs[len(argvs):]


# pair reads -----------------------------------------------------------------


@pytest.fixture
def no_distance_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("an n x n distance matrix was formed")

    monkeypatch.setattr(harmonic, "_sq_matrix", refuse)


def _rows(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def test_explicit_pairs_are_the_library_pair_reads(graphs, capsys, no_distance_matrix):
    g = io.load_edge_list(graphs["sbm"])
    rows = _rows(capsys, ["distances", "--graph", graphs["sbm"], "--k", "2.5", "--pairs", "0:5,3:3,7:2,15:0"])
    assert [(r["s"], r["t"]) for r in rows] == [(0, 5), (3, 3), (7, 2), (15, 0)]
    for r in rows:
        assert r["value"] == harmonic.kharmonic_distance(g, 2.5, r["s"], r["t"])
        assert r["value"] == np.sqrt(r["value_squared"])


def test_edge_rows_are_the_library_edge_scores(graphs, capsys, no_distance_matrix):
    g = io.load_edge_list(graphs["sbm"])
    rows = _rows(capsys, ["distances", "--graph", graphs["sbm"], "--k", "2.5", "--pairs", "edges"])
    assert [(r["s"], r["t"]) for r in rows] == [(u, v) for u, v, _ in g.edges]
    assert [r["value_squared"] for r in rows] == harmonic.edge_kharmonic_sq(g, 2.5).values.tolist()
    assert main(["centrality", "--graph", graphs["sbm"], "--measure", "kharmonic2", "--k", "2.5"]) == 0
    scores = [e["score"] for e in json.loads(capsys.readouterr().out)["edges"]]
    assert [r["value_squared"] for r in rows] == scores


@pytest.mark.parametrize("pairs", ["edges", "0:5,3:3,7:2,15:0"])
def test_rank_pair_reads_are_rows_of_the_rank_embedding(graphs, capsys, no_distance_matrix, pairs):
    g = io.load_edge_list(graphs["sbm"])
    rows = _rows(capsys, ["distances", "--graph", graphs["sbm"], "--k", "2", "--rank", "3", "--pairs", pairs])
    s, t = np.array([r["s"] for r in rows]), np.array([r["t"] for r in rows])
    got = np.array([r["value_squared"] for r in rows])
    assert got.tolist() == spectra.embedding_sq_distances(harmonic.decomposition(g), 2.0, s, t, 3).tolist()
    Y = spectra.embedding(harmonic.decomposition(g), 2.0, 3)
    expect = np.sum((Y[s] - Y[t]) ** 2, axis=1)
    assert np.allclose(got, expect, rtol=1e-13, atol=1e-15 * expect.max())


@pytest.mark.parametrize("pairs", ["all", "edges", "0:1"])
def test_disconnected_graph_is_math_error_for_every_pair_form(graphs, capsys, no_distance_matrix, pairs):
    code = main(["distances", "--graph", graphs["disc"], "--k", "1", "--pairs", pairs])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "connected" in captured.err


def test_pair_beyond_int64_is_usage_error(graphs, capsys, no_distance_matrix):
    code = main(["distances", "--graph", graphs["sbm"], "--k", "1", "--pairs", "99999999999999999999:1"])
    captured = capsys.readouterr()
    assert code == 4 and "out of range for n=16" in captured.err
