import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphharm
from graphharm import generators, io
from graphharm.cli import main
from graphharm.graph import Graph


@pytest.fixture
def graph_file(tmp_path):
    g, labels = generators.sbm([8, 8], 0.8, 0.1, seed=2)
    path = tmp_path / "g.txt"
    io.save_edge_list(g, path)
    labels_path = tmp_path / "labels.csv"
    io.save_points_csv(np.zeros((g.n, 0)), labels_path, labels=labels)
    return str(path), str(labels_path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_distances_json(graph_file, capsys):
    path, _ = graph_file
    code, out = _run(capsys, ["distances", "--graph", path, "--k", "2", "--pairs", "0:5,1:2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["subcommand"] == "distances"
    assert "graph_digest" in payload["meta"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert payload["meta"]["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert payload["meta"]["threads"] == (os.environ.get("GRAPHHARM_THREADS") or "default")
    rows = payload["rows"]
    assert [(r["s"], r["t"]) for r in rows] == [(0, 5), (1, 2)]
    for r in rows:
        assert r["value_squared"] == pytest.approx(r["value"] ** 2)


def test_distances_csv(graph_file, capsys):
    path, _ = graph_file
    code, out = _run(capsys, ["distances", "--graph", path, "--k", "1",
                              "--pairs", "0:1", "--out", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "s,t,value,value_squared"
    assert len(lines) == 2


def test_centrality_with_plot(graph_file, capsys):
    path, _ = graph_file
    code, out = _run(capsys, ["centrality", "--graph", path, "--measure", "biharmonic2"])
    assert code == 0
    edges = json.loads(out)["edges"]
    assert {"index", "u", "v", "score", "rank"} <= set(edges[0])


def test_compare_identical_scores(graph_file, tmp_path, capsys):
    path, _ = graph_file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest, measure in ((a, "resistance"), (b, "resistance")):
        code = main(["centrality", "--graph", path, "--measure", measure,
                     "--output", str(dest)])
        assert code == 0
    capsys.readouterr()
    code, out = _run(capsys, ["compare", "--scores-a", str(a), "--scores-b", str(b)])
    assert code == 0
    assert json.loads(out)["spearman"] == pytest.approx(1.0)


def test_resilience_output(graph_file, capsys):
    path, _ = graph_file
    code, out = _run(capsys, ["resilience", "--graph", path, "--measure", "resistance",
                              "--added", "3", "--trials", "2", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["correlations"]) == 2
    assert payload["mean"] == pytest.approx(float(np.mean(payload["correlations"])))


def test_cluster_with_purity(graph_file, capsys):
    path, labels = graph_file
    code, out = _run(capsys, ["cluster", "--graph", path, "--algo", "spectral",
                              "--clusters", "2", "--labels", labels,
                              "--seeds", "0,1,2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["assignment"]) == 16
    assert 0.5 <= payload["purity"] <= 1.0
    assert payload["ci95"] is not None


def test_cluster_k_grid(graph_file, capsys):
    path, labels = graph_file
    code, out = _run(capsys, ["cluster", "--graph", path, "--algo", "kmeans",
                              "--clusters", "2", "--labels", labels,
                              "--k-grid", "1,2,4"])
    assert code == 0
    sweep = json.loads(out)["sweep"]
    assert [r["k"] for r in sweep] == [1.0, 2.0, 4.0]


def test_plot_is_not_an_option(graph_file, tmp_path, capsys):
    # --out csv writes each table that --plot once repeated
    path, labels = graph_file
    for argv in (["centrality", "--measure", "biharmonic2"],
                 ["cluster", "--algo", "kmeans", "--clusters", "2", "--k-grid", "1,2", "--labels", labels]):
        code = main(argv + ["--graph", path, "--plot", str(tmp_path / "f")])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == "" and not (tmp_path / "f").exists()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ") and "--plot" in captured.err


@pytest.mark.parametrize("subcommand", ["compare", "resilience"])
def test_csv_without_a_csv_form_is_usage_error(graph_file, tmp_path, capsys, subcommand):
    path, _ = graph_file
    if subcommand == "compare":
        scores = tmp_path / "s.json"
        assert main(["centrality", "--graph", path, "--measure", "resistance", "--output", str(scores)]) == 0
        argv = ["compare", "--scores-a", str(scores), "--scores-b", str(scores)]
    else:
        argv = ["resilience", "--graph", path, "--measure", "resistance", "--added", "2", "--trials", "1"]
    capsys.readouterr()
    assert main(argv + ["--out", "csv"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and subcommand in captured.err


@pytest.mark.parametrize("added, trials", [("0", "2"), ("-1", "2"), ("2", "0")])
@pytest.mark.parametrize("measure", ["resistance", "biharmonic2", "betweenness"])
def test_empty_resilience_experiment_is_usage_error(graph_file, capsys, measure, added, trials):
    path, _ = graph_file
    code = main(["resilience", "--graph", path, "--measure", measure, "--added", added, "--trials", trials])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == "" and "num_added >= 1 and trials >= 1" in captured.err


@pytest.mark.parametrize("algo, clusters, message", [
    ("gn", "0", "cannot form c=0 clusters on 16 vertices"),
    ("kmeans", "-1", "cannot form c=-1 clusters from 16 points"),
    ("spectral", "0", "cannot form c=0 clusters on 16 vertices"),
    ("lowrank", "0", "cannot form c=0 clusters on 16 vertices"),
])
def test_cluster_count_below_one_is_usage_error(graph_file, capsys, algo, clusters, message):
    path, _ = graph_file
    assert main(["cluster", "--graph", path, "--algo", algo, "--clusters", clusters]) == 4
    assert capsys.readouterr()[:] == ("", f"error: {message}\n")


def test_non_numeric_score_is_parse_error(graph_file, tmp_path, capsys):
    path, _ = graph_file
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert main(["centrality", "--graph", path, "--measure", "resistance", "--output", str(good)]) == 0
    data = json.loads(good.read_text())
    data["edges"][0]["score"] = "abc"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["compare", "--scores-a", str(good), "--scores-b", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and f"{bad}" in captured.err and "not a scores JSON file" in captured.err


def test_generate_then_load(tmp_path, capsys):
    out_path = tmp_path / "gen.txt"
    code, out = _run(capsys, ["generate", "--model", "erdos_renyi", "--n", "12",
                              "--p", "0.4", "--seed", "5", "--out", str(out_path)])
    assert code == 0
    info = json.loads(out)
    g = io.load_edge_list(out_path)
    assert (g.n, g.m) == (info["n"], info["m"]) == (12, g.m)


def test_generate_sbm_writes_labels(tmp_path, capsys):
    out_path, lab_path = tmp_path / "g.txt", tmp_path / "lab.csv"
    code, _ = _run(capsys, ["generate", "--model", "sbm", "--sizes", "5,5",
                            "--p-in", "0.9", "--p-out", "0.2", "--seed", "3",
                            "--out", str(out_path), "--labels-out", str(lab_path)])
    assert code == 0
    _, labels = io.load_points_csv(lab_path)
    assert np.array_equal(np.sort(np.unique(labels)), [0, 1])


def test_validate_subcommand(capsys):
    code, out = _run(capsys, ["validate", "--suite", "foster,potentials",
                              "--trials", "3", "--n-max", "20", "--json"])
    assert code == 0
    reports = json.loads(out)
    assert {r["name"] for r in reports} == {"foster", "potentials"}
    assert all(r["passed"] for r in reports)



@pytest.mark.parametrize("argv", [
    ["--trials", "0"],
    ["--trials", "-3"],
    ["--n-min", "50", "--n-max", "20"],
    ["--n-min", "5", "--n-max", "6"],
])
def test_validate_rejects_bad_suite_sizes(capsys, argv):
    code = main(["validate", "--suite", "foster", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith("error: ")

def test_meta_records_the_requested_thread_cap(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(graphharm.__file__).resolve().parent.parent)
    metas = []
    for threads in ("1", None):
        env.pop("GRAPHHARM_THREADS", None)
        if threads:
            env["GRAPHHARM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "graphharm.cli", "generate", "--model", "path", "--n", "4", "--out", "p.txt"],
            capture_output=True, cwd=tmp_path, env=env, check=True,
        )
        metas.append(json.loads(proc.stdout)["meta"])
    assert [m["threads"] for m in metas] == ["1", "default"]
    assert metas[0]["blas"] == metas[1]["blas"] and metas[0]["blas"]["name"]


def test_centrality_ranks_do_not_depend_on_the_thread_count(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(graphharm.__file__).resolve().parent.parent)
    cycle = Graph(400, [(i, (i + 1) % 400) for i in range(400)])
    for name, g, measure in (("tree", generators.balanced_tree(3, 5), "biharmonic2"), ("cycle", cycle, "current-flow")):
        io.save_edge_list(g, tmp_path / f"{name}.txt")
        tables = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "graphharm.cli", "centrality", "--graph", f"{name}.txt",
                 "--measure", measure, "--out", "csv"],
                capture_output=True, text=True, cwd=tmp_path, env={**env, "GRAPHHARM_THREADS": threads}, check=True,
            )
            assert proc.stdout.startswith("index,u,v,score,rank\n")
            tables.append(np.loadtxt(proc.stdout.splitlines()[1:], delimiter=","))
        one, two = tables
        assert np.array_equal(one[:, [0, 1, 2, 4]], two[:, [0, 1, 2, 4]]), name
        assert np.max(np.abs(one[:, 3] - two[:, 3])) <= 1e-11 * np.max(np.abs(one[:, 3])), name


def test_unresolved_spectrum_is_usage_error(tmp_path, capsys):
    # a triangle with a pendant edge of weight 1e200
    path = tmp_path / "pendant.txt"
    path.write_text("0 1\n1 2\n0 2\n2 3 1e200\n")
    code = main(["centrality", "--graph", str(path), "--measure", "resistance"])
    assert code == 4
    assert "unresolved spectrum: kernel dimension 3 for 1 connected" in capsys.readouterr().err


# exit codes -----------------------------------------------------------------


def test_missing_file_is_io_error(capsys):
    code, _ = _run(capsys, ["distances", "--graph", "/nonexistent", "--k", "1"])
    assert code == 2


def test_malformed_graph_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 zebra\n")
    code, _ = _run(capsys, ["distances", "--graph", str(path), "--k", "1"])
    assert code == 2


def test_vertex_count_beyond_the_limit_is_parse_error(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("n 99999999999999999999\n0 1\n")
    code = main(["distances", "--graph", str(path), "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:1: vertex count 99999999999999999999 exceeds" in err


def _cli(tmp_path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(graphharm.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "graphharm.cli", *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=env)


def test_a_degree_beyond_float64_prints_only_the_typed_error(tmp_path):
    (tmp_path / "big.txt").write_text("0 1 1e308\n1 2 1e308\n")
    proc = _cli(tmp_path, "distances", "--graph", "big.txt", "--k", "1", "--pairs", "edges")
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", "error: matrix entry (1, 1) is not finite: inf\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_knn_points_that_are_not_finite_are_a_usage_error(tmp_path, bad):
    (tmp_path / "pts.csv").write_text(f"x0,x1\n0,0\n1,0\n{bad},0\n3,0\n")
    proc = _cli(tmp_path, "generate", "--model", "knn", "--points", "pts.csv", "--knn", "1", "--out", "g.txt")
    expect = f"error: point 2 has a coordinate that is not finite: [{float(bad)}, 0.0]\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", expect)
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("text, expect", [
    ("x0,x1\n", "error: k=1 must be smaller than the number of points (0)\n"),
    ("label\n0\n1\n1\n", "error: points must be an n x d array with d >= 1, got shape (3, 0)\n"),
    ("x0\n0\n1e200\n2e200\n", "error: point 1 has a coordinate beyond ±6.7e+153, where squared distances overflow: [1e+200]\n"),
], ids=["header-only", "labels-only", "huge"])
def test_knn_points_without_rows_coordinates_or_finite_distances_are_a_usage_error(tmp_path, text, expect):
    (tmp_path / "pts.csv").write_text(text)
    proc = _cli(tmp_path, "generate", "--model", "knn", "--points", "pts.csv", "--knn", "1", "--out", "g.txt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", expect)
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 1\n", "self-loop"),
        ("0 1\n1 2\n1 0\n", "duplicate edge"),
        ("n 3\n0 1\n1 3\n", "out of range"),
    ],
)
def test_invalid_edge_is_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["centrality", "--graph", str(path), "--measure", "resistance"])
    err = capsys.readouterr().err
    assert code == 2
    last_line = len(text.splitlines())
    assert f"{path}:{last_line}: " in err and message in err


def test_disconnected_graph_is_math_error(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("n 4\n0 1\n2 3\n")
    code, _ = _run(capsys, ["distances", "--graph", str(path), "--k", "1"])
    assert code == 3


def test_impossible_generation_is_math_error(tmp_path, capsys):
    code, _ = _run(capsys, ["generate", "--model", "erdos_renyi", "--n", "50",
                            "--p", "0.001", "--seed", "0",
                            "--out", str(tmp_path / "x.txt")])
    assert code == 3


@pytest.mark.parametrize("p_in", ["1.5", "-0.2", "nan"])
def test_bad_sbm_probability_is_usage_error(tmp_path, capsys, p_in):
    code, _ = _run(capsys, ["generate", "--model", "sbm", "--sizes", "5,5", "--p-in", p_in,
                            "--p-out", "0.1", "--out", str(tmp_path / "x.txt")])
    assert code == 4


def test_bad_pair_is_usage_error(graph_file, capsys):
    path, _ = graph_file
    code, _ = _run(capsys, ["distances", "--graph", path, "--k", "1",
                            "--pairs", "0:999"])
    assert code == 4


def test_unknown_flag_is_usage_error(capsys):
    code, _ = _run(capsys, ["distances", "--nope"])
    assert code == 4


def test_cli_import_loads_no_scipy(tmp_path):
    # a heavy import here is paid by every CLI call
    env = dict(os.environ)
    pkg_root = str(Path(graphharm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = "import graphharm.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_byte_identical_reruns(graph_file, capsys):
    path, _ = graph_file
    argv = ["centrality", "--graph", path, "--measure", "current-flow"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_output_name_stays_out_of_the_bytes(graph_file, tmp_path, capsys):
    path, _ = graph_file
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        assert main(["distances", "--graph", path, "--k", "2", "--output", str(dest)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "output" not in json.loads(a.read_text())["meta"]["params"]


def test_generate_file_names_stay_out_of_stdout(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        code, out = _run(capsys, ["generate", "--model", "sbm", "--sizes", "5,5", "--p-in", "0.9",
                                  "--p-out", "0.2", "--seed", "3", "--out", str(tmp_path / f"{name}.txt"),
                                  "--labels-out", str(tmp_path / f"{name}.csv")])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    params = json.loads(outs[0])["meta"]["params"]
    assert "output" not in params and "labels_out" not in params


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--model", "sbm", "--sizes", "5,x", "--p-in", "0.5", "--p-out", "0.1"],
        ["cluster", "--algo", "kmeans", "--clusters", "2", "--seeds", "1,x"],
        ["cluster", "--algo", "kmeans", "--clusters", "2", "--k-grid", "1,x"],
    ],
)
def test_malformed_comma_list_is_usage_error(graph_file, tmp_path, capsys, argv):
    path, labels = graph_file
    where = ["--out", str(tmp_path / "x.txt")] if argv[0] == "generate" else ["--graph", path, "--labels", labels]
    code = main(argv + where)
    assert code == 4
    assert "invalid comma list" in capsys.readouterr().err


def test_missing_generate_parameter_is_usage_error(tmp_path, capsys):
    code = main(["generate", "--model", "erdos_renyi", "--n", "10", "--out", str(tmp_path / "x.txt")])
    assert code == 4
    assert "requires p" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_unrepresentable_power_is_usage_error(tmp_path, capsys):
    path = tmp_path / "path400.txt"
    io.save_edge_list(generators.path(400), path)
    code = main(["distances", "--graph", str(path), "--k", "80", "--pairs", "0:399"])
    assert code == 4
    assert "overflows at k=80" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["inf", "nan"])
def test_non_finite_power_is_usage_error(tmp_path, capsys, k):
    path = tmp_path / "k5.txt"
    io.save_edge_list(generators.complete(5), path)
    code = main(["distances", "--graph", str(path), "--k", k, "--pairs", "0:1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert f"k must be finite, got k={k}" in captured.err


@pytest.mark.parametrize("argv", [
    ["distances", "--k", "1"],
    ["centrality", "--measure", "resistance"],
    ["centrality", "--measure", "current-flow"],
    ["cluster", "--algo", "kmeans", "--clusters", "2"],
    ["resilience", "--measure", "resistance", "--added", "1"],
])
def test_empty_graph_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code = main(argv + ["--graph", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert "nonempty square matrix, got shape (0, 0)" in captured.err


def test_empty_graph_betweenness_is_an_empty_table(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out = _run(capsys, ["centrality", "--measure", "betweenness", "--graph", str(path)])
    assert code == 0 and json.loads(out)["edges"] == []


@pytest.mark.parametrize("argv", [
    ["validate", "--suite", "foster", "--seed", "-1"],
    ["generate", "--model", "erdos_renyi", "--n", "5", "--p", "0.5", "--seed", "-1"],
    ["resilience", "--measure", "resistance", "--added", "1", "--seed", "-1"],
    ["cluster", "--algo", "kmeans", "--clusters", "2", "--seed", "-1"],
    ["cluster", "--algo", "kmeans", "--clusters", "2", "--seeds", "1,-1"],
])
def test_negative_seed_is_usage_error(graph_file, tmp_path, capsys, argv):
    path, _ = graph_file
    where = {"validate": [], "generate": ["--out", str(tmp_path / "x.txt")]}.get(argv[0], ["--graph", path])
    code = main(argv + where)
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert "nonnegative int value" in captured.err
    assert not (tmp_path / "x.txt").exists()
