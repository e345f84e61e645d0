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


def test_centrality_with_plot(graph_file, tmp_path, capsys):
    path, _ = graph_file
    plot = tmp_path / "plot.csv"
    code, out = _run(capsys, ["centrality", "--graph", path, "--measure", "biharmonic2",
                              "--plot", str(plot)])
    assert code == 0
    edges = json.loads(out)["edges"]
    assert {"index", "u", "v", "score", "rank"} <= set(edges[0])
    header, *rows = plot.read_text().strip().split("\n")
    assert header == "rank,edge_index,score"
    assert len(rows) == len(edges)


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


def test_cluster_k_grid(graph_file, tmp_path, capsys):
    path, labels = graph_file
    plot = tmp_path / "sweep.csv"
    code, out = _run(capsys, ["cluster", "--graph", path, "--algo", "kmeans",
                              "--clusters", "2", "--labels", labels,
                              "--k-grid", "1,2,4", "--plot", str(plot)])
    assert code == 0
    sweep = json.loads(out)["sweep"]
    assert [r["k"] for r in sweep] == [1.0, 2.0, 4.0]
    assert plot.read_text().startswith("k,purity,ci95\n")


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


# exit codes -----------------------------------------------------------------


def test_missing_file_is_io_error(capsys):
    code, _ = _run(capsys, ["distances", "--graph", "/nonexistent", "--k", "1"])
    assert code == 2


def test_malformed_graph_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 zebra\n")
    code, _ = _run(capsys, ["distances", "--graph", str(path), "--k", "1"])
    assert code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["centrality", "--measure", "biharmonic2"],
        ["cluster", "--algo", "kmeans", "--clusters", "2", "--k-grid", "1,2"],
    ],
)
def test_plot_name_stays_out_of_the_bytes(graph_file, tmp_path, capsys, argv):
    path, labels = graph_file
    extra = ["--labels", labels] if argv[0] == "cluster" else []
    outs = []
    for name in ("a.csv", "b.csv"):
        code, out = _run(capsys, argv + ["--graph", path, *extra, "--plot", str(tmp_path / name)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert "plot" not in json.loads(outs[0])["meta"]["params"]


def test_unrepresentable_power_is_usage_error(tmp_path, capsys):
    path = tmp_path / "path400.txt"
    io.save_edge_list(generators.path(400), path)
    code = main(["distances", "--graph", str(path), "--k", "80", "--pairs", "0:399"])
    assert code == 4
    assert "overflows at k=80" in capsys.readouterr().err
