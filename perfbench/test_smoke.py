"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs use tiny inputs (`--smoke`) and check that each workload
prints every metric listed in BENCHMARK.json, with its unit, and passes
its correctness gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
# centrality-600 is not in BENCHMARK.json (see README.md) but stays runnable
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["centrality-600"]


def run(workload, trace, cwd=ROOT, seed=0):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and v == v for v in values.values())
    if trace:
        assert values["spectra.decompose_calls"] >= 1
        assert all(float(values[k]).is_integer() for k in COUNTS)
    else:
        assert all(v > 0 for v in values.values())


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = run("cluster-sbm", 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["cluster.lloyd_iters"] > 0 and counts[0]["cluster.gn_deletions"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cluster-sbm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    root = ["cluster.girvan_newman", 0.0, 10.0, None, None]
    spans = [
        ["spectra.decompose", 1.0, 3.0, root, 100],
        ["graph.Graph.without_edge", 3.0, 4.0, root, None],
        ["spectra.pinv_power", 5.0, 6.0, root, None],
        root,
    ]
    out = tracer.summarize(spans, {"cluster.lloyd_iterations": 4})
    assert out["cluster.girvan_newman_s"] == 6.0
    assert out["spectra.decompose_s"] == 2.0 and out["spectra.decompose_calls"] == 1
    assert out["spectra.self_s"] == 3.0
    assert out["cluster.gn_deletions"] == 1 and out["cluster.lloyd_iters"] == 4
    assert out["spectra.eigh_gflop"] == tracer.eigh_flop(100) / 1e9
    assert tracer.post_eigh_ratio(spans) == 1.0 / 2.0  # without_edge (1 s) and pinv_power (1 s) after a 2 s eigh


def test_embedding_oracle_rejects_a_wrong_power():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads
    from graphharm import generators, harmonic, spectra

    g, _ = generators.sbm([20, 20, 20], 0.6, 0.2, 0)
    dec = harmonic.decomposition(g)
    expect = workloads.oracle_sq_distances(g, 10.0, 3)

    def error(k):
        return np.max(np.abs(workloads.sq_distances(spectra.embedding(dec, k, 3)) - expect)) / np.max(expect)

    assert error(10.0) <= workloads.TOL < error(9.9)
