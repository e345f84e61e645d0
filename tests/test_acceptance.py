"""Acceptance gate: one test per release criterion, one printed verdict line each.

Criteria are numbered 1-9; each test prints "CRITERION n: PASS/FAIL ..." so the
full gate can be read off a verbose pytest run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import graphharm
from graphharm import cluster, flow, generators, harmonic, io, validate
from graphharm.graph import Graph
from conftest import random_weighted


def _verdict(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_identities():
    names = ["foster", "down_laplacian", "flow_identity"]
    t0 = time.perf_counter()
    reports = validate.run_suite(names, n_range=(10, 200), trials=20, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.worst_rel for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 300.0
    _verdict(1, ok, f"{len(names)} identity checks, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_spot_values():
    tol = 1e-9
    devs = []
    k4 = generators.complete(4)
    devs.extend(abs(b - 0.125) for b in harmonic.biharmonic_edge_sq(k4).values)
    tree = generators.balanced_tree(2, 3)
    devs.extend(abs(r - 1.0) for r in harmonic.edge_kharmonic_sq(tree, 1.0).values)
    p4 = generators.path(4)
    devs.append(abs(harmonic.biharmonic_edge_sq(p4).values[1] - 1.0))
    p3 = generators.path(3)
    devs.extend(abs(b - 2.0 / 3.0) for b in harmonic.biharmonic_edge_sq(p3).values)
    worst = max(devs)
    _verdict(2, worst < tol, f"worst spot-value deviation {worst:.2e} (tol {tol})")


def test_criterion_3_bounds_and_tightness():
    reports = validate.run_suite(["bounds", "tightness"], n_range=(10, 60), trials=50, seed=0)
    ok = all(r.passed for r in reports)
    worst = max(r.worst_rel for r in reports)
    _verdict(3, ok, f"50 graphs, k in {{1,2,3,5}}, worst violation {worst:.2e}")


def test_criterion_4_derivative():
    h, tol = 1e-4, 1e-5
    worst = 0.0
    ratios = []
    for i in range(10):
        rng = np.random.default_rng([77, i])
        base = generators.erdos_renyi(20, 0.3, int(rng.integers(2**31)))
        g = Graph(base.n, tuple(
            (u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in base.edges
        ))
        e = int(rng.integers(g.m))
        analytic, numeric = validate.rtot_derivative_check(g, e, h)
        worst = max(worst, abs(analytic - numeric))
        _, coarse = validate.rtot_derivative_check(g, e, 2 * h)
        err_h, err_2h = abs(numeric - analytic), abs(coarse - analytic)
        if err_h > 0:
            ratios.append(err_2h / err_h)
    # halving the step should shrink the error ~4x (second-order stencil)
    order_ok = 2.0 <= float(np.median(ratios)) <= 8.0
    ok = worst < tol and order_ok
    _verdict(4, ok, f"worst |analytic-numeric| {worst:.2e} at h={h}, "
                    f"median err(2h)/err(h) {np.median(ratios):.2f}")


def test_criterion_5_cut_bound_and_sweep():
    reports = validate.run_suite(
        ["sparse_cut", "sweep_separation"], n_range=(10, 40), trials=20, seed=0
    )
    by_name = {r.name: r for r in reports}
    ok = all(r.passed for r in reports)
    _verdict(5, ok, f"cut-sum bound worst slack {by_name['sparse_cut'].worst_rel:.2e}, "
                    f"sweep separation violations {by_name['sweep_separation'].worst_rel:.0f}")


def test_criterion_6_clustering_bands():
    runs = {"low10": [], "full10": [], "spectral": [], "full1": []}
    for seed in range(10):
        g, labels = generators.sbm([50, 50, 50], 0.6, 0.2, seed=seed)
        runs["low10"].append(
            cluster.purity(cluster.low_rank_kharmonic_kmeans(g, 3, k=10.0, seed=seed), labels)
        )
        runs["full10"].append(
            cluster.purity(cluster.kharmonic_kmeans(g, 3, k=10.0, seed=seed), labels)
        )
        runs["spectral"].append(
            cluster.purity(cluster.spectral_clustering(g, 3, seed=seed), labels)
        )
        runs["full1"].append(
            cluster.purity(cluster.kharmonic_kmeans(g, 3, k=1.0, seed=seed), labels)
        )
    means = {k: float(np.mean(v)) for k, v in runs.items()}
    ok = (
        means["low10"] >= 0.95
        and 0.75 <= means["full10"] <= 1.0
        and 0.75 <= means["spectral"] <= 1.0
        and means["full10"] > means["full1"]
    )
    _verdict(6, ok, "mean purity over 10 seeds: "
                    f"low-rank k=10 {means['low10']:.3f} (>=0.95), "
                    f"full k=10 {means['full10']:.3f}, spectral {means['spectral']:.3f} "
                    f"(both in [0.75,1]), k=1 baseline {means['full1']:.3f}")


def test_criterion_7_centrality_resilience():
    pts, _ = io.bundled_points("ring300")
    g = generators.knn(pts, 25)
    means = {}
    for measure in flow.MEASURES:
        corr = flow.resilience_experiment(
            g, measure, num_added=10, trials=5, seed=0, k=5.0
        )
        means[measure] = float(np.mean(corr))
    res_highest = all(
        means["resistance"] > v for name, v in means.items() if name != "resistance"
    )
    rho = flow.spearman(
        flow.edge_measure(g, "biharmonic2"), flow.edge_measure(g, "current-flow")
    )
    ok = res_highest and rho >= 0.8
    ranking = ", ".join(f"{k} {v:.4f}" for k, v in sorted(means.items(), key=lambda x: -x[1]))
    _verdict(7, ok, f"resilience means: {ranking}; biharmonic2 vs current-flow rho {rho:.3f}")


def test_criterion_8_oracle_equivalence():
    reports = validate.run_suite(["oracle", "flow_identity"], n_range=(10, 60), trials=20, seed=0)
    by_name = {r.name: r for r in reports}
    ok = all(r.passed for r in reports)
    _verdict(8, ok, f"distance oracle worst rel {by_name['oracle'].worst_rel:.2e} (tol 1e-6), "
                    f"flow-sum oracle worst rel {by_name['flow_identity'].worst_rel:.2e} (tol 1e-8)")


def test_criterion_9_cli_byte_determinism(tmp_path):
    # The children run in tmp_path, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) finds nothing; put the directory holding the imported
    # package first, as an absolute path.
    env = dict(os.environ)
    pkg_root = str(Path(graphharm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "graphharm.cli", *argv],
            capture_output=True, cwd=tmp_path, env=env,
        )

    gen = ["generate", "--model", "sbm", "--sizes", "10,10", "--p-in", "0.8",
           "--p-out", "0.2", "--seed", "4", "--out", "g.txt", "--labels-out", "lab.csv"]
    commands = [
        ["distances", "--graph", "g.txt", "--k", "2", "--pairs", "edges"],
        ["centrality", "--graph", "g.txt", "--measure", "biharmonic2"],
        ["resilience", "--graph", "g.txt", "--measure", "resistance",
         "--added", "3", "--trials", "2", "--seed", "1"],
        ["cluster", "--graph", "g.txt", "--algo", "lowrank", "--clusters", "2",
         "--k", "10", "--labels", "lab.csv", "--seeds", "0,1"],
        ["validate", "--suite", "foster", "--trials", "3", "--n-max", "20", "--json"],
    ]
    ok = True
    detail = f"{1 + len(commands)} subcommands re-run byte-identically"
    for argv in [gen] + commands:
        first = run(argv)
        artifacts1 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        second = run(argv)
        artifacts2 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if first.returncode or second.returncode:
            failed = first if first.returncode else second
            lines = failed.stderr.decode(errors="replace").strip().splitlines()
            detail = (f"exit codes {first.returncode}/{second.returncode}, "
                      f"stderr: {lines[-1] if lines else '(empty)'}")
        elif first.stdout != second.stdout:
            detail = "stdout differs between runs"
        elif artifacts1 != artifacts2:
            detail = "artifacts differ between runs"
        else:
            continue
        ok = False
        detail = f"{' '.join(argv)}: {detail}"
        break
    _verdict(9, ok, detail)
