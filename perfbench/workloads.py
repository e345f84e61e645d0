"""The four benchmark workloads.

Each workload has a `setup(seed, workdir)` that builds its inputs from
the seed, a `run_pass(state, op)` that makes the timed calls into
graphharm through `op`, and a `check(state, out)` that verifies a pass's
outputs outside the timed section and returns the labels of the calls
whose output is wrong.  See README.md for why each workload exists.

graphharm must be imported before numpy, because it reads
GRAPHHARM_THREADS at import; the worker imports it before this module.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphharm
from graphharm import cluster, flow, generators, harmonic, io, spectra

TOL = 1e-8  # relative, floored at 1; the tolerance of graphharm.validate's identity checks


def derive(seed: int, stream: int) -> int:
    """Independent integer seed for input stream `stream` of workload seed `seed`."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def max_rel(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))) if a.size else 0.0


class Failures:
    """Labels of calls whose outputs failed a check, with the reasons."""

    def __init__(self):
        self.reasons: dict[str, str] = {}

    def require(self, ok, label: str, reason: str) -> None:
        if not ok and label not in self.reasons:
            self.reasons[label] = reason


def row_blocks(n: int, size: int = 128):
    """Slices that cut range(n) into blocks of `size` rows."""
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _edge_ends(g):
    return np.array([u for u, _, _ in g.edges]), np.array([v for _, v, _ in g.edges])


# ---------------------------------------------------------------------------
# spectral-2000


@dataclass
class SpectralState:
    path: Path
    n: int
    m: int
    pairs: list  # (label, function, k, s, t) with a decomposition passed
    readme_pair: tuple


class Spectral:
    """One large decomposition and everything read off it."""

    name = "spectral-2000"
    min_passes = 2

    def __init__(self, smoke: bool):
        self.n = 120 if smoke else 2000

    def setup(self, seed, workdir):
        g = generators.erdos_renyi(self.n, 10.0 / self.n, derive(seed, 0))
        path = workdir / "er.txt"
        io.save_edge_list(g, path)
        harmonic.decomposition(g)  # warm-up: the first BLAS call can be an outlier
        rng = np.random.default_rng(derive(seed, 1))
        picks = [tuple(int(x) for x in rng.choice(self.n, size=2, replace=False)) for _ in range(4)]
        fns = [("effective_resistance", 1.0), ("biharmonic_distance", 2.0), ("kharmonic_distance", 2.5)]
        pairs = [(f"{fn}[dec]", fn, k, s, t) for (fn, k), (s, t) in zip(fns, picks)]
        return SpectralState(path, g.n, g.m, pairs, picks[3])

    def run_pass(self, st, op):
        out = {}
        g = out["g"] = op("load_edge_list", io.load_edge_list, st.path)
        dec = out["dec"] = op("decomposition", harmonic.decomposition, g)
        for k in (1.0, 2.0, 2.5):
            out[f"H{k:g}"] = op(f"kharmonic_matrix[k={k:g}]", harmonic.kharmonic_matrix, g, k, dec)
        out["rank"] = op("kharmonic_rank_sq_matrix", harmonic.kharmonic_rank_sq_matrix, g, 2.0, 10, dec)
        out["R_e"] = op("edge_kharmonic_sq[k=1]", harmonic.edge_kharmonic_sq, g, 1.0, dec)
        out["B_e"] = op("biharmonic_edge_sq", harmonic.biharmonic_edge_sq, g, dec)
        out["R_tot"] = op("total_resistance", harmonic.total_resistance, g, dec)
        for label, fn, k, s, t in st.pairs:
            args = (g, k, s, t, dec) if fn == "kharmonic_distance" else (g, s, t, dec)
            out[label] = op(label, getattr(harmonic, fn), *args)
        s, t = st.readme_pair
        out["effective_resistance"] = op("effective_resistance", harmonic.effective_resistance, g, s, t)
        out["biharmonic_distance"] = op("biharmonic_distance", harmonic.biharmonic_distance, g, s, t)
        return out

    def check(self, st, out):
        # Row blocks keep the check's own temporaries small, so that the
        # worker's peak memory is the pass's and not the check's.
        f = Failures()
        g, dec = out["g"], out["dec"]
        f.require(g.n == st.n and g.m == st.m, "load_edge_list", f"read n={g.n} m={g.m}, wrote n={st.n} m={st.m}")
        f.require(dec.kernel_dim == 1, "decomposition", f"kernel_dim {dec.kernel_dim} on a connected graph")
        u, v = _edge_ends(g)
        w = g.weights
        H1, H2 = out["H1"], out["H2"]
        # Foster: sum_e w_e R_e = n - 1
        foster = float(np.sum(w * out["R_e"].values))
        f.require(rel(foster, g.n - 1) <= TOL, "edge_kharmonic_sq[k=1]", f"Foster sum {foster} != n-1")
        f.require(max_rel(out["R_e"].values, H1[u, v] ** 2) <= TOL, "kharmonic_matrix[k=1]", "R_e differs from H^1 matrix")
        for k in (1.0, 2.0, 2.5):
            H = out[f"H{k:g}"]
            sane = np.all(np.diag(H) == 0) and all(
                np.all(np.isfinite(H[b])) and np.all(H[b] >= 0) and np.array_equal(H[b], H[:, b].T)
                for b in row_blocks(g.n))
            f.require(sane, f"kharmonic_matrix[k={k:g}]", "not a finite symmetric distance matrix")
        # total resistance is the sum of the resistance matrix over unordered
        # pairs: half its full sum, the diagonal being zero
        r_tot = out["R_tot"]
        r_sum = sum(float(np.sum(H1[b] ** 2)) for b in row_blocks(g.n)) / 2.0
        f.require(rel(r_tot, r_sum) <= TOL, "total_resistance", f"R_tot {r_tot} != sum of R over pairs {r_sum}")
        # biharmonic Foster: n sum_e w_e B_e^2 = R_tot
        bf = g.n * float(np.sum(w * out["B_e"].values))
        f.require(rel(bf, r_tot) <= TOL, "biharmonic_edge_sq", f"n*sum w_e B_e^2 = {bf} != R_tot {r_tot}")
        f.require(max_rel(out["B_e"].values, H2[u, v] ** 2) <= TOL, "kharmonic_matrix[k=2]", "B_e^2 differs from H^2 matrix")
        rank = out["rank"]
        below = all(np.all(rank[b] >= 0) and np.all(rank[b] <= H2[b] ** 2 * (1 + TOL) + TOL) for b in row_blocks(g.n))
        f.require(below, "kharmonic_rank_sq_matrix", "rank-10 squared distance exceeds the full one")
        matrices = {1.0: H1, 2.0: H2, 2.5: out["H2.5"]}
        for label, fn, k, s, t in st.pairs:
            entry = float(matrices[k][s, t]) ** (2 if fn == "effective_resistance" else 1)  # R is H^1 squared
            f.require(rel(out[label], entry) <= TOL, label, "pair differs from the matrix entry")
        s, t = st.readme_pair
        f.require(rel(out["effective_resistance"], float(H1[s, t] ** 2)) <= TOL, "effective_resistance",
                  "pair differs from R")
        f.require(rel(out["biharmonic_distance"], float(H2[s, t])) <= TOL, "biharmonic_distance", "pair differs from H^2")
        return f.reasons


# ---------------------------------------------------------------------------
# centrality-600


@dataclass
class CentralityState:
    g: object
    hop_sum: float | None = None  # oracle, computed at the first check


def hop_distance_sum(g) -> float:
    """Sum of BFS hop distances over unordered pairs, by dense frontier expansion."""
    A = (g.adjacency() > 0).astype(np.float64)
    reached = np.eye(g.n, dtype=bool)
    frontier = reached.copy()
    total, level = 0.0, 0
    while frontier.any():
        level += 1
        frontier = ((frontier.astype(np.float64) @ A) > 0) & ~reached
        reached |= frontier
        total += level * float(frontier.sum())
    return total / 2.0


class Centrality:
    """All-pairs flow centralities and betweenness on a mid-size graph."""

    name = "centrality-600"
    min_passes = 2

    def __init__(self, smoke: bool):
        self.n = 60 if smoke else 600

    def setup(self, seed, workdir):
        g = generators.erdos_renyi(self.n, 10.0 / self.n, derive(seed, 0))
        harmonic.decomposition(g)  # warm-up
        return CentralityState(g)

    def run_pass(self, st, op):
        g = st.g
        out = {
            "current_flow": op("current_flow_centrality", flow.current_flow_centrality, g),
            "squared_flow": op("squared_flow_centrality", flow.squared_flow_centrality, g),
            "betweenness": op("edge_betweenness", flow.edge_betweenness, g),
            "biharmonic": op("biharmonic_edge_sq", harmonic.biharmonic_edge_sq, g),
        }
        for a, b in (("current_flow", "squared_flow"), ("current_flow", "betweenness"), ("squared_flow", "biharmonic")):
            out[f"rho({a},{b})"] = op(f"spearman({a},{b})", flow.spearman, out[a], out[b])
        return out

    def check(self, st, out):
        f = Failures()
        g = st.g
        w = g.weights
        c, s = out["current_flow"].values, out["squared_flow"].values
        b2 = out["biharmonic"].values
        f.require(max_rel(s, g.n * w * b2) <= TOL, "squared_flow_centrality", "sum f^2/w_e != n w_e B_e^2")
        f.require(np.all(np.isfinite(b2)) and np.all(b2 > 0), "biharmonic_edge_sq", "nonpositive B_e^2")
        # |f_st(e)| <= 1 for a unit flow, so sum f^2 <= C_e; Cauchy-Schwarz gives C_e^2 <= N sum f^2
        pairs = g.n * (g.n - 1) / 2
        sq = w * s
        ok = np.all(sq <= c * (1 + TOL)) and np.all(c**2 <= pairs * sq * (1 + TOL))
        f.require(ok, "current_flow_centrality", "C_e outside [sum f^2, sqrt(N sum f^2)]")
        if st.hop_sum is None:
            st.hop_sum = hop_distance_sum(g)
        bsum = float(np.sum(out["betweenness"].values))
        f.require(rel(bsum, st.hop_sum) <= TOL, "edge_betweenness", f"sum of betweenness {bsum} != hop sum {st.hop_sum}")
        for key, rho in out.items():
            if key.startswith("rho("):
                f.require(-1.0 <= rho <= 1.0, f"spearman{key[3:]}", f"rho {rho} outside [-1, 1]")
        # squared flow is n * B_e^2 on unit weights, so the rankings agree
        f.require(out["rho(squared_flow,biharmonic)"] >= 0.999, "spearman(squared_flow,biharmonic)",
                  "monotone measures do not rank alike")
        return f.reasons


# ---------------------------------------------------------------------------
# cluster-sbm


# Lowest purity a single k-means run may have.  Single-start Lloyd on
# these SBMs lands in an optimum with two blocks merged (purity 2/3) in
# 20 to 35% of runs; over 1080 runs (120 seeds, each algorithm) none
# scored below 0.66, and on blobs300 every run scored 0.973.  A floor below 2/3
# passes that optimum and fails a clustering near chance (about 0.4).
PURITY_FLOOR = {"sbm": 0.6, "blobs": 0.9}

# The Girvan-Newman inputs are fixed, so are their results.  Vertices in
# their cluster's majority label, by (measure, smoke): with biharmonic2
# the dense SBM sheds two single vertices (50 + 1 + 1 of 150), with
# betweenness the sparse SBM splits into its blocks.
GN_MAJORITY = {("biharmonic2", False): 52, ("biharmonic2", True): 12,
               ("betweenness", False): 60, ("betweenness", True): 23}


def sq_distances(points) -> np.ndarray:
    gram = points @ points.T
    d = np.diag(gram)
    return d[:, None] + d[None, :] - 2.0 * gram


def oracle_sq_distances(g, k: float, r: int | None) -> np.ndarray:
    """Squared distances of the (rank-r) k-harmonic embedding of a connected g.

    Computed from an eigendecomposition of a Laplacian built here from
    the edge list, so that it does not share graphharm's decomposition,
    power or embedding code.
    """
    u, v = _edge_ends(g)
    w = g.weights
    L = np.zeros((g.n, g.n))
    np.add.at(L, (u, v), -w)
    np.add.at(L, (v, u), -w)
    np.fill_diagonal(L, np.bincount(u, w, g.n) + np.bincount(v, w, g.n))
    lam, X = np.linalg.eigh(L)
    lam, X = lam[1:], X[:, 1:]  # one zero eigenvalue: g is connected
    if r is not None:
        lam, X = lam[:r], X[:, :r]
    return sq_distances(X * lam ** (-k / 2.0))


def lloyd_fixed_point(points, assignment, c: int) -> bool:
    """True when every point is nearest to the centroid of its own cluster.

    Lloyd's algorithm stops when the assignment repeats, so a converged
    result is a fixed point of the assign/update step in its embedding.
    """
    a = np.asarray(assignment)
    if a.shape != (len(points),) or set(a.tolist()) != set(range(c)):
        return False
    centroids = np.array([points[a == cid].mean(axis=0) for cid in range(c)])
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=-1)
    return bool(np.all(d2[np.arange(len(a)), a] <= d2.min(axis=1) * (1 + 1e-9)))


def clusters_connected(g, assignment) -> bool:
    """True when each cluster induces a connected subgraph of g."""
    A = g.adjacency() > 0
    a = np.asarray(assignment)
    for cid in np.unique(a):
        members = np.flatnonzero(a == cid)
        sub = A[np.ix_(members, members)]
        reached = np.zeros(len(members), dtype=bool)
        reached[0] = True
        while True:
            grown = reached | sub[reached].any(axis=0)
            if grown.sum() == reached.sum():
                break
            reached = grown
        if not reached.all():
            return False
    return True


@dataclass
class ClusterState:
    kmeans: list  # (name, graph, true labels, k-means seed) for each k-means input
    gn: dict  # measure -> (graph, true labels)
    ring: object
    resilience_seed: int
    smoke: bool
    embeddings: dict = field(default_factory=dict)  # (graph name, label) -> embedding, checked at first use


def checked_embedding(st, name, g, label, k, r, f) -> np.ndarray:
    """graphharm's embedding behind a k-means result, checked once against the oracle."""
    key = (name, label)
    if key not in st.embeddings:
        points = spectra.embedding(harmonic.decomposition(g), k, r)
        expect = oracle_sq_distances(g, k, r)
        ok = np.max(np.abs(sq_distances(points) - expect)) <= TOL * np.max(expect)
        f.require(ok, f"{label}[{name}]", "embedding distances differ from the oracle's")
        st.embeddings[key] = points
    return st.embeddings[key]


# (label, cluster function, embedding parameters (k, r) behind it)
KMEANS = (
    ("low_rank_kharmonic_kmeans", lambda g, ks: cluster.low_rank_kharmonic_kmeans(g, 3, 10.0, None, ks), (10.0, 3)),
    ("kharmonic_kmeans", lambda g, ks: cluster.kharmonic_kmeans(g, 3, 10.0, ks), (10.0, None)),
    ("spectral_clustering", lambda g, ks: cluster.spectral_clustering(g, 3, ks), (0.0, 3)),
)
GN = (("biharmonic2", "girvan_newman[biharmonic2]"), ("betweenness", "girvan_newman[betweenness]"))


class Cluster:
    """Many small decompositions: k-means, Girvan-Newman and resilience loops."""

    name = "cluster-sbm"
    min_passes = 3

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, seed, workdir):
        # The graph families of acceptance criteria 6 and 7.  The seed picks
        # the k-means graphs and seeds and the resilience edges.  The
        # Girvan-Newman inputs are fixed (criterion 6's first SBM, 78
        # deletions): their deletion counts, and so their cost, vary by
        # about 20% across seeds and would swamp the run-to-run spread.
        kmeans = [(f"sbm{i}", *generators.sbm([50, 50, 50], 0.6, 0.2, derive(seed, i)), derive(seed, 10 + i))
                  for i in range(3)]
        pts, labels = io.bundled_points("blobs300")
        kmeans.append(("blobs", generators.knn(pts, 10), labels, derive(seed, 20)))
        ring, _ = io.bundled_points("ring300")
        size = 10 if self.smoke else 50  # smoke mode shrinks GN, which dominates the pass
        gn = {"biharmonic2": generators.sbm([size] * 3, 0.6, 0.2, 0),
              "betweenness": generators.sbm([8 if self.smoke else 20] * 3, 0.5, 0.05, 0)}
        ring_g = generators.knn(ring, 25)
        harmonic.decomposition(kmeans[0][1])  # warm-up
        return ClusterState(kmeans, gn, ring_g, derive(seed, 40), self.smoke)

    def run_pass(self, st, op):
        out = {}
        for name, g, _, ks in st.kmeans:
            algos = KMEANS if name.startswith("sbm") else KMEANS[:1]
            for label, fn, _ in algos:
                out[f"{label}[{name}]"] = op(f"{label}[{name}]", fn, g, ks)
        for measure, label in GN:
            out[label] = op(label, cluster.girvan_newman, st.gn[measure][0], 3, measure)
        for measure in ("resistance", "biharmonic2"):
            label = f"resilience_experiment[{measure}]"
            out[label] = op(label, flow.resilience_experiment, st.ring, measure, 10, 5, st.resilience_seed)
        return out

    def check(self, st, out):
        f = Failures()
        for name, g, labels, _ in st.kmeans:
            for label, _, (k, r) in KMEANS:
                key = f"{label}[{name}]"
                if key not in out:
                    continue
                points = checked_embedding(st, name, g, label, k, r, f)
                assignment = out[key].assignment
                f.require(lloyd_fixed_point(points, assignment, 3), key,
                          "assignment is not a Lloyd fixed point of its embedding")
                purity = cluster.purity(assignment, labels) if len(assignment) == len(labels) else 0.0
                floor = PURITY_FLOOR[name.rstrip("0123456789")]
                f.require(purity >= floor, key, f"purity {purity:.3f} below {floor}")
        for measure, label in GN:
            g, labels = st.gn[measure]
            res = out[label]
            ok = res.c == 3 and set(res.assignment.tolist()) == {0, 1, 2} and clusters_connected(g, res.assignment)
            f.require(ok, label, f"{res.c} clusters, expected 3 connected ones")
            majority = round(cluster.purity(res.assignment, labels) * g.n) if ok else None
            expect = GN_MAJORITY[measure, st.smoke]
            f.require(majority == expect, label, f"{majority} vertices in their cluster's majority, expected {expect}")
        for measure in ("resistance", "biharmonic2"):
            corr = out[f"resilience_experiment[{measure}]"]
            f.require(len(corr) == 5 and all(-1.0 <= r <= 1.0 for r in corr), f"resilience_experiment[{measure}]",
                      f"correlations {corr}")
        return f.reasons


# ---------------------------------------------------------------------------
# cli-cold


@dataclass
class CliState:
    env: dict
    workdir: Path
    script: list  # argv lists, without the interpreter
    in_process: bool


def cli_env() -> dict:
    """Environment for CLI subprocesses: graphharm importable from any cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(graphharm.__file__).resolve().parent.parent)
    return env


class Cli:
    """A scripted session of cold `python -m graphharm.cli` calls."""

    name = "cli-cold"
    min_passes = 2

    def __init__(self, smoke: bool, in_process: bool = False):
        self.smoke = smoke
        self.in_process = in_process

    def setup(self, seed, workdir):
        seeds = ",".join(str(derive(seed, 10 + i)) for i in range(5))
        validate = ["validate", "--json"] + (["--trials", "2", "--n-max", "15"] if self.smoke else [])
        script = [
            ["generate", "--model", "sbm", "--sizes", "50,50,50", "--p-in", "0.6", "--p-out", "0.2",
             "--seed", str(derive(seed, 0)), "--out", "g.txt", "--labels-out", "labels.csv"],
            ["distances", "--graph", "g.txt", "--k", "2", "--pairs", "edges"],
            ["centrality", "--graph", "g.txt", "--measure", "biharmonic2", "--output", "bh.json"],
            ["centrality", "--graph", "g.txt", "--measure", "resistance", "--output", "r.json"],
            ["compare", "--scores-a", "bh.json", "--scores-b", "r.json"],
            ["resilience", "--graph", "g.txt", "--measure", "resistance", "--added", "10",
             "--trials", "2" if self.smoke else "5", "--seed", str(derive(seed, 1))],
            ["cluster", "--graph", "g.txt", "--algo", "lowrank", "--clusters", "3", "--k", "10",
             "--labels", "labels.csv", "--seeds", seeds],
            validate,
        ]
        return CliState(cli_env(), workdir, script, self.in_process)

    def _call(self, st, argv):
        if st.in_process:
            from graphharm import cli

            buf = _stdio.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "graphharm.cli", *argv], cwd=st.workdir, env=st.env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    def run_pass(self, st, op):
        return [op(f"{i}:{argv[0]}", self._call, st, argv) for i, argv in enumerate(st.script)]

    def check(self, st, out):
        f = Failures()
        data = []
        for i, (argv, (code, stdout)) in enumerate(zip(st.script, out)):
            label = f"{i}:{argv[0]}"
            f.require(code == 0, label, f"exit code {code}")
            if code != 0:
                continue
            if "--output" in argv:
                stdout = (st.workdir / argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
            try:
                data.append(json.loads(stdout))
            except json.JSONDecodeError as exc:
                f.require(False, label, f"output is not JSON: {exc}")
        if f.reasons:
            return f.reasons
        gen, dist, bh, r, cmp, res, clu, val = data
        ok = len(dist["rows"]) == gen["m"] and all(math.isfinite(x["value"]) and x["value"] > 0 for x in dist["rows"])
        f.require(ok, "1:distances", "rows do not cover the edges with positive distances")
        f.require(len(bh["edges"]) == gen["m"], "2:centrality", "scores do not cover the edges")
        f.require(len(r["edges"]) == gen["m"], "3:centrality", "scores do not cover the edges")
        f.require(-1.0 <= cmp["spearman"] <= 1.0, "4:compare", "rho outside [-1, 1]")
        f.require(all(-1.0 <= x <= 1.0 for x in res["correlations"]), "5:resilience", "rho outside [-1, 1]")
        # the same clustering through the library, in this process
        argv = st.script[6]
        g = io.load_edge_list(st.workdir / "g.txt")
        _, labels = io.load_points_csv(st.workdir / "labels.csv")
        runs = [cluster.low_rank_kharmonic_kmeans(g, 3, 10.0, None, int(s))
                for s in argv[argv.index("--seeds") + 1].split(",")]
        purity = float(np.mean([cluster.purity(run, labels) for run in runs]))
        ok = clu["assignment"] == runs[0].assignment.tolist() and rel(clu["purity"], purity) <= TOL
        f.require(ok, "6:cluster", "CLI clustering differs from the library's")
        failed = [report["name"] for report in val if not report["passed"]]
        f.require(not failed, "7:validate", f"checks failed: {failed}")
        return f.reasons


WORKLOADS = {wl.name: wl for wl in (Spectral, Centrality, Cluster, Cli)}
