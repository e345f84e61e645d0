"""One benchmark process: set up a workload, run timed passes, report.

run.py starts this script in a fresh interpreter with GRAPHHARM_THREADS
and an absolute PYTHONPATH in its environment and a scratch directory as
its working directory.  It writes two lines to stdout: ``ready`` once
set-up is complete, then one JSON object with the results.

Roles:
  setup    set up, report ready, exit (run.py times set-up from the spawn)
  measure  set up, then passes with tracing off for --seconds seconds
  trace    trace set-up, then alternate untraced and traced passes for
           --seconds; reports per-layer numbers
"""

import graphharm  # first: graphharm reads GRAPHHARM_THREADS before numpy loads

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
import workloads


class PassAborted(Exception):
    """A call in the pass raised; the rest of the pass cannot run."""


class Ops:
    """Counts the calls into graphharm, times each, and records failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.call_s: list[float] = []  # wall time of each call of the current pass
        self.pass_call_s: list[list[float]] = []  # call_s of each completed pass
        self.errors: list[str] = []

    def __call__(self, label, fn, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.fail(label, traceback.format_exc())
            raise PassAborted(label) from exc
        self.call_s.append(perf_counter() - t0)
        return result

    def fail(self, label, reason):
        self.failed += 1
        self.errors.append(f"{label}: {reason}")


def run_passes(wl, state, ops, seconds, min_passes, tr=None):
    """Timed passes until the next one would end after `seconds`; at least `min_passes`.

    Returns the wall time of each pass that completed, and, when a tracer
    is given, the spans of each of those passes.  Outputs are checked
    after each pass, outside its timed section.
    """
    times, traces = [], []
    while True:
        ops.call_s = []
        t0 = perf_counter()
        try:
            out = wl.run_pass(state, ops)
        except PassAborted:
            return times, traces
        times.append(perf_counter() - t0)
        ops.pass_call_s.append(ops.call_s)
        if tr is not None:
            traces.append(tr.take())
        for label, reason in wl.check(state, out).items():
            ops.fail(label, reason)
        del out  # the next pass must not run with this one's outputs resident
        if tr is not None:
            tr.take()  # drop the spans of the check
        spent = sum(times)
        if len(times) >= min_passes and spent + spent / len(times) > seconds:
            return times, traces


def facts() -> dict:
    """Machine and build facts recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    src = Path(graphharm.__file__).resolve().parent
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "graphharm_threads": os.environ.get("GRAPHHARM_THREADS", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "commit": git_commit(src.parent.parent),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py")),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at `root`; 'unknown' when `root` is not a git checkout."""
    if not (root / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _timed_run(argv, env) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120, check=True)
    return perf_counter() - t0, proc.stderr


def parse_importtime(text: str) -> tuple[float, float]:
    """(graphharm import s, scipy import s) from `python -X importtime` output.

    The graphharm figure is the cumulative time of the top-level graphharm
    imports; the scipy figure sums every scipy module imported by a
    non-scipy module, so nested scipy imports are not counted twice.
    """
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    top = min((indent for _, indent, _ in rows), default=0)
    own = sum(cum for cum, indent, name in rows if indent == top and name.split(".")[0] == "graphharm")
    scipy, stack = 0, []
    for cum, indent, name in reversed(rows):  # reversed post-order is pre-order
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name.split(".")[0] == "scipy" and not (stack and stack[-1][1].split(".")[0] == "scipy"):
            scipy += cum
        stack.append((indent, name))
    return own / 1e6, scipy / 1e6


def cold_start(repeats: int = 3) -> dict:
    """Interpreter start and CLI import times, medians over fresh processes."""
    env = workloads.cli_env()
    interp = [_timed_run([sys.executable, "-c", "pass"], env)[0] for _ in range(repeats)]
    imports = [parse_importtime(_timed_run([sys.executable, "-X", "importtime", "-c", "import graphharm.cli"], env)[1])
               for _ in range(repeats)]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import_scipy_s": statistics.median(i[1] for i in imports),
    }


def layer_metrics(setup_trace, pass_traces, untraced_s, traced_s) -> dict:
    """Per-layer numbers: set-up's share plus the median traced pass's share."""
    setup = tracer.summarize(*setup_trace)
    passes = [tracer.summarize(*t) for t in pass_traces]
    keys = set(setup).union(*passes)
    out = {k: setup.get(k, 0.0) + statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
    out["spectra.eigh_gflops"] = out["spectra.eigh_gflop"] / out["spectra.decompose_s"] if out.get("spectra.decompose_s") else 0.0
    out["spectra.post_eigh_ratio"] = statistics.median(tracer.post_eigh_ratio(spans) for spans, _ in pass_traces)
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return out


def measure(wl, state, ops, seconds) -> dict:
    """Untraced passes: the end-to-end numbers.

    A call's time is its fastest over the run's passes.  Other tenants of
    a shared machine slow single calls by 10-40% for seconds at a time,
    so the median of a run's few passes spread 20-35% from run to run;
    the fastest time of each call is the one least disturbed.
    """
    cli = isinstance(wl, workloads.Cli)
    times, _ = run_passes(wl, state, ops, seconds, wl.min_passes)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    fastest = [min(call) for call in zip(*ops.pass_call_s)]  # one per call of the script
    session_s = sum(fastest)
    return {
        "passes": len(times),
        "pass_s": times,
        "session_s": session_s,
        # A library pass mixes calls whose costs differ a thousandfold, so its
        # median call falls between cost classes and jumps from run to run;
        # there the call time reported is the mean call of the session.
        "call_p50_s": statistics.median(fastest or [0.0]) if cli else session_s / max(len(fastest), 1),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def trace(wl, state, ops, seconds, tr, setup_trace) -> dict:
    """Untraced and traced passes, alternating so both see the same machine."""
    untraced, traced, traces = [], [], []
    while True:
        done, _ = run_passes(wl, state, ops, 0, 1)
        tr.install()
        done_traced, spans = run_passes(wl, state, ops, 0, 1, tr)
        tr.uninstall()
        untraced += done
        traced += done_traced
        traces += spans
        spent = sum(untraced) + sum(traced)
        if not (done and done_traced) or spent + spent / len(traced) > seconds:
            break
    result = {"passes": len(untraced) + len(traced), "pass_s": traced}
    if untraced and traced:
        result["layers"] = {**layer_metrics(setup_trace, traces, untraced, traced), **cold_start()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    # traced, the CLI session runs in-process through graphharm.cli.main
    wl = cls(args.smoke, in_process=True) if cls is workloads.Cli and args.role == "trace" else cls(args.smoke)
    tr = tracer.Tracer(graphharm) if args.role == "trace" else None
    if tr is not None:
        tr.install()
    state = wl.setup(args.seed, Path.cwd())
    print("ready", flush=True)
    if args.role == "setup":
        return 0

    ops = Ops()
    if tr is None:
        result = measure(wl, state, ops, args.seconds)
    else:
        setup_trace = tr.take()
        tr.uninstall()
        result = trace(wl, state, ops, args.seconds, tr, setup_trace)
    result.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors, facts=facts())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
