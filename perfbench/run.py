"""graphharm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload spectral-2000 --seed 0 --seconds 35 --trace 0

Run from the root of a graphharm checkout; the package is imported from
its `src/`.  Each workload runs in fresh worker processes (worker.py) with
GRAPHHARM_THREADS in their environment, as graphharm reads it at import.
Load model: one closed-loop client; each call starts when the previous
one has returned.

--trace 0  sets up SETUPS times in fresh processes (setup_s is their
           median), then the last process runs timed passes for
           --seconds and reports the end-to-end metrics from each
           call's fastest time over those passes.
--trace 1  one process traces set-up, alternates untraced and traced
           passes, and reports the per-layer metrics (see README.md).

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  `attempted` counts the calls into graphharm (ops_total);
`failed` counts those that raised or whose output failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# One BLAS thread: on a shared two-core machine two threads gave more
# run-to-run spread for the same median speed.
THREADS = "1"
# Every worker of a run is killed this long after the run starts: set-ups
# and the checks get a fixed margin, passes twice --seconds.
DEADLINE_MARGIN_S = 100.0


def worker_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["GRAPHHARM_THREADS"] = THREADS
    env["PYTHONPATH"] = str(src)
    return env


def spawn(args, role: str, workdir: Path, env: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None for the setup role)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--role", role] + (["--smoke"] if args.smoke else [])
    workdir.mkdir()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        killed = " (killed at the deadline)" if perf_counter() >= deadline else ""
        raise RuntimeError(f"{role} worker for {args.workload} exited with code {proc.returncode}{killed}")
    return setup_s, (json.loads(rest.strip().splitlines()[-1]) if role != "setup" else None)


def main() -> int:
    parser = argparse.ArgumentParser(description="graphharm benchmark")
    parser.add_argument("--workload", required=True, choices=("spectral-2000", "centrality-600", "cluster-sbm", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"time to measure; the run is stopped after {DEADLINE_MARGIN_S:g} s + 2 x SECONDS")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to check that every metric is emitted")
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "graphharm" / "__init__.py").is_file():
        print(f"error: no graphharm package under {src}; run from a graphharm checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = perf_counter() + DEADLINE_MARGIN_S + 2.0 * args.seconds
    env = worker_env(src)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        if args.trace:
            _, result = spawn(args, "trace", scratch / "trace", env, deadline)
        else:
            setups = [spawn(args, "setup", scratch / f"setup{i}", env, deadline)[0] for i in range(SETUPS - 1)]
            setup_s, result = spawn(args, "measure", scratch / "measure", env, deadline)
            setups.append(setup_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted, failed = result["attempted"], result["failed"]
    for error in dict.fromkeys(result["errors"]):
        print(f"failed: {error}", file=sys.stderr)
    if not result["pass_s"]:
        print(f"error: no pass of {args.workload} completed", file=sys.stderr)
        return 1
    if args.trace:
        # a layer the workload does not use reports 0
        layers = result.get("layers", {})
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        what = f"{result['passes']} passes, half of them traced"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "session_s": result["session_s"],
            "call_p50_s": result["call_p50_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        what = f"{SETUPS} set-ups, {result['passes']} passes"
    print(f"# {args.workload} seed {args.seed}: {what}, {attempted} calls")
    print(f"# ops_total {attempted}  ops_failed {failed}  ops_failed_frac {failed / max(attempted, 1):.6g}")
    print("# facts " + json.dumps(result["facts"], sort_keys=True))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
