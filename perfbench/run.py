"""specfid benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {catalog,curve,tensor} --seed N \
        --seconds S --trace {0,1}

Run from the root of a specfid checkout.  Each workload runs in worker
processes of its own (worker.py).  Set-up is timed from process start to
`ready` in several workers and reported as the median; the last worker
then runs whole passes over the workload's operations for S seconds.
Outputs are checked against an independent oracle (oracle.py, checks.py)
in this process, which never imports specfid.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
With --trace 1 the metrics are the per-layer ones, recorded by wrapping
specfid's functions (spans.py) in a run of their own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
SETUP_RUNS = 5
DEADLINE_S = 170.0
# One BLAS thread: the operations are small, and a second thread on a
# shared 2-CPU machine adds noise, not speed.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _start_worker(args, work: Path) -> tuple[subprocess.Popen, float]:
    """Start one worker and return it with its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env={**os.environ, **WORKER_ENV})
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, command: str, deadline: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(args, deadline: float) -> tuple[dict, list, list[float]]:
    """Run the workload; return the worker's summary, its outputs and set-up times."""
    setups = []
    runs = 1 if args.trace else SETUP_RUNS
    for i in range(runs):
        work = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}-{i}"
        try:
            proc, setup = _start_worker(args, work)
            setups.append(setup)
            last = i == runs - 1
            out = _finish(proc, "go" if last else "quit", deadline)
            if last:
                summary = json.loads(out.splitlines()[-1])
                outputs = json.loads((work / "outputs.json").read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return summary, outputs, setups


def tail_percentile(n_ops: int) -> int:
    """Highest whole percentile that leaves at least ten operations beyond it."""
    return (100 * n_ops - 1000) // n_ops


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(-(-pct * len(ordered) // 100), 1) - 1]


def end_to_end(summary: dict, setups: list[float]) -> dict:
    op_ms = summary["op_ms"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(summary["wall_s"]), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_tail_ms": {"value": nearest_rank(op_ms, tail_percentile(len(op_ms))),
                       "unit": "ms"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(summary: dict) -> dict:
    """Counts from the first traced pass, self times as medians over traced passes."""
    metrics = {}
    for name, value in summary["spans"][0].items():
        if name.endswith(".self_s"):
            value = statistics.median(spans[name] for spans in summary["spans"])
            unit = "s"
        else:
            unit = {"calls": "count", "work_d3": "d3-computed"}.get(name.rsplit(".", 1)[1], "ratio")
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(summary["traced_wall_s"])
                - statistics.median(summary["plain_wall_s"]))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("catalog", "curve", "tensor"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "specfid" / "__init__.py").is_file():
        print(f"error: no specfid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RUN_DIR.mkdir(exist_ok=True)
    try:
        summary, outputs, setups = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        problems = checks.CHECKS[args.workload](args.seed, outputs)
    except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
        problems = [f"malformed output: {exc!r}"]
    if not summary["deterministic"]:
        problems.append("passes over the same inputs gave different outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = per_layer(summary) if args.trace else end_to_end(summary, setups)
    if args.trace:
        trace_file = RUN_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(summary["spans"], indent=1))
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
