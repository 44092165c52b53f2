"""One workload in one process: set-up, then timed passes over its operations.

Started by run.py.  After set-up (imports, inputs, state files and one
warm-up operation) it prints `ready` and waits for a line on stdin:
`quit` ends it there, so run.py can time set-up alone; `go` runs the
timed passes, writes the first pass's outputs to outputs.json in its
--work directory for checking, and prints a JSON summary as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import specfid.cli  # noqa: E402
import specfid.fidelity  # noqa: E402
import specfid.states  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = specfid.cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _cli_failed(out: dict) -> bool:
    # exit status 1 is a verdict the report explains; 2 is an input error
    return out["rc"] not in (0, 1) or not out["stdout"]


def catalog(seed: int, work: Path):
    ops = [(label, lambda argv=argv: _cli(argv)) for label, argv in wl.catalog_ops(seed)]
    kind, pid = wl.CATALOG_WARMUP
    warmup = lambda: _cli([kind, pid, "--seed", str(seed), "--no-timestamp"])  # noqa: E731
    return ops, warmup, _cli_failed


def curve(seed: int, work: Path):
    ops = []
    for i, pair in enumerate(wl.curve_pairs(seed)):
        paths = []
        for name in ("rho", "sigma"):
            path = work / f"{name}{i}.json"
            path.write_text(json.dumps(wl.state_record(pair[name])))
            paths.append(str(path))
        argv = ["sweep", *paths, "--t-grid", f"0:1:{wl.CURVE_STEPS}", "--no-timestamp"]
        ops.append((f"sweep:{i}", lambda argv=argv: _cli(argv)))
    return ops, ops[0][1], _cli_failed


def tensor(seed: int, work: Path):
    dm = specfid.states.DensityMatrix
    fid = specfid.fidelity
    ops = []
    for i, pair in enumerate(wl.tensor_pairs(seed)):
        rho, sigma, t = dm(pair["rho"]), dm(pair["sigma"]), pair["t"]

        def spectral(i=i, rho=rho, sigma=sigma, t=t):
            return {"kind": "spectral", "pair": i,
                    "value": fid.spectral_fidelity(rho, sigma, t).value}

        ops.append((f"spectral:{i}", spectral))
        if pair["uhlmann"]:
            def uhlmann(i=i, rho=rho, sigma=sigma):
                return {"kind": "uhlmann", "pair": i,
                        "value": fid.uhlmann_fidelity(rho, sigma).value}

            ops.append((f"uhlmann:{i}", uhlmann))
    failed = lambda out: not np.isfinite(out["value"])  # noqa: E731
    return ops, ops[0][1], failed


BUILD = {"catalog": catalog, "curve": curve, "tensor": tensor}


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    Read from VmHWM: ru_maxrss also keeps the high-water mark of the
    parent's address space copied at fork, so it would count run.py.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(ops, is_failed) -> dict:
    times, outputs, failed = [], [], 0
    start = time.perf_counter()
    for _, op in ops:
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            out = None
        times.append(time.perf_counter() - t0)
        if out is None or is_failed(out):
            failed += 1
            out = None
        outputs.append(out)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "times": times, "failed": failed, "outputs": outputs}


def run_for(seconds: float, ops, is_failed, tracer_factory=None, keep_first=True):
    """Whole passes until the next would overrun `seconds`; at least one.

    Only the first pass keeps its outputs; later passes keep a digest, so
    memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        with tracer or contextlib.nullcontext():
            result = run_pass(ops, is_failed)
        if tracer:
            result["spans"] = tracer.metrics()
        digest = hashlib.sha256()
        for out in result["outputs"]:  # one output at a time: no large temporaries
            digest.update(json.dumps(out).encode())
        result["digest"] = digest.hexdigest()
        if passes or not keep_first:
            del result["outputs"]
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + result["wall_s"] > seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    ops, warmup, is_failed = BUILD[args.workload](args.seed, args.work)
    warmup()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    summary: dict = {}
    if args.trace:
        plain = run_for(args.seconds / 2, ops, is_failed)
        traced = run_for(args.seconds / 2, ops, is_failed, spans.Tracer, keep_first=False)
        passes = plain + traced
        summary["plain_wall_s"] = [p["wall_s"] for p in plain]
        summary["traced_wall_s"] = [p["wall_s"] for p in traced]
        summary["spans"] = [p["spans"] for p in traced]
    else:
        passes = run_for(args.seconds, ops, is_failed)
    summary["peak_rss_mb"] = peak_rss_mb()
    summary["deterministic"] = len({p["digest"] for p in passes}) == 1
    summary["attempted"] = len(ops) * len(passes)
    summary["failed"] = sum(p["failed"] for p in passes)
    summary["wall_s"] = [p["wall_s"] for p in passes]
    # each operation's median over the passes, so one slow pass of one
    # operation does not move the percentiles
    summary["op_ms"] = [1e3 * statistics.median(times)
                        for times in zip(*(p["times"] for p in passes))]
    (args.work / "outputs.json").write_text(json.dumps(passes[0]["outputs"]))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
