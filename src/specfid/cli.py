"""Command line driver for fidelities, sweeps, and verification suites.

Subcommands: fidelity, sweep, verify, dpi-search, dpi-replay, fvg.
Settings resolve as flags, then a JSON config file, then defaults.  All
numbers print with 17 significant digits.  JSON output carries a
timestamp unless suppressed; CSV output never does.  Exit codes: 0 on
success, 1 when a run produces an unexpected verdict (or a replay
deviates), 2 on input, validation, or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import TOL
from .errors import ParamError, SpecfidError, ToleranceError
from .fidelity import (
    fvg_bounds,
    matsumoto_fidelity,
    sandwiched_renyi,
    spectral_fidelity,
    uhlmann_fidelity,
)
from .serialize import dumps, state_from_json, write_csv
from .states import DensityMatrix, from_bloch
from .verify import (
    list_properties,
    replay_reference_counterexample,
    run_suite,
    search_dpi_violation,
    second_fvg_failure,
    t_sweep,
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation.

    to_json gives the record of a run's resolved settings.
    """

    command: str
    seed: int = 42
    samples: int | None = None
    dims: tuple[int, ...] | None = None
    t: float | None = None
    fmt: str = "json"
    output: str | None = None
    no_timestamp: bool = False
    alpha: tuple[float, ...] = ()
    tol_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.fmt not in ("json", "csv"):
            raise ParamError(f"format must be json or csv, got {self.fmt!r}")
        if self.samples is not None and self.samples < 1:
            raise ParamError(f"samples must be positive, got {self.samples}")
        if self.dims is not None and any(d < 2 for d in self.dims):
            raise ParamError(f"dims must all be at least 2, got {list(self.dims)}")

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "samples": self.samples,
            "dims": list(self.dims) if self.dims is not None else None,
            "t": self.t,
            "format": self.fmt,
            "output": self.output,
            "no_timestamp": self.no_timestamp,
            "alpha": list(self.alpha),
            "tol_overrides": [[k, v] for k, v in self.tol_overrides],
        }


def _parse_ints(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    return tuple(int(part) for part in str(text).split(",") if part != "")


def _parse_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise ParamError(f"tolerance override must be NAME=VALUE, got {text!r}")
    return name, float(value)


def _setting(ns: argparse.Namespace, config: dict, key: str, default):
    value = getattr(ns, key, None)
    if value is None:
        value = config.get(key, default)
    return value


# The JSON values a config file may give each setting (type(True) is bool).
_CONFIG_VALUES = {
    "seed": lambda v: type(v) is int,
    "samples": lambda v: type(v) in (int, type(None)),
    "dims": lambda v: type(v) in (str, type(None))
    or type(v) is list and all(type(d) is int for d in v),
    "t": lambda v: type(v) in (int, float, type(None)),
    "format": lambda v: type(v) is str,
    "output": lambda v: type(v) in (str, type(None)),
    "no_timestamp": lambda v: type(v) is bool,
    "alpha": lambda v: type(v) is list and all(type(a) in (int, float) for a in v),
    "tol_overrides": lambda v: type(v) is dict
    and all(type(a) in (int, float) for a in v.values()),
}


def _resolve(ns: argparse.Namespace, config: dict) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    unknown = sorted(set(config) - set(_CONFIG_VALUES))
    if unknown:
        raise ParamError(f"unknown config key {unknown[0]!r}; known: {', '.join(_CONFIG_VALUES)}")
    for key, valid in _CONFIG_VALUES.items():
        if key in config and not valid(config[key]):
            raise ParamError(f"config {key!r} has the wrong type: {config[key]!r}")
    dims = _setting(ns, config, "dims", None)
    alpha = _setting(ns, config, "alpha", None)
    overrides = list(config.get("tol_overrides", {}).items())
    overrides.extend(getattr(ns, "tol_override", None) or [])
    t = _setting(ns, config, "t", None)
    return RunConfig(
        command=ns.command,
        seed=_setting(ns, config, "seed", 42),
        samples=_setting(ns, config, "samples", None),
        dims=_parse_ints(dims) if dims is not None else None,
        t=None if t is None else float(t),
        fmt=_setting(ns, config, "format", "json"),
        output=_setting(ns, config, "output", None),
        no_timestamp=_setting(ns, config, "no_timestamp", False),
        alpha=tuple(float(a) for a in alpha) if alpha is not None else (),
        tol_overrides=tuple(
            (name, float(value)) for name, value in overrides
        ),
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        Path(cfg.output).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_record(record: dict, cfg: RunConfig) -> None:
    """One JSON record, or its scalar fields flattened to a CSV row."""
    if cfg.fmt == "json":
        if not cfg.no_timestamp:
            record = dict(record)
            record["timestamp"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
        _emit(dumps(record), cfg)
        return
    flat: dict = {}
    for key, value in record.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                if not isinstance(v, (dict, list)):
                    flat[f"{key}_{sub}"] = v
        elif not isinstance(value, list):
            flat[key] = value
    _emit(write_csv(list(flat), [list(flat.values())]), cfg)


def _load_states(ns: argparse.Namespace) -> tuple[DensityMatrix, DensityMatrix]:
    """Two states from positional files and/or --bloch vectors, in order."""
    states = []
    for path in getattr(ns, "states", None) or []:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ParamError(f"cannot read state file {path!r}: {exc}") from exc
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise ParamError(f"state file {path!r} is not valid JSON: {exc}") from exc
        states.append(state_from_json(record))
    for spec in getattr(ns, "bloch", None) or []:
        parts = [float(p) for p in str(spec).split(",")]
        if len(parts) != 3:
            raise ParamError(f"--bloch needs rx,ry,rz, got {spec!r}")
        states.append(from_bloch(parts))
    if len(states) != 2:
        raise ParamError(f"exactly two states required, got {len(states)}")
    return states[0], states[1]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fidelity(ns: argparse.Namespace, cfg: RunConfig) -> int:
    rho, sigma = _load_states(ns)
    t = 0.5 if cfg.t is None else float(cfg.t)
    result = spectral_fidelity(rho, sigma, t)
    record = {"t": result.t, "value": result.value, "method": result.method}
    # A rank-one state has a closed form, printed beside the general value.
    if rho.rank == 1:
        p = float(np.real(np.trace(rho.mat @ sigma.mat)))
        record["cross_checks"] = {"pure_rho_closed_form": max(p, 0.0) ** t}
    elif sigma.rank == 1:
        q = float(np.real(np.trace(sigma.mat @ rho.mat)))
        record["cross_checks"] = {"pure_sigma_closed_form": max(q, 0.0) ** (1.0 - t)}
    if ns.all:
        record["uhlmann"] = uhlmann_fidelity(rho, sigma).value
        record["matsumoto"] = matsumoto_fidelity(rho, sigma).value
        alphas = cfg.alpha or (2.0,)
        record["renyi"] = {
            repr(float(a)): sandwiched_renyi(rho, sigma, a) for a in alphas
        }
    _emit_record(record, cfg)
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParamError(f"grid must be start:stop:steps, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if not np.isfinite([start, stop]).all():
        raise ParamError(f"grid start and stop must be finite, got {spec!r}")
    if steps < 2 or stop <= start:
        raise ParamError(f"grid needs stop > start and at least 2 steps, got {spec!r}")
    width = (stop - start) / (steps - 1)
    return [round(start + k * width, 12) for k in range(steps)]


def _cmd_sweep(ns: argparse.Namespace, cfg: RunConfig) -> int:
    rho, sigma = _load_states(ns)
    grid = _parse_grid(ns.t_grid)
    curve = t_sweep(rho, sigma, grid)
    n = len(curve.ts)
    rows = []
    for i in range(n):
        interior = 1 <= i <= n - 2 and n >= 3
        rows.append(
            {
                "t": curve.ts[i],
                "value": curve.values[i],
                "log_value": curve.log_values[i],
                "second_diff": curve.second_diff[i - 1] if interior else None,
                "log_second_diff": curve.log_second_diff[i - 1] if interior else None,
            }
        )
    if cfg.fmt == "csv":
        header = ["t", "value", "log_value", "second_diff", "log_second_diff"]
        table = [
            ["" if row[k] is None else row[k] for k in header] for row in rows
        ]
        _emit(write_csv(header, table), cfg)
    else:
        _emit_record({"rows": rows}, cfg)
    return 0


def _cmd_verify(ns: argparse.Namespace, cfg: RunConfig) -> int:
    requested: list[str] = []
    for chunk in ns.properties or []:
        requested.extend(p for p in chunk.split(",") if p)
    if ns.all or not requested or requested == ["all"]:
        requested = list(list_properties())
    reports = [
        run_suite(
            pid,
            dims=list(cfg.dims) if cfg.dims else None,
            n_samples=cfg.samples,
            rng_seed=cfg.seed,
            t=cfg.t,
        )
        for pid in requested
    ]
    if cfg.fmt == "csv":
        header = ["property", "verdict", "max_violation", "seed", "samples"]
        rows = [
            [r.property_id, r.verdict, r.max_violation, r.seed, r.samples]
            for r in reports
        ]
        _emit(write_csv(header, rows), cfg)
    else:
        _emit_record({"reports": [r.to_json() for r in reports]}, cfg)
    return 1 if any(r.verdict == "unexpected" for r in reports) else 0


def _cmd_dpi_search(ns: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.t is None:
        raise ParamError("dpi-search requires --t")
    if cfg.dims and len(cfg.dims) > 1:
        raise ParamError(f"dpi-search takes one dimension, got {list(cfg.dims)}")
    trials = cfg.samples if cfg.samples is not None else 10000
    dim = cfg.dims[0] if cfg.dims else 2
    witness = search_dpi_violation(
        cfg.t,
        dim=dim,
        n_trials=trials,
        rng_seed=cfg.seed,
    )
    at_midpoint = abs(cfg.t - 0.5) <= 1e-12
    if witness is None:
        verdict = "holds" if at_midpoint else "unexpected"
    else:
        verdict = "unexpected" if at_midpoint else "fails_as_predicted"
    record = {
        "t": cfg.t,
        "dim": dim,
        "trials": trials,
        "channel_family": "pinching",
        "verdict": verdict,
        "witness": witness.to_json() if witness is not None else None,
    }
    _emit_record(record, cfg)
    return 1 if verdict == "unexpected" else 0


def _cmd_dpi_replay(ns: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        witness = replay_reference_counterexample()
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"verdict": "fails_as_predicted"}
    record.update(witness.to_json())
    _emit_record(record, cfg)
    return 0


def _cmd_fvg(ns: argparse.Namespace, cfg: RunConfig) -> int:
    t = 0.5 if cfg.t is None else cfg.t
    if ns.c is not None:
        if getattr(ns, "states", None) or getattr(ns, "bloch", None):
            raise ParamError("--c replaces state inputs; give one or the other")
        result = second_fvg_failure(t, ns.c)
        record = {
            "t": t,
            "c": ns.c,
            "half_trace_dist": result.half_trace_dist,
            "rhs": result.rhs,
            "violated": result.violated,
        }
    else:
        rho, sigma = _load_states(ns)
        bounds = fvg_bounds(rho, sigma, t)
        record = {
            "t": t,
            "lower_gap": bounds.lower_gap,
            "trace_dist_half": bounds.trace_dist_half,
            "second_rhs": bounds.second_rhs,
        }
    _emit_record(record, cfg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, sampling: bool = False) -> None:
    if sampling:  # only the seeded commands read these
        sub.add_argument("--seed", type=int, help="suite seed (default 42)")
        sub.add_argument("--samples", type=int, help="sample-count override")
        sub.add_argument("--dims", help="comma-separated dimension list")
    sub.add_argument("--tol-override", action="append", type=_parse_override,
                     metavar="NAME=VALUE", help="set one tolerance by name")
    sub.add_argument("--format", choices=("json", "csv"), help="output format")
    sub.add_argument("--output", help="write output to this file instead of stdout")
    sub.add_argument("--no-timestamp", action="store_const", const=True,
                     help="suppress the timestamp field in JSON output")
    sub.add_argument("--config", help="JSON config file; flags take precedence")


def _add_state_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("states", nargs="*", help="density-matrix JSON files")
    sub.add_argument("--bloch", action="append", metavar="RX,RY,RZ",
                     help="qubit state from a Bloch vector (after any files)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specfid",
        description="Weighted spectral fidelities, matrix means, and property suites.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fid = subs.add_parser("fidelity", help="one fidelity evaluation")
    _add_state_inputs(fid)
    fid.add_argument("--t", type=float, help="weight parameter (default 0.5)")
    fid.add_argument("--all", action="store_true",
                     help="also print Uhlmann, Matsumoto, and Renyi values")
    fid.add_argument("--alpha", action="append", type=float,
                     help="Renyi order for --all (repeatable, default 2)")
    _add_common(fid)
    fid.set_defaults(func=_cmd_fidelity)

    sweep = subs.add_parser("sweep", help="fidelity curve over a parameter grid")
    _add_state_inputs(sweep)
    sweep.add_argument("--t-grid", default="0:1:21", metavar="START:STOP:STEPS",
                       help="uniform grid specification (default 0:1:21)")
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    ver = subs.add_parser("verify", help="run property-verification suites")
    ver.add_argument("properties", nargs="*",
                     help="property ids (comma- or space-separated); empty or 'all' runs every suite")
    ver.add_argument("--all", action="store_true", help="run every registered suite")
    ver.add_argument("--t", type=float, help="parameter for t-indexed suites")
    _add_common(ver, sampling=True)
    ver.set_defaults(func=_cmd_verify)

    search = subs.add_parser("dpi-search", help="seeded search for a DPI violation")
    search.add_argument("--t", type=float, help="weight parameter (required)")
    _add_common(search, sampling=True)
    search.set_defaults(func=_cmd_dpi_search)

    replay = subs.add_parser("dpi-replay",
                             help="replay the stored qubit counterexample")
    _add_common(replay)
    replay.set_defaults(func=_cmd_dpi_replay)

    fvg = subs.add_parser("fvg", help="trace-distance bound audit")
    _add_state_inputs(fvg)
    fvg.add_argument("--t", type=float, help="weight parameter (default 0.5)")
    fvg.add_argument("--c", type=float,
                     help="pure-pair overlap mode: audit the upper bound at overlap c")
    _add_common(fvg)
    fvg.set_defaults(func=_cmd_fvg)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first `main` call and reused after.

    Parsing keeps no state on the tree, and building it costs more than
    a short command does.
    """
    return build_parser()


_NEGATIVE_VECTOR = re.compile(r"-[0-9.]")


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """Join `--bloch -0.5,0.1,0.4` into `--bloch=-0.5,0.1,0.4`.

    argparse reads a separate value that starts with a minus sign and is
    not a plain number as an option, so a Bloch vector with a negative
    first component would otherwise be rejected.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--bloch" and _NEGATIVE_VECTOR.match(arg):
            out[-1] = f"--bloch={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _shared_parser().parse_args(_attach_negative_vectors(argv))
    try:
        config = {}
        if getattr(ns, "config", None):
            config = json.loads(Path(ns.config).read_text())
            if not isinstance(config, dict):
                raise ParamError("config file must hold a JSON object")
        cfg = _resolve(ns, config)
        with TOL.scoped():
            for name, value in cfg.tol_overrides:
                TOL.override(name, value)
            return ns.func(ns, cfg)
    except (SpecfidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
