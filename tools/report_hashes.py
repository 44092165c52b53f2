"""Print a hash of each fixed-seed output, to show a refactor changed no byte.

Usage (from the repository root):

    PYTHONPATH=src python tools/report_hashes.py

Each line is `sha256-prefix bytes rc label`.  The CLI outputs are made
by running `specfid.cli.main` in-process with `--no-timestamp`; the last
lines hash in-process sweeps of every suite across seeds, sample
counts, dims lists and t values, of `search_dpi_violation`, of the
public matrix functions on seeded pairs, of the states the public
state builders return, and of one-point fidelities.  Run it on two
checkouts and compare the lines: hashes depend on the numpy and BLAS
build, so they are compared between commits on one machine, never
pinned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools

import numpy as np

from specfid import (
    FidelityValue,
    apply,
    frac_power,
    geometric_mean,
    list_properties,
    matsumoto_fidelity,
    orthogonal_pair,
    pinching,
    random_density,
    riccati_solution,
    run_suite,
    sandwiched_renyi,
    search_dpi_violation,
    spectral_fidelity,
    spectral_fidelity_curve,
    tensor,
    trace_norm,
    uhlmann_fidelity,
    variational_objective,
    weighted_spectral_mean,
)
from specfid.cli import main
from specfid.serialize import dumps

_PAIR = ["--bloch", "0.3,0.1,0.2", "--bloch", "0,0.5,0.4"]
_VERIFY = ["verify", "--all", "--no-timestamp"]
_DPI = ["dpi-search", "--no-timestamp"]
_VD = ["verify", "variational_dominance", "--no-timestamp"]

CLI_RUNS = [
    _VERIFY + ["--seed", "42"],
    _VERIFY + ["--seed", "7"],
    _VERIFY + ["--seed", "2026"],
    _VERIFY + ["--seed", "42", "--format", "csv"],
    _VERIFY + ["--seed", "42", "--t", "0.25"],
    _VERIFY + ["--seed", "42", "--t", "0.75"],
    _VERIFY + ["--seed", "42", "--dims", "3,5"],
    _VERIFY + ["--seed", "42", "--samples", "37"],
    _VERIFY + ["--seed", "5", "--dims", "2,4,6", "--samples", "300"],
    _VERIFY + ["--seed", "4294967296", "--samples", "40"],
    # repeated, unsorted dims: trials group by dim value, ties break across dims
    _VERIFY + ["--seed", "3", "--dims", "4,2,4", "--samples", "40"],
    _DPI + ["--t", "0.8"],
    _DPI + ["--t", "0.8", "--dims", "3"],
    _DPI + ["--t", "0.5", "--samples", "2000"],
    _DPI + ["--t", "0.5", "--dims", "3", "--samples", "1000"],
    ["verify", "dpi_midpoint", "--no-timestamp", "--dims", "2,3,5", "--samples", "600"],
    _VD + ["--seed", "7", "--dims", "2,3,4,5,6", "--samples", "30"],
    _VD + ["--seed", "7", "--dims", "2,3,4,5,6", "--samples", "30", "--t", "0.45"],
    ["fidelity", "--no-timestamp", *_PAIR, "--all", "--alpha", "2", "--alpha", "0.5"],
    ["fidelity", "--no-timestamp", "--bloch", "0,0,1", "--bloch", "0.3,0.1,0.2"],
    ["fidelity", "--no-timestamp", "--bloch", "0.3,0.1,0.2", "--bloch", "0,0,1"],
    ["fvg", "--no-timestamp", "--c", "0.5", "--t", "0.25"],
    ["sweep", "--no-timestamp", *_PAIR, "--t-grid", "0:1:201"],
    ["sweep", "--no-timestamp", "--bloch", "0,0,1", "--bloch", "1,0,0",
     "--t-grid=-1:2:201"],
    ["sweep", "--no-timestamp", *_PAIR, "--t-grid", "0:1:201", "--format", "csv"],
    ["sweep", "--no-timestamp", "--bloch", "0,0,1", "--bloch", "0,0,-1",
     "--t-grid", "0:1:5"],
]


def _line(label: str, data: bytes, rc: int) -> str:
    return f"{hashlib.sha256(data).hexdigest()[:16]} {len(data)} rc{rc} {label}"


def cli_line(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = main(argv)
    return _line(" ".join(argv), out.getvalue().encode(), rc)


def _outcome(fn) -> str:
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        value = fn()
    except Exception as exc:  # every outcome is part of the hashed behaviour
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, np.ndarray):
        return value.tobytes().hex()
    if isinstance(value, FidelityValue):
        # The result, not the dataclass repr, which names every declared field.
        return repr((value.value, value.t, value.method))
    return repr(value)


def suite_sweep() -> bytes:
    parts = []
    grid = itertools.product(
        sorted(list_properties()),
        (0, 1, 5),
        (1, 3, 7),
        (None, [2], [3, 5], [4, 2, 6]),
        (None, 0.25, 0.75),
    )
    for name, seed, samples, dims, t in grid:
        def report():
            r = run_suite(name, dims=dims, n_samples=samples, rng_seed=seed, t=t)
            return dumps(r.to_json()) + repr((r.tolerance, r.verdict))
        parts.append(_outcome(report))
    return "\n".join(parts).encode()


def dpi_sweep() -> bytes:
    parts = []
    for t, dim, seed in itertools.product((0.2, 0.5, 0.8), (2, 3), (1, 2)):
        def search():
            w = search_dpi_violation(t, dim=dim, n_trials=300, rng_seed=seed)
            return None if w is None else dumps(w.to_json())
        parts.append(_outcome(search))
    return "\n".join(parts).encode()


def function_sweep() -> bytes:
    """Public matrix functions on seeded pairs of every rank at d = 2..4."""
    rng = np.random.default_rng(2024)
    parts = []
    for dim in (2, 3, 4):
        for rank_a, rank_b in itertools.product(range(1, dim + 1), repeat=2):
            rho = random_density(dim, rank_a, rng)
            sigma = random_density(dim, rank_b, rng)
            a, b = rho.mat, sigma.mat
            calls = [
                lambda: spectral_fidelity_curve(rho, sigma, [-0.5, 0, 0.3, 0.5, 1, 1.5],
                                                extended=True),
                lambda: uhlmann_fidelity(rho, sigma),
                lambda: matsumoto_fidelity(rho, sigma),
                lambda: sandwiched_renyi(rho, sigma, 0.5),
                lambda: sandwiched_renyi(rho, sigma, 2.0),
                lambda: geometric_mean(a, b),
                lambda: riccati_solution(a, b),
                lambda: weighted_spectral_mean(a, b, 0.3),
                lambda: weighted_spectral_mean(a, b, 1.0),
                lambda: variational_objective(a, b, a + b),
                lambda: trace_norm(a - b),
            ]
            calls += [
                lambda alpha=alpha, only=only: frac_power(a, alpha, support_only=only)
                for alpha in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)
                for only in (False, True)
            ]
            parts.extend(_outcome(fn) for fn in calls)
    return "\n".join(parts).encode()


def point_sweep() -> bytes:
    """One-point spectral_fidelity on seeded pairs of every rank at d = 2..4,
    at t = -0.5, 0.25 and 1 (2t = -1, 0.5, 2, numpy's scalar fast paths)
    and at t = 1/2, which is read off as Tr[rho X]."""
    rng = np.random.default_rng(2026)
    parts = []
    for dim in (2, 3, 4):
        for rank_a, rank_b in itertools.product(range(1, dim + 1), repeat=2):
            rho = random_density(dim, rank_a, rng)
            sigma = random_density(dim, rank_b, rng)
            parts.extend(
                _outcome(lambda t=t: spectral_fidelity(rho, sigma, t, extended=t < 0))
                for t in (-0.5, 0.25, 0.5, 1.0)
            )
    return "\n".join(parts).encode()


def state_sweep() -> bytes:
    """Matrix bytes and rank of each state the public builders return."""
    rng = np.random.default_rng(2025)
    states = []
    for dim in (2, 3, 4):
        samples = [random_density(dim, rank, rng) for rank in range(1, dim + 1)]
        states += samples
        states += [apply(pinching(dim), s) for s in samples]
        states += [tensor(a, b) for a, b in itertools.product(samples[:2], repeat=2)]
        states += orthogonal_pair(dim, dim - 1, rng)
    return "\n".join(f"{s.mat.tobytes().hex()} {s.rank}" for s in states).encode()


def main_() -> None:
    for argv in CLI_RUNS:
        print(cli_line(argv), flush=True)
    print(_line("suites over seeds, samples, dims and t", suite_sweep(), 0), flush=True)
    print(_line("search_dpi_violation runs", dpi_sweep(), 0), flush=True)
    print(_line("public matrix functions", function_sweep(), 0), flush=True)
    print(_line("public state builders", state_sweep(), 0), flush=True)
    print(_line("one-point spectral_fidelity", point_sweep(), 0), flush=True)


if __name__ == "__main__":
    main_()
