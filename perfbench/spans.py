"""Per-layer spans recorded from outside specfid.

The modules bind each other's functions with `from .linalg import eig`
style imports, so a function is wrapped wherever a specfid module binds
it; DensityMatrix is traced through `__post_init__` on the class.  Each
span adds its duration to its parent's child time, so self time is the
span's duration minus what its child spans cover.  Aggregates stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer (specfid module) -> traced public functions.
TRACED = {
    "linalg": ("eig", "as_hermitian", "frac_power"),
    "means": ("riccati_solution", "geometric_mean", "weighted_spectral_mean"),
    "states": ("apply",),
    "fidelity": ("spectral_fidelity", "uhlmann_fidelity"),
    "verify": ("run_suite", "t_sweep", "search_dpi_violation"),
    "cli": ("main",),
    "serialize": ("dumps", "matrix_to_json"),
}
# Spans whose inner calls are counted for the per-call ratios.
OUTER = ("fidelity.spectral_fidelity", "verify.run_suite")


class Tracer:
    """Context manager: the traced functions are wrapped while it is entered."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.inside: Counter = Counter()  # (outer span, inner span) -> calls
        self.eig_work_d3 = 0
        self._open: Counter = Counter()
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            for outer in OUTER:
                if self._open[outer]:
                    self.inside[outer, name] += 1
            if name == "linalg.eig":
                self.eig_work_d3 += len(args[0]) ** 3
            self._open[name] += 1
            frame = [clock(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                self._stack.pop()
                self._open[name] -= 1
                self.self_s[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"specfid.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "specfid" and not modname.startswith("specfid."):
                continue
            for attr, value in list(vars(module).items()):
                fn, traced = wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, traced)
                    self._undo.append((module, attr, value))
        cls = sys.modules["specfid.states"].DensityMatrix
        post_init = cls.__dict__["__post_init__"]
        cls.__post_init__ = self._wrap("states.DensityMatrix", post_init)
        self._undo.append((cls, "__post_init__", post_init))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, float]:
        """Calls and self time of every traced span, plus the ratios."""
        out: dict[str, float] = {}
        names = [f"{layer}.{fname}" for layer, fnames in TRACED.items() for fname in fnames]
        for name in names + ["states.DensityMatrix"]:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["linalg.eig.work_d3"] = self.eig_work_d3
        sf = self.calls["fidelity.spectral_fidelity"]
        suites = self.calls["verify.run_suite"]
        for inner in ("linalg.eig", "linalg.as_hermitian"):
            inside = self.inside["fidelity.spectral_fidelity", inner]
            out[f"{inner}.per_fidelity"] = inside / sf if sf else 0.0
        inside = self.inside["verify.run_suite", "serialize.matrix_to_json"]
        out["serialize.matrix_to_json.per_suite"] = inside / suites if suites else 0.0
        return out
