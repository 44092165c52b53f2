"""Numerical tolerances shared by every module.

A single mutable instance holds the process-wide settings so the CLI can
apply overrides before any computation starts, inside a scope that
restores them when the run ends.  Library code reads the attributes at
call time and never caches them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from .errors import ParamError


@dataclass
class Tolerances:
    # Hermiticity check, relative to the matrix scale.
    herm_tol: float = 1e-10
    # PSD cutoff scale; effective cutoff is psd_tol * max(1, max|M_ij|).
    psd_tol: float = 1e-10
    # A data-processing violation must exceed this margin to count.
    dpi_margin: float = 1e-7
    # Support detection inside spectral calculus, relative to the largest
    # eigenvalue.  Sits just above eigensolver noise on exact zeros so
    # that genuinely tiny positive eigenvalues are kept, not truncated.
    support_rtol: float = 1e-13

    def override(self, name: str, value: float) -> None:
        """Set one known tolerance by name to a finite number >= 0."""
        if name not in {f.name for f in fields(self)}:
            raise ParamError(f"unknown tolerance {name!r}")
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ParamError(f"tolerance {name} must be finite and >= 0, got {value!r}")
        setattr(self, name, value)

    @contextmanager
    def scoped(self) -> Iterator[None]:
        """Restore every tolerance on exit, whatever the block overrode."""
        saved = dict(vars(self))
        try:
            yield
        finally:
            for name, value in saved.items():
                setattr(self, name, value)


TOL = Tolerances()
