"""Deterministic JSON and CSV emission, and matrix/state parsing.

All floats are written with 17 significant digits so that equal inputs
produce byte-identical output and values round-trip through text.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NormalizationError
from .states import DensityMatrix


# format(x, ".17g") spells the non-finite floats "nan", "inf" and "-inf".
_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def fmt_float(x: float) -> str:
    """Render one float with 17 significant digits."""
    s = format(float(x), ".17g")
    return _NONFINITE.get(s, s)


def dumps(obj: Any) -> str:
    """Serialize to a single JSON line with deterministic formatting.

    Dict keys keep insertion order; floats use 17 significant digits;
    non-finite floats become the strings "inf", "-inf", "nan".  The
    types a record is mostly made of (float, dict, list, tuple, str) are
    tested first.
    """
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            [encode_basestring_ascii(str(k)) + ": " + dumps(v) for k, v in obj.items()]
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([dumps(v) for v in obj]) + "]"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    raise DomainError(f"cannot serialize object of type {type(obj).__name__}")


def matrix_to_json(mat: np.ndarray) -> dict:
    """Row-major {"dim", "re", "im"} record for a square complex matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


def matrix_from_json(record: dict) -> np.ndarray:
    """Parse the {"dim", "re", "im"} matrix record."""
    try:
        dim = int(record["dim"])
        re = np.asarray(record["re"], dtype=float)
        im = np.asarray(record["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed matrix record: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"matrix record claims dim {dim} but arrays have shapes "
            f"{re.shape} and {im.shape}"
        )
    mat = re + 1j * im
    if not np.all(np.isfinite(mat.view(float))):
        raise DomainError("matrix record has non-finite entries")
    return mat


def state_to_json(rho: DensityMatrix) -> dict:
    """Matrix record tagged as a density matrix."""
    record = matrix_to_json(rho.mat)
    record["type"] = "density"
    return record


def state_from_json(record: dict) -> DensityMatrix:
    """Parse and validate a density-matrix record."""
    if not isinstance(record, dict):
        raise DomainError(f"state record is a {type(record).__name__}, not a JSON object")
    kind = record.get("type", "density")
    if kind != "density":
        raise NormalizationError(f"expected a density record, got type {kind!r}")
    return DensityMatrix(matrix_from_json(record))


def write_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Comma-separated text with a header row and 17-digit numbers."""

    def cell(v: Any) -> str:
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")  # non-finite: nan, inf, -inf
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
