"""Deterministic serialization: 17-digit floats and round-trips."""

from __future__ import annotations

import json
import math
from collections import OrderedDict

import numpy as np
import pytest

from specfid import (
    DensityMatrix,
    dumps,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
    trial_rng,
)
from specfid.cli import main
from specfid.errors import DimensionMismatch, DomainError, NormalizationError
from specfid.serialize import fmt_float, write_csv


def test_fmt_float_round_trips_exactly():
    rng = trial_rng(31, 0)
    values = list(rng.standard_normal(50)) + [
        1e-300, -1e-300, 1e300, 0.1, 2.0 / 3.0, math.pi
    ]
    for x in values:
        x = float(x)
        assert float(fmt_float(x)) == x


def test_fmt_float_nonfinite_become_strings():
    assert fmt_float(math.inf) == '"inf"'
    assert fmt_float(-math.inf) == '"-inf"'
    assert fmt_float(math.nan) == '"nan"'


def test_dumps_is_valid_json_with_key_order():
    text = dumps({"b": 1, "a": [0.5, True, None], "c": "x"})
    assert text == '{"b": 1, "a": [0.5, true, null], "c": "x"}'
    assert json.loads(text) == {"b": 1, "a": [0.5, True, None], "c": "x"}


def test_dumps_numpy_scalars_and_arrays():
    text = dumps({"v": np.float64(0.25), "n": np.int64(3), "m": np.eye(2)})
    assert json.loads(text) == {"v": 0.25, "n": 3, "m": [[1.0, 0.0], [0.0, 1.0]]}


class _Label(str):
    pass


def test_dumps_golden_bytes():
    # Expected string written by the isinstance-chain dumps that preceded
    # the exact-type dispatch; every byte must stay the same.
    obj = {
        "nested": {"list": [1, [2.5, "x\"\n"]], "tuple": (0.1, ())},
        "ordered": OrderedDict([("b", 1), (_Label("a"), _Label("sub"))]),
        "numpy": [np.float64(0.25), np.int64(-3), True, None],
        "edges": [-0.0, 5e-324, 1e300],
        "nonfinite": (math.nan, math.inf, -math.inf),
        "é": np.array([[1.0, -0.5], [2.0, 1.0 / 3.0]]),
    }
    assert dumps(obj) == (
        '{"nested": {"list": [1, [2.5, "x\\"\\n"]], '
        '"tuple": [0.10000000000000001, []]}, '
        '"ordered": {"b": 1, "a": "sub"}, '
        '"numpy": [0.25, -3, true, null], '
        '"edges": [-0, 4.9406564584124654e-324, 1.0000000000000001e+300], '
        '"nonfinite": ["nan", "inf", "-inf"], '
        '"\\u00e9": [[1, -0.5], [2, 0.33333333333333331]]}'
    )


def test_dumps_rejects_unknown_types():
    with pytest.raises(DomainError):
        dumps(object())


def test_matrix_round_trip_complex():
    rng = trial_rng(31, 1)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = (g + g.conj().T) / 2
    back = matrix_from_json(json.loads(dumps(matrix_to_json(mat))))
    assert np.array_equal(back, mat)


def test_matrix_to_json_requires_square():
    with pytest.raises(DimensionMismatch):
        matrix_to_json(np.ones((2, 3)))


def test_state_round_trip_and_validation():
    rho = DensityMatrix(np.array([[0.5, 0.25j], [-0.25j, 0.5]]))
    back = state_from_json(json.loads(dumps(state_to_json(rho))))
    assert np.array_equal(back.mat, rho.mat)
    with pytest.raises(NormalizationError):
        state_from_json({"type": "channel"})


def test_fidelity_record_keys(tmp_path, capsys):
    for name, diag in (("a", [0.5, 0.5]), ("b", [0.25, 0.75])):
        state = DensityMatrix(np.diag(diag).astype(complex))
        (tmp_path / f"{name}.json").write_text(dumps(state_to_json(state)))
    argv = ["fidelity", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert main(argv + ["--t", "0.25", "--no-timestamp"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["t", "value", "method"]
    assert record["t"] == 0.25
    assert record["method"] == "spectral_general"


def test_write_csv_shape_and_digits():
    text = write_csv(["a", "b"], [[1.0 / 3.0, "x"], [2, 0.1]])
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1].startswith("0.3333333333333333")
    assert float(lines[2].split(",")[1]) == 0.1
    assert text.endswith("\n")
    nonfinite = write_csv(["a", "b", "c", "d"], [[math.nan, math.inf, -math.inf, -0.0]])
    assert nonfinite == "a,b,c,d\nnan,inf,-inf,-0\n"
