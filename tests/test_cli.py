"""Command line driver: formats, precedence, exit codes, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from specfid.cli import RunConfig, main
from specfid.config import TOL
from specfid.errors import ParamError
from specfid.fidelity import fvg_bounds, spectral_fidelity
from specfid.serialize import dumps, state_to_json
from specfid.states import DensityMatrix


@pytest.fixture(autouse=True)
def _restore_tolerances():
    saved = dict(vars(TOL))
    yield
    for name, value in saved.items():
        setattr(TOL, name, value)


def _write_state(path, mat) -> str:
    state = DensityMatrix(np.asarray(mat, dtype=complex))
    path.write_text(dumps(state_to_json(state)))
    return str(path)


@pytest.fixture()
def diag_pair(tmp_path):
    a = _write_state(tmp_path / "a.json", np.diag([0.7, 0.3]))
    b = _write_state(tmp_path / "b.json", np.diag([0.2, 0.8]))
    return a, b


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fidelity_json_record(capsys, diag_pair):
    a, b = diag_pair
    code, out, _ = _run(capsys, ["fidelity", a, b, "--t", "0.7"])
    assert code == 0
    record = json.loads(out)
    assert list(record)[:3] == ["t", "value", "method"]
    assert record["t"] == 0.7
    assert record["method"] == "spectral_general"
    assert "timestamp" in record
    expected = 0.7**0.3 * 0.2**0.7 + 0.3**0.3 * 0.8**0.7
    assert record["value"] == pytest.approx(expected, abs=1e-12)


def test_no_timestamp_flag(capsys, diag_pair):
    a, b = diag_pair
    _, out, _ = _run(capsys, ["fidelity", a, b, "--no-timestamp"])
    assert "timestamp" not in json.loads(out)


def test_fidelity_bloch_inputs(capsys):
    cases = [
        # Orthogonal axes give pure states with squared overlap 1/2,
        # and a pure pair evaluates to that overlap raised to t.
        ("0,0,1", "1,0,0", "pure_rho_closed_form", 0.5**0.3),
        # A mixed rho against the pure z-axis sigma has overlap
        # (1 + 0.2)/2, raised to 1 - t.
        ("0.3,0.1,0.2", "0,0,1", "pure_sigma_closed_form", 0.6**0.7),
    ]
    for rho, sigma, closed_form, expected in cases:
        code, out, _ = _run(
            capsys,
            ["fidelity", "--bloch", rho, "--bloch", sigma,
             "--t", "0.3", "--no-timestamp"],
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(expected, abs=1e-12)
        assert record["cross_checks"] == {
            closed_form: pytest.approx(expected, abs=1e-12)
        }


def test_fidelity_bloch_negative_component(capsys):
    # a vector with a leading minus sign is a value, not an option
    spaced = _run(capsys, ["fidelity", "--bloch", "-0.5,0.1,0.4",
                           "--bloch", "0,0,1", "--no-timestamp"])
    joined = _run(capsys, ["fidelity", "--bloch=-0.5,0.1,0.4",
                           "--bloch", "0,0,1", "--no-timestamp"])
    assert spaced[0] == 0
    assert spaced == joined
    # sigma is pure on the z axis: F_1/2 = overlap^(1/2), overlap (1 + 0.4)/2
    assert json.loads(spaced[1])["value"] == pytest.approx(0.7**0.5, abs=1e-12)


def test_fidelity_all_families(capsys, diag_pair):
    a, b = diag_pair
    code, out, _ = _run(
        capsys,
        ["fidelity", a, b, "--all", "--alpha", "0.5", "--alpha", "2",
         "--no-timestamp"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["uhlmann"] == pytest.approx(record["value"], abs=1e-12)
    assert record["matsumoto"] <= record["uhlmann"] + 1e-12
    assert set(record["renyi"]) == {"0.5", "2.0"}


def test_fidelity_requires_two_states(capsys, diag_pair):
    a, _ = diag_pair
    code, _, err = _run(capsys, ["fidelity", a])
    assert code == 2
    assert "error:" in err


def test_sweep_identical_states_all_ones(capsys, diag_pair):
    a, _ = diag_pair
    code, out, _ = _run(
        capsys,
        ["sweep", a, a, "--t-grid", "0:1:11", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,value,log_value,second_diff,log_second_diff"
    assert len(lines) == 12
    for line in lines[1:]:
        assert line.split(",")[1] == "1"
    # Boundary rows carry no second differences.
    assert lines[1].split(",")[3] == ""
    assert lines[-1].split(",")[3] == ""


def test_sweep_json_rows(capsys, diag_pair):
    a, b = diag_pair
    code, out, _ = _run(capsys, ["sweep", a, b, "--no-timestamp"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 21
    assert rows[0]["second_diff"] is None
    assert rows[1]["second_diff"] is not None
    assert all(row["log_second_diff"] >= -1e-10
               for row in rows[1:-1])
    assert rows[0]["value"] == pytest.approx(1.0, abs=1e-12)
    assert rows[10]["value"] == pytest.approx(
        spectral_fidelity(
            DensityMatrix(np.diag([0.7, 0.3])),
            DensityMatrix(np.diag([0.2, 0.8])),
            0.5,
        ).value,
        abs=1e-12,
    )


def test_sweep_grid_validation(capsys, diag_pair):
    a, b = diag_pair
    for grid in ("0:1", "1:0:5", "0:1:1", "0:inf:3"):
        code, _, err = _run(capsys, ["sweep", a, b, "--t-grid", grid])
        assert code == 2
        assert "error:" in err


def test_verify_selected_suites(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "riccati,endpoints", "--samples", "5", "--no-timestamp"],
    )
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["property"] for r in reports] == ["riccati", "endpoints"]
    assert all(r["verdict"] == "holds" for r in reports)


def test_verify_refuted_claim_fails_run(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "midpoint_minimum", "--samples", "10", "--no-timestamp"],
    )
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["verdict"] == "unexpected"
    assert report["notes"]


def test_verify_t_controls_dpi_verdict(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "dpi_monotone", "--t", "0.5", "--samples", "10",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "holds"
    code, out, _ = _run(
        capsys,
        ["verify", "dpi_monotone", "--t", "0.8", "--samples", "10",
         "--no-timestamp"],
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "fails_as_predicted"


def test_verify_all_flags_only_the_refuted_claim(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--all", "--samples", "8", "--no-timestamp"]
    )
    assert code == 1
    reports = json.loads(out)["reports"]
    by_verdict: dict = {}
    for report in reports:
        by_verdict.setdefault(report["verdict"], set()).add(report["property"])
    assert by_verdict["unexpected"] == {"midpoint_minimum"}
    assert by_verdict["fails_as_predicted"] == {"dpi_monotone", "second_fvg"}
    assert len(by_verdict["holds"]) == len(reports) - 3


def test_verify_csv_format(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "endpoints", "--samples", "5", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "property,verdict,max_violation,seed,samples"
    assert lines[1].startswith("endpoints,holds,")


def test_unknown_property_exits_two(capsys):
    code, _, err = _run(capsys, ["verify", "no_such_thing"])
    assert code == 2
    assert "no_such_thing" in err


def test_config_file_precedence(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "samples": 25}))
    _, out, _ = _run(
        capsys,
        ["verify", "endpoints", "--config", str(config), "--no-timestamp"],
    )
    report = json.loads(out)["reports"][0]
    assert report["seed"] == 7
    assert report["samples"] == 25
    # A flag beats the config file.
    _, out, _ = _run(
        capsys,
        ["verify", "endpoints", "--config", str(config), "--samples", "10",
         "--no-timestamp"],
    )
    report = json.loads(out)["reports"][0]
    assert report["seed"] == 7
    assert report["samples"] == 10


def test_config_file_validation(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = _run(capsys, ["verify", "endpoints", "--config", str(missing)])
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = _run(capsys, ["verify", "endpoints", "--config", str(bad)])
    assert code == 2
    assert "JSON object" in err


def test_tolerance_override(capsys, diag_pair):
    a, b = diag_pair
    before = TOL.psd_tol
    code, _, _ = _run(
        capsys,
        ["fidelity", a, b, "--tol-override", "psd_tol=1e-9", "--no-timestamp"],
    )
    assert code == 0
    # the override lasts for its own run only
    assert TOL.psd_tol == before
    # recon_tol and eps_default were tolerances once; both are unknown now
    for name in ("bogus", "recon_tol", "eps_default"):
        code, _, err = _run(capsys, ["fidelity", a, b, "--tol-override", f"{name}=1"])
        assert code == 2
        assert name in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "riccati", "--seed", "-1"],
        ["dpi-search", "--t", "0.8", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_two_naming_the_seed(capsys, argv):
    code, out, err = _run(capsys, argv + ["--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err == "error: seed -1 must be non-negative\n"


_PAIR = ["--bloch", "0,0,0.5", "--bloch", "0.3,0,0", "--no-timestamp"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", *_PAIR, "--tol-override", "psd_tol=nan"],
        ["fidelity", *_PAIR, "--tol-override", "herm_tol=inf"],
        ["fidelity", *_PAIR, "--tol-override", "support_rtol=-1e-13"],
        ["dpi-search", "--t", "0.5", "--samples", "50", "--no-timestamp",
         "--tol-override", "dpi_margin=-1"],
    ],
    ids=["psd_tol_nan", "herm_tol_inf", "support_rtol_negative", "dpi_margin_negative"],
)
def test_tolerance_override_outside_its_domain_exits_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite and >= 0" in err


@pytest.mark.parametrize("overrides", [{"psd_tol": math.nan}, {"dpi_margin": -1}])
def test_config_file_tolerance_outside_its_domain_exits_two(capsys, tmp_path, overrides):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"tol_overrides": overrides}))
    argv = ["dpi-search", "--t", "0.5", "--samples", "50", "--config", str(config)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "finite and >= 0" in err


def test_tolerance_override_reaches_suite_verdicts(capsys):
    # dpi_monotone judges against dpi_margin as it stands when the suite
    # runs; a margin above every drop turns the predicted failure off.
    argv = ["verify", "dpi_monotone", "--samples", "30", "--no-timestamp"]
    code, out, _ = _run(capsys, argv)
    assert json.loads(out)["reports"][0]["verdict"] == "fails_as_predicted"
    code, out, _ = _run(capsys, argv + ["--tol-override", "dpi_margin=1"])
    assert code == 0
    assert json.loads(out)["reports"][0]["verdict"] == "holds"
    assert TOL.dpi_margin == 1e-7


def test_output_file_and_determinism(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for target in (f1, f2):
        code, out, _ = _run(
            capsys,
            ["verify", "flip_symmetry", "--samples", "10", "--no-timestamp",
             "--output", str(target)],
        )
        assert code == 0
        assert out == ""
    assert f1.read_bytes() == f2.read_bytes()
    assert json.loads(f1.read_text())["reports"][0]["property"] == "flip_symmetry"


def test_dpi_search_off_midpoint(capsys):
    code, out, _ = _run(
        capsys,
        ["dpi-search", "--t", "0.8", "--samples", "2000", "--no-timestamp"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "fails_as_predicted"
    witness = record["witness"]
    assert witness["f_after"] < witness["f_before"] - 1e-7


def test_dpi_search_above_two_dimensions(capsys):
    code, out, _ = _run(
        capsys, ["dpi-search", "--t", "0.8", "--dims", "3", "--no-timestamp"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "fails_as_predicted"
    assert record["dim"] == 3
    witness = record["witness"]
    assert witness["rho"]["dim"] == 3
    assert witness["f_after"] < witness["f_before"] - 1e-7


def test_dpi_search_takes_one_dimension(capsys):
    code, out, err = _run(
        capsys, ["dpi-search", "--t", "0.8", "--dims", "3,5", "--no-timestamp"]
    )
    assert code == 2
    assert out == ""
    assert "one dimension" in err


def test_dpi_search_midpoint_finds_nothing(capsys):
    code, out, _ = _run(
        capsys,
        ["dpi-search", "--t", "0.5", "--samples", "500", "--no-timestamp"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "holds"
    assert record["witness"] is None


def test_dpi_search_requires_t(capsys):
    code, _, err = _run(capsys, ["dpi-search"])
    assert code == 2
    assert "--t" in err


def test_dpi_replay_reference_values(capsys):
    code, out, _ = _run(capsys, ["dpi-replay", "--no-timestamp"])
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "fails_as_predicted"
    assert record["t"] == 0.8
    assert record["f_before"] == pytest.approx(0.755086, abs=1e-4)
    assert record["f_after"] == pytest.approx(0.752207, abs=1e-4)
    assert record["f_before"] == pytest.approx(0.7550853719736925, abs=1e-12)


def test_fvg_overlap_mode(capsys):
    code, out, _ = _run(
        capsys,
        ["fvg", "--c", "0.5", "--t", "0.25", "--no-timestamp"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["half_trace_dist"] == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert record["rhs"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert record["violated"] is True


def test_fvg_state_mode(capsys, diag_pair):
    a, b = diag_pair
    code, out, _ = _run(capsys, ["fvg", a, b, "--t", "0.3", "--no-timestamp"])
    assert code == 0
    record = json.loads(out)
    bounds = fvg_bounds(
        DensityMatrix(np.diag([0.7, 0.3])),
        DensityMatrix(np.diag([0.2, 0.8])),
        0.3,
    )
    assert record["lower_gap"] == pytest.approx(bounds.lower_gap, abs=1e-15)
    assert record["trace_dist_half"] == pytest.approx(
        bounds.trace_dist_half, abs=1e-15
    )
    assert record["second_rhs"] == pytest.approx(bounds.second_rhs, abs=1e-15)


def test_fvg_rejects_mixed_input_modes(capsys, diag_pair):
    a, _ = diag_pair
    code, _, err = _run(capsys, ["fvg", a, "--c", "0.5"])
    assert code == 2
    assert "error:" in err


def test_state_file_errors(capsys, tmp_path, diag_pair):
    a, _ = diag_pair
    code, _, err = _run(capsys, ["fidelity", a, str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = _run(capsys, ["fidelity", a, str(garbled)])
    assert code == 2
    assert "not valid JSON" in err


def test_bad_bloch_vector(capsys):
    code, _, err = _run(capsys, ["fidelity", "--bloch", "1,2", "--bloch", "0,0,1"])
    assert code == 2
    assert "rx,ry,rz" in err
    code, _, err = _run(
        capsys, ["fidelity", "--bloch", "0,0,2", "--bloch", "0,0,1"]
    )
    assert code == 2


def test_bad_samples_value(capsys):
    code, _, err = _run(capsys, ["verify", "endpoints", "--samples", "0"])
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize(
    "command", [["fidelity", *_PAIR], ["sweep", *_PAIR], ["fvg", *_PAIR], ["dpi-replay"]]
)
@pytest.mark.parametrize("flag", ["--seed", "--samples", "--dims"])
def test_sampling_flags_only_on_seeded_commands(capsys, command, flag):
    # fidelity, sweep, fvg and dpi-replay draw nothing, so a sampling
    # flag there is an unknown option, not a setting that does nothing.
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state, config",
    [
        ([1, 2], None),
        (None, {"tol_overrides": [["psd_tol", 1e-9]]}),
        (None, {"tol_overrides": {"psd_tol": None}}),
        (None, {"seed": None}),
        (None, {"seed": True}),
        (None, {"samples": "5"}),
        (None, {"dims": [2, None]}),
        (None, {"t": [0.3]}),
        (None, {"alpha": 2}),
        (None, {"no_timestamp": "yes"}),
        (None, {"output": 5}),
    ],
    ids=["state_list", "tol_overrides_pairs", "tol_override_null", "seed_null",
         "seed_bool", "samples_str", "dims_null_entry", "t_list", "alpha_number",
         "no_timestamp_str", "output_number"],
)
def test_malformed_input_exits_two_without_a_traceback(capsys, tmp_path, state, config):
    # Exit 1 means an unexpected verdict; input the CLI cannot read is
    # rejected where it enters, with exit 2 and one error line.
    argv = ["verify", "endpoints", "--samples", "2", "--no-timestamp"]
    if state is not None:
        (tmp_path / "state.json").write_text(json.dumps(state))
        argv = ["fidelity", str(tmp_path / "state.json"), "--bloch", "0,0,1"]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [{"sead": 7, "sample": 3}, {"seed": 7, "tol": {}}])
def test_unknown_config_key_exits_two(capsys, tmp_path, config):
    # A misspelt setting would otherwise do nothing: the run would report
    # seed 42 and exit 0.
    (tmp_path / "run.json").write_text(json.dumps(config))
    argv = ["verify", "endpoints", "--samples", "2", "--config", str(tmp_path / "run.json")]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(sorted(set(config) - {"seed"})[0]) in err


def test_runconfig_validation():
    with pytest.raises(ParamError):
        RunConfig(command="verify", fmt="xml")
    with pytest.raises(ParamError):
        RunConfig(command="verify", samples=0)
    with pytest.raises(ParamError):
        RunConfig(command="verify", dims=(1, 2))


def test_parser_built_once_per_process(capsys, monkeypatch, diag_pair):
    import specfid.cli as cli

    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    a, b = diag_pair
    first = _run(capsys, ["sweep", a, b, "--t-grid", "0:1:5", "--no-timestamp"])
    second = _run(capsys, ["sweep", a, b, "--t-grid", "0:1:5", "--no-timestamp"])
    cli._shared_parser.cache_clear()
    assert len(built) == 1
    assert first == second and first[0] == 0


@pytest.mark.parametrize("t", ["nan", "1.5"])
def test_verify_rejects_a_t_outside_the_unit_interval(capsys, t):
    # at t = nan every violation is NaN, which never wins: the run would
    # report holds with an empty witness
    code, out, err = _run(capsys, ["verify", "dpi_monotone", "--t", t, "--no-timestamp"])
    assert code == 2
    assert out == ""
    assert err == f"error: parameter t = {float(t)} outside [0, 1]\n"


def test_repeatable_flags_do_not_carry_over(capsys, diag_pair):
    a, b = diag_pair
    code, out, _ = _run(capsys, ["fidelity", a, b, "--all", "--alpha", "3", "--no-timestamp"])
    assert code == 0 and list(json.loads(out)["renyi"]) == ["3.0"]
    code, out, _ = _run(capsys, ["fidelity", a, b, "--all", "--no-timestamp"])
    assert code == 0 and list(json.loads(out)["renyi"]) == ["2.0"]


def test_fidelity_rejects_non_finite_renyi_order(capsys):
    code, out, err = _run(
        capsys,
        ["fidelity", "--bloch", "0,0,0.5", "--bloch", "0.3,0,0", "--all",
         "--alpha", "nan", "--no-timestamp"],
    )
    assert code == 2
    assert out == ""
    assert "error:" in err
