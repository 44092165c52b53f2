"""The validation contract: public entry points check, kernels trust.

Call counts are deterministic, so the tests pin how many validations
and decompositions one evaluation makes.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import specfid.linalg
from specfid import (
    TOL,
    Channel,
    DensityMatrix,
    DimensionMismatch,
    DomainError,
    NormalizationError,
    ParamError,
    apply,
    as_hermitian,
    block_psd,
    diagonal_spectral_fidelity,
    frac_power,
    geometric_mean,
    pinching,
    random_density,
    riccati_solution,
    run_suite,
    sandwiched_renyi,
    search_dpi_violation,
    spectral_fidelity,
    spectral_fidelity_curve,
    trace_norm,
    variational_objective,
    weighted_spectral_mean,
)


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to owner.name.

    specfid modules bind linalg's functions by name at import, so the
    counter replaces every binding of the original, not only owner's.
    """
    original = getattr(owner, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for modname, module in list(sys.modules.items()):
        if modname.startswith("specfid") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture()
def counters(monkeypatch):
    """Start counting as_hermitian and eigh calls; returns both records."""

    def start() -> tuple[list, list]:
        validations = _count_calls(monkeypatch, specfid.linalg, "as_hermitian")
        return validations, _count_calls(monkeypatch, np.linalg, "eigh")

    return start


def test_spectral_fidelity_trusts_validated_states(counters):
    rng = np.random.default_rng(4)
    rho, sigma = random_density(3, 3, rng), random_density(3, 2, rng)
    validations, eighs = counters()
    spectral_fidelity(rho, sigma, 0.3)
    assert len(validations) == 0
    assert len(eighs) == 3


_RNG = np.random.default_rng(11)
_RHO, _SIGMA = random_density(3, 3, _RNG), random_density(3, 3, _RNG)

# Each matrix an evaluation touches is decomposed once.
_EIGH_PER_CALL = {
    "mean_flip_identity_one_trial": (
        lambda: run_suite("mean_flip_identity", n_samples=1), 6),
    "variational_objective": (
        lambda: variational_objective(_RHO.mat, _SIGMA.mat, _RHO.mat), 1),
    "sandwiched_renyi_alpha_2": (lambda: sandwiched_renyi(_RHO, _SIGMA, 2.0), 2),
    "spectral_fidelity": (lambda: spectral_fidelity(_RHO, _SIGMA, 0.3), 3),
}


@pytest.mark.parametrize("name", sorted(_EIGH_PER_CALL))
def test_eigh_calls_per_evaluation(counters, name):
    evaluate, expected = _EIGH_PER_CALL[name]
    _, eighs = counters()
    evaluate()
    assert len(eighs) == expected


# Entry points whose every decomposition needs a support decision.
_SUPPORT_USERS = {
    "riccati_solution": lambda: riccati_solution(_RHO.mat, _SIGMA.mat),
    "spectral_fidelity_curve": lambda: spectral_fidelity_curve(_RHO, _SIGMA, [0.3]),
    "frac_power_support_only": lambda: frac_power(_RHO.mat, 0.5, support_only=True),
    "sandwiched_renyi": lambda: sandwiched_renyi(_RHO, _SIGMA, 2.0),
}


@pytest.mark.parametrize("name", sorted(_SUPPORT_USERS))
def test_supports_are_decided_in_linalg(counters, monkeypatch, name):
    # Patching the one linalg binding must reach every decomposition.
    _, eighs = counters()
    original = specfid.linalg.support_cutoff
    cutoffs: list = []

    def recorded(w):
        cutoffs.append(w)
        return original(w)

    monkeypatch.setattr(specfid.linalg, "support_cutoff", recorded)
    _SUPPORT_USERS[name]()
    assert len(eighs) > 0
    assert len(cutoffs) == len(eighs)


def test_riccati_solution_validates_each_input_once(counters):
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([[1.0, -0.25j], [0.25j, 3.0]])
    validations, _ = counters()
    riccati_solution(a, b)
    assert len(validations) == 2
    assert validations[0][0] is a and validations[1][0] is b


def test_density_matrix_validates_without_eigenvectors(counters):
    validations, eighs = counters()
    DensityMatrix(np.diag([0.25, 0.75]))
    assert len(validations) == 1
    assert len(eighs) == 0


def test_validated_state_keeps_the_rank_of_its_spectrum(monkeypatch):
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    state = DensityMatrix(np.diag([0.25, 0.75, 0.0]))
    assert state.rank == 2
    assert len(eigvalsh) == 1


# Channels whose images would not be states: apply does not re-check them.
_BAD_KRAUS = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "trace_above_tolerance": np.sqrt(1 + 1e-11) * np.eye(2),
}


@pytest.mark.parametrize("name", sorted(_BAD_KRAUS))
def test_apply_rejects_channels_that_do_not_preserve_trace(name):
    state = DensityMatrix(np.diag([0.25, 0.75]))
    with pytest.raises(NormalizationError):
        apply(Channel((_BAD_KRAUS[name],)), state)


def test_channel_keeps_its_own_copy_of_the_operators():
    k = np.eye(2, dtype=complex)
    channel = Channel((k,))
    k *= 2
    image = apply(channel, DensityMatrix(np.diag([0.25, 0.75])))
    assert np.real(np.trace(image.mat)) == pytest.approx(1.0, abs=1e-12)


def test_channel_operators_are_read_only():
    with pytest.raises(ValueError):
        pinching(2).kraus[0][0, 0] = 3


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-9])
@pytest.mark.parametrize("name", ["herm_tol", "psd_tol", "dpi_margin", "support_rtol"])
def test_tolerance_override_rejects_values_outside_its_domain(name, value):
    with TOL.scoped():
        before = getattr(TOL, name)
        with pytest.raises(ParamError):
            TOL.override(name, value)
        assert getattr(TOL, name) == before
        # a NaN psd_tol would have let this non-state through
        with pytest.raises(NormalizationError):
            DensityMatrix(np.diag([1.5, -0.5]))


def test_tolerance_override_rejects_unknown_names():
    with pytest.raises(ParamError, match="unknown tolerance 'bogus'"):
        TOL.override("bogus", 1e-9)


_EYE = np.eye(2)

# Each entry point with the bad matrix put in one argument position.
_ENTRY_POINTS = {
    "as_hermitian": as_hermitian,
    "DensityMatrix": DensityMatrix,
    "frac_power_half": lambda m: frac_power(m, 0.5),
    "frac_power_one": lambda m: frac_power(m, 1),
    "frac_power_zero": lambda m: frac_power(m, 0.0),
    "frac_power_zero_support": lambda m: frac_power(m, 0.0, support_only=True),
    "trace_norm": trace_norm,
    "block_psd_a11": lambda m: block_psd(m, _EYE, _EYE),
    "block_psd_a22": lambda m: block_psd(_EYE, _EYE, m),
    "geometric_mean_a": lambda m: geometric_mean(m, _EYE),
    "geometric_mean_b": lambda m: geometric_mean(_EYE, m),
    "riccati_solution_a": lambda m: riccati_solution(m, _EYE),
    "riccati_solution_b": lambda m: riccati_solution(_EYE, m),
    "weighted_spectral_mean_a": lambda m: weighted_spectral_mean(m, _EYE, 0.3),
    "weighted_spectral_mean_b": lambda m: weighted_spectral_mean(_EYE, m, 0.3),
    "variational_objective_a": lambda m: variational_objective(m, _EYE, _EYE),
    "variational_objective_b": lambda m: variational_objective(_EYE, m, _EYE),
    "variational_objective_x": lambda m: variational_objective(_EYE, _EYE, m),
}

_BAD_INPUTS = {
    "non_square": (np.ones((2, 3)), DimensionMismatch),
    "non_finite": (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError),
    "non_hermitian": (np.array([[1.0, 0.5], [0.0, 1.0]]), DomainError),
    "empty": (np.zeros((0, 0)), DimensionMismatch),
}


@pytest.mark.parametrize("kind", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_public_entry_points_reject_bad_input(entry, kind):
    mat, error = _BAD_INPUTS[kind]
    with pytest.raises(error):
        _ENTRY_POINTS[entry](mat)


# Each matrix argument of a multi-matrix entry point, in turn the odd one out.
_MULTI_MATRIX = sorted(
    name for name in _ENTRY_POINTS
    if name.startswith(("geometric_mean", "riccati", "weighted", "variational"))
)


@pytest.mark.parametrize("entry", _MULTI_MATRIX)
def test_mismatched_shapes_raise_dimension_mismatch(entry):
    with pytest.raises(DimensionMismatch):
        _ENTRY_POINTS[entry](np.eye(3))


def test_block_psd_rejects_non_finite_off_diagonal_block():
    with pytest.raises(DomainError):
        block_psd(_EYE, np.array([[np.inf, 0.0], [0.0, 0.0]]), _EYE)


def test_frac_power_at_one_checks_positivity():
    with pytest.raises(DomainError):
        frac_power(np.diag([-1.0, 1.0]), 1)
    mat = np.array([[1.0, 0.25], [0.25, 1.0]])
    out = frac_power(mat, 1)
    assert np.array_equal(out, mat)
    assert out is not mat


def test_transposed_input_is_accepted():
    # A transpose is a strided view; validation must not depend on layout.
    mat = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    state = DensityMatrix(mat.T)
    assert np.array_equal(state.mat, mat.T)
    assert trace_norm(mat.T) == pytest.approx(1.0)


# Non-finite scalar parameters, each rejected where it enters.
_UNIFORM = [0.5, 0.5]
_NON_FINITE_PARAMETERS = {
    "sandwiched_renyi_nan": (lambda: sandwiched_renyi(_RHO, _SIGMA, np.nan), ParamError),
    "sandwiched_renyi_inf": (lambda: sandwiched_renyi(_RHO, _SIGMA, np.inf), ParamError),
    "frac_power_nan": (lambda: frac_power(_RHO.mat, np.nan), ParamError),
    "frac_power_inf": (lambda: frac_power(_RHO.mat, np.inf), ParamError),
    "spectral_fidelity_curve_extended_nan": (
        lambda: spectral_fidelity_curve(_RHO, _SIGMA, [np.nan], extended=True), ParamError),
    "weighted_spectral_mean_extended_nan": (
        lambda: weighted_spectral_mean(_RHO.mat, _SIGMA.mat, np.nan, extended=True),
        ParamError),
    "weighted_spectral_mean_extended_inf": (
        lambda: weighted_spectral_mean(_RHO.mat, _SIGMA.mat, np.inf, extended=True),
        ParamError),
    "diagonal_spectral_fidelity_t_nan": (
        lambda: diagonal_spectral_fidelity(_UNIFORM, _UNIFORM, np.nan), ParamError),
    "diagonal_spectral_fidelity_t_inf": (
        lambda: diagonal_spectral_fidelity(_UNIFORM, _UNIFORM, np.inf), ParamError),
    "diagonal_spectral_fidelity_p_nan": (
        lambda: diagonal_spectral_fidelity([np.nan, 1.0], _UNIFORM, 0.3), NormalizationError),
    "diagonal_spectral_fidelity_q_nan": (
        lambda: diagonal_spectral_fidelity(_UNIFORM, [1.0, np.nan], 0.3), NormalizationError),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE_PARAMETERS))
def test_non_finite_parameters_are_rejected(name):
    evaluate, error = _NON_FINITE_PARAMETERS[name]
    with pytest.raises(error):
        evaluate()


# Suites whose states are all built from validated states.
_DERIVED_STATE_SUITES = (
    "classicalization",
    "dpi_midpoint",
    "dpi_monotone",
    "multiplicativity",
    "separate_concavity",
    "tensor_stabilization",
    "unitary_invariance",
)


@pytest.mark.parametrize("property_id", _DERIVED_STATE_SUITES)
def test_derived_states_are_not_rechecked(monkeypatch, property_id):
    eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    run_suite(property_id, n_samples=3, rng_seed=42)
    assert len(eigvalsh) == 0


@pytest.mark.parametrize("n_trials", [0, -4])
def test_dpi_search_rejects_an_empty_budget(n_trials):
    # None after zero trials would read as "no violation found".
    with pytest.raises(ParamError, match="n_trials"):
        search_dpi_violation(0.5, 2, n_trials)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_suite("riccati", rng_seed=-1),
        lambda: run_suite("dpi_monotone", rng_seed=-3),
        lambda: search_dpi_violation(0.8, rng_seed=-1),
    ],
    ids=["run_suite", "chunked_suite", "dpi_search"],
)
def test_negative_seeds_are_rejected_where_they_enter(run):
    with pytest.raises(ParamError, match=r"seed -\d must be non-negative"):
        run()
