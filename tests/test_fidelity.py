"""Fidelity family values against independently computed oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specfid import (
    DensityMatrix,
    ParamError,
    diagonal_spectral_fidelity,
    from_bloch,
    fvg_bounds,
    matsumoto_fidelity,
    pure_state,
    random_density,
    sandwiched_renyi,
    spectral_fidelity,
    spectral_fidelity_curve,
    trial_rng,
    uhlmann_fidelity,
)
from specfid.errors import DimensionMismatch, DomainError, SupportError
from specfid.fidelity import _power_traces, _spectral_fidelities
from specfid.linalg import frac_power, psd_eig
from specfid.means import riccati_solution

# Reference qubit pair on which the family drops under pinching at
# t = 0.8; values frozen from the library's own evaluation and agreeing
# with the six-digit inputs' published rounding to 1e-4.
REFERENCE_RHO = np.array(
    [
        [0.064925, -0.022125 - 0.170483j],
        [-0.022125 + 0.170483j, 0.935075],
    ]
)
REFERENCE_SIGMA = np.array(
    [
        [0.806863, -0.317159 - 0.211863j],
        [-0.317159 + 0.211863j, 0.193137],
    ]
)


def _diag_family(p, q, t):
    """Classical oracle in plain Python floats."""
    total = 0.0
    for pi, qi in zip(p, q):
        if (pi == 0.0 and t < 1.0) or (qi == 0.0 and t > 0.0):
            continue
        total += pi ** (1.0 - t) * qi**t
    return total


def test_commuting_pairs_match_classical_oracle():
    p = [0.1, 0.2, 0.3, 0.4]
    q = [0.4, 0.3, 0.2, 0.1]
    rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    for t in (0.0, 0.1, 0.5, 0.9, 1.0):
        expect = _diag_family(p, q, t)
        assert spectral_fidelity(rho, sigma, t).value == pytest.approx(
            expect, abs=1e-12
        )
        assert diagonal_spectral_fidelity(p, q, t).value == pytest.approx(
            expect, abs=1e-15
        )


def test_pure_pure_closed_form():
    # Overlap c: the family is c^{2t}.
    theta = 0.7
    rho = pure_state([1.0, 0.0])
    sigma = pure_state([math.cos(theta / 2), math.sin(theta / 2)])
    c2 = math.cos(theta / 2) ** 2
    for t in (0.1, 0.25, 0.5, 0.8):
        assert spectral_fidelity(rho, sigma, t).value == pytest.approx(
            c2**t, abs=1e-12
        )


def test_pure_rho_closed_form_and_cross_check():
    rng = trial_rng(21, 0)
    rho = pure_state([1.0, 0.0, 0.0])
    sigma = random_density(3, 3, rng)
    p = float(np.real(sigma.mat[0, 0]))
    result = spectral_fidelity(rho, sigma, 0.3)
    assert result.value == pytest.approx(p**0.3, abs=1e-12)


def test_pure_sigma_closed_form():
    rng = trial_rng(21, 1)
    rho = random_density(3, 3, rng)
    sigma = pure_state([0.0, 1.0, 0.0])
    q = float(np.real(rho.mat[1, 1]))
    result = spectral_fidelity(rho, sigma, 0.3)
    assert result.value == pytest.approx(q**0.7, abs=1e-12)


def test_reference_pair_values():
    rho, sigma = DensityMatrix(REFERENCE_RHO), DensityMatrix(REFERENCE_SIGMA)
    assert spectral_fidelity(rho, sigma, 0.8).value == pytest.approx(
        0.7550853719736925, abs=1e-12
    )
    assert spectral_fidelity(rho, sigma, 0.8).value == pytest.approx(
        0.755086, abs=1e-4
    )


def test_midpoint_equals_uhlmann():
    for trial in range(20):
        rng = trial_rng(22, trial)
        dim = 2 + trial % 5
        rho = random_density(dim, dim, rng)
        sigma = random_density(dim, dim, rng)
        assert spectral_fidelity(rho, sigma, 0.5).value == pytest.approx(
            uhlmann_fidelity(rho, sigma).value, abs=1e-10
        )


def test_uhlmann_commuting_is_affinity():
    p = [0.7, 0.2, 0.1]
    q = [0.1, 0.3, 0.6]
    rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    expect = sum(math.sqrt(pi * qi) for pi, qi in zip(p, q))
    assert uhlmann_fidelity(rho, sigma).value == pytest.approx(expect, abs=1e-13)


def test_matsumoto_values():
    p = [0.7, 0.3]
    q = [0.4, 0.6]
    rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    expect = sum(math.sqrt(pi * qi) for pi, qi in zip(p, q))
    assert matsumoto_fidelity(rho, sigma).value == pytest.approx(expect, abs=1e-13)
    # Pure first argument: sqrt of the overlap, for any second argument.
    rng = trial_rng(23, 0)
    pure = pure_state([1.0, 0.0, 0.0])
    sigma3 = random_density(3, 3, rng)
    overlap = float(np.real(sigma3.mat[0, 0]))
    assert matsumoto_fidelity(pure, sigma3).value == pytest.approx(
        math.sqrt(overlap), abs=1e-12
    )


def test_matsumoto_below_uhlmann():
    for trial in range(20):
        rng = trial_rng(23, trial + 1)
        dim = 2 + trial % 4
        rho = random_density(dim, dim, rng)
        sigma = random_density(dim, dim, rng)
        assert (
            matsumoto_fidelity(rho, sigma).value
            <= uhlmann_fidelity(rho, sigma).value + 1e-12
        )


def test_sandwiched_renyi_alpha2_oracle():
    # Pure excited state against the maximally mixed qubit: exactly log 2.
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.eye(2) / 2)
    assert sandwiched_renyi(rho, sigma, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_sandwiched_renyi_classical_oracle():
    p = [0.8, 0.2]
    q = [0.3, 0.7]
    rho, sigma = DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q))
    for alpha in (0.5, 2.0, 3.0):
        expect = math.log(
            sum(pi**alpha * qi ** (1.0 - alpha) for pi, qi in zip(p, q))
        ) / (alpha - 1.0)
        assert sandwiched_renyi(rho, sigma, alpha) == pytest.approx(expect, abs=1e-12)


def test_sandwiched_renyi_half_is_minus_two_log_uhlmann():
    for trial in range(10):
        rng = trial_rng(24, trial)
        rho = random_density(3, 3, rng)
        sigma = random_density(3, 3, rng)
        expect = -2.0 * math.log(uhlmann_fidelity(rho, sigma).value)
        assert sandwiched_renyi(rho, sigma, 0.5) == pytest.approx(expect, abs=1e-10)


def test_sandwiched_renyi_validation():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ParamError):
        sandwiched_renyi(rho, rho, 1.0)
    with pytest.raises(ParamError):
        sandwiched_renyi(rho, rho, 0.0)
    # alpha > 1 needs support containment.
    full = DensityMatrix(np.eye(2) / 2)
    narrow = DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(SupportError):
        sandwiched_renyi(full, narrow, 2.0)


def test_diagonal_zero_conventions():
    assert diagonal_spectral_fidelity([1.0, 0.0], [0.0, 1.0], 0.5).value == 0.0
    # p_i = 0 contributes nothing for t < 1; q_i = 0 nothing for t > 0.
    assert diagonal_spectral_fidelity([1.0, 0.0], [0.5, 0.5], 0.5).value == (
        pytest.approx(math.sqrt(0.5), abs=1e-15)
    )
    # At t = 0 the q-zero term survives as p_i.
    assert diagonal_spectral_fidelity([0.5, 0.5], [1.0, 0.0], 0.0).value == (
        pytest.approx(1.0, abs=1e-15)
    )
    with pytest.raises(DimensionMismatch):
        diagonal_spectral_fidelity([1.0], [0.5, 0.5], 0.5)


def test_parameter_range_and_extension():
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    sigma = DensityMatrix(np.diag([0.6, 0.4]))
    with pytest.raises(ParamError):
        spectral_fidelity(rho, sigma, 1.2)
    extended = spectral_fidelity(rho, sigma, 1.5, extended=True).value
    assert extended == pytest.approx(_expected_extended(rho, sigma, 1.5), abs=1e-12)


def _expected_extended(rho, sigma, t):
    p = np.real(np.diag(rho.mat))
    q = np.real(np.diag(sigma.mat))
    return float(sum(pi ** (1 - t) * qi**t for pi, qi in zip(p, q)))


def test_endpoints_full_rank():
    rng = trial_rng(26, 0)
    rho = random_density(4, 4, rng)
    sigma = random_density(4, 4, rng)
    assert spectral_fidelity(rho, sigma, 0.0).value == pytest.approx(1.0, abs=1e-10)
    assert spectral_fidelity(rho, sigma, 1.0).value == pytest.approx(1.0, abs=1e-10)


def test_fvg_bounds_values():
    rho = DensityMatrix(np.eye(2) / 2)
    gaps = fvg_bounds(rho, rho, 0.3)
    assert gaps.lower_gap == pytest.approx(0.0, abs=1e-12)
    assert gaps.trace_dist_half == pytest.approx(0.0, abs=1e-12)
    assert gaps.second_rhs == pytest.approx(0.0, abs=1e-6)
    # Pure pair with overlap c: half trace distance sqrt(1 - c^2).
    theta = 1.1
    a = pure_state([1.0, 0.0])
    b = pure_state([math.cos(theta / 2), math.sin(theta / 2)])
    c2 = math.cos(theta / 2) ** 2
    got = fvg_bounds(a, b, 0.25)
    assert got.trace_dist_half == pytest.approx(math.sqrt(1 - c2), abs=1e-12)
    f = c2**0.25
    assert got.lower_gap == pytest.approx(1 - f, abs=1e-12)
    assert got.second_rhs == pytest.approx(math.sqrt(1 - f * f), abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spectral_fidelity(
            DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3), 0.5
        )


def test_bloch_pair_closed_form():
    # Pure rho on the z-axis against a mixed sigma: overlap (1 + rz)/2
    # ... combined through the general path.
    rho = from_bloch([0.0, 0.0, 1.0])
    sigma = from_bloch([0.2, -0.1, 0.3])
    overlap = float(np.real(np.trace(rho.mat @ sigma.mat)))
    for t in (0.25, 0.5, 0.75):
        assert spectral_fidelity(rho, sigma, t).value == pytest.approx(
            overlap**t, abs=1e-12
        )


def _per_t_reference(rho, sigma, t):
    """The matrix route: Tr[rho X^(2t)] with the power formed explicitly."""
    x = riccati_solution(rho.mat, sigma.mat)
    return float(np.real(np.trace(rho.mat @ frac_power(x, 2 * t, support_only=True))))


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("kind", ["full", "pure_rho", "pure_sigma", "half_rank"])
def test_curve_matches_per_t_matrix_route(dim, kind):
    rng = trial_rng(31, dim)
    ranks = {
        "full": (dim, dim),
        "pure_rho": (1, dim),
        "pure_sigma": (dim, 1),
        "half_rank": (dim // 2, dim),
    }[kind]
    rho = random_density(dim, ranks[0], rng)
    sigma = random_density(dim, ranks[1], rng)
    grid = [-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
    curve = spectral_fidelity_curve(rho, sigma, grid, extended=True)
    for t, value in zip(grid, curve):
        expect = _per_t_reference(rho, sigma, t)
        assert value == pytest.approx(expect, abs=1e-12), t


def test_single_point_equals_curve_point_exactly():
    rng = trial_rng(32, 0)
    grid = [round(0.05 * k, 10) for k in range(21)]
    for rank in (1, 2, 3):
        rho = random_density(3, rank, rng)
        sigma = random_density(3, 3, rng)
        curve = spectral_fidelity_curve(rho, sigma, grid)
        reversed_curve = spectral_fidelity_curve(rho, sigma, grid[::-1])
        for i, t in enumerate(grid):
            assert spectral_fidelity(rho, sigma, t).value == curve[i]
            assert reversed_curve[-1 - i] == curve[i]
    # A grid's powers are one broadcast, a one-point call's the scalar
    # lam ** (2t); at t = -0.5, 0.25 and 1 (2t = -1, 0.5, 2) only the scalar
    # takes numpy's reciprocal, sqrt and square paths, which a broadcast
    # power misses by one ulp on some pairs.
    extended_grid = [-0.5, -0.25, *grid, 1.5]
    for dim in (2, 4, 8):
        for trial in range(17):
            rho = random_density(dim, 1 + trial % dim, rng)
            sigma = random_density(dim, dim, rng)
            curve = spectral_fidelity_curve(rho, sigma, extended_grid, extended=True)
            for t, value in zip(extended_grid, curve):
                point = spectral_fidelity(rho, sigma, t, extended=True).value
                assert point == value, (dim, trial, t)


def _masked_support_trace(rho, sigma, t):
    """F_t of one pair from the support mask, w_k = <v_k|rho|v_k> on v[:, on]."""
    x = riccati_solution(rho.mat, sigma.mat)
    if t == 0.5:
        return float(np.real(np.trace(rho.mat @ x)))
    w, v, on = psd_eig(x)
    lam, v = w[on], v[:, on]
    weights = (v.conj() * (rho.mat @ v)).real.sum(axis=0)
    return float((weights * lam ** (2 * t)).sum())


@pytest.mark.parametrize("dim", [2, 3, 5, 9])
def test_stacked_fidelities_equal_per_pair_calls_exactly(dim):
    # One stack mixes full-rank, rank-deficient and pure pairs, so the
    # support of X = rho^{-1} # sigma has several sizes within it.  Each
    # pair's value must be bit for bit the one spectral_fidelity gives it
    # alone, and that the one of the per-pair support mask: a support of
    # one vector takes numpy's matrix-vector product there, which weights
    # computed on the full eigenbasis and masked afterwards miss by an ulp
    # on some pure pairs.
    rng = trial_rng(35, dim)
    ranks = sorted({1, max(1, dim // 2), dim - 1, dim})
    pairs = [
        (random_density(dim, ra, rng), random_density(dim, rb, rng))
        for _ in range(6)
        for ra in ranks
        for rb in ranks
    ]
    rho = np.stack([r.mat for r, _ in pairs]).reshape(2, -1, dim, dim)
    sigma = np.stack([s.mat for _, s in pairs]).reshape(2, -1, dim, dim)
    ts = (0, 0.25, 0.5, 0.8, 1)
    stacked = _spectral_fidelities(rho, sigma, ts)
    assert stacked.shape == (*rho.shape[:2], len(ts))
    alone = [[spectral_fidelity(r, s, t).value for t in ts] for r, s in pairs]
    assert stacked.reshape(-1, len(ts)).tolist() == alone
    assert alone == [[_masked_support_trace(r, s, t) for t in ts] for r, s in pairs]


@pytest.mark.parametrize("dim", [2, 4])
def test_power_traces_of_a_stack_equal_the_scalar_power_per_point(dim):
    # One call on a stack of X over an extended grid: each value equals
    # the one-point spectral_fidelity of its pair and the support-mask
    # formula with the scalar lam ** (2t).  The grid holds the fast
    # exponents 2t = -1, 0.5 and 2, where only the scalar power takes
    # numpy's reciprocal, sqrt and square paths, and t = 1/2, read off
    # as Tr[rho X].
    rng = trial_rng(36, dim)
    pairs = [
        (random_density(dim, 1 + trial % dim, rng), random_density(dim, dim, rng))
        for trial in range(24)
    ]
    rho = np.stack([r.mat for r, _ in pairs])
    x = np.stack([riccati_solution(r.mat, s.mat) for r, s in pairs])
    grid = (-0.5, -0.25, 0.0, 0.25, 0.3, 0.5, 1.0, 1.5)
    traces = _power_traces(rho, x, grid)
    assert traces.shape == (len(pairs), len(grid))
    for (r, s), row in zip(pairs, traces.tolist()):
        assert row == [spectral_fidelity(r, s, t, extended=True).value for t in grid]
        assert row == [_masked_support_trace(r, s, t) for t in grid]
    # One rho against a stack of X with supports of every size, as the
    # variational suite evaluates its candidates.
    r = random_density(dim, dim, rng)
    sigmas = [random_density(dim, 1 + trial % dim, rng) for trial in range(8)]
    x = np.stack([riccati_solution(r.mat, s.mat) for s in sigmas])
    for s, row in zip(sigmas, _power_traces(r.mat, x, grid).tolist()):
        assert row == [spectral_fidelity(r, s, t, extended=True).value for t in grid]


def test_curve_midpoint_is_the_uhlmann_trace():
    rng = trial_rng(33, 0)
    rho, sigma = random_density(4, 4, rng), random_density(4, 2, rng)
    x = riccati_solution(rho.mat, sigma.mat)
    (mid,) = spectral_fidelity_curve(rho, sigma, [0.5])
    assert mid == float(np.real(np.trace(rho.mat @ x)))
    assert mid == pytest.approx(uhlmann_fidelity(rho, sigma).value, abs=1e-12)


def test_curve_validation():
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    sigma = DensityMatrix(np.diag([0.6, 0.4]))
    with pytest.raises(ParamError):
        spectral_fidelity_curve(rho, sigma, [0.0, 1.2])
    with pytest.raises(DimensionMismatch):
        spectral_fidelity_curve(rho, DensityMatrix(np.eye(3) / 3), [0.3])
    assert spectral_fidelity_curve(rho, sigma, []) == []


def test_power_traces_rejects_non_psd_x():
    rho = np.diag([0.5, 0.5]).astype(complex)
    x = np.diag([1.0, -0.1]).astype(complex)
    with pytest.raises(DomainError):
        _power_traces(rho, x, [0.3])
    # t = 1/2 needs no decomposition, so no check runs there.
    assert _power_traces(rho, x, [0.5]).tolist() == [pytest.approx(0.45)]
    assert _power_traces(rho, x, [0.5, 0.5]).tolist() == [pytest.approx(0.45)] * 2
