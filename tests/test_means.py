"""Geometric, Riccati, and weighted spectral means."""

from __future__ import annotations

import numpy as np
import pytest

from specfid import (
    DomainError,
    ParamError,
    frac_power,
    geometric_mean,
    hermitize,
    riccati_solution,
    variational_objective,
    weighted_spectral_mean,
)
from specfid.states import trial_rng


def _random_pd(dim, rng, floor=0.1):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g @ g.conj().T / dim + floor * np.eye(dim))


def _db_sqrt(mat, iters=60):
    """Denman-Beavers square root: an inversion-based independent route."""
    y = np.asarray(mat, dtype=complex)
    z = np.eye(len(mat), dtype=complex)
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z = 0.5 * (z + np.linalg.inv(y))
        y = y_next
    return y


def test_geometric_mean_commuting_oracle():
    a, b = np.diag([1.0, 4.0, 0.25]), np.diag([9.0, 1.0, 4.0])
    expect = [3.0, 2.0, 1.0]
    assert np.allclose(np.diag(geometric_mean(a, b)), expect, atol=1e-13)


def test_geometric_mean_vs_inversion_based_route():
    # A # B = A (A^{-1} B)^{1/2}; the right factor is computed here by
    # Denman-Beavers iteration, which shares no code with the library.
    for trial in range(15):
        rng = trial_rng(11, trial)
        dim = 2 + trial % 3
        a, b = _random_pd(dim, rng), _random_pd(dim, rng)
        oracle = a @ _db_sqrt(np.linalg.inv(a) @ b)
        got = geometric_mean(a, b)
        assert np.allclose(got, oracle, atol=1e-10 * np.abs(oracle).max())


def test_geometric_mean_defining_equation():
    rng = trial_rng(12, 0)
    a, b = _random_pd(4, rng), _random_pd(4, rng)
    g = geometric_mean(a, b)
    assert np.allclose(g @ np.linalg.inv(a) @ g, b, atol=1e-10)


def test_geometric_mean_identity_cases():
    rng = trial_rng(12, 1)
    a = _random_pd(3, rng)
    assert np.allclose(geometric_mean(a, a), a, atol=1e-11)
    assert np.allclose(geometric_mean(a, np.linalg.inv(a)), np.eye(3), atol=1e-11)


def test_riccati_solves_its_equation():
    for trial in range(10):
        rng = trial_rng(13, trial)
        dim = 2 + trial % 4
        a, b = _random_pd(dim, rng), _random_pd(dim, rng)
        x = riccati_solution(a, b)
        assert np.allclose(x @ a @ x, b, atol=1e-10 * np.abs(b).max())


def test_riccati_is_mean_of_inverse():
    rng = trial_rng(13, 20)
    a, b = _random_pd(3, rng), _random_pd(3, rng)
    assert np.allclose(
        riccati_solution(a, b), geometric_mean(np.linalg.inv(a), b), atol=1e-10
    )


def test_spectral_mean_eigenvalue_law():
    # Eigenvalues of the spectral mean are the square roots of the
    # eigenvalues of the (non-Hermitian) product A B.
    for trial in range(10):
        rng = trial_rng(14, trial)
        dim = 2 + trial % 4
        a, b = _random_pd(dim, rng), _random_pd(dim, rng)
        got = np.sort(np.linalg.eigvalsh(weighted_spectral_mean(a, b, 0.5)))
        expect = np.sort(np.sqrt(np.real(np.linalg.eigvals(a @ b))))
        assert np.allclose(got, expect, atol=1e-10 * expect.max())


def test_weighted_mean_diagonal_oracle():
    a, b = np.diag([0.5, 2.0]), np.diag([3.0, 0.25])
    for t in (0.0, 0.3, 0.5, 0.8, 1.0):
        got = np.diag(weighted_spectral_mean(a, b, t))
        expect = [0.5 ** (1 - t) * 3.0**t, 2.0 ** (1 - t) * 0.25**t]
        assert np.allclose(got, expect, atol=1e-13), t


def test_weighted_mean_endpoints_and_midpoint():
    rng = trial_rng(15, 0)
    a, b = _random_pd(3, rng), _random_pd(3, rng)
    assert np.allclose(weighted_spectral_mean(a, b, 0.0), a, atol=1e-11)
    assert np.allclose(weighted_spectral_mean(a, b, 1.0), b, atol=1e-10)


def test_weighted_mean_flip_law():
    rng = trial_rng(15, 1)
    a, b = _random_pd(3, rng), _random_pd(3, rng)
    for t in (0.2, 0.7):
        assert np.allclose(
            weighted_spectral_mean(a, b, t),
            weighted_spectral_mean(b, a, 1.0 - t),
            atol=1e-10,
        )


def test_weighted_mean_parameter_validation():
    rng = trial_rng(15, 2)
    a, b = _random_pd(2, rng), _random_pd(2, rng)
    with pytest.raises(ParamError):
        weighted_spectral_mean(a, b, 1.5)
    out = weighted_spectral_mean(a, b, -0.5, extended=True)
    assert np.all(np.linalg.eigvalsh(out) > 0)


def test_means_stay_psd_under_ill_conditioning():
    # Gram-form assembly: outputs must be PSD to rounding even when one
    # input is nearly pure, so downstream fractional powers never see
    # amplified negative noise.
    plus = np.full((2, 2), 0.5, dtype=complex)
    for trial in range(50):
        rng = trial_rng(16, trial)
        p = 10.0 ** rng.uniform(-3, np.log10(0.2))
        delta = 10.0 ** rng.uniform(-4, -2)
        psi = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
        rho = (1 - delta) * plus + delta * np.eye(2) / 2
        sigma = (1 - delta) * np.outer(psi, psi.conj()) + delta * np.eye(2) / 2
        x = riccati_solution(rho, sigma)
        assert float(np.linalg.eigvalsh(x)[0]) >= -1e-15
        # This fractional power used to fail on kappa-amplified noise.
        frac_power(x, 1.6, support_only=True)
        for mean in (geometric_mean(rho, sigma), weighted_spectral_mean(rho, sigma, 0.8)):
            assert float(np.linalg.eigvalsh(mean)[0]) >= -1e-15


def test_singular_input_support_behaviour():
    # Rank-deficient A: the mean lives on the support of A.
    a = np.diag([1.0, 0.0])
    b = np.diag([0.5, 0.5])
    g = geometric_mean(a, b)
    assert np.allclose(g, np.diag([np.sqrt(0.5), 0.0]), atol=1e-12)


def test_variational_objective_minimum_at_riccati():
    rng = trial_rng(17, 0)
    a, b = _random_pd(3, rng), _random_pd(3, rng)
    x_star = riccati_solution(a, b)
    base = variational_objective(a, b, x_star)
    assert base == pytest.approx(
        2.0 * float(np.real(np.trace(weighted_spectral_mean(a, b, 0.5)))), rel=1e-10
    )
    for trial in range(25):
        rng2 = trial_rng(17, trial + 1)
        perturbed = hermitize(x_star + 0.2 * _random_pd(3, rng2, floor=0.0))
        assert variational_objective(a, b, perturbed) >= base - 1e-10


def test_variational_objective_needs_positive_x():
    rng = trial_rng(17, 100)
    a, b = _random_pd(2, rng), _random_pd(2, rng)
    with pytest.raises(DomainError):
        variational_objective(a, b, np.diag([1.0, 0.0]))
