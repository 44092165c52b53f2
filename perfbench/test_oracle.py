"""The oracle against hand-derived values.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracle

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]]))


def bloch(r) -> np.ndarray:
    return 0.5 * (np.eye(2) + sum(ri * p for ri, p in zip(r, PAULI)))


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.8, 1.0])
def test_pure_bloch_pair(t):
    # |0> against |+>: overlap 1/2, so F_t = 2^-t and Uhlmann = 2^-1/2
    rho, sigma = bloch((0, 0, 1)), bloch((1, 0, 0))
    assert oracle.route(rho, sigma) == "rank_one_rho"
    assert oracle.fidelity(rho, sigma, t) == pytest.approx(0.5**t, abs=1e-15)
    assert oracle.uhlmann(rho, sigma) == pytest.approx(math.sqrt(0.5), abs=1e-15)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_pure_against_mixed_bloch(t):
    # rank-one rho: F_t = ((1 + r.s)/2)^t; the matrix route through sigma agrees
    r, s = np.array([0.0, 0.6, 0.8]), np.array([0.3, -0.2, 0.5])
    rho, sigma = bloch(r), bloch(s)
    closed = (0.5 * (1 + r @ s)) ** t
    assert oracle.fidelity(rho, sigma, t) == pytest.approx(closed, abs=1e-14)
    assert oracle.fidelity(rho, sigma, t, via="full_rank_sigma") == pytest.approx(closed, abs=1e-12)


def test_midpoint_counterexample():
    # diag(0.99, 0.01) against I/2: F_t = 0.5^t (0.99^(1-t) + 0.01^(1-t))
    rho, sigma = np.diag([0.99, 0.01]), np.eye(2) / 2
    f_half = math.sqrt(0.495) + math.sqrt(0.005)
    f_06 = 0.5**0.6 * (0.99**0.4 + 0.01**0.4)
    assert oracle.route(rho, sigma) == "diagonal"
    assert oracle.fidelity(rho, sigma, 0.5) == pytest.approx(f_half, abs=1e-15)
    assert oracle.fidelity(rho, sigma, 0.6) == pytest.approx(f_06, abs=1e-15)
    assert f_06 < f_half
    for via in ("full_rank_rho", "full_rank_sigma"):
        assert oracle.fidelity(rho, sigma, 0.6, via=via) == pytest.approx(f_06, abs=1e-13)
    assert oracle.uhlmann(rho, sigma) == pytest.approx(f_half, abs=1e-14)


def test_orthogonal_and_zero_conventions():
    rho, sigma = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert oracle.fidelity(rho, sigma, 0.3) == 0.0
    assert oracle.diagonal_value([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 0.0) == pytest.approx(1.0)
    assert oracle.diagonal_value([0.5, 0.5, 0.0], [0.0, 0.5, 0.5], 1.0) == pytest.approx(1.0)


def test_means_of_diagonal_pair():
    a, b = np.diag([1.0, 4.0]), np.diag([4.0, 1.0])
    np.testing.assert_allclose(oracle.riccati(a, b), np.diag([2.0, 0.5]), atol=1e-14)
    np.testing.assert_allclose(oracle.geometric_mean(a, b), 2 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(oracle.weighted_mean(a, b, 0.0), a, atol=1e-13)
    np.testing.assert_allclose(oracle.weighted_mean(a, b, 1.0), b, atol=1e-13)


def test_curve_matches_pointwise_routes():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sigma = g @ g.conj().T + 0.3 * np.eye(3)
    sigma /= np.trace(sigma).real
    h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    half = h @ h.conj().T / np.trace(h @ h.conj().T).real
    ts = [0.0, 0.3, 0.5, 1.0]
    for rho in (sigma[::-1, ::-1].copy(), half):
        curve = oracle.curve(rho, sigma, ts)
        for t, value in zip(ts, curve):
            assert value == pytest.approx(oracle.fidelity(rho, sigma, t), abs=1e-13)
    full = sigma[::-1, ::-1].copy()
    assert oracle.curve(full, sigma, [0.0, 1.0]) == pytest.approx([1.0, 1.0], abs=1e-13)
    # F_1/2 is the Uhlmann fidelity, singular argument included
    assert oracle.curve(half, sigma, [0.5])[0] == pytest.approx(oracle.uhlmann(half, sigma), abs=1e-13)


def test_no_route_for_ill_conditioned_pair():
    # both states full rank with condition numbers near 1e9: nothing to invert
    def nearly_pure(eps):
        return np.array([[0.5, 0.5 - eps], [0.5 - eps, 0.5]])

    with pytest.raises(oracle.NoRoute):
        oracle.fidelity(nearly_pure(1e-9), nearly_pure(2e-9), 0.3)
