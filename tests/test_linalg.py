"""Eigendecomposition, matrix functions, and PSD machinery."""

from __future__ import annotations

import numpy as np
import pytest

from specfid import (
    DomainError,
    as_hermitian,
    block_psd,
    frac_power,
    hermitize,
    trace_norm,
)
from specfid.errors import DimensionMismatch
from specfid.linalg import eig, psd_cutoff, psd_eig, support_cutoff
from specfid.states import trial_rng


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g)


def test_eig_known_2x2():
    w, v = eig(as_hermitian(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)
    # Columns reconstruct the input.
    assert np.allclose((v * w) @ v.conj().T, [[2, 1], [1, 2]], atol=1e-13)


def test_eig_ascending_and_orthonormal():
    for trial in range(20):
        rng = trial_rng(3, trial)
        mat = _random_hermitian(5, rng)
        w, v = eig(mat)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
        assert np.allclose((v * w) @ v.conj().T, mat, atol=1e-11)


def test_as_hermitian_rejects_bad_inputs():
    with pytest.raises(DimensionMismatch):
        as_hermitian(np.ones((2, 3)))
    with pytest.raises(DomainError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DomainError):
        as_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitize_returns_hermitian_part():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.allclose(hermitize(mat), [[1.0, 1.0], [1.0, 1.0]])


def test_frac_power_diagonal_oracle():
    mat = np.diag([0.25, 1.0, 9.0])
    for alpha in (-0.5, 0.0, 0.3, 0.5, 1.0, 2.0):
        out = frac_power(mat, alpha)
        expect = [x**alpha for x in (0.25, 1.0, 9.0)]
        assert np.allclose(np.diag(out), expect, atol=1e-13), alpha


def test_frac_power_sqrt_squares_back():
    for trial in range(10):
        rng = trial_rng(5, trial)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = hermitize(g @ g.conj().T)
        root = frac_power(mat, 0.5)
        assert np.allclose(root @ root, mat, atol=1e-10 * np.abs(mat).max())


def test_frac_power_composition():
    rng = trial_rng(6, 0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = hermitize(g @ g.conj().T) + 0.5 * np.eye(3)
    a = frac_power(frac_power(mat, 0.6), 0.5)
    b = frac_power(mat, 0.3)
    assert np.allclose(a, b, atol=1e-12)


def test_frac_power_alpha_zero_identity_vs_projector():
    mat = np.diag([0.0, 2.0])
    assert np.allclose(frac_power(mat, 0.0), np.eye(2))
    assert np.allclose(frac_power(mat, 0.0, support_only=True), np.diag([0.0, 1.0]))


def test_frac_power_negative_power_of_singular_raises():
    with pytest.raises(DomainError):
        frac_power(np.diag([0.0, 1.0]), -1.0)
    # Support restriction inverts on the support instead.
    out = frac_power(np.diag([0.0, 4.0]), -0.5, support_only=True)
    assert np.allclose(np.diag(out), [0.0, 0.5], atol=1e-14)


def test_frac_power_rejects_indefinite():
    with pytest.raises(DomainError):
        frac_power(np.diag([-1.0, 1.0]), 0.5)


def test_frac_power_clips_rounding_negatives():
    out = frac_power(np.diag([-1e-12, 1.0]), 0.5)
    assert abs(np.diag(out)[0]) == 0.0


def test_support_cutoff_unit_floor_kills_noise_only_matrices():
    # A matrix that is zero up to rounding must have an empty support,
    # not a support made of noise eigenvalues.
    noise = np.diag([1e-17, 3e-16])
    assert np.allclose(frac_power(noise, 0.0, support_only=True), 0.0)
    assert support_cutoff(np.array([1e-17, 3e-16])) == pytest.approx(1e-13)


def test_support_cutoff_keeps_genuine_tiny_eigenvalues():
    # Well above eigensolver noise, far below the PSD acceptance scale.
    mat = np.diag([1e-11, 1.0])
    proj = frac_power(mat, 0.0, support_only=True)
    assert np.allclose(proj, np.eye(2), atol=1e-14)
    root = frac_power(mat, 0.5, support_only=True)
    assert np.diag(root)[0] == pytest.approx(np.sqrt(1e-11))


def test_psd_cutoff_scales_with_matrix():
    assert psd_cutoff(np.eye(2)) == pytest.approx(1e-10)
    assert psd_cutoff(100.0 * np.eye(2)) == pytest.approx(1e-8)


def test_stacked_cutoffs_are_per_matrix():
    # A stack decides the PSD check and the support of each matrix with
    # that matrix's own scale, and names the first matrix that fails.
    stack = np.stack([np.diag([1e-12, 100.0]), np.diag([-2e-9, 1.0]),
                      np.diag([-3e-9, 1.0])]).astype(complex)
    assert psd_cutoff(stack).tolist() == pytest.approx([1e-8, 1e-10, 1e-10])
    with pytest.raises(DomainError, match="min eigenvalue -2.000e-09"):
        psd_eig(stack)
    w, _, on = psd_eig(stack[:1])
    assert support_cutoff(w).tolist() == pytest.approx([1e-11])
    assert on.tolist() == [[False, True]]


def test_trace_norm_signed_spectrum():
    assert trace_norm(np.diag([-3.0, 4.0])) == pytest.approx(7.0)


def test_block_psd_known_cases():
    eye = np.eye(2)
    assert block_psd(eye, 0.5 * eye, eye)
    assert not block_psd(eye, 2.0 * eye, eye)
    assert block_psd(eye, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        block_psd(eye, np.ones((2, 3)), eye)


def test_block_psd_schur_criterion():
    # For A, C > 0 the block is PSD iff C >= B† A^{-1} B.
    rng = trial_rng(9, 0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = hermitize(g @ g.conj().T) + np.eye(3)
    b = 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    schur = hermitize(b.conj().T @ np.linalg.inv(a) @ b)
    assert block_psd(a, b, schur + 1e-6 * np.eye(3))
    assert not block_psd(a, b, schur - 1e-6 * np.eye(3))
