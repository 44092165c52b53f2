"""Density matrices, Bloch coordinates, sampling, and channels."""

from __future__ import annotations

import numpy as np
import pytest

from specfid import (
    Channel,
    DensityMatrix,
    NormalizationError,
    NormError,
    ParamError,
    apply,
    from_bloch,
    orthogonal_pair,
    pinching,
    pure_state,
    random_density,
    random_unitary,
    tensor,
    trial_rng,
)
from specfid.errors import DimensionMismatch, ZeroVector
from specfid.linalg import hermitize
from specfid.states import _densities, _trial_states, _unitaries
from specfid.verify import replay_reference_counterexample


def test_density_matrix_validation():
    with pytest.raises(NormalizationError):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(NormalizationError):
        DensityMatrix(np.diag([1.5, -0.5]))
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    assert rho.dim == 2 and rho.rank == 2


def test_density_matrix_rank_detection():
    assert DensityMatrix(np.diag([1.0, 0.0, 0.0])).rank == 1
    assert DensityMatrix(np.diag([0.5, 0.5, 0.0])).rank == 2


def test_density_matrix_is_immutable():
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def _pauli_expectations(rho):
    paulis = (
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    return np.array([np.real(np.trace(rho.mat @ p)) for p in paulis])


def test_bloch_round_trip():
    r = np.array([0.3, -0.4, 0.5])
    assert np.allclose(_pauli_expectations(from_bloch(r)), r, atol=1e-14)
    assert np.allclose(_pauli_expectations(from_bloch([0, 0, 0])), 0.0)


def test_bloch_pure_on_sphere():
    rho = from_bloch([0.0, 0.0, 1.0])
    assert rho.rank == 1
    assert np.allclose(rho.mat, np.diag([1.0, 0.0]))


def test_bloch_validation():
    with pytest.raises(NormError):
        from_bloch([1.0, 1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        from_bloch([1.0, 0.0])


def test_pure_state_normalizes():
    rho = pure_state([3.0, 4.0])
    assert rho.rank == 1
    assert rho.mat[0, 0] == pytest.approx(9.0 / 25.0)
    with pytest.raises(ZeroVector):
        pure_state([0.0, 0.0])


def test_trial_rng_deterministic_and_split():
    a = trial_rng(42, 7).standard_normal(4)
    b = trial_rng(42, 7).standard_normal(4)
    c = trial_rng(42, 8).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _numpy_stream(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


# 2**32 and up take two or more entropy words, 2**32 + 3 as a trial too
_TRIALS = (0, 1, 255, 256, 10**6, 2**32 + 3)


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1, 2**32, 2**64 + 5, 10**30])
def test_trial_streams_are_numpys_spawned_streams(seed):
    # One seeding pass over many trials, and trial_rng, the pass over
    # one, give each trial numpy's own stream for (seed, trial).
    rng = np.random.Generator(np.random.PCG64(0))
    for trial, state in zip(_TRIALS, _trial_states(seed, _TRIALS)):
        ref = _numpy_stream(seed, trial)
        assert state == ref.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(6), ref.standard_normal(6))
        alone = trial_rng(seed, trial)
        ref = _numpy_stream(seed, trial)
        assert alone.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(alone.integers(0, 1000, 6), ref.integers(0, 1000, 6))


def test_trial_streams_reject_negative_trials():
    with pytest.raises(ParamError, match="trial -1 must be non-negative"):
        trial_rng(3, -1)


def _bytes(mats) -> list[bytes]:
    return [np.asarray(m).tobytes() for m in mats]


@pytest.mark.parametrize("dim, rank", [(2, 2), (3, 3), (4, 1), (5, 2), (6, 6), (8, 8)])
def test_stacked_draws_equal_the_one_draw_wrappers(dim, rank):
    # Over more than 256 trials each stacked value is the one-draw value,
    # byte for byte, and both are the per-draw formula written out; a
    # trial's run of draws is one standard_normal call.
    trials = range(300)

    def gaussian(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def density(rng, rank):
        g = gaussian(rng, (dim, rank))
        mat = g @ g.conj().T
        return hermitize(mat / np.real(np.trace(mat)))

    rho, sigma = _densities((trial_rng(5, k) for k in trials), dim, rank, dim)
    pairs = [(trial_rng(5, k), trial_rng(5, k)) for k in trials]
    one = [(random_density(dim, rank, a).mat, random_density(dim, dim, a).mat) for a, _ in pairs]
    formula = [(density(b, rank), density(b, dim)) for _, b in pairs]
    assert _bytes(rho) == _bytes(m for m, _ in one) == _bytes(m for m, _ in formula)
    assert _bytes(sigma) == _bytes(m for _, m in one) == _bytes(m for _, m in formula)

    def unitary(rng):
        q, r = np.linalg.qr(gaussian(rng, (dim, dim)))
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        return q * phases

    stacked = _unitaries((trial_rng(6, k) for k in trials), dim)
    one = [random_unitary(dim, trial_rng(6, k)) for k in trials]
    assert _bytes(stacked) == _bytes(one) == _bytes(unitary(trial_rng(6, k)) for k in trials)


def test_random_density_rank_and_trace():
    rng = trial_rng(1, 0)
    rho = random_density(4, 2, rng)
    assert rho.rank == 2
    assert float(np.real(np.trace(rho.mat))) == pytest.approx(1.0)
    with pytest.raises(ParamError):
        random_density(3, 4, rng)


def test_random_unitary_is_unitary():
    u = random_unitary(4, trial_rng(2, 0))
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_channel_kraus_completeness_enforced():
    with pytest.raises(NormalizationError):
        Channel((np.eye(2) * 0.5,))
    with pytest.raises(ParamError):
        Channel(())


def test_states_and_channels_compare_and_hash_by_identity():
    rho, twin = DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(2) / 2)
    assert (rho == twin) is False and (rho == rho) is True
    assert (Channel((np.eye(2),)) == Channel((np.eye(2),))) is False
    assert len({rho, twin, rho}) == 2
    assert hash(pinching(2)) == hash(pinching(2))
    assert pinching(2) == pinching(2)  # cached: one channel per dimension
    witness = replay_reference_counterexample()
    assert witness == witness
    assert (witness == replay_reference_counterexample()) is False


def test_pinching_dephases():
    rho = DensityMatrix(np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex))
    out = apply(pinching(2), rho)
    assert np.allclose(out.mat, np.diag([0.5, 0.5]))


def test_apply_dimension_check():
    with pytest.raises(DimensionMismatch):
        apply(pinching(2), DensityMatrix(np.eye(3) / 3))


def test_tensor_product():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    out = tensor(rho, sigma)
    assert out.dim == 4
    assert np.allclose(np.diag(out.mat), [0.125, 0.125, 0.375, 0.375])


def test_orthogonal_pair_supports_disjoint():
    rho, sigma = orthogonal_pair(2, 3, trial_rng(4, 0))
    assert rho.dim == sigma.dim == 5
    assert float(np.abs(rho.mat @ sigma.mat).max()) == 0.0


def _sampled(dim: int, rank: int, rng) -> np.ndarray:
    """The matrix random_density normalizes, drawn from the same stream."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return mat / np.real(np.trace(mat))


def _derived_cases() -> dict:
    """Each state a builder derives, paired with the matrix it derives it from."""
    cases = {}
    for dim in (2, 3, 4):
        for rank in range(1, dim + 1):
            state = random_density(dim, rank, dim * 10 + rank)
            raw = _sampled(dim, rank, np.random.default_rng(dim * 10 + rank))
            cases[f"random_density_{dim}_{rank}"] = (state, raw)
            kraus = pinching(dim).kraus
            cases[f"apply_pinching_{dim}_{rank}"] = (
                apply(pinching(dim), state),
                sum(k @ state.mat @ k.conj().T for k in kraus),
            )
        a, b = random_density(2, 1, 5), random_density(dim, dim, 6)
        cases[f"tensor_2x{dim}"] = (tensor(a, b), np.kron(a.mat, b.mat))
        rho, sigma = orthogonal_pair(dim, 2, dim)
        rng = np.random.default_rng(dim)
        rho_raw = np.zeros((dim + 2, dim + 2), dtype=complex)
        sigma_raw = np.zeros_like(rho_raw)
        rho_raw[:dim, :dim] = _sampled(dim, dim, rng)
        sigma_raw[dim:, dim:] = _sampled(2, 2, rng)
        cases[f"orthogonal_pair_rho_{dim}"] = (rho, rho_raw)
        cases[f"orthogonal_pair_sigma_{dim}"] = (sigma, sigma_raw)
    return cases


_DERIVED = _derived_cases()


@pytest.mark.parametrize("name", sorted(_DERIVED))
def test_derived_states_match_validated_construction(name):
    derived, raw = _DERIVED[name]
    checked = DensityMatrix(raw)
    assert derived.mat.tobytes() == checked.mat.tobytes()
    assert not derived.mat.flags.writeable
    assert derived.rank == checked.rank
