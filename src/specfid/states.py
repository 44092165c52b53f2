"""Density matrices, Bloch parametrization, sampling, and CPTP maps."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NormalizationError,
    NormError,
    ParamError,
    ZeroVector,
)
from .linalg import as_hermitian, hermitize, psd_cutoff, real_trace, spectrum

# Pauli basis used by the qubit parametrization.
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_TRACE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix.

    DensityMatrix(mat) runs as_hermitian and the PSD and trace checks
    and keeps the rank its spectrum gives; _derived, for states built
    from validated states, only hermitizes, and their rank is computed
    on first read. rank counts the eigenvalues above psd_cutoff, a
    coarser threshold than the kernels' support_cutoff, so an eigenvalue
    between the two lies outside the rank but inside the support the
    matrix functions use. Equality and hashing are by identity.
    """

    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = as_hermitian(self.mat)
        w = spectrum(mat)
        if float(w[0]) < -psd_cutoff(mat):
            raise NormalizationError(
                f"not a state: min eigenvalue {float(w[0]):.3e}"
            )
        trace = float(np.real(np.trace(mat)))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise NormalizationError(f"not a state: trace {trace!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        self.__dict__["rank"] = int(np.count_nonzero(w > psd_cutoff(mat)))

    @classmethod
    def _derived(cls, mat: np.ndarray) -> DensityMatrix:
        """A state built from validated states: hermitized, not re-checked."""
        state = object.__new__(cls)
        mat = hermitize(np.asarray(mat, dtype=complex))
        mat.setflags(write=False)
        object.__setattr__(state, "mat", mat)
        return state

    @cached_property
    def rank(self) -> int:
        return int(np.count_nonzero(spectrum(self.mat) > psd_cutoff(self.mat)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _bloch_matrix(r: np.ndarray) -> np.ndarray:
    """(I + r . pauli)/2 of a real 3-vector, or of each row of an (n, 3)
    stack of them, unchecked."""
    mat = np.eye(2, dtype=complex)
    for k, pauli in enumerate(_PAULI):
        mat = mat + r[..., k, None, None] * pauli
    return mat / 2


def from_bloch(r) -> DensityMatrix:
    """Qubit state (I + r . pauli)/2 from a real 3-vector of length <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatch(f"expected a 3-vector, got shape {r.shape}")
    if float(np.linalg.norm(r)) > 1.0 + 1e-12:
        raise NormError(f"vector norm {float(np.linalg.norm(r))!r} exceeds 1")
    return DensityMatrix(_bloch_matrix(r))


def pure_state(psi) -> DensityMatrix:
    """Rank-one projector onto a nonzero vector, normalized internally."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if norm <= 1e-150:
        raise ZeroVector("cannot normalize a zero state vector")
    psi = psi / norm
    return DensityMatrix(np.outer(psi, psi.conj()))


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _non_negative(n: int, name: str) -> int:
    n = operator.index(n)
    if n < 0:
        raise ParamError(f"{name} {n} must be non-negative")
    return n


def _words(n: int, name: str) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; 0 is [0]."""
    n = _non_negative(n, name)
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


@cache
def _hashes(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants init * mult**k mod 2**32, k = 0..count."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)], np.uint32)


def _trial_states(seed: int, trials) -> list[dict]:
    """The PCG64 state of default_rng(SeedSequence(entropy=seed,
    spawn_key=(trial,))) for each trial, in one pass: SeedSequence mixes
    the seed's words, zero-padded to its pool of four, with 4 hashes a
    word, then each trial's words, here as uint32 arrays; generate_state
    hashes each pool into four 64-bit words, and PCG64's two LCG seeding
    steps make them the trial's state."""
    run = _words(seed, "seed")
    run += [0] * (4 - len(run))
    words = [_words(trial, "trial") for trial in trials]
    pool = np.tile(np.random.SeedSequence(run).pool, (len(words), 1))
    hashes = _hashes(0x43B0D7E5, 0x931E8875, 4 * (len(run) + max(map(len, words))))
    for m in range(max(map(len, words))):
        has = np.array([len(w) > m for w in words])
        word = np.array([w[m] if len(w) > m else 0 for w in words], np.uint32)[:, None]
        h = hashes[4 * (len(run) + m):]
        hashed = (word ^ h[:4]) * h[1:5]
        hashed ^= hashed >> 16
        mixed = pool * np.uint32(0xCA01F9DD) - hashed * np.uint32(0x4973F715)
        pool[has] = (mixed ^ mixed >> 16)[has]
    h = _hashes(0x8B51F9DD, 0x58F38DED, 8)
    state = (np.tile(pool, 2) ^ h[:-1]) * h[1:]
    states = []
    for s_hi, s_lo, i_hi, i_lo in (state ^ state >> 16).astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        value = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": value, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, split off the suite seed by trial index.

    Splitting keys the stream to (seed, trial), so trials are
    reproducible independently of evaluation order: it is numpy's
    default_rng(SeedSequence(entropy=seed, spawn_key=(trial,))), whose
    stream _trial_states seeds for many trials at once.  Seed and trial
    must be non-negative integers.
    """
    seed, trial = _non_negative(seed, "seed"), _non_negative(trial, "trial")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _split_gaussians(rows, shapes) -> list[np.ndarray]:
    """The complex Gaussians of these (rows, cols) shapes that each row of
    normals holds, one stack per shape: real part, then imaginary part,
    as standard_normal(shape) + 1j * standard_normal(shape) draws them,
    so a trial draws its run of such matrices in one call."""
    rows, stacks, start = np.asarray(rows), [], 0
    for r, c in shapes:
        re, im = rows[:, start:start + 2 * r * c].reshape(-1, 2, r, c).swapaxes(0, 1)
        stacks.append(re + 1j * im)
        start += 2 * r * c
    return stacks


def _gaussians(rngs, *shapes) -> list[np.ndarray]:
    """Each trial's complex Gaussian matrices of these shapes, one stack per shape."""
    size = 2 * sum(r * c for r, c in shapes)
    return _split_gaussians([rng.standard_normal(size) for rng in rngs], shapes)


def _gram(g: np.ndarray) -> np.ndarray:
    """Trace-normalized G G†, hermitized, of each matrix of a Gaussian
    stack; the stack's one shape fixes the rounding of the product."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return hermitize(mat / real_trace(mat)[..., None, None])


def _densities(rngs, dim: int, *ranks: int) -> list[np.ndarray]:
    """Each trial's random_density states of these ranks, one stack per rank."""
    return [_gram(g) for g in _gaussians(rngs, *((dim, rank) for rank in ranks))]


def _haar(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each matrix of a Gaussian stack, with R's phases fixed."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def _unitaries(rngs, dim: int) -> np.ndarray:
    """Each trial's random_unitary, as one stack."""
    return _haar(_gaussians(rngs, (dim, dim))[0])


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Trace-normalized G G† with G a dim x rank complex Gaussian matrix."""
    if not 1 <= rank <= dim:
        raise ParamError(f"rank {rank} outside 1..{dim}")
    return DensityMatrix._derived(_densities([np.random.default_rng(seed)], dim, rank)[0][0])


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    if dim < 1:
        raise ParamError(f"dimension {dim} must be positive")
    return _unitaries([np.random.default_rng(seed)], dim)[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """CPTP map in Kraus form: finite K_i with sum K_i† K_i within
    _TRACE_TOL of I (Frobenius), kept as read-only copies, so apply's
    images need no trace check. Equality and hashing are by identity."""

    kraus: tuple

    def __post_init__(self) -> None:
        kraus = tuple(np.array(k, dtype=complex) for k in self.kraus)
        if not kraus:
            raise ParamError("a channel needs at least one Kraus operator")
        din = kraus[0].shape[1]
        if any(k.ndim != 2 or k.shape[1] != din for k in kraus):
            raise DimensionMismatch("Kraus operators have mismatched input dims")
        total = sum(k.conj().T @ k for k in kraus)
        if not float(np.linalg.norm(total - np.eye(din))) <= _TRACE_TOL:
            raise NormalizationError("Kraus operators do not sum to the identity")
        for k in kraus:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]


@cache
def pinching(basis_dim: int) -> Channel:
    """The dephasing channel of the standard basis, one shared per dimension."""
    if basis_dim < 1:
        raise ParamError(f"dimension {basis_dim} must be positive")
    eye = np.eye(basis_dim, dtype=complex)
    return Channel(tuple(np.outer(eye[i], eye[i]) for i in range(basis_dim)))


def _image(channel: Channel, mats: np.ndarray) -> np.ndarray:
    """sum_i K_i M K_i† for a matrix, or each matrix of a stack, of the
    channel's input dim; hermitize it to get what apply returns."""
    return sum(k @ mats @ k.conj().T for k in channel.kraus)


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Image sum_i K_i rho K_i† of a state under a channel."""
    if channel.dim_in != rho.dim:
        raise DimensionMismatch(
            f"channel input dim {channel.dim_in} vs state dim {rho.dim}"
        )
    return DensityMatrix._derived(_image(channel, rho.mat))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of each pair of two stacks of them."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * r, q * s))


def tensor(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states."""
    return DensityMatrix._derived(_kron(rho.mat, sigma.mat))


def _orthogonal_pairs(rngs, dim_a: int, dim_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's orthogonal_pair, as two (n, d, d) stacks."""
    a, b = map(_gram, _gaussians(rngs, (dim_a, dim_a), (dim_b, dim_b)))
    pair = np.zeros((2, len(a), dim_a + dim_b, dim_a + dim_b), dtype=complex)
    pair[0, :, :dim_a, :dim_a], pair[1, :, dim_a:, dim_a:] = a, b
    return pair[0], pair[1]


def orthogonal_pair(dim_a: int, dim_b: int, seed) -> tuple[DensityMatrix, DensityMatrix]:
    """Random full-rank states padded onto disjoint diagonal blocks.

    The supports are exactly orthogonal by construction, with no
    tolerance ambiguity.
    """
    if min(dim_a, dim_b) < 1:
        raise ParamError(f"dimensions {dim_a} and {dim_b} must be positive")
    rho, sigma = _orthogonal_pairs([np.random.default_rng(seed)], dim_a, dim_b)
    return DensityMatrix._derived(rho[0]), DensityMatrix._derived(sigma[0])
