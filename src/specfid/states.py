"""Density matrices, Bloch parametrization, sampling, and CPTP maps."""

from __future__ import annotations

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
from .linalg import as_hermitian, hermitize, psd_cutoff, spectrum

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
    """(I + r . pauli)/2 of a real 3-vector, unchecked."""
    mat = np.eye(2, dtype=complex)
    for ri, pauli in zip(r, _PAULI):
        mat = mat + ri * pauli
    return mat / 2


def from_bloch(r) -> DensityMatrix:
    """Qubit state (I + r . pauli)/2 from a real 3-vector of length <= 1."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatch(f"expected a 3-vector, got shape {r.shape}")
    if float(np.linalg.norm(r)) > 1.0 + 1e-12:
        raise NormError(f"vector norm {float(np.linalg.norm(r))!r} exceeds 1")
    return DensityMatrix(_bloch_matrix(r))


def _projector(psi) -> np.ndarray:
    """|psi><psi| of a nonzero vector, normalized internally."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(psi))
    if norm <= 1e-150:
        raise ZeroVector("cannot normalize a zero state vector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def pure_state(psi) -> DensityMatrix:
    """Rank-one projector onto a nonzero vector, normalized internally."""
    return DensityMatrix(_projector(psi))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Generator for one trial, split off the suite seed by trial index.

    Splitting keys the stream to (seed, trial), so trials are
    reproducible independently of evaluation order.  The seed must be a
    non-negative integer.
    """
    if seed < 0:
        raise ParamError(f"seed {seed} must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    )


def random_density(dim: int, rank: int, seed) -> DensityMatrix:
    """Trace-normalized G G† with G a dim x rank complex Gaussian matrix."""
    if not 1 <= rank <= dim:
        raise ParamError(f"rank {rank} outside 1..{dim}")
    rng = _as_generator(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return DensityMatrix._derived(mat / np.real(np.trace(mat)))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    if dim < 1:
        raise ParamError(f"dimension {dim} must be positive")
    rng = _as_generator(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


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


def orthogonal_pair(dim_a: int, dim_b: int, seed) -> tuple[DensityMatrix, DensityMatrix]:
    """Random full-rank states padded onto disjoint diagonal blocks.

    The supports are exactly orthogonal by construction, with no
    tolerance ambiguity.
    """
    rng = _as_generator(seed)
    a = random_density(dim_a, dim_a, rng)
    b = random_density(dim_b, dim_b, rng)
    d = dim_a + dim_b
    rho = np.zeros((d, d), dtype=complex)
    sig = np.zeros((d, d), dtype=complex)
    rho[:dim_a, :dim_a] = a.mat
    sig[dim_a:, dim_a:] = b.mat
    return DensityMatrix._derived(rho), DensityMatrix._derived(sig)
