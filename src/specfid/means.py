"""Geometric, spectral, and weighted spectral means of positive matrices.

Singular inputs are handled through support-restricted fractional powers
throughout.  The private kernels take a pair of matrices or a pair of
(..., d, d) stacks.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainError, ParamError
from .linalg import as_hermitian, hermitize, power, psd_cutoff, psd_eig, real_trace


def _sqrt_pair(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support-restricted M^{1/2} and M^{-1/2} from one decomposition.

    The roots are those power(..., 0.5) assembles: numpy's ** 0.5 is sqrt.
    """
    w, v, on = psd_eig(mat)
    root = np.where(on, np.sqrt(w), 0.0)
    inv_root = np.divide(1.0, root, out=np.zeros_like(w), where=on)
    vh = v.conj().swapaxes(-1, -2)
    return (
        hermitize((v * root[..., None, :]) @ vh),
        hermitize((v * inv_root[..., None, :]) @ vh),
    )


def _validated(*mats) -> list[np.ndarray]:
    """Validate every matrix argument and check that their shapes agree."""
    mats = [as_hermitian(m) for m in mats]
    if len({m.shape for m in mats}) > 1:
        raise DimensionMismatch(f"matrix shapes differ: {[m.shape for m in mats]}")
    return mats


def _mean(a: np.ndarray, b: np.ndarray, riccati: bool) -> tuple[np.ndarray, np.ndarray]:
    """Shared body of the three means; returns the mean and A^{1/2}.

    The geometric mean is P (Q B Q)^{1/2} P with P = A^{1/2} and
    Q = A^{-1/2}, the Riccati solution the same with the two roots
    swapped; both roots come from one decomposition of A.  A and B must
    come validated (see linalg): nothing here checks them.
    """
    a_half, a_ihalf = _sqrt_pair(a)
    outer, inner = (a_ihalf, a_half) if riccati else (a_half, a_ihalf)
    quarter = power(*psd_eig(hermitize(inner @ b @ inner)), 0.25)
    m = quarter @ outer
    return hermitize(m.conj().swapaxes(-1, -2) @ m), a_half


def geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean A^{1/2}(A^{-1/2} B A^{-1/2})^{1/2} A^{1/2} of PSD matrices.

    For singular A the powers act on its support, so the result lives on
    the common support when the support projectors commute.  Assembled
    in Gram form M* M so the output stays PSD to rounding even when A is
    ill conditioned.
    """
    return _mean(*_validated(a, b), riccati=False)[0]


def riccati_solution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Positive solution X of X A X = B, equal to the mean of A^{-1} and B.

    Computed as A^{-1/2}(A^{1/2} B A^{1/2})^{1/2} A^{-1/2}, which never
    forms the inverse of A explicitly and degrades gracefully when A is
    singular.  Assembled in Gram form M* M so the output stays PSD to
    rounding even when A is ill conditioned.
    """
    return _mean(*_validated(a, b), riccati=True)[0]


def _spectral_means(a: np.ndarray, b: np.ndarray, ts) -> np.ndarray:
    """X^t A X^t for every t of a grid, shape (..., len(ts), d, d), for a
    trusted pair or each pair of two stacks.

    One Riccati solve and one decomposition of X serve the whole grid;
    X^1 is X itself and needs no decomposition.
    """
    x, a_half = _mean(a, b, riccati=True)
    system = psd_eig(x) if any(t != 1 for t in ts) else None
    powers = [x if t == 1 else power(*system, float(t)) for t in ts]
    m = a_half[..., None, :, :] @ np.stack(powers, axis=-3)
    return hermitize(m.conj().swapaxes(-1, -2) @ m)


def weighted_spectral_mean(
    a: np.ndarray, b: np.ndarray, t: float, extended: bool = False
) -> np.ndarray:
    """Weighted mean X^t A X^t with X the Riccati solution of the pair.

    Interpolates from A at t = 0 to B at t = 1; the midpoint t = 1/2 is
    the spectral mean, whose eigenvalues are the positive square roots of
    the eigenvalues of the product A B.  Parameters outside [0, 1] are
    rejected unless extended is set (used by divergence-style sweeps
    over the whole real line).
    """
    if not np.isfinite(t):
        raise ParamError(f"weight t = {t} is not finite")
    if not extended and not 0.0 <= t <= 1.0:
        raise ParamError(f"weight t = {t} outside [0, 1]")
    (mean,) = _spectral_means(*_validated(a, b), [t])
    return mean


def variational_objective(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Evaluate Tr(A X) + Tr(B X^{-1}) at a strictly positive X.

    Over positive definite X the unique minimizer is the Riccati
    solution of the pair, with minimum value twice the trace of the
    spectral mean.
    """
    return float(_variational_objective(*_validated(a, b, x)))


def _variational_objective(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """variational_objective of trusted matrices, or of each triple of stacks."""
    w, v, on = psd_eig(x)
    if np.any(w[..., 0] <= psd_cutoff(x)):
        raise DomainError("objective needs a strictly positive X")
    x_inv = power(w, v, on, -1.0, support_only=False)
    return real_trace(a @ x) + real_trace(b @ x_inv)
