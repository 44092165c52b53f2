"""Dense complex Hermitian linear algebra.

Eigendecomposition, matrix functions via spectral calculus, the trace
norm, and PSD/support machinery.  All higher modules build on these
primitives; matrices are plain complex numpy arrays.

Validation happens once, where data enters: the public functions run
`as_hermitian` on every matrix argument.  The kernels `eig`,
`spectrum`, `_frac_power` and `_is_psd` trust their input instead: it
must be a complex, exactly Hermitian array such as `as_hermitian` or
`hermitize` returns, and nothing about it is checked again.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, DomainError, NonConvergence


class EigenSystem(NamedTuple):
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2 of a square matrix."""
    return (mat + mat.conj().T) / 2


def as_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a Hermitian matrix.

    Entries must be finite and the anti-Hermitian part must be small
    relative to the matrix scale; the returned array is exactly
    Hermitized.
    """
    mat = np.ascontiguousarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(float))):
        raise DomainError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    drift = float(np.abs(mat - mat.conj().T).max())
    if drift > TOL.herm_tol * scale:
        raise DomainError(f"matrix is not Hermitian: anti-Hermitian part {drift:.3e}")
    return hermitize(mat)


def psd_cutoff(mat: np.ndarray) -> float:
    """Scale-aware tolerance for accepting a matrix as PSD."""
    return TOL.psd_tol * max(1.0, float(np.abs(mat).max()))


def support_cutoff(eigenvalues: np.ndarray) -> float:
    """Threshold separating genuine eigenvalues from rounding noise.

    Relative to the largest eigenvalue but floored at unit scale, far
    below the PSD acceptance tolerance: a positive eigenvalue may be
    honest data even when it is tiny, so only values at
    eigensolver-noise scale drop off the support.  The floor makes a
    matrix that is an exact zero up to rounding resolve to an empty
    support instead of a support made of noise.
    """
    top = float(eigenvalues[-1]) if len(eigenvalues) else 0.0
    return TOL.support_rtol * max(top, 1.0)


def eig(mat: np.ndarray) -> EigenSystem:
    """Eigendecompose a trusted Hermitian matrix; eigenvalues ascend."""
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return EigenSystem(w, v)


def spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a trusted Hermitian matrix, no eigenvectors."""
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def require_psd(w: np.ndarray, mat: np.ndarray) -> None:
    """Raise DomainError when the ascending spectrum w of mat is not PSD."""
    if float(w[0]) < -psd_cutoff(mat):
        raise DomainError(f"matrix is not PSD: min eigenvalue {float(w[0]):.3e}")


def frac_power(mat: np.ndarray, alpha: float, support_only: bool = False) -> np.ndarray:
    """Fractional power of a PSD matrix.

    alpha = 1 returns the validated input; alpha = 0 returns the support
    projector (or the identity when support_only is false).  At every
    alpha, negative eigenvalues below the PSD cutoff raise DomainError.
    """
    mat = as_hermitian(mat)
    if alpha == 1:
        require_psd(spectrum(mat), mat)
        return mat
    return _frac_power(mat, alpha, support_only)


def _frac_power(mat: np.ndarray, alpha: float, support_only: bool = False) -> np.ndarray:
    """frac_power of a trusted matrix; alpha = 1 copies it unchecked."""
    if alpha == 1:
        return mat.copy()
    w, v = eig(mat)
    require_psd(w, mat)
    w = np.clip(w, 0.0, None)
    on = w > support_cutoff(w)
    fw = np.zeros_like(w)
    if alpha == 0:
        fw[on] = 1.0
        if not support_only:
            fw[~on] = 1.0
    elif support_only or alpha >= 0:
        if alpha < 0:
            fw[on] = w[on] ** alpha
        else:
            fw = np.where(on, w, 0.0 if support_only else w) ** alpha
    else:
        # Negative power without support restriction needs strict positivity.
        if not np.all(on):
            raise DomainError("negative power of a singular matrix")
        fw = w**alpha
    return hermitize((v * fw) @ v.conj().T)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    w, _ = eig(as_hermitian(mat))
    return float(np.abs(w).sum())


def support_projector(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the significant eigenvectors."""
    return frac_power(mat, 0.0, support_only=True)


def is_psd(mat: np.ndarray) -> bool:
    """Whether all eigenvalues sit above minus the PSD cutoff."""
    return _is_psd(as_hermitian(mat))


def _is_psd(mat: np.ndarray) -> bool:
    w, _ = eig(mat)
    return bool(w[0] >= -psd_cutoff(mat))


def block_psd(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> bool:
    """Whether the 2x2 block matrix [[A11, A12], [A12†, A22]] is PSD."""
    a11 = as_hermitian(a11)
    a22 = as_hermitian(a22)
    a12 = np.asarray(a12, dtype=complex)
    if a12.shape != (a11.shape[0], a22.shape[0]):
        raise DimensionMismatch(
            f"off-diagonal block {a12.shape} does not join {a11.shape} and {a22.shape}"
        )
    if not np.all(np.isfinite(a12)):
        raise DomainError("off-diagonal block has non-finite entries")
    return _is_psd(np.block([[a11, a12], [a12.conj().T, a22]]))
