"""Dense complex Hermitian linear algebra.

Eigendecomposition, matrix functions via spectral calculus, the trace
norm, and PSD/support machinery.  All higher modules build on these
primitives; matrices are plain complex numpy arrays.

Validation happens once, where data enters: the public functions run
`as_hermitian` on every matrix argument.  The kernels below trust their
input instead: it must be a complex, exactly Hermitian array such as
`as_hermitian` or `hermitize` returns, and nothing about it is checked
again.  `eig` is the one eigenvector call and `spectrum` the one
eigenvalue-only call.  `psd_eig` is the one place where the PSD check,
the clip at 0 and the support cutoff meet: every matrix function
decomposes its matrix there once and assembles its powers from that
system with `power`.  The kernels take a matrix or a stack of them,
shape (..., d, d), and decide the PSD check and the support per matrix.
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import DimensionMismatch, DomainError, NonConvergence, ParamError


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2 of each square matrix of a stack."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2


def as_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a Hermitian matrix.

    Entries must be finite and the anti-Hermitian part must be small
    relative to the matrix scale; the returned array is exactly
    Hermitized.
    """
    mat = np.ascontiguousarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a non-empty square matrix, got shape {mat.shape}"
        )
    if not np.all(np.isfinite(mat.view(float))):
        raise DomainError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
    drift = float(np.abs(mat - mat.conj().T).max())
    if drift > TOL.herm_tol * scale:
        raise DomainError(f"matrix is not Hermitian: anti-Hermitian part {drift:.3e}")
    return hermitize(mat)


def psd_cutoff(mat: np.ndarray) -> np.ndarray:
    """Scale-aware tolerance for accepting each matrix of a stack as PSD."""
    return TOL.psd_tol * np.abs(mat).max(axis=(-2, -1), initial=1.0)


def support_cutoff(eigenvalues: np.ndarray) -> np.ndarray:
    """Threshold separating genuine eigenvalues from rounding noise, one
    for each ascending spectrum of a (..., d) stack.

    Relative to the largest eigenvalue but floored at unit scale, far
    below the PSD acceptance tolerance: a positive eigenvalue may be
    honest data even when it is tiny, so only values at
    eigensolver-noise scale drop off the support.  The floor makes a
    matrix that is an exact zero up to rounding resolve to an empty
    support instead of a support made of noise.
    """
    return TOL.support_rtol * np.maximum(eigenvalues[..., -1], 1.0)


def eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a trusted Hermitian matrix, or each matrix of a
    stack, into (w, v); w ascends."""
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a trusted Hermitian matrix, no eigenvectors."""
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def require_psd(w: np.ndarray, mat: np.ndarray) -> None:
    """Raise DomainError when an ascending spectrum w of a stack mat is not
    PSD; the message names the first such matrix's least eigenvalue."""
    low = w[..., 0]
    bad = low < -psd_cutoff(mat)
    if np.count_nonzero(bad):
        raise DomainError(f"matrix is not PSD: min eigenvalue {float(low[bad][0]):.3e}")


def psd_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support-restricted eigensystem (w, v, on) of a trusted PSD matrix
    or stack of them.

    Raises DomainError when a matrix is not PSD, clips the eigenvalues at
    0, and marks each support with on = w > support_cutoff(w).  As w
    ascends, each support is a suffix of its spectrum.
    """
    w, v = eig(mat)
    require_psd(w, mat)
    np.maximum(w, 0.0, out=w)
    return w, v, w > support_cutoff(w)[..., None]


def power(
    w: np.ndarray, v: np.ndarray, on: np.ndarray, alpha: float, support_only: bool = True
) -> np.ndarray:
    """The power M^alpha assembled from a psd_eig system (w, v, on) of M,
    or of each matrix of a stack.

    support_only raises only the support eigenvalues and leaves the rest
    0, so alpha = 0 gives the support projector; otherwise every
    eigenvalue is raised, and a negative power of a singular matrix
    raises DomainError.
    """
    if support_only:
        fw = np.zeros_like(w)
        fw[on] = w[on] ** alpha
    elif alpha < 0 and not np.all(on):
        raise DomainError("negative power of a singular matrix")
    else:
        fw = w**alpha
    return hermitize((v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2))


def frac_power(mat: np.ndarray, alpha: float, support_only: bool = False) -> np.ndarray:
    """Fractional power of a PSD matrix.

    alpha = 1 returns the validated input; alpha = 0 returns the support
    projector (or the identity when support_only is false).  At every
    alpha, negative eigenvalues below the PSD cutoff raise DomainError;
    a non-finite alpha raises ParamError.
    """
    if not np.isfinite(alpha):
        raise ParamError(f"power alpha = {alpha} is not finite")
    mat = as_hermitian(mat)
    if alpha == 1:
        require_psd(spectrum(mat), mat)
        return mat
    return power(*psd_eig(mat), alpha, support_only)


def real_trace(mat: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix, or of each matrix of a stack."""
    return np.trace(mat, axis1=-2, axis2=-1).real


def trace_norm(mat: np.ndarray) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(_trace_norm(as_hermitian(mat)))


def _trace_norm(mat: np.ndarray) -> np.ndarray:
    """trace_norm of a trusted Hermitian matrix or of each matrix of a stack."""
    return np.abs(spectrum(mat)).sum(axis=-1)


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
    return bool(_block_psd(a11, a12, a22))


def _block_psd(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """block_psd of trusted blocks, or of each block triple of three stacks:
    whether each joined matrix's least eigenvalue is above minus its PSD
    cutoff."""
    n, m = a11.shape[-1], a22.shape[-1]
    mat = np.empty(a11.shape[:-2] + (n + m, n + m), dtype=np.result_type(a11, a12, a22))
    mat[..., :n, :n] = a11
    mat[..., :n, n:] = a12
    mat[..., n:, :n] = a12.conj().swapaxes(-1, -2)
    mat[..., n:, n:] = a22
    return spectrum(mat)[..., 0] >= -psd_cutoff(mat)
