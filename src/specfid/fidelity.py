"""Fidelity-type scalars between quantum states.

The weighted spectral fidelity F_t(rho, sigma) = Tr[rho (rho^{-1} # sigma)^{2t}]
with # the matrix geometric mean, the Uhlmann root fidelity, the
Matsumoto fidelity, the sandwiched Renyi divergence, and the derived
Fuchs-van de Graaf quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NormalizationError,
    ParamError,
    SupportError,
)
from .linalg import hermitize, power, psd_cutoff, psd_eig, real_trace, trace_norm
from .means import _mean
from .states import DensityMatrix


@dataclass(frozen=True)
class FidelityValue:
    """One fidelity evaluation: value, parameter, and producing method."""

    value: float
    t: float | None = None
    method: str = "spectral_general"


class FvgBounds(NamedTuple):
    """Quantities entering the Fuchs-van de Graaf comparisons."""

    lower_gap: float
    trace_dist_half: float
    second_rhs: float


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims differ: {rho.dim} vs {sigma.dim}")


# The t at which 2t = -1, 0.5 or 2: there numpy's scalar `lam ** e` takes
# its reciprocal, sqrt and square paths, which a broadcast power can miss
# by one ulp.
_FAST_TS = (-0.5, 0.25, 1.0)


def _support_traces(rho, w, v, k, exps, ts) -> np.ndarray:
    """sum_k w_k lam_k^e, w_k = <v_k|rho|v_k>, for each exponent e of the
    column exps, from psd_eig systems (w, v) whose supports all have k
    vectors.  A support is the last k eigenvectors, so rho @ v_k has the
    shape it has for a pair alone: at k = 1 a matrix-vector product, whose
    rounding is not that of the matrix product on the full v."""
    d = w.shape[-1]
    vk = np.ascontiguousarray(v[..., d - k:])
    weights = (vk.conj() * (rho @ vk)).real.sum(axis=-2)
    lam = w[..., None, d - k:]
    powers = lam ** exps
    for t in _FAST_TS:
        if t in ts:
            np.copyto(powers, lam ** (2 * t), where=exps == 2 * t)
    return (weights[..., None, :] * powers).sum(axis=-1)


def _power_traces(rho: np.ndarray, x: np.ndarray, ts) -> np.ndarray:
    """Tr[rho X^(2t)] = sum_k w_k lam_k^(2t) over the support of X, for each
    t of a list or tuple and a pair or each pair of two (..., d, d) stacks:
    shape (..., len(ts)).  The powers are one broadcast, but the rows at
    the fast exponents keep the scalar power, so no value depends on the
    grid around it; t = 1/2 is Tr[rho X], read off without a decomposition.
    A stack is evaluated in groups of equal support size, so each pair
    gets the value it gets alone, bit for bit."""
    half = ts.count(0.5)
    if half:
        mid = real_trace(rho @ x)[..., None]
        if half == len(ts):
            return mid.repeat(half, axis=-1)
    w, v, on = psd_eig(x)
    exps = 2.0 * np.array(ts)[:, None]
    sizes = on.sum(axis=-1)
    ks = set(sizes.reshape(-1).tolist())
    if len(ks) == 1:
        traces = _support_traces(rho, w, v, ks.pop(), exps, ts)
    else:
        rho = np.broadcast_to(rho, x.shape)
        traces = np.empty(sizes.shape + (len(ts),))
        for k in ks:
            pick = sizes == k
            traces[pick] = _support_traces(rho[pick], w[pick], v[pick], k, exps, ts)
    if half:
        np.copyto(traces, mid, where=exps[:, 0] == 1.0)
    return traces


def _spectral_fidelities(rho: np.ndarray, sigma: np.ndarray, ts) -> np.ndarray:
    """F_t at each t of a list or tuple, shape (..., len(ts)), for a pair of
    trusted states or each pair of two stacks, as _power_traces gives it."""
    return _power_traces(rho, _mean(rho, sigma, riccati=True)[0], ts)


def spectral_fidelity_curve(
    rho: DensityMatrix, sigma: DensityMatrix, ts, extended: bool = False
) -> list[float]:
    """F_t(rho, sigma) at every t of a grid from one Riccati solve.

    With X = rho^{-1} # sigma = sum_k lam_k |v_k><v_k| the family is
    F_t = sum_k w_k lam_k^(2t), w_k = <v_k|rho|v_k> >= 0, over the support
    of X, so a grid of any length costs one eigendecomposition, and
    t = 1/2, read off as Tr[rho X], none.  Parameters follow
    spectral_fidelity, which is this curve at a single point.
    """
    _check_pair(rho, sigma)
    ts = [float(t) for t in ts]
    for t in ts:
        if not math.isfinite(t):
            raise ParamError(f"parameter t = {t} is not finite")
        if not extended and not 0.0 <= t <= 1.0:
            raise ParamError(f"parameter t = {t} outside [0, 1]")
    return _spectral_fidelities(rho.mat, sigma.mat, ts).tolist()


def spectral_fidelity(
    rho: DensityMatrix, sigma: DensityMatrix, t: float, extended: bool = False
) -> FidelityValue:
    """Weighted spectral fidelity Tr[rho (rho^{-1} # sigma)^{2t}].

    Singular states are handled by restricting every inverse and
    fractional power to the relevant support.  t outside [0, 1] is
    rejected unless `extended` is set; the family is well defined
    (though no longer a fidelity) on the whole line.  The value equals
    the matching point of spectral_fidelity_curve bit for bit.
    """
    (value,) = spectral_fidelity_curve(rho, sigma, [t], extended)
    return FidelityValue(value, t=float(t))


def _sandwich_traces(system, b: np.ndarray, s: float, alpha: float) -> np.ndarray:
    """Tr[(A^s B A^s)^alpha], powers on supports, from the psd_eig system of
    a trusted A and a trusted B, or of each pair of two stacks."""
    a_s = power(*system, s)
    return real_trace(power(*psd_eig(hermitize(a_s @ b @ a_s)), alpha))


def _uhlmann(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr sqrt(rho^{1/2} sigma rho^{1/2}) of a trusted pair or of each pair
    of two stacks."""
    return _sandwich_traces(psd_eig(rho), sigma, 0.5, 0.5)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> FidelityValue:
    """Root fidelity Tr sqrt(rho^{1/2} sigma rho^{1/2})."""
    _check_pair(rho, sigma)
    return FidelityValue(float(_uhlmann(rho.mat, sigma.mat)), method="uhlmann")


def matsumoto_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> FidelityValue:
    """Trace of the matrix geometric mean of the two states."""
    _check_pair(rho, sigma)
    value = float(real_trace(_mean(rho.mat, sigma.mat, riccati=False)[0]))
    return FidelityValue(value, method="matsumoto")


def _renyi(trace: float, alpha: float) -> float:
    """The divergence of order alpha from its power trace Tr[(...)^alpha]."""
    if trace <= 0.0:
        return math.inf
    return math.log(trace) / (alpha - 1.0)


def sandwiched_renyi(rho: DensityMatrix, sigma: DensityMatrix, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha (positive, not 1).

    Computed as log Tr[(sigma^s rho sigma^s)^alpha] / (alpha - 1) with
    s = (1 - alpha) / (2 alpha), powers restricted to supports.  For
    alpha > 1 the support of rho must lie inside the support of sigma.
    """
    _check_pair(rho, sigma)
    if not 0 < alpha < math.inf or alpha == 1:
        raise ParamError(f"order alpha = {alpha} must be positive, finite and not 1")
    sigma_eig = psd_eig(sigma.mat)
    if alpha > 1:
        proj = power(*sigma_eig, 0.0)
        leak = float(np.abs(rho.mat - proj @ rho.mat @ proj).max())
        if leak > math.sqrt(psd_cutoff(rho.mat)):
            raise SupportError(
                f"support containment fails for alpha > 1: leakage {leak:.3e}"
            )
    s = (1.0 - alpha) / (2.0 * alpha)
    return _renyi(float(_sandwich_traces(sigma_eig, rho.mat, s, alpha)), alpha)


def diagonal_spectral_fidelity(p, q, t: float) -> FidelityValue:
    """Classical family sum_i p_i^{1-t} q_i^t over probability vectors.

    Zero entries follow the continuity conventions: a term with
    p_i = 0 contributes 0 whenever t < 1, and a term with q_i = 0
    contributes 0 whenever t > 0; surviving zero exponents use x^0 = 1.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise DimensionMismatch(f"length mismatch: {p.shape[0]} vs {q.shape[0]}")
    for name, vec in (("p", p), ("q", q)):
        if not np.all(vec >= 0):
            raise NormalizationError(f"{name} has negative or NaN entries")
        if abs(float(vec.sum()) - 1.0) > 1e-12:
            raise NormalizationError(f"{name} sums to {float(vec.sum())!r}, not 1")
    t = float(t)
    if not math.isfinite(t):
        raise ParamError(f"parameter t = {t} is not finite")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0 and t < 1.0:
            continue
        if qi == 0.0 and t > 0.0:
            continue
        total += pi ** (1.0 - t) * qi**t
    return FidelityValue(total, t=t, method="diagonal_closed_form")


def fvg_bounds(rho: DensityMatrix, sigma: DensityMatrix, t: float) -> FvgBounds:
    """Both sides of the Fuchs-van de Graaf comparisons at parameter t.

    Returns 1 - F_t, half the trace distance, and sqrt(1 - F_t^2); the
    lower bound 1 - F_t <= half trace distance always holds, while the
    upper comparison can fail away from t = 1/2.
    """
    _check_pair(rho, sigma)
    f = spectral_fidelity(rho, sigma, t).value
    dist = 0.5 * trace_norm(rho.mat - sigma.mat)
    return FvgBounds(1.0 - f, dist, math.sqrt(max(0.0, 1.0 - f * f)))
