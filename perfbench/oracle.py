"""Independent reference values for the benchmark's output checks.

Built on scipy.linalg and plain numpy; it imports nothing from specfid.
F_t(rho, sigma) = Tr[rho (rho^-1 # sigma)^(2t)] is evaluated by the first
route that applies to the pair:

- diagonal pairs: the classical sum  sum_i p_i^(1-t) q_i^t;
- rank-one rho or sigma: the overlap closed forms Tr[rho sigma]^t and
  Tr[rho sigma]^(1-t);
- supports that meet only in zero (rho sigma = 0): the value 0 for t > 0;
- well-conditioned full-rank rho: Tr[rho X^(2t)] with
  X = rho^(-1/2) (rho^(1/2) sigma rho^(1/2))^(1/2) rho^(-1/2);
- well-conditioned full-rank sigma: the flip F_t(rho, sigma) =
  F_(1-t)(sigma, rho), which inverts only sigma.

A rank-deficient matrix is never inverted: on the pure pairs of the
data-processing ensemble the inverse-square-root route errs by about
3e-8, far above the checks' tolerances.  The Uhlmann fidelity uses
scipy's Schur-based sqrtm.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

# Eigenvalues below RANK_RTOL * max(1, largest) count as zero.
RANK_RTOL = 1e-10
# Largest condition number the inverse-square-root route accepts.
COND_MAX = 1e7
# A pair is diagonal when no off-diagonal entry exceeds this.
DIAG_ATOL = 1e-15


class NoRoute(ValueError):
    """No oracle route applies to the given inputs."""


def herm(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    return (mat + mat.conj().T) / 2


def eigh(mat) -> tuple[np.ndarray, np.ndarray]:
    return sla.eigh(herm(mat), driver="evr")


def rank(mat) -> int:
    w = sla.eigvalsh(herm(mat))
    return int(np.count_nonzero(w > RANK_RTOL * max(1.0, float(w[-1]))))


def cond(mat) -> float:
    w = sla.eigvalsh(herm(mat))
    return float(w[-1] / w[0]) if w[0] > 0 else np.inf


def power(mat, p: float) -> np.ndarray:
    """Support-restricted power of a PSD matrix; p = 0 gives the projector."""
    w, v = eigh(mat)
    on = w > RANK_RTOL * max(1.0, float(w[-1]))
    fw = np.zeros_like(w)
    fw[on] = w[on] ** p
    return herm((v * fw) @ v.conj().T)


def inverse(mat) -> np.ndarray:
    return herm(sla.inv(herm(mat)))


def overlap(rho, sigma) -> float:
    return float(np.real(np.trace(np.asarray(rho) @ np.asarray(sigma))))


def pinch(mat) -> np.ndarray:
    """The dephasing (pinching) channel in the standard basis."""
    return np.diag(np.diag(np.asarray(mat, dtype=complex)))


def half_trace_distance(rho, sigma) -> float:
    return 0.5 * float(np.abs(sla.eigvalsh(herm(np.asarray(rho) - np.asarray(sigma)))).sum())


def _well_conditioned(mat) -> bool:
    return cond(mat) <= COND_MAX


def _roots(a) -> tuple[np.ndarray, np.ndarray]:
    """A^1/2 by Schur-based sqrtm and its explicit inverse."""
    a_half = herm(sla.sqrtm(herm(a)))
    return a_half, inverse(a_half)


def _conditioned(a) -> np.ndarray:
    if not _well_conditioned(a):
        raise NoRoute("inverting needs a well-conditioned positive definite matrix")
    return herm(a)


def riccati(a, b) -> np.ndarray:
    """X = A^-1 # B for positive definite A, the solution of X A X = B.

    The inner square root goes through `power`, which clips the rounding
    noise of a singular B instead of rooting it into imaginary parts.
    """
    a_half, a_ihalf = _roots(_conditioned(a))
    return herm(a_ihalf @ power(a_half @ b @ a_half, 0.5) @ a_ihalf)


def geometric_mean(a, b) -> np.ndarray:
    """A # B = A^1/2 (A^-1/2 B A^-1/2)^1/2 A^1/2 for positive definite A."""
    a_half, a_ihalf = _roots(_conditioned(a))
    return herm(a_half @ power(a_ihalf @ b @ a_ihalf, 0.5) @ a_half)


def weighted_mean(a, b, t: float) -> np.ndarray:
    """X^t A X^t with X = A^-1 # B, running from A at t = 0 to B at t = 1."""
    xt = power(riccati(a, b), t)
    return herm(xt @ a @ xt)


def _full_rank_value(rho, sigma, t: float) -> float:
    x = riccati(rho, sigma)
    return float(np.real(np.trace(np.asarray(rho) @ power(x, 2.0 * t))))


def route(rho, sigma) -> str:
    """Name of the route `fidelity` takes for this pair."""
    rho, sigma = herm(rho), herm(sigma)
    off = lambda m: float(np.abs(m - np.diag(np.diag(m))).max())  # noqa: E731
    if max(off(rho), off(sigma)) <= DIAG_ATOL:
        return "diagonal"
    if rank(rho) == 1:
        return "rank_one_rho"
    if rank(sigma) == 1:
        return "rank_one_sigma"
    if float(np.abs(rho @ sigma).max()) <= RANK_RTOL:
        return "orthogonal"
    if rank(rho) == rho.shape[0] and _well_conditioned(rho):
        return "full_rank_rho"
    if rank(sigma) == sigma.shape[0] and _well_conditioned(sigma):
        return "full_rank_sigma"
    raise NoRoute("no oracle route for this pair")


def diagonal_value(p, q, t: float) -> float:
    """sum_i p_i^(1-t) q_i^t with the continuity conventions at zero."""
    total = 0.0
    for pi, qi in zip(np.asarray(p, dtype=float), np.asarray(q, dtype=float)):
        if (pi <= 0.0 and t < 1.0) or (qi <= 0.0 and t > 0.0):
            continue
        total += pi ** (1.0 - t) * qi**t
    return total


def fidelity(rho, sigma, t: float, via: str | None = None) -> float:
    """F_t(rho, sigma) by the route named in `via`, or the first that applies."""
    rho, sigma = herm(rho), herm(sigma)
    via = via or route(rho, sigma)
    if via == "diagonal":
        return diagonal_value(np.diag(rho).real, np.diag(sigma).real, t)
    if via == "rank_one_rho":
        return max(overlap(rho, sigma), 0.0) ** t
    if via == "rank_one_sigma":
        return max(overlap(rho, sigma), 0.0) ** (1.0 - t)
    if via == "orthogonal":
        if t <= 0.0:
            raise NoRoute("orthogonal route is defined for t > 0")
        return 0.0
    if via == "full_rank_rho":
        return _full_rank_value(rho, sigma, t)
    if via == "full_rank_sigma":
        return _full_rank_value(sigma, rho, 1.0 - t)
    raise ValueError(f"unknown route {via!r}")


def curve(rho, sigma, ts) -> np.ndarray:
    """F_t over a grid from one decomposition of X = rho^-1 # sigma.

    With X = sum_k l_k |v_k><v_k|, F_t = sum_k <v_k|rho|v_k> l_k^(2t).
    Pairs whose rho is not full rank go through the flip and invert sigma.
    """
    rho, sigma = herm(rho), herm(sigma)
    ts = np.asarray(ts, dtype=float)
    if rank(rho) == rho.shape[0] and _well_conditioned(rho):
        a, b, exps = rho, sigma, 2.0 * ts
    else:
        a, b, exps = sigma, rho, 2.0 * (1.0 - ts)
    lam, vecs = eigh(riccati(a, b))
    weights = np.real(np.einsum("ik,ij,jk->k", vecs.conj(), a, vecs))
    on = lam > RANK_RTOL * max(1.0, float(lam[-1]))
    lam, weights = lam[on], weights[on]
    return (weights[None, :] * lam[None, :] ** exps[:, None]).sum(axis=1)


def uhlmann(rho, sigma) -> float:
    """Tr sqrt(rho^1/2 sigma rho^1/2), as the trace norm of rho^1/2 sigma^1/2.

    Full-rank roots come from sqrtm; a rank-deficient state is rooted by
    `power`, since sqrtm turns the rounding noise on its zero eigenvalues
    into errors of order 1e-9.
    """
    rho, sigma = herm(rho), herm(sigma)
    if rank(rho) == 1 or rank(sigma) == 1:
        return max(overlap(rho, sigma), 0.0) ** 0.5

    def root(m):
        return herm(sla.sqrtm(m)) if rank(m) == m.shape[0] else power(m, 0.5)

    return float(sla.svdvals(root(rho) @ root(sigma)).sum())


def renyi_half(rho, sigma) -> float:
    """Sandwiched Renyi divergence of order 1/2: -2 log Tr (s^1/2 r s^1/2)^1/2."""
    root = herm(sla.sqrtm(herm(sigma)))
    return -2.0 * float(np.log(np.real(np.trace(sla.sqrtm(herm(root @ rho @ root))))))
