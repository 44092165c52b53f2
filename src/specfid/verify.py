"""Seeded verification suites for the means and the fidelity family.

Each registered property samples random instances, measures the worst
violation of one stated identity or inequality, and returns a
machine-readable report.  A property is a chunk function that measures a
chunk of instances of one dim at once and returns each trial's row of
values, a witness builder that run_suite calls for the winning point
only, and the peaks that its notes report.  Each dim runs its own
trials in chunks capped by that dim alone, each trial on numpy's
generator for (seed, trial), so the report is that of a walk over every
trial in order.  Two families are expected to fail away from the
midpoint (data processing, and the upper trace-distance bound); those
report fails_as_predicted rather than unexpected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .config import TOL
from .errors import ParamError, ToleranceError, UnknownProperty
from .fidelity import (
    _power_traces,
    _renyi,
    _sandwich_traces,
    _spectral_fidelities,
    _uhlmann,
    diagonal_spectral_fidelity,
    spectral_fidelity,
    spectral_fidelity_curve,
)
from .linalg import (
    _block_psd,
    _trace_norm,
    eig,
    hermitize,
    power,
    psd_eig,
    real_trace,
)
from .means import _mean, _spectral_means, _variational_objective
from .serialize import matrix_to_json
from .states import (
    Channel,
    DensityMatrix,
    _bloch_matrix,
    _densities,
    _gaussians,
    _gram,
    _haar,
    _image,
    _kron,
    _orthogonal_pairs,
    _split_gaussians,
    _trial_states,
    apply,
    pinching,
    pure_state,
    random_unitary,
)

T_GRID_11 = tuple(round(0.1 * k, 10) for k in range(11))
T_GRID_21 = tuple(round(0.05 * k, 10) for k in range(21))
_MID_21 = T_GRID_21.index(0.5)
LAMBDA_GRID = tuple(round(0.1 * k, 10) for k in range(1, 10))


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one verification suite."""

    property_id: str
    samples: int
    max_violation: float
    worst_witness: dict
    seed: int
    verdict: str
    tolerance: float
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        record = {
            "property": self.property_id,
            "verdict": self.verdict,
            "max_violation": self.max_violation,
            "witness": self.worst_witness,
            "seed": self.seed,
            "samples": self.samples,
        }
        if self.notes:
            record["notes"] = list(self.notes)
        return record


@dataclass(frozen=True)
class DPIWitness:
    """A confirmed data-processing violation: fidelity drops under the channel."""

    rho: DensityMatrix
    sigma: DensityMatrix
    t: float
    channel: Channel
    f_before: float
    f_after: float

    def __post_init__(self) -> None:
        if not self.f_after < self.f_before - TOL.dpi_margin:
            raise ToleranceError(
                f"not a confirmed violation: before {self.f_before!r}, "
                f"after {self.f_after!r}"
            )

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "f_before": self.f_before,
            "f_after": self.f_after,
            "rho": matrix_to_json(self.rho.mat),
            "sigma": matrix_to_json(self.sigma.mat),
            "n_kraus": len(self.channel.kraus),
        }


# ---------------------------------------------------------------------------
# sampling helpers


def _pd(g: np.ndarray) -> np.ndarray:
    """A well-conditioned PD matrix of unit scale from each square Gaussian."""
    dim = g.shape[-1]
    return hermitize(g @ g.conj().swapaxes(-1, -2) / dim + 0.1 * np.eye(dim))


def _pds(rngs, *dims: int) -> list[np.ndarray]:
    """Each trial's _pd matrices of these dims, one stack per dim."""
    return [_pd(g) for g in _gaussians(rngs, *((dim, dim) for dim in dims))]


def _ranked_densities(dim: int, ranks: list[tuple], rows: list) -> list[np.ndarray]:
    """The random_density states trial k drew of the ranks ranks[k], from
    its one row of standard normals rows[k]; one (n, dim, dim) stack per
    position, each Gram product over the trials of one rank tuple."""
    out = np.empty((len(ranks[0]), len(ranks), dim, dim), dtype=complex)
    for key in dict.fromkeys(ranks):
        picked = [k for k, rank in enumerate(ranks) if rank == key]
        gaussians = _split_gaussians([rows[k] for k in picked], [(dim, r) for r in key])
        for pos, g in enumerate(gaussians):
            out[pos, picked] = _gram(g)
    return list(out)


def _basis_block_pair(dim: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-deficient PSD pair whose supports span subsets of one basis.

    Returns (A, B, P) where P projects onto the intersection of the two
    supports; the construction makes the intersection exact so support
    comparisons carry no tolerance ambiguity.
    """
    u = random_unitary(dim, rng)
    ra = int(rng.integers(1, dim))
    rb = int(rng.integers(1, dim))
    idx_a = rng.choice(dim, size=ra, replace=False)
    idx_b = rng.choice(dim, size=rb, replace=False)
    a = np.zeros((dim, dim), dtype=complex)
    b = np.zeros((dim, dim), dtype=complex)
    a[np.ix_(idx_a, idx_a)] = _pds([rng], ra)[0][0]
    b[np.ix_(idx_b, idx_b)] = _pds([rng], rb)[0][0]
    a = hermitize(u @ a @ u.conj().T)
    b = hermitize(u @ b @ u.conj().T)
    common = sorted(set(idx_a.tolist()) & set(idx_b.tolist()))
    cols = u[:, common] if common else np.zeros((dim, 0), dtype=complex)
    proj = hermitize(cols @ cols.conj().T)
    return a, b, proj


def _near_classical_pairs(dim: int, t: float, p: np.ndarray, delta: np.ndarray):
    """The DPI search's near-classical pairs: the analytic qubit family
    |+><+| against the pure state of amplitudes (sqrt(p), sqrt(1 - p)),
    order-flipped above the midpoint where the violation appears with the
    roles interchanged.  Above two dimensions each qubit state psi sits in
    the leading 2x2 block, (1 - delta) diag(psi, 0) + delta I/d, which the
    pinching channel dephases as it does the qubit."""
    amps = np.stack([np.sqrt(p), np.sqrt(1.0 - p)], axis=-1)
    # normalized as pure_state normalizes, by np.linalg.norm: the root of
    # the dot product of each row with itself
    psi = amps.astype(complex) / np.sqrt(amps[:, None, :] @ amps[:, :, None])[:, 0]
    plus = np.broadcast_to(_bloch_matrix(np.array((1.0, 0.0, 0.0))), (len(p), 2, 2))
    block = np.zeros((2, len(p), dim, dim), dtype=complex)
    block[..., :2, :2] = hermitize(np.stack([plus, psi[:, :, None] * psi.conj()[:, None, :]]))
    scale = delta[:, None, None]
    rho, sigma = hermitize((1 - scale) * block + scale * (np.eye(dim) / dim))
    return (sigma, rho) if t > 0.5 else (rho, sigma)


# ---------------------------------------------------------------------------
# chunk helpers
#
# A chunk function draws its trials' matrices as stacks and runs each
# kernel once per chunk; every value equals the one its trial gives in a
# chunk of one, bit for bit.  It returns (rows, witness, peaks): rows[i]
# holds trial i's violations, witness(i, j) the fields that locate point
# j of trial i, and peaks the chunk's maxima of the statistics that the
# suite's notes report.  Witness fields hold the trial's rows of the
# stacks.  Fields that restate "dim" replace the sampled dim in the witness.

_Chunk = tuple[list[list[float]], Callable[[int, int], dict], tuple[float, ...]]


def _gm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _mean(a, b, riccati=False)[0]


def _max_abs(mats: np.ndarray) -> list:
    return np.abs(mats).max(axis=(-2, -1)).tolist()


def _own_ts(trials) -> list[float]:
    """The point of T_GRID_11 that each trial of a one-point suite tests."""
    return [T_GRID_11[trial % len(T_GRID_11)] for trial in trials]


def _own_t_fidelities(rho: np.ndarray, sigma: np.ndarray, trials) -> np.ndarray:
    """F_t of each pair of two stacks at its trial's own t.  A pair at
    t = 1/2 reads it off Tr[rho X], as a one-point call does, with no
    decomposition of X; the others take their column of one grid call."""
    cols = np.array([trial % len(T_GRID_11) for trial in trials])
    values = np.empty(len(cols))
    mid = cols == T_GRID_11.index(0.5)
    if mid.any():
        values[mid] = _spectral_fidelities(rho[mid], sigma[mid], [0.5])[:, 0]
    if not mid.all():
        curves = _spectral_fidelities(rho[~mid], sigma[~mid], T_GRID_11)
        values[~mid] = curves[np.arange(len(curves)), cols[~mid]]
    return values


def _singles(values) -> list[list]:
    """Rows of one value per trial."""
    return [[v] for v in values]


def _witness(rho, sigma, grid=None, own_ts=None, **fields) -> Callable[[int, int], dict]:
    """witness(i, j) locating trial i by rho[i] and sigma[i], and its point
    j by t = grid[j], or by own_ts[i], a one-point suite's t of trial i."""
    def witness(i, j):
        point = {"t": grid[j]} if grid else {"t": own_ts[i]} if own_ts else {}
        return {**fields, **point, "rho": rho[i], "sigma": sigma[i]}
    return witness


# ---------------------------------------------------------------------------
# operator-mean suites


def _congruence_chunk(rngs, dim, trials, t) -> _Chunk:
    rows, congruences = [], []
    for rng in rngs:
        rows.append(rng.standard_normal(4 * dim * dim))
        while True:
            re, im = rng.standard_normal((2, dim, dim))
            c = re + 1j * im
            c /= np.linalg.norm(c, 2)
            if np.linalg.svd(c, compute_uv=False)[-1] > 0.1:
                break
        congruences.append(c)
    a, b = map(_pd, _split_gaussians(rows, [(dim, dim)] * 2))
    c = np.array(congruences)
    ch = c.conj().swapaxes(-1, -2)
    lhs = _gm(hermitize(ch @ a @ c), hermitize(ch @ b @ c))
    return _singles(_max_abs(lhs - ch @ _gm(a, b) @ c)), _witness(a, b), ()


def _inverse(mats: np.ndarray) -> np.ndarray:
    return power(*psd_eig(mats), -1.0, support_only=False)


def _inverse_identity_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b = _pds(rngs, dim, dim)
    gaps = _max_abs(_inverse(_gm(a, b)) - _gm(_inverse(a), _inverse(b)))
    return _singles(gaps), _witness(a, b), ()


def _tensor_compatibility_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b, c, d = _pds(rngs, dim, dim, 2, 2)
    lhs = _gm(hermitize(_kron(a, c)), hermitize(_kron(b, d)))
    return _singles(_max_abs(lhs - _kron(_gm(a, b), _gm(c, d)))), _witness(a, b), ()


def _support_identity_chunk(rngs, dim, trials, t) -> _Chunk:
    dim = max(3, dim)
    a, b, proj = map(np.array, zip(*[_basis_block_pair(dim, rng) for rng in rngs]))
    gaps = power(*psd_eig(_gm(a, b)), 0.0) - proj
    return _singles([float(np.linalg.norm(gap)) for gap in gaps]), _witness(a, b, dim=dim), ()


def _mean_flip_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b = _pds(rngs, dim, dim)
    forward = _spectral_means(a, b, T_GRID_11)
    mirrored = _spectral_means(b, a, [1.0 - tg for tg in T_GRID_11])
    return _max_abs(forward - mirrored), _witness(a, b, T_GRID_11), ()


def _spectral_eigenvalues_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b = _pds(rngs, dim, dim)
    lam_mean, _ = eig(_spectral_means(a, b, [0.5])[..., 0, :, :])
    lam_prod = np.sort(np.linalg.eigvals(a @ b).real, axis=-1)
    gaps = np.abs(lam_mean - np.sqrt(np.clip(lam_prod, 0, None))).max(axis=-1)
    return _singles(gaps.tolist()), _witness(a, b), ()


def _riccati_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b = _pds(rngs, dim, dim)
    x = _mean(a, b, riccati=True)[0]
    return _singles(_max_abs(x @ a @ x - b)), _witness(a, b), ()


def _variational_minimizer_chunk(rngs, dim, trials, t) -> _Chunk:
    a, b, *others = _pds(rngs, *[dim] * 22)
    base = _variational_objective(a, b, _mean(a, b, riccati=True)[0])
    gaps = base[:, None] - _variational_objective(a[:, None], b[:, None], np.stack(others, 1))
    return gaps.tolist(), _witness(a, b), ()


# ---------------------------------------------------------------------------
# fidelity suites


def _midpoint_uhlmann_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    mid = _spectral_fidelities(rho, sigma, [0.5])[:, 0]
    return _singles(np.abs(mid - _uhlmann(rho, sigma)).tolist()), _witness(rho, sigma), ()


def _endpoints_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    ends = _spectral_fidelities(rho, sigma, (0.0, 1.0))
    return _singles(np.abs(ends - 1.0).max(axis=-1).tolist()), _witness(rho, sigma), ()


def _flip_symmetry_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    forward = _spectral_fidelities(rho, sigma, T_GRID_11)
    mirrored = _spectral_fidelities(sigma, rho, [1.0 - tg for tg in T_GRID_11])
    return np.abs(forward - mirrored).tolist(), _witness(rho, sigma, T_GRID_11), ()


def _multiplicativity_chunk(rngs, dim, trials, t) -> _Chunk:
    r1, s1, r2, s2 = map(_gram, _gaussians(rngs, (2, 2), (2, 2), (dim, dim), (dim, dim)))
    joint = _own_t_fidelities(hermitize(_kron(r1, r2)), hermitize(_kron(s1, s2)), trials)
    parts = _own_t_fidelities(r1, s1, trials) * _own_t_fidelities(r2, s2, trials)
    witness = _witness(r1, s1, own_ts=_own_ts(trials), dim=2 * dim)
    return _singles(np.abs(joint - parts).tolist()), witness, ()


def _unitary_invariance_chunk(rngs, dim, trials, t) -> _Chunk:
    g_rho, g_sigma, g_u = _gaussians(rngs, *[(dim, dim)] * 3)
    rho, sigma, u = _gram(g_rho), _gram(g_sigma), _haar(g_u)
    uh = u.conj().swapaxes(-1, -2)
    turned = _own_t_fidelities(hermitize(u @ rho @ uh), hermitize(u @ sigma @ uh), trials)
    gaps = np.abs(turned - _own_t_fidelities(rho, sigma, trials))
    return _singles(gaps.tolist()), _witness(rho, sigma, own_ts=_own_ts(trials)), ()


def _tensor_stabilization_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma, tau = map(_gram, _gaussians(rngs, (dim, dim), (dim, dim), (2, 2)))
    joint = _own_t_fidelities(hermitize(_kron(rho, tau)), hermitize(_kron(sigma, tau)), trials)
    gaps = np.abs(joint - _own_t_fidelities(rho, sigma, trials))
    return _singles(gaps.tolist()), _witness(rho, sigma, own_ts=_own_ts(trials)), ()


def _universal_bound_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    curves = _spectral_fidelities(rho, sigma, T_GRID_21)
    return (curves - 1.0).tolist(), _witness(rho, sigma, T_GRID_21), ()


def _midpoint_minimum_chunk(rngs, dim, trials, t) -> _Chunk:
    # The claim F_t >= F_{1/2} on each single pair is refuted: the curve
    # is log-convex but not symmetric about t = 1/2 (the argument flip
    # maps t to 1 - t only with the pair swapped), so its minimum sits
    # wherever the pair puts it.  Already false for commuting pairs,
    # e.g. diag(0.99, 0.01) vs I/2 at t = 0.6.  What log-convexity does
    # give is the symmetrized bound F_t * F_{1-t} >= F_{1/2}^2, tracked
    # alongside as a peak and reported in the notes.
    rho, sigma = _densities(rngs, dim, dim, dim)
    curves = _spectral_fidelities(rho, sigma, T_GRID_21)
    mid = curves[:, _MID_21, None]
    syms = mid * mid - curves * curves[:, ::-1]
    return (mid - curves).tolist(), _witness(rho, sigma, T_GRID_21), (syms.max().item(),)


def _midpoint_minimum_notes(t, peaks) -> tuple[str, ...]:
    (worst_sym,) = peaks
    return (
        "as stated the bound fails: t -> value is log-convex but not "
        "symmetric about t = 1/2 for a fixed pair, since flipping t to "
        "1 - t also swaps the arguments, so the minimum over t need not "
        "sit at the midpoint (already false for commuting pairs, e.g. "
        "diag(0.99, 0.01) vs I/2 at t = 0.6)",
        "the symmetrized consequence of log-convexity, "
        "F_t * F_(1-t) >= F_(1/2)^2 on each pair, held on every sample "
        f"(worst violation {worst_sym:.3e})",
    )


def _second_differences(v: np.ndarray) -> np.ndarray:
    """v[k] - 2 v[k+1] + v[k+2] along the last axis."""
    return v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]


def _convexity_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    curves = _spectral_fidelities(rho, sigma, T_GRID_21)
    return _singles((-_second_differences(curves).min(axis=-1)).tolist()), _witness(rho, sigma), ()


def _log_convexity_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    curves = _spectral_fidelities(rho, sigma, T_GRID_21).tolist()
    logs = np.array([list(map(math.log, curve)) for curve in curves])
    return _singles((-_second_differences(logs).min(axis=-1)).tolist()), _witness(rho, sigma), ()


def _separate_concavity_chunk(rngs, dim, trials, t) -> _Chunk:
    r1, r2, sigma = _densities(rngs, dim, dim, dim, dim)
    n = len(LAMBDA_GRID)
    mixed = [hermitize(lam * r1 + (1.0 - lam) * r2) for lam in LAMBDA_GRID]
    # F(r1, s), F(r2, s), F(s, r1), F(s, r2), then F(mixed, s) and
    # F(s, mixed) at each lam, for every trial, 6 pairs a call to bound
    # the kernel's stacks
    left = [r1, r2, sigma, sigma, *mixed, *[sigma] * n]
    right = [sigma, sigma, r1, r2, *[sigma] * n, *mixed]
    f = np.concatenate([
        _spectral_fidelities(np.stack(left[k:k + 6], 1), np.stack(right[k:k + 6], 1), [t])[..., 0]
        for k in range(0, len(left), 6)], axis=1)
    lam = np.array(LAMBDA_GRID)
    v1 = lam * f[:, :1] + (1.0 - lam) * f[:, 1:2] - f[:, 4:4 + n]
    v2 = lam * f[:, 2:3] + (1.0 - lam) * f[:, 3:4] - f[:, 4 + n:]
    rows = [list(map(max, row1, row2)) for row1, row2 in zip(v1.tolist(), v2.tolist())]

    def witness(i, j):
        # the witness locates the trial by its first pair, r1 and r2
        return {"t": t, "lam": LAMBDA_GRID[j], "rho": r1[i], "sigma": r2[i]}

    return rows, witness, (v1.max().item(), v2.max().item())


def _separate_concavity_notes(t, peaks) -> tuple[str, ...]:
    if t == 0.5:
        return ()
    worst_first, worst_second = (max(0.0, peak) for peak in peaks)
    return (
        f"one-sided behaviour at t = {t}: worst first-argument gap "
        f"{worst_first:.3e}, worst second-argument gap {worst_second:.3e}; "
        "sampling shows concavity in the first argument only on t >= 1/2 "
        "and in the second only on t <= 1/2, the two halves exchanging "
        "under the flip, although the claim being tested asserts both "
        "directions for every t",
    )


def _first_fvg_chunk(rngs, dim, trials, t) -> _Chunk:
    ranks, rows = [], []
    for rng, trial in zip(rngs, trials):
        rank = dim if trial % 2 else int(rng.integers(1, dim + 1))
        ranks.append((rank, dim))
        rows.append(rng.standard_normal(2 * dim * (rank + dim)))
    rho, sigma = _ranked_densities(dim, ranks, rows)
    dist = 0.5 * _trace_norm(hermitize(rho - sigma))
    gaps = (1.0 - _spectral_fidelities(rho, sigma, T_GRID_11)) - dist[:, None]
    return gaps.tolist(), _witness(rho, sigma, T_GRID_11), ()


def _variational_dominance_chunk(rngs, dim, trials, t) -> _Chunk:
    # Each trial draws until 200 shrinks of its maximizer, inside the
    # maximizer's own frame, pass the block test, with a scalar shrink
    # (feasible by construction, s^2 sigma <= sigma) as the fallback, so
    # the trials run one at a time.  A draw is one standard_normal call
    # (the unitary) and one random call (the d eigenvalues, then the
    # scale).  A round tests up to 8 draws as one stack and keeps those
    # before its first failure; the generator replays the round through
    # it for the fallback's uniform, as a draw-by-draw loop reads it.
    # A maximizer that fails the block test is trial i's one value, 1.0,
    # located without a t.
    t_grid = (0.1, 0.25, 0.4, 0.5) if t is None else (t,)
    rows, pairs, failed = [], [], []
    for rng in rngs:
        rho, sigma = (stack[0] for stack in _densities([rng], dim, dim, dim))
        pairs.append((rho, sigma))
        x_star = _mean(rho, sigma, riccati=True)[0]
        inv_rho = _inverse(rho)
        if not _block_psd(inv_rho, x_star, sigma):
            failed.append(len(rows))
            rows.append([1.0])
            continue
        root = power(*psd_eig(x_star), 0.5, support_only=False)
        targets = _spectral_fidelities(rho, sigma, t_grid)
        feasible = []
        while len(feasible) < 200:
            start, n = rng.bit_generator.state, min(8, 200 - len(feasible))
            g, r = map(np.array, zip(*[(rng.standard_normal(2 * dim * dim), rng.random(dim + 1))
                                       for _ in range(n)]))
            u = _haar(_split_gaussians(g, [(dim, dim)])[0])
            shrink = hermitize(u @ (r[:, :dim, None] * np.eye(dim)) @ u.conj().swapaxes(-1, -2))
            cands = hermitize(r[:, dim, None, None] * root @ shrink @ root)
            inv_rhos, sigmas = (np.broadcast_to(m, cands.shape) for m in (inv_rho, sigma))
            cut = (_block_psd(inv_rhos, cands, sigmas).tolist() + [False]).index(False)
            feasible.extend(cands[:cut])
            if cut < n:
                rng.bit_generator.state = start
                for _ in range(cut + 1):
                    rng.standard_normal(2 * dim * dim)
                    rng.random(dim + 1)
                cand = hermitize(float(rng.uniform(0.0, 1.0)) * x_star)
                if _block_psd(inv_rho, cand, sigma):
                    feasible.append(cand)
        gaps = _power_traces(rho, np.array(feasible), t_grid) - targets
        rows.append(gaps.ravel().tolist())

    def witness(i, j):
        point = {} if i in failed else {"t": t_grid[j % len(t_grid)]}
        return {**point, "rho": pairs[i][0], "sigma": pairs[i][1]}

    return rows, witness, (1.0,) if failed else ()


def _variational_dominance_notes(t, peaks) -> tuple[str, ...]:
    # only a maximizer that fails the block test reports a peak
    return ("maximizer failed the block feasibility test",) if peaks else ()


def _zero_condition_chunk(rngs, dim, trials, t) -> _Chunk:
    dim = max(2, dim // 2)
    rho, sigma = _orthogonal_pairs(rngs, dim, dim)
    grid = (0.1, 0.5, 1.0)
    values = _spectral_fidelities(rho, sigma, grid).tolist()
    return values, _witness(rho, sigma, grid, dim=2 * dim), ()


def _positivity_chunk(rngs, dim, trials, t) -> _Chunk:
    ranks = [(1 if trial % 2 else dim, dim) for trial in trials]
    rows = [rng.standard_normal(2 * dim * sum(rank)) for rng, rank in zip(rngs, ranks)]
    rho, sigma = _ranked_densities(dim, ranks, rows)
    curves = _spectral_fidelities(rho, sigma, T_GRID_11)
    values = np.where(curves <= 0.0, 1.0 - curves, 0.0).tolist()
    return values, _witness(rho, sigma, T_GRID_11), ()


def _closed_form_chunk(rngs, dim, trials, t, pure_rho: bool) -> _Chunk:
    # a rank-one rho reduces F_t to c^t, a rank-one sigma to c^(1 - t),
    # with c the overlap Tr[pure mixed]
    rho, sigma = _densities(rngs, dim, *((1, dim) if pure_rho else (dim, 1)))
    values = _own_t_fidelities(rho, sigma, trials).tolist()
    overlaps = real_trace(rho @ sigma if pure_rho else sigma @ rho).tolist()
    ts = _own_ts(trials)
    gaps = [
        abs(f - max(c, 0.0) ** (tg if pure_rho else 1.0 - tg))
        for f, c, tg in zip(values, overlaps, ts)
    ]
    return _singles(gaps), _witness(rho, sigma, own_ts=ts), ()


def _bloch_closed_forms_chunk(rngs, dim, trials, t) -> _Chunk:
    vectors, overlaps = [], []
    for rng, trial in zip(rngs, trials):
        r, s = rng.standard_normal((2, 3))
        r /= np.linalg.norm(r)
        if trial % 2:
            s *= rng.uniform(0.0, 0.98) / np.linalg.norm(s)
        else:
            s /= np.linalg.norm(s)
        vectors.append((r, s))
        overlaps.append(0.5 * (1.0 + float(r @ s)))
    rho, sigma = (hermitize(_bloch_matrix(v)) for v in np.array(vectors).swapaxes(0, 1))
    values = _own_t_fidelities(rho, sigma, trials).tolist()
    ts = _own_ts(trials)
    gaps = []
    for f, u, m, c, tg in zip(values, _uhlmann(rho, sigma).tolist(),
                              real_trace(_gm(rho, sigma)).tolist(), overlaps, ts):
        v = max(abs(f - c ** tg), abs(u - math.sqrt(c)))
        gaps.append(max(v, abs(m - math.sqrt(c))))
    return _singles(gaps), _witness(rho, sigma, own_ts=ts, dim=2), ()


_INNER_GRID = tuple(round(0.05 + 0.09 * k, 10) for k in range(11))


def _classicalization_chunk(rngs, dim, trials, t) -> _Chunk:
    ps, qs, grids = [], [], []
    for rng, trial in zip(rngs, trials):
        p = rng.dirichlet(np.ones(dim))
        q = rng.dirichlet(np.ones(dim))
        grid = T_GRID_11
        if trial % 3 == 2 and dim > 2:
            # exercise the zero conventions away from the endpoint parameters
            p[int(rng.integers(dim))] = 0.0
            p /= p.sum()
            grid = _INNER_GRID
        ps.append(p)
        qs.append(q)
        grids.append(grid)
    # the diagonal states, and both grids in one call: no value depends
    # on the grid around it
    rho, sigma = (np.array(v)[:, :, None] * np.eye(dim, dtype=complex) for v in (ps, qs))
    curves = _spectral_fidelities(rho, sigma, T_GRID_11 + _INNER_GRID)
    rows = []
    for curve, p, q, grid in zip(curves.tolist(), ps, qs, grids):
        values = curve[len(T_GRID_11):] if grid is _INNER_GRID else curve
        rows.append([abs(f - diagonal_spectral_fidelity(p, q, tg).value)
                     for tg, f in zip(grid, values)])

    def witness(i, j):
        return {"p": ps[i].tolist(), "q": qs[i].tolist(), "t": grids[i][j]}

    return rows, witness, ()


def _renyi_midpoint_chunk(rngs, dim, trials, t) -> _Chunk:
    rho, sigma = _densities(rngs, dim, dim, dim)
    d_half = [_renyi(tr, 0.5) for tr in _sandwich_traces(psd_eig(sigma), rho, 0.5, 0.5).tolist()]
    uhlmann = _uhlmann(rho, sigma).tolist()
    affinity = real_trace(power(*psd_eig(rho), 0.5) @ power(*psd_eig(sigma), 0.5)).tolist()
    gaps = [abs(dh + 2.0 * math.log(u)) for dh, u in zip(d_half, uhlmann)]
    affinity_gap = max(abs(dh + 2.0 * math.log(aff)) for dh, aff in zip(d_half, affinity))
    return _singles(gaps), _witness(rho, sigma), (affinity_gap,)


def _renyi_midpoint_notes(t, peaks) -> tuple[str, ...]:
    (affinity_gap,) = peaks
    return (
        "the order-1/2 divergence evaluated from its defining power trace matches "
        "-2 log(Uhlmann) on every sample; substituting the affinity "
        f"Tr(rho^1/2 sigma^1/2) instead leaves gaps up to {affinity_gap:.6e}, "
        "so the two quantities are not interchangeable for non-commuting pairs",
    )


def _dpi_chunk(rngs, dim, trials, t) -> _Chunk:
    # Trial k draws by k % 3 from one of three ensembles: Haar pure pairs
    # (productive below the midpoint), Ginibre mixed pairs (productive on
    # both sides), and the near-classical pairs of two uniforms each.
    ranks, rows, uniforms = [], [], []
    for rng, trial in zip(rngs, trials):
        if trial % 3 == 2:
            p = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
            uniforms.append((p, 10.0 ** rng.uniform(-4.0, -2.0)))
        else:
            rank = dim if trial % 3 else 1
            ranks.append((rank, rank))
            rows.append(rng.standard_normal(4 * dim * rank))
    near = np.array([trial % 3 == 2 for trial in trials])
    rho = np.empty((len(trials), dim, dim), dtype=complex)
    sigma = np.empty_like(rho)
    if rows:
        rho[~near], sigma[~near] = _ranked_densities(dim, ranks, rows)
    if uniforms:
        rho[near], sigma[near] = _near_classical_pairs(dim, t, *map(np.array, zip(*uniforms)))
    gaps = _violation_gaps(rho, sigma, t, pinching(dim))[0]
    return _singles(gaps), _witness(rho, sigma, t=t), ()


def _second_fvg_scan() -> tuple[float, dict, tuple[str, ...]]:
    worst, witness = -1.0, {}
    region = []
    t_grid = tuple(round(0.05 * k, 10) for k in range(1, 20))
    c_grid = tuple(round(0.1 * k, 10) for k in range(1, 10))
    for tg, row in zip(t_grid, _second_fvg(t_grid, c_grid)):
        for c, result in zip(c_grid, row):
            v = result.half_trace_dist - result.rhs
            if result.violated:
                region.append((tg, c))
            if v > worst:
                worst, witness = v, {"t": tg, "c": c}
    below = [tc for tc in region if tc[0] < 0.5]
    notes = (
        f"upper-bound violations on the pure-state grid: {len(region)} of "
        f"{len(t_grid) * len(c_grid)} points, all with t < 0.5"
        if len(below) == len(region)
        else f"upper-bound violations on the pure-state grid: {len(region)} points, "
        f"{len(region) - len(below)} of them at t >= 0.5",
    )
    return worst, witness, notes


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class PropertySpec:
    # chunk(rngs, dim, trials, t) -> (rows, witness, peaks) of these trials
    chunk: Callable | None
    # A callable is read when the suite runs, so tolerance overrides apply.
    tolerance: float | Callable[[], float]
    dims: tuple[int, ...]
    samples: int
    predicted_to_fail: Callable[[float | None], bool]
    summary: str
    # the t a trial sees when the run gives none
    t: float | None = None
    # fixed notes, or notes(t, peaks) from the peaks over every chunk
    notes: tuple[str, ...] | Callable = ()
    # a suite without trials scans once instead: () -> (worst, witness, notes)
    scan: Callable | None = None


def _never(t) -> bool:
    return False


_REGISTRY: dict[str, PropertySpec] = {
    "congruence_invariance": PropertySpec(
        _congruence_chunk, 1e-8, (2, 3, 4), 500, _never,
        "congruence transport of the geometric mean"),
    "inverse_identity": PropertySpec(
        _inverse_identity_chunk, 1e-8, (2, 3, 4), 500, _never,
        "inverse of the geometric mean is the mean of the inverses"),
    "tensor_compatibility": PropertySpec(
        _tensor_compatibility_chunk, 1e-8, (2, 3), 500, _never,
        "geometric mean factors over tensor products"),
    "support_identity": PropertySpec(
        _support_identity_chunk, 1e-7, (3, 4, 5, 6), 200, _never,
        "support of the mean is the intersection of supports"),
    "mean_flip_identity": PropertySpec(
        _mean_flip_chunk, 1e-9, (2, 3, 4), 200, _never,
        "weighted mean reverses under swapping arguments and weight"),
    "spectral_eigenvalue_law": PropertySpec(
        _spectral_eigenvalues_chunk, 1e-8, (2, 3, 4, 5, 6), 500, _never,
        "spectral-mean eigenvalues are root eigenvalues of the product"),
    "riccati": PropertySpec(
        _riccati_chunk, 1e-9, (2, 3, 4), 500, _never,
        "the mean solves its quadratic matrix equation"),
    "variational_minimizer": PropertySpec(
        _variational_minimizer_chunk, 1e-9, (2, 3, 4), 100, _never,
        "the Riccati solution minimizes the trace objective"),
    "midpoint_uhlmann": PropertySpec(
        _midpoint_uhlmann_chunk, 1e-8, (2, 3, 4, 5, 6), 1000, _never,
        "the family passes through the Uhlmann fidelity at the midpoint"),
    "endpoints": PropertySpec(
        _endpoints_chunk, 1e-10, (2, 3, 4), 500, _never,
        "both endpoints evaluate to one for full-rank pairs"),
    "flip_symmetry": PropertySpec(
        _flip_symmetry_chunk, 1e-8, (2, 3, 4), 500, _never,
        "swapping states mirrors the parameter"),
    "multiplicativity": PropertySpec(
        _multiplicativity_chunk, 1e-8, (2, 3), 500, _never,
        "the family factors over tensor products"),
    "unitary_invariance": PropertySpec(
        _unitary_invariance_chunk, 1e-8, (2, 3, 4), 500, _never,
        "joint unitary conjugation leaves the value unchanged"),
    "tensor_stabilization": PropertySpec(
        _tensor_stabilization_chunk, 1e-8, (2, 3, 4), 500, _never,
        "appending a shared ancilla leaves the value unchanged"),
    "universal_bound": PropertySpec(
        _universal_bound_chunk, 1e-9, (2, 3, 4), 500, _never,
        "the value never exceeds one on the unit parameter interval"),
    "midpoint_minimum": PropertySpec(
        _midpoint_minimum_chunk, 1e-9, (2, 3, 4), 500, _never,
        "the midpoint minimizes the family over t for full-rank pairs",
        notes=_midpoint_minimum_notes),
    "convexity_in_t": PropertySpec(
        _convexity_chunk, 1e-8, (2, 3, 4), 500, _never,
        "discrete second differences in t are nonnegative"),
    "log_convexity_in_t": PropertySpec(
        _log_convexity_chunk, 1e-8, (2, 3, 4), 500, _never,
        "discrete second differences of the log curve are nonnegative"),
    "separate_concavity": PropertySpec(
        _separate_concavity_chunk, 1e-8, (2, 3), 200, _never,
        "the value is concave in each argument separately",
        t=0.5, notes=_separate_concavity_notes),
    "first_fvg": PropertySpec(
        _first_fvg_chunk, 1e-9, (2, 3, 4, 5, 6), 1000, _never,
        "one minus the value is below half the trace distance"),
    "variational_dominance": PropertySpec(
        _variational_dominance_chunk, 1e-8, (2, 3, 4), 10, _never,
        "no verified-feasible contraction beats the maximizer below the midpoint",
        notes=_variational_dominance_notes),
    "zero_condition": PropertySpec(
        _zero_condition_chunk, 1e-10, (4, 6), 200, _never,
        "orthogonal supports give exactly zero"),
    "positivity": PropertySpec(
        _positivity_chunk, 0.0, (2, 3, 4), 200, _never,
        "the value stays strictly positive on overlapping supports",
        notes=(
            "strict positivity requires overlapping supports: pairs with orthogonal "
            "supports evaluate to exactly zero for every t in (0, 1], so the sampled "
            "ensemble here keeps the support of rho inside the support of sigma",
        )),
    "closed_form_pure_rho": PropertySpec(
        partial(_closed_form_chunk, pure_rho=True), 1e-9, (2, 3, 4), 500, _never,
        "rank-one first argument reduces to a power of the overlap"),
    "closed_form_pure_sigma": PropertySpec(
        partial(_closed_form_chunk, pure_rho=False), 1e-9, (2, 3, 4), 500, _never,
        "rank-one second argument reduces to a power of the overlap"),
    "bloch_closed_forms": PropertySpec(
        _bloch_closed_forms_chunk, 1e-9, (2,), 500, _never,
        "qubit values match the inner-product formulas"),
    "classicalization": PropertySpec(
        _classicalization_chunk, 1e-9, (2, 3, 4), 200, _never,
        "diagonal pairs reduce to the classical power sum"),
    "renyi_midpoint_uhlmann": PropertySpec(
        _renyi_midpoint_chunk, 1e-8, (2, 3, 4), 200, _never,
        "the order-1/2 divergence is minus twice the log Uhlmann fidelity",
        notes=_renyi_midpoint_notes),
    "dpi_monotone": PropertySpec(
        _dpi_chunk, lambda: TOL.dpi_margin, (2,), 500,
        lambda t: abs(t - 0.5) > 1e-12,
        "fidelity under the dephasing channel; predicted to fail off-midpoint",
        t=0.8),
    "dpi_midpoint": PropertySpec(
        # the midpoint suite tests t = 1/2 whatever t the run asks for
        lambda rngs, dim, trials, t: _dpi_chunk(rngs, dim, trials, 0.5),
        lambda: TOL.dpi_margin, (2, 3), 500, _never,
        "no data-processing violation exists at the midpoint"),
    "second_fvg": PropertySpec(
        None, 1e-12, (2,), 1, lambda t: True,
        "the upper trace-distance bound; predicted to fail below the midpoint",
        scan=_second_fvg_scan),
}


def list_properties() -> dict[str, str]:
    """Registered property ids with one-line summaries."""
    return {name: spec.summary for name, spec in _REGISTRY.items()}


# Each distinct dim runs its own trials, those whose index picks it, in
# chunks from its first trial.  A suite takes chunks of the full cap, the
# fewest kernel calls; the DPI search, which stops at its first hit,
# ramps them 1, 2, 4, ... to evaluate few trials beyond it.  The cap
# bounds memory: at most _CHUNK_CAP trials, and at most
# _CHUNK_ENTRIES // d**2 at the chunk's dim d, so a stack of one d x d
# matrix per trial holds at most _CHUNK_ENTRIES entries (4 trials at
# d = 64).  separate_concavity evaluates its 22 pairs a trial 6 at a
# time, and variational_dominance tests its sequential draws in rounds
# of 8, one stack per round.
_CHUNK_CAP = 256
_CHUNK_ENTRIES = 2**14


def _streams(rng: np.random.Generator, states) -> Iterable[np.random.Generator]:
    """rng, set to each trial's state in turn as the iteration hands it out."""
    for state in states:
        rng.bit_generator.state = state
        yield rng


def _chunks(chunk_fn, dims: tuple[int, ...], n_samples: int, seed: int, t, ramp=False):
    """(dim, trials, chunk_fn's result) for each chunk of each dim's
    trials; each trial runs on its own stream and the dim its index
    picks, so it replays alone.

    One pass seeds a chunk's trial streams, and chunk_fn iterates one
    shared generator, set to trial k's stream as it is handed out for
    trial k.  So a chunk function must finish trial k's draws before it
    takes trial k+1's generator.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for dim in dict.fromkeys(dims):
        own = [trial for trial in range(n_samples) if dims[trial % len(dims)] == dim]
        cap = min(_CHUNK_CAP, max(1, _CHUNK_ENTRIES // dim**2))
        start, size = 0, 1 if ramp else cap
        while start < len(own):
            trials = own[start:start + size]
            yield dim, trials, chunk_fn(_streams(rng, _trial_states(seed, trials)), dim, trials, t)
            start, size = start + size, min(2 * size, cap)


def _run_trials(
    spec: PropertySpec, dims: tuple[int, ...], n_samples: int, seed: int, t
) -> tuple[float, dict, tuple[str, ...]]:
    """The winner has the greatest value, then the earliest trial, then
    the earliest point, as the first strictly greatest of a walk over
    every trial in order; a NaN never wins, and a value must beat -1.
    Only the winner's witness is built.
    """
    worst, found, peaks = -1.0, None, ()
    for dim, trials, (rows, witness, chunk_peaks) in _chunks(spec.chunk, dims, n_samples, seed, t):
        for i, row in enumerate(rows):
            top = max(row, default=math.nan)
            if top != top:
                # max keeps a leading NaN; look past it
                top = max((v for v in row if v == v), default=math.nan)
            if top > worst or top == worst and found and trials[i] < found[0]:
                worst, found = top, (trials[i], dim, witness, i, row.index(top))
        if chunk_peaks:
            peaks = tuple(map(max, peaks, chunk_peaks)) if peaks else chunk_peaks
    notes = spec.notes(t, peaks) if callable(spec.notes) else spec.notes
    if found is None:
        return worst, {}, notes
    trial, dim, fields, i, j = found
    witness = {"trial": trial, "dim": dim, **fields(i, j)}
    return worst, {k: matrix_to_json(v) if isinstance(v, np.ndarray) else v
                   for k, v in witness.items()}, notes


def run_suite(
    property_id: str,
    dims: list[int] | None = None,
    n_samples: int | None = None,
    rng_seed: int = 42,
    t: float | None = None,
) -> PropertyReport:
    """Run one registered property suite and report the worst violation.

    Reports are deterministic functions of (property_id, dims,
    n_samples, rng_seed, t).
    """
    if property_id not in _REGISTRY:
        raise UnknownProperty(
            f"unknown property {property_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    spec = _REGISTRY[property_id]
    use_dims = tuple(dims) if dims else spec.dims
    if any(d < 2 for d in use_dims):
        raise ParamError(f"dims must all be at least 2, got {use_dims}")
    use_samples = spec.samples if n_samples is None else int(n_samples)
    if use_samples < 1:
        raise ParamError(f"samples must be positive, got {use_samples}")
    use_t = spec.t if t is None else float(t)
    if t is not None and not 0.0 <= use_t <= 1.0:
        raise ParamError(f"parameter t = {use_t} outside [0, 1]")
    tolerance = spec.tolerance() if callable(spec.tolerance) else spec.tolerance
    if spec.scan is not None:
        worst, witness, notes = spec.scan()
    else:
        worst, witness, notes = _run_trials(spec, use_dims, use_samples, rng_seed, use_t)
    max_violation = max(worst, 0.0)
    if max_violation <= tolerance:
        verdict = "holds"
    elif spec.predicted_to_fail(use_t):
        verdict = "fails_as_predicted"
    else:
        verdict = "unexpected"
    return PropertyReport(
        property_id=property_id,
        samples=use_samples,
        max_violation=max_violation,
        worst_witness=witness,
        seed=rng_seed,
        verdict=verdict,
        tolerance=tolerance,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# directed constructions


# Qubit pair quoted to six decimals; dephasing strictly lowers the
# t = 0.8 fidelity on it, providing a fixed regression anchor.
_REFERENCE_RHO = np.array(
    [
        [0.064925, -0.022125 - 0.170483j],
        [-0.022125 + 0.170483j, 0.935075],
    ]
)
_REFERENCE_SIGMA = np.array(
    [
        [0.806863, -0.317159 - 0.211863j],
        [-0.317159 + 0.211863j, 0.193137],
    ]
)
_REFERENCE_T = 0.8
_REFERENCE_BEFORE = 0.755086
_REFERENCE_AFTER = 0.752207


def replay_reference_counterexample() -> DPIWitness:
    """Re-evaluate the stored qubit counterexample at t = 0.8.

    Uses no randomness.  Raises ToleranceError when the recomputed
    values drift more than 1e-3 from the stored ones, which would
    signal a library regression rather than an input problem.
    """
    rho = DensityMatrix(_REFERENCE_RHO)
    sigma = DensityMatrix(_REFERENCE_SIGMA)
    channel = pinching(2)
    _, f_before, f_after = _violation_gaps(rho.mat, sigma.mat, _REFERENCE_T, channel)
    if abs(f_before - _REFERENCE_BEFORE) > 1e-3 or abs(f_after - _REFERENCE_AFTER) > 1e-3:
        raise ToleranceError(
            f"reference values not reproduced: {f_before!r}, {f_after!r}"
        )
    return DPIWitness(rho, sigma, _REFERENCE_T, channel, f_before, f_after)


def _violation_gaps(
    rho: np.ndarray, sigma: np.ndarray, t: float, channel: Channel
) -> tuple[list, list, list]:
    """F_t before and after the channel, and the drop, of a pair of states
    or of each pair of two (..., d, d) stacks, as Python floats; the pairs
    and their images go through the kernel as one stack."""
    rhos = np.stack([rho, hermitize(_image(channel, rho))])
    sigmas = np.stack([sigma, hermitize(_image(channel, sigma))])
    before, after = _spectral_fidelities(rhos, sigmas, [t])[..., 0]
    return (before - after).tolist(), before.tolist(), after.tolist()


def _minimize_coherence(
    rho: DensityMatrix, sigma: DensityMatrix, t: float, channel: Channel
) -> DPIWitness:
    """Bisect toward the dephased pair for the least coherence that violates.

    The line s -> (dephased + s (original - dephased)) stays inside the
    state space, so the smallest violating s measures how close to a
    commuting pair the witness can be pushed.  The channel must be
    idempotent, as pinching is: a linear idempotent channel maps every
    point of the line to the dephased end s = 0, so the fidelity after
    it is computed once, and s = 0 itself never violates.
    """
    rho0, sigma0 = apply(channel, rho), apply(channel, sigma)
    after = spectral_fidelity(rho0, sigma0, t).value

    def pair_at(s: float) -> tuple[DensityMatrix, DensityMatrix]:
        return (
            DensityMatrix._derived(rho0.mat + s * (rho.mat - rho0.mat)),
            DensityMatrix._derived(sigma0.mat + s * (sigma.mat - sigma0.mat)),
        )

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if spectral_fidelity(*pair_at(mid), t).value - after > TOL.dpi_margin:
            hi = mid
        else:
            lo = mid
    rho_h, sigma_h = pair_at(hi)
    before = spectral_fidelity(rho_h, sigma_h, t).value
    return DPIWitness(rho_h, sigma_h, t, channel, before, after)


def search_dpi_violation(
    t: float,
    dim: int = 2,
    n_trials: int = 10_000,
    rng_seed: int = 42,
) -> DPIWitness | None:
    """Search random pairs for a fidelity drop under pinching.

    Walks the dpi_monotone trial stream and returns its first pair whose
    drop exceeds the configured margin, pushed by bisection to the
    smallest coherence that still violates, or None when the budget of
    n_trials >= 1 trials is exhausted.  Finding nothing at the midpoint is
    expected there.
    """
    if not 0.0 < t < 1.0:
        raise ParamError(f"parameter t = {t} outside (0, 1)")
    if dim < 2:
        raise ParamError(f"dimension {dim} must be at least 2")
    if n_trials < 1:
        raise ParamError(f"n_trials must be positive, got {n_trials}")
    for _, _, (rows, witness, _) in _chunks(_dpi_chunk, (dim,), n_trials, rng_seed, t, ramp=True):
        for i, (v,) in enumerate(rows):
            if v > TOL.dpi_margin:
                fields = witness(i, 0)
                rho, sigma = (DensityMatrix._derived(fields[k]) for k in ("rho", "sigma"))
                return _minimize_coherence(rho, sigma, t, pinching(dim))
    return None


class SecondFvgResult(NamedTuple):
    half_trace_dist: float
    rhs: float
    violated: bool


def second_fvg_failure(t: float, c: float) -> SecondFvgResult:
    """Evaluate the upper trace-distance comparison on a pure pair.

    Builds two pure states with overlap c, evaluates half the trace
    distance and sqrt(1 - F_t^2), and cross-checks both against their
    closed forms sqrt(1 - c^2) and sqrt(1 - c^{4t}).  violated reports
    whether the distance exceeds the bound.
    """
    if not 0.0 < c < 1.0:
        raise ParamError(f"overlap c = {c} outside (0, 1)")
    if not 0.0 <= t <= 1.0:
        raise ParamError(f"parameter t = {t} outside [0, 1]")
    return _second_fvg([float(t)], [c])[0][0]


def _second_fvg(ts, cs) -> list[list[SecondFvgResult]]:
    """second_fvg_failure at each t of a grid (rows) and overlap c (columns),
    from one stack of pure pairs: one F_t call over the grid and one trace
    norm call.  sqrt(1 - f * f) is taken in Python floats, as fvg_bounds
    takes it: numpy's float64 square is one ulp off at some f."""
    sines = [math.sqrt(1.0 - c * c) for c in cs]
    rho = np.broadcast_to(pure_state((1.0, 0.0)).mat, (len(cs), 2, 2))
    sigma = np.array([pure_state((c, sine)).mat for c, sine in zip(cs, sines)])
    curves = _spectral_fidelities(rho, sigma, list(ts)).T.tolist()
    dists = (0.5 * _trace_norm(hermitize(rho - sigma))).tolist()
    rows = [[] for _ in ts]
    for t, curve, row in zip(ts, curves, rows):
        for c, sine, dist, f in zip(cs, sines, dists, curve):
            rhs = math.sqrt(max(0.0, 1.0 - f * f))
            closed_rhs = math.sqrt(max(0.0, 1.0 - c ** (4.0 * t)))
            if abs(dist - sine) > 1e-9 or abs(rhs - closed_rhs) > 1e-9:
                raise ToleranceError(f"machinery deviates from the closed forms: {dist!r} vs "
                                     f"{sine!r}, {rhs!r} vs {closed_rhs!r}")
            row.append(SecondFvgResult(dist, rhs, dist > rhs + 1e-12))
    return rows


class TSweepCurve(NamedTuple):
    ts: tuple
    values: tuple
    log_values: tuple
    second_diff: tuple
    log_second_diff: tuple


def t_sweep(rho: DensityMatrix, sigma: DensityMatrix, t_grid) -> TSweepCurve:
    """Fidelity curve over a sorted parameter grid with convexity diagnostics.

    The values come from spectral_fidelity_curve, so a grid of any
    length costs one Riccati solve and one eigendecomposition.

    Second differences use the grid as given; they are the discrete
    convexity certificates for the value and its logarithm (the log of
    a value that is not positive is -inf, and a second difference that
    meets -inf is infinite or NaN).  Both are array expressions over the
    whole grid.
    """
    ts = [float(x) for x in t_grid]
    if ts != sorted(ts):
        raise ParamError("parameter grid must be sorted ascending")
    values = spectral_fidelity_curve(rho, sigma, ts, extended=True)
    v = np.array(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(v > 0, np.log(v), -np.inf)
        second_diff = _second_differences(v)
        log_second_diff = _second_differences(logs)
    return TSweepCurve(
        tuple(ts),
        tuple(values),
        tuple(logs.tolist()),
        tuple(second_diff.tolist()),
        tuple(log_second_diff.tolist()),
    )
