"""Seeded verification suites for the means and the fidelity family.

Each registered property samples random instances, measures the worst
violation of one stated identity or inequality, and returns a
machine-readable report.  A property is a trial function that measures
one instance; one trial stream, read by run_suite and the DPI search,
runs the trials, each on a generator split off the seed by trial index.
Two families are expected to fail away from the midpoint (data
processing, and the upper trace-distance bound); those report
fails_as_predicted rather than unexpected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .config import TOL
from .errors import ParamError, ToleranceError, UnknownProperty
from .fidelity import (
    _power_traces,
    _spectral_fidelities,
    diagonal_spectral_fidelity,
    fvg_bounds,
    matsumoto_fidelity,
    sandwiched_renyi,
    spectral_fidelity,
    spectral_fidelity_curve,
    uhlmann_fidelity,
)
from .linalg import (
    block_psd,
    eig,
    frac_power,
    hermitize,
    support_projector,
    trace_norm,
)
from .means import (
    _spectral_means,
    geometric_mean,
    riccati_solution,
    variational_objective,
    weighted_spectral_mean,
)
from .serialize import matrix_to_json
from .states import (
    Channel,
    DensityMatrix,
    _bloch_matrix,
    _image,
    _projector,
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


class Candidate(NamedTuple):
    """One measured violation of a trial and the witness fields that locate it.

    States and matrices among the fields are serialized only for the
    candidate that ends up the suite's worst.  stats feed the suite's
    notes, which see their elementwise peaks over every candidate.
    """

    violation: float
    fields: dict
    stats: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# sampling helpers


def _random_pd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random positive definite matrix of unit scale."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g @ g.conj().T / dim + 0.1 * np.eye(dim))


def _full_pair(dim: int, rng) -> tuple[DensityMatrix, DensityMatrix]:
    return random_density(dim, dim, rng), random_density(dim, dim, rng)


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
    a[np.ix_(idx_a, idx_a)] = _random_pd(ra, rng)
    b[np.ix_(idx_b, idx_b)] = _random_pd(rb, rng)
    a = hermitize(u @ a @ u.conj().T)
    b = hermitize(u @ b @ u.conj().T)
    common = sorted(set(idx_a.tolist()) & set(idx_b.tolist()))
    cols = u[:, common] if common else np.zeros((dim, 0), dtype=complex)
    proj = hermitize(cols @ cols.conj().T)
    return a, b, proj


def _dpi_trial_pair(
    dim: int, t: float, kind: int, rng
) -> tuple[DensityMatrix, DensityMatrix]:
    """One candidate pair for the data-processing search.

    Cycles three ensembles: Haar pure pairs (productive below the
    midpoint), Ginibre mixed pairs (productive on both sides), and
    near-classical coherent pairs built from the analytic qubit family,
    order-flipped above the midpoint where the violation appears with
    the roles interchanged.  Above two dimensions the qubit state psi
    sits in the leading 2x2 block, (1 - delta) diag(psi, 0) + delta I/d,
    which the pinching channel dephases as it does the qubit.
    """
    if kind == 0:
        return random_density(dim, 1, rng), random_density(dim, 1, rng)
    if kind == 1:
        return _full_pair(dim, rng)
    p = 10.0 ** rng.uniform(-3.0, math.log10(0.2))
    delta = 10.0 ** rng.uniform(-4.0, -2.0)
    eye = np.eye(dim) / dim

    def near_classical(qubit: np.ndarray) -> DensityMatrix:
        block = np.zeros((dim, dim), dtype=complex)
        block[:2, :2] = DensityMatrix._derived(qubit).mat
        return DensityMatrix._derived((1 - delta) * block + delta * eye)

    rho = near_classical(_bloch_matrix(np.array((1.0, 0.0, 0.0))))
    sigma = near_classical(_projector((math.sqrt(p), math.sqrt(1.0 - p))))
    if t > 0.5:
        rho, sigma = sigma, rho
    return rho, sigma


# ---------------------------------------------------------------------------
# operator-mean trials
#
# Every trial takes (rng, dim, trial, t) and returns its Candidates in the
# order it measures them.  Fields that restate "dim" replace the
# sampled dim in the witness.


def _congruence_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    while True:
        c = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        c /= np.linalg.norm(c, 2)
        if np.linalg.svd(c, compute_uv=False)[-1] > 0.1:
            break
    lhs = geometric_mean(c.conj().T @ a @ c, c.conj().T @ b @ c)
    rhs = c.conj().T @ geometric_mean(a, b) @ c
    return [Candidate(float(np.abs(lhs - rhs).max()), {"rho": a, "sigma": b})]


def _inverse_identity_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    lhs = frac_power(geometric_mean(a, b), -1.0)
    rhs = geometric_mean(frac_power(a, -1.0), frac_power(b, -1.0))
    return [Candidate(float(np.abs(lhs - rhs).max()), {"rho": a, "sigma": b})]


def _tensor_compatibility_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    c, d = _random_pd(2, rng), _random_pd(2, rng)
    lhs = geometric_mean(np.kron(a, c), np.kron(b, d))
    rhs = np.kron(geometric_mean(a, b), geometric_mean(c, d))
    return [Candidate(float(np.abs(lhs - rhs).max()), {"rho": a, "sigma": b})]


def _support_identity_trial(rng, dim, trial, t) -> list[Candidate]:
    dim = max(3, dim)
    a, b, proj = _basis_block_pair(dim, rng)
    mean_proj = support_projector(geometric_mean(a, b))
    v = float(np.linalg.norm(mean_proj - proj))
    return [Candidate(v, {"dim": dim, "rho": a, "sigma": b})]


def _mean_flip_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    forward = _spectral_means(a, b, T_GRID_11)
    mirrored = _spectral_means(b, a, [1.0 - tg for tg in T_GRID_11])
    return [
        Candidate(float(np.abs(f - g).max()), {"t": tg, "rho": a, "sigma": b})
        for tg, f, g in zip(T_GRID_11, forward, mirrored)
    ]


def _spectral_eigenvalues_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    lam_mean, _ = eig(weighted_spectral_mean(a, b, 0.5))
    lam_prod = np.sort(np.linalg.eigvals(a @ b).real)
    v = float(np.abs(lam_mean - np.sqrt(np.clip(lam_prod, 0, None))).max())
    return [Candidate(v, {"rho": a, "sigma": b})]


def _riccati_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    x = riccati_solution(a, b)
    return [Candidate(float(np.abs(x @ a @ x - b).max()), {"rho": a, "sigma": b})]


def _variational_minimizer_trial(rng, dim, trial, t) -> list[Candidate]:
    a, b = _random_pd(dim, rng), _random_pd(dim, rng)
    base = variational_objective(a, b, riccati_solution(a, b))
    return [
        Candidate(base - variational_objective(a, b, _random_pd(dim, rng)),
                  {"rho": a, "sigma": b})
        for _ in range(20)
    ]


# ---------------------------------------------------------------------------
# fidelity trials


def _midpoint_uhlmann_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    v = abs(spectral_fidelity(rho, sigma, 0.5).value - uhlmann_fidelity(rho, sigma).value)
    return [Candidate(v, {"rho": rho, "sigma": sigma})]


def _endpoints_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    v = max(abs(f - 1.0) for f in spectral_fidelity_curve(rho, sigma, (0.0, 1.0)))
    return [Candidate(v, {"rho": rho, "sigma": sigma})]


def _flip_symmetry_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    forward = spectral_fidelity_curve(rho, sigma, T_GRID_11)
    mirrored = spectral_fidelity_curve(sigma, rho, [1.0 - tg for tg in T_GRID_11])
    return [
        Candidate(abs(f - g), {"t": tg, "rho": rho, "sigma": sigma})
        for tg, f, g in zip(T_GRID_11, forward, mirrored)
    ]


def _multiplicativity_trial(rng, dim, trial, t) -> list[Candidate]:
    r1, s1 = _full_pair(2, rng)
    r2, s2 = _full_pair(dim, rng)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    v = abs(
        spectral_fidelity(tensor(r1, r2), tensor(s1, s2), tg).value
        - spectral_fidelity(r1, s1, tg).value * spectral_fidelity(r2, s2, tg).value
    )
    return [Candidate(v, {"dim": 2 * r2.dim, "t": tg, "rho": r1, "sigma": s1})]


def _unitary_invariance_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    u = random_unitary(dim, rng)
    ru = DensityMatrix._derived(u @ rho.mat @ u.conj().T)
    su = DensityMatrix._derived(u @ sigma.mat @ u.conj().T)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    v = abs(
        spectral_fidelity(ru, su, tg).value - spectral_fidelity(rho, sigma, tg).value
    )
    return [Candidate(v, {"t": tg, "rho": rho, "sigma": sigma})]


def _tensor_stabilization_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    tau = random_density(2, 2, rng)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    v = abs(
        spectral_fidelity(tensor(rho, tau), tensor(sigma, tau), tg).value
        - spectral_fidelity(rho, sigma, tg).value
    )
    return [Candidate(v, {"t": tg, "rho": rho, "sigma": sigma})]


def _universal_bound_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    return [
        Candidate(f - 1.0, {"t": tg, "rho": rho, "sigma": sigma})
        for tg, f in zip(T_GRID_21, spectral_fidelity_curve(rho, sigma, T_GRID_21))
    ]


def _midpoint_minimum_trial(rng, dim, trial, t) -> list[Candidate]:
    # The claim F_t >= F_{1/2} on each single pair is refuted: the curve
    # is log-convex but not symmetric about t = 1/2 (the argument flip
    # maps t to 1 - t only with the pair swapped), so its minimum sits
    # wherever the pair puts it.  Already false for commuting pairs,
    # e.g. diag(0.99, 0.01) vs I/2 at t = 0.6.  What log-convexity does
    # give is the symmetrized bound F_t * F_{1-t} >= F_{1/2}^2, tracked
    # alongside as a stat and reported in the notes.
    rho, sigma = _full_pair(dim, rng)
    curve = spectral_fidelity_curve(rho, sigma, T_GRID_21)
    mid = curve[_MID_21]
    return [
        Candidate(mid - curve[i], {"t": tg, "rho": rho, "sigma": sigma},
                  (mid * mid - curve[i] * curve[-1 - i],))
        for i, tg in enumerate(T_GRID_21)
    ]


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


def _second_differences(values) -> list[float]:
    v = np.asarray(values)
    return (v[:-2] - 2.0 * v[1:-1] + v[2:]).tolist()


def _convexity_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    curve = spectral_fidelity_curve(rho, sigma, T_GRID_21)
    return [Candidate(-min(_second_differences(curve)), {"rho": rho, "sigma": sigma})]


def _log_convexity_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    curve = [math.log(f) for f in spectral_fidelity_curve(rho, sigma, T_GRID_21)]
    return [Candidate(-min(_second_differences(curve)), {"rho": rho, "sigma": sigma})]


def _separate_concavity_trial(rng, dim, trial, t) -> list[Candidate]:
    r1, r2 = _full_pair(dim, rng)
    sigma = random_density(dim, dim, rng)
    f1 = spectral_fidelity(r1, sigma, t).value
    f2 = spectral_fidelity(r2, sigma, t).value
    g1 = spectral_fidelity(sigma, r1, t).value
    g2 = spectral_fidelity(sigma, r2, t).value
    candidates = []
    for lam in LAMBDA_GRID:
        mixed = DensityMatrix._derived(lam * r1.mat + (1.0 - lam) * r2.mat)
        v1 = lam * f1 + (1.0 - lam) * f2 - spectral_fidelity(mixed, sigma, t).value
        v2 = lam * g1 + (1.0 - lam) * g2 - spectral_fidelity(sigma, mixed, t).value
        candidates.append(
            Candidate(max(v1, v2), {"t": t, "lam": lam, "rho": r1, "sigma": r2}, (v1, v2))
        )
    return candidates


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


def _first_fvg_trial(rng, dim, trial, t) -> list[Candidate]:
    ranks = (dim, dim) if trial % 2 else (int(rng.integers(1, dim + 1)), dim)
    rho = random_density(dim, ranks[0], rng)
    sigma = random_density(dim, ranks[1], rng)
    dist = 0.5 * trace_norm(rho.mat - sigma.mat)
    return [
        Candidate((1.0 - f) - dist, {"t": tg, "rho": rho, "sigma": sigma})
        for tg, f in zip(T_GRID_11, spectral_fidelity_curve(rho, sigma, T_GRID_11))
    ]


def _variational_dominance_trial(rng, dim, trial, t) -> list[Candidate]:
    t_grid = (0.1, 0.25, 0.4, 0.5) if t is None else (t,)
    rho, sigma = _full_pair(dim, rng)
    x_star = riccati_solution(rho.mat, sigma.mat)
    inv_rho = frac_power(rho.mat, -1.0)
    if not block_psd(inv_rho, x_star, sigma.mat):
        return [Candidate(1.0, {"rho": rho, "sigma": sigma}, (1.0,))]
    root = frac_power(x_star, 0.5)
    targets = spectral_fidelity_curve(rho, sigma, t_grid)
    feasible = []
    while len(feasible) < 200:
        # shrink the maximizer inside its own frame; a shrink is not
        # automatically feasible, so each candidate must pass the
        # block test, with a scalar shrink (feasible by construction,
        # s^2 sigma <= sigma) as the fallback
        u = random_unitary(dim, rng)
        shrink = hermitize(u @ np.diag(rng.uniform(0.0, 1.0, dim)) @ u.conj().T)
        cand = hermitize(float(rng.uniform(0.0, 1.0)) * root @ shrink @ root)
        if not block_psd(inv_rho, cand, sigma.mat):
            cand = hermitize(float(rng.uniform(0.0, 1.0)) * x_star)
            if not block_psd(inv_rho, cand, sigma.mat):
                continue
        feasible.append(cand)
    return [
        Candidate(value - target, {"t": tg, "rho": rho, "sigma": sigma})
        for values in _power_traces(rho.mat, np.array(feasible), t_grid).tolist()
        for tg, value, target in zip(t_grid, values, targets)
    ]


def _variational_dominance_notes(t, peaks) -> tuple[str, ...]:
    # only a maximizer that fails the block test reports a stat
    return ("maximizer failed the block feasibility test",) if peaks else ()


def _zero_condition_trial(rng, dim, trial, t) -> list[Candidate]:
    dim = max(2, dim // 2)
    rho, sigma = orthogonal_pair(dim, dim, rng)
    grid = (0.1, 0.5, 1.0)
    return [
        Candidate(v, {"dim": 2 * dim, "t": tg, "rho": rho, "sigma": sigma})
        for tg, v in zip(grid, spectral_fidelity_curve(rho, sigma, grid))
    ]


def _positivity_trial(rng, dim, trial, t) -> list[Candidate]:
    rho = (
        random_density(dim, 1, rng) if trial % 2 else random_density(dim, dim, rng)
    )
    sigma = random_density(dim, dim, rng)
    return [
        Candidate(1.0 - f if f <= 0.0 else 0.0, {"t": tg, "rho": rho, "sigma": sigma})
        for tg, f in zip(T_GRID_11, spectral_fidelity_curve(rho, sigma, T_GRID_11))
    ]


def _closed_form_pure_rho_trial(rng, dim, trial, t) -> list[Candidate]:
    rho = random_density(dim, 1, rng)
    sigma = random_density(dim, dim, rng)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    result = spectral_fidelity(rho, sigma, tg)
    p = float(np.real(np.trace(rho.mat @ sigma.mat)))
    closed = max(p, 0.0) ** tg
    return [Candidate(abs(result.value - closed), {"t": tg, "rho": rho, "sigma": sigma})]


def _closed_form_pure_sigma_trial(rng, dim, trial, t) -> list[Candidate]:
    rho = random_density(dim, dim, rng)
    sigma = random_density(dim, 1, rng)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    result = spectral_fidelity(rho, sigma, tg)
    q = float(np.real(np.trace(sigma.mat @ rho.mat)))
    closed = max(q, 0.0) ** (1.0 - tg)
    return [Candidate(abs(result.value - closed), {"t": tg, "rho": rho, "sigma": sigma})]


def _bloch_closed_forms_trial(rng, dim, trial, t) -> list[Candidate]:
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    rho = from_bloch(r)
    tg = T_GRID_11[trial % len(T_GRID_11)]
    if trial % 2:
        s = rng.standard_normal(3)
        s *= rng.uniform(0.0, 0.98) / np.linalg.norm(s)
    else:
        s = rng.standard_normal(3)
        s /= np.linalg.norm(s)
    sigma = from_bloch(s)
    overlap = 0.5 * (1.0 + float(r @ s))
    v = abs(spectral_fidelity(rho, sigma, tg).value - overlap**tg)
    v = max(v, abs(uhlmann_fidelity(rho, sigma).value - math.sqrt(overlap)))
    v = max(v, abs(matsumoto_fidelity(rho, sigma).value - math.sqrt(overlap)))
    return [Candidate(v, {"dim": 2, "t": tg, "rho": rho, "sigma": sigma})]


_INNER_GRID = tuple(round(0.05 + 0.09 * k, 10) for k in range(11))


def _classicalization_trial(rng, dim, trial, t) -> list[Candidate]:
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    if trial % 3 == 2 and dim > 2:
        # exercise the zero conventions away from the endpoint parameters
        p = p.copy()
        p[int(rng.integers(dim))] = 0.0
        p /= p.sum()
        grid = _INNER_GRID
    else:
        grid = T_GRID_11
    rho = DensityMatrix._derived(np.diag(p))
    sigma = DensityMatrix._derived(np.diag(q))
    fields = {"p": p.tolist(), "q": q.tolist()}
    return [
        Candidate(abs(f - diagonal_spectral_fidelity(p, q, tg).value), {**fields, "t": tg})
        for tg, f in zip(grid, spectral_fidelity_curve(rho, sigma, grid))
    ]


def _renyi_midpoint_trial(rng, dim, trial, t) -> list[Candidate]:
    rho, sigma = _full_pair(dim, rng)
    d_half = sandwiched_renyi(rho, sigma, 0.5)
    v = abs(d_half + 2.0 * math.log(uhlmann_fidelity(rho, sigma).value))
    affinity = float(
        np.real(
            np.trace(
                frac_power(rho.mat, 0.5, support_only=True)
                @ frac_power(sigma.mat, 0.5, support_only=True)
            )
        )
    )
    affinity_gap = abs(d_half + 2.0 * math.log(affinity))
    return [Candidate(v, {"rho": rho, "sigma": sigma}, (affinity_gap,))]


def _renyi_midpoint_notes(t, peaks) -> tuple[str, ...]:
    (affinity_gap,) = peaks
    return (
        "the order-1/2 divergence evaluated from its defining power trace matches "
        "-2 log(Uhlmann) on every sample; substituting the affinity "
        f"Tr(rho^1/2 sigma^1/2) instead leaves gaps up to {affinity_gap:.6e}, "
        "so the two quantities are not interchangeable for non-commuting pairs",
    )


def _dpi_chunk(rngs, dims, trials, t) -> list[list[Candidate]]:
    """The candidates of a chunk of DPI trials, one list per trial.

    Each trial draws its pair from its own generator; the pairs of one
    dim are stacked, and F_t before and after pinching comes for the
    whole stack from one pass through the kernels, equal bit for bit to
    the trial's own spectral_fidelity calls.
    """
    pairs = [
        _dpi_trial_pair(dim, t, trial % 3, rng)
        for rng, dim, trial in zip(rngs, dims, trials)
    ]
    gaps = [0.0] * len(pairs)
    for dim in set(dims):
        picked = [i for i, d in enumerate(dims) if d == dim]
        rho = np.stack([pairs[i][0].mat for i in picked])
        sigma = np.stack([pairs[i][1].mat for i in picked])
        for i, gap in zip(picked, _violation_gaps(rho, sigma, t, pinching(dim))[0]):
            gaps[i] = gap
    return [
        [Candidate(gap, {"t": t, "rho": rho, "sigma": sigma})]
        for gap, (rho, sigma) in zip(gaps, pairs)
    ]


def _dpi_trial(rng, dim, trial, t) -> list[Candidate]:
    (candidates,) = _dpi_chunk([rng], [dim], [trial], t)
    return candidates


def _dpi_midpoint_chunk(rngs, dims, trials, t) -> list[list[Candidate]]:
    # the midpoint suite tests t = 1/2 whatever t the run asks for
    return _dpi_chunk(rngs, dims, trials, 0.5)


def _dpi_midpoint_trial(rng, dim, trial, t) -> list[Candidate]:
    return _dpi_trial(rng, dim, trial, 0.5)


def _second_fvg_scan() -> tuple[float, dict, tuple[str, ...]]:
    worst, witness = -1.0, {}
    region = []
    t_grid = tuple(round(0.05 * k, 10) for k in range(1, 20))
    c_grid = tuple(round(0.1 * k, 10) for k in range(1, 10))
    for tg in t_grid:
        for c in c_grid:
            result = second_fvg_failure(tg, c)
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
    # trial(rng, dim, trial, t) -> the trial's Candidates in order
    trial: Callable | None
    # A callable is read when the suite runs, so tolerance overrides apply.
    tolerance: float | Callable[[], float]
    dims: tuple[int, ...]
    samples: int
    predicted_to_fail: Callable[[float | None], bool]
    summary: str
    # the t a trial sees when the run gives none
    t: float | None = None
    # fixed notes, or notes(t, peaks) from the peaks of the candidates' stats
    notes: tuple[str, ...] | Callable = ()
    # a suite without trials scans once instead: () -> (worst, witness, notes)
    scan: Callable | None = None


def _never(t) -> bool:
    return False


_REGISTRY: dict[str, PropertySpec] = {
    "congruence_invariance": PropertySpec(
        _congruence_trial, 1e-8, (2, 3, 4), 500, _never,
        "congruence transport of the geometric mean"),
    "inverse_identity": PropertySpec(
        _inverse_identity_trial, 1e-8, (2, 3, 4), 500, _never,
        "inverse of the geometric mean is the mean of the inverses"),
    "tensor_compatibility": PropertySpec(
        _tensor_compatibility_trial, 1e-8, (2, 3), 500, _never,
        "geometric mean factors over tensor products"),
    "support_identity": PropertySpec(
        _support_identity_trial, 1e-7, (3, 4, 5, 6), 200, _never,
        "support of the mean is the intersection of supports"),
    "mean_flip_identity": PropertySpec(
        _mean_flip_trial, 1e-9, (2, 3, 4), 200, _never,
        "weighted mean reverses under swapping arguments and weight"),
    "spectral_eigenvalue_law": PropertySpec(
        _spectral_eigenvalues_trial, 1e-8, (2, 3, 4, 5, 6), 500, _never,
        "spectral-mean eigenvalues are root eigenvalues of the product"),
    "riccati": PropertySpec(
        _riccati_trial, 1e-9, (2, 3, 4), 500, _never,
        "the mean solves its quadratic matrix equation"),
    "variational_minimizer": PropertySpec(
        _variational_minimizer_trial, 1e-9, (2, 3, 4), 100, _never,
        "the Riccati solution minimizes the trace objective"),
    "midpoint_uhlmann": PropertySpec(
        _midpoint_uhlmann_trial, 1e-8, (2, 3, 4, 5, 6), 1000, _never,
        "the family passes through the Uhlmann fidelity at the midpoint"),
    "endpoints": PropertySpec(
        _endpoints_trial, 1e-10, (2, 3, 4), 500, _never,
        "both endpoints evaluate to one for full-rank pairs"),
    "flip_symmetry": PropertySpec(
        _flip_symmetry_trial, 1e-8, (2, 3, 4), 500, _never,
        "swapping states mirrors the parameter"),
    "multiplicativity": PropertySpec(
        _multiplicativity_trial, 1e-8, (2, 3), 500, _never,
        "the family factors over tensor products"),
    "unitary_invariance": PropertySpec(
        _unitary_invariance_trial, 1e-8, (2, 3, 4), 500, _never,
        "joint unitary conjugation leaves the value unchanged"),
    "tensor_stabilization": PropertySpec(
        _tensor_stabilization_trial, 1e-8, (2, 3, 4), 500, _never,
        "appending a shared ancilla leaves the value unchanged"),
    "universal_bound": PropertySpec(
        _universal_bound_trial, 1e-9, (2, 3, 4), 500, _never,
        "the value never exceeds one on the unit parameter interval"),
    "midpoint_minimum": PropertySpec(
        _midpoint_minimum_trial, 1e-9, (2, 3, 4), 500, _never,
        "the midpoint minimizes the family over t for full-rank pairs",
        notes=_midpoint_minimum_notes),
    "convexity_in_t": PropertySpec(
        _convexity_trial, 1e-8, (2, 3, 4), 500, _never,
        "discrete second differences in t are nonnegative"),
    "log_convexity_in_t": PropertySpec(
        _log_convexity_trial, 1e-8, (2, 3, 4), 500, _never,
        "discrete second differences of the log curve are nonnegative"),
    "separate_concavity": PropertySpec(
        _separate_concavity_trial, 1e-8, (2, 3), 200, _never,
        "the value is concave in each argument separately",
        t=0.5, notes=_separate_concavity_notes),
    "first_fvg": PropertySpec(
        _first_fvg_trial, 1e-9, (2, 3, 4, 5, 6), 1000, _never,
        "one minus the value is below half the trace distance"),
    "variational_dominance": PropertySpec(
        _variational_dominance_trial, 1e-8, (2, 3, 4), 10, _never,
        "no verified-feasible contraction beats the maximizer below the midpoint",
        notes=_variational_dominance_notes),
    "zero_condition": PropertySpec(
        _zero_condition_trial, 1e-10, (4, 6), 200, _never,
        "orthogonal supports give exactly zero"),
    "positivity": PropertySpec(
        _positivity_trial, 0.0, (2, 3, 4), 200, _never,
        "the value stays strictly positive on overlapping supports",
        notes=(
            "strict positivity requires overlapping supports: pairs with orthogonal "
            "supports evaluate to exactly zero for every t in (0, 1], so the sampled "
            "ensemble here keeps the support of rho inside the support of sigma",
        )),
    "closed_form_pure_rho": PropertySpec(
        _closed_form_pure_rho_trial, 1e-9, (2, 3, 4), 500, _never,
        "rank-one first argument reduces to a power of the overlap"),
    "closed_form_pure_sigma": PropertySpec(
        _closed_form_pure_sigma_trial, 1e-9, (2, 3, 4), 500, _never,
        "rank-one second argument reduces to a power of the overlap"),
    "bloch_closed_forms": PropertySpec(
        _bloch_closed_forms_trial, 1e-9, (2,), 500, _never,
        "qubit values match the inner-product formulas"),
    "classicalization": PropertySpec(
        _classicalization_trial, 1e-9, (2, 3, 4), 200, _never,
        "diagonal pairs reduce to the classical power sum"),
    "renyi_midpoint_uhlmann": PropertySpec(
        _renyi_midpoint_trial, 1e-8, (2, 3, 4), 200, _never,
        "the order-1/2 divergence is minus twice the log Uhlmann fidelity",
        notes=_renyi_midpoint_notes),
    "dpi_monotone": PropertySpec(
        _dpi_trial, lambda: TOL.dpi_margin, (2,), 500,
        lambda t: abs(t - 0.5) > 1e-12,
        "fidelity under the dephasing channel; predicted to fail off-midpoint",
        t=0.8),
    "dpi_midpoint": PropertySpec(
        _dpi_midpoint_trial, lambda: TOL.dpi_margin, (2, 3), 500, _never,
        "no data-processing violation exists at the midpoint"),
    "second_fvg": PropertySpec(
        None, 1e-12, (2,), 1, lambda t: True,
        "the upper trace-distance bound; predicted to fail below the midpoint",
        scan=_second_fvg_scan),
}


def list_properties() -> dict[str, str]:
    """Registered property ids with one-line summaries."""
    return {name: spec.summary for name, spec in _REGISTRY.items()}


def _witness_value(value):
    if isinstance(value, DensityMatrix):
        return matrix_to_json(value.mat)
    if isinstance(value, np.ndarray):
        return matrix_to_json(value)
    return value


# Trial functions with a stacked form chunk(rngs, dims, trials, t), which
# returns each trial's candidates as the trial function alone would.
_CHUNKS = {_dpi_trial: _dpi_chunk, _dpi_midpoint_trial: _dpi_midpoint_chunk}
# Chunks grow 1, 2, 4, ... trials, so a search that stops at its first
# trials evaluates few beyond them, up to this cap, which bounds the
# memory of a long stream's stacks.
_CHUNK_CAP = 256


def _candidates(trial_fn, dims: tuple[int, ...], n_samples: int, seed: int, t):
    """(trial, dim, candidate) in trial order; each trial runs on its own
    generator and the dim its index picks, so it replays alone.  A trial
    function with a stacked form runs a chunk of trials at a time."""
    chunk_fn = _CHUNKS.get(trial_fn)
    start, size = 0, 1
    while start < n_samples:
        trials = range(start, min(start + size, n_samples))
        # made as the trials draw, so a chunk holds one generator at a time
        rngs = (trial_rng(seed, trial) for trial in trials)
        use_dims = [dims[trial % len(dims)] for trial in trials]
        if chunk_fn is None:
            chunk = map(trial_fn, rngs, use_dims, trials, [t] * len(trials))
        else:
            chunk = chunk_fn(rngs, use_dims, trials, t)
        for trial, dim, cands in zip(trials, use_dims, chunk):
            for cand in cands:
                yield trial, dim, cand
        start, size = trials.stop, min(2 * size, _CHUNK_CAP)


def _run_trials(
    spec: PropertySpec, dims: tuple[int, ...], n_samples: int, seed: int, t
) -> tuple[float, dict, tuple[str, ...]]:
    """The first strictly greatest candidate of the stream wins.

    A candidate must beat -1 to become the witness.
    """
    worst, found, peaks = -1.0, None, None
    for trial, dim, cand in _candidates(spec.trial, dims, n_samples, seed, t):
        if cand.violation > worst:
            worst, found = cand.violation, (trial, dim, cand.fields)
        if cand.stats:
            peaks = cand.stats if peaks is None else tuple(map(max, peaks, cand.stats))
    notes = spec.notes(t, peaks) if callable(spec.notes) else spec.notes
    witness = {}
    if found is not None:
        trial, dim, fields = found
        witness = {"trial": trial, "dim": dim, **fields}
        witness = {key: _witness_value(value) for key, value in witness.items()}
    return worst, witness, notes


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
    for _, _, cand in _candidates(_dpi_trial, (dim,), n_trials, rng_seed, t):
        if cand.violation > TOL.dpi_margin:
            return _minimize_coherence(
                cand.fields["rho"], cand.fields["sigma"], t, pinching(dim)
            )
    return None


class SecondFvgResult(NamedTuple):
    half_trace_dist: float
    rhs: float
    violated: bool


def second_fvg_failure(t: float, c: float) -> SecondFvgResult:
    """Evaluate the upper trace-distance comparison on a pure pair.

    Builds two pure states with overlap c, evaluates half the trace
    distance and sqrt(1 - F_t^2) through fvg_bounds, and
    cross-checks both against their closed forms sqrt(1 - c^2) and
    sqrt(1 - c^{4t}).  violated reports whether the distance exceeds
    the bound.
    """
    if not 0.0 < c < 1.0:
        raise ParamError(f"overlap c = {c} outside (0, 1)")
    if not 0.0 <= t <= 1.0:
        raise ParamError(f"parameter t = {t} outside [0, 1]")
    sine = math.sqrt(1.0 - c * c)
    _, dist, rhs = fvg_bounds(pure_state((1.0, 0.0)), pure_state((c, sine)), t)
    closed_rhs = math.sqrt(max(0.0, 1.0 - c ** (4.0 * t)))
    if abs(dist - sine) > 1e-9 or abs(rhs - closed_rhs) > 1e-9:
        raise ToleranceError(
            f"machinery deviates from the closed forms: {dist!r} vs {sine!r}, "
            f"{rhs!r} vs {closed_rhs!r}"
        )
    return SecondFvgResult(dist, rhs, dist > rhs + 1e-12)


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
        tuple(second_diff),
        tuple(log_second_diff),
    )
