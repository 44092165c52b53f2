"""Seeded inputs and fixed operation lists of the three workloads.

Plain numpy only: the worker process feeds these inputs to specfid, and
the checking process rebuilds the same inputs from the same seed to
judge the outputs, without importing specfid.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("catalog", "curve", "tensor")

# --- catalog -----------------------------------------------------------------

# The registered suites with the verdict the paper's catalog states for
# each, and the tolerance each suite judges its worst violation against.
# Proven properties hold; the data-processing and second Fuchs-van de
# Graaf families fail as predicted; the midpoint-minimum claim is refuted
# (F_0.6 < F_0.5 already for commuting qubits).
SUITES = {
    "congruence_invariance": ("holds", 1e-8),
    "inverse_identity": ("holds", 1e-8),
    "tensor_compatibility": ("holds", 1e-8),
    "support_identity": ("holds", 1e-7),
    "mean_flip_identity": ("holds", 1e-9),
    "spectral_eigenvalue_law": ("holds", 1e-8),
    "riccati": ("holds", 1e-9),
    "variational_minimizer": ("holds", 1e-9),
    "midpoint_uhlmann": ("holds", 1e-8),
    "endpoints": ("holds", 1e-10),
    "flip_symmetry": ("holds", 1e-8),
    "multiplicativity": ("holds", 1e-8),
    "unitary_invariance": ("holds", 1e-8),
    "tensor_stabilization": ("holds", 1e-8),
    "universal_bound": ("holds", 1e-9),
    "midpoint_minimum": ("unexpected", 1e-9),
    "convexity_in_t": ("holds", 1e-8),
    "log_convexity_in_t": ("holds", 1e-8),
    "separate_concavity": ("holds", 1e-8),
    "first_fvg": ("holds", 1e-9),
    "variational_dominance": ("holds", 1e-8),
    "zero_condition": ("holds", 1e-10),
    "positivity": ("holds", 0.0),
    "closed_form_pure_rho": ("holds", 1e-9),
    "closed_form_pure_sigma": ("holds", 1e-9),
    "bloch_closed_forms": ("holds", 1e-9),
    "classicalization": ("holds", 1e-9),
    "renyi_midpoint_uhlmann": ("holds", 1e-8),
    "dpi_monotone": ("fails_as_predicted", 1e-7),
    "dpi_midpoint": ("holds", 1e-7),
    "second_fvg": ("fails_as_predicted", 1e-12),
}

# Off-midpoint data-processing searches at dim 2; each stops at its first
# witness.  The midpoint search finds none and so spends its whole budget.
DPI_TS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)
DPI_MIDPOINT_TRIALS = 10_000

# Cheap operation run once during set-up to warm code paths and caches.
CATALOG_WARMUP = ("verify", "second_fvg")


def catalog_ops(seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for each of the 40 catalog operations."""
    common = ["--seed", str(seed), "--no-timestamp"]
    ops = [(f"verify:{pid}", ["verify", pid, *common]) for pid in SUITES]
    ops += [(f"dpi:{t}", ["dpi-search", "--t", str(t), *common]) for t in DPI_TS]
    ops.append(
        ("dpi:0.5", ["dpi-search", "--t", "0.5",
                     "--samples", str(DPI_MIDPOINT_TRIALS), *common])
    )
    return ops


# --- curve and tensor ----------------------------------------------------------

CURVE_DIMS = (2, 4, 8)
CURVE_KINDS = ("full", "pure_rho", "pure_sigma", "half_rho")
CURVE_PAIRS_PER_CELL = 4
CURVE_STEPS = 201

TENSOR_FACTORS = ((4, 4), (4, 8), (8, 8))  # d = 16, 32, 64
TENSOR_PAIRS_PER_DIM = 80
TENSOR_UHLMANN_EVERY = 4  # uhlmann_fidelity on every 4th pair as well
TENSOR_TS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9)

# Weight of I/d blended into every full-rank input; it bounds the
# condition number so the oracle's inverse-square-root route stays exact
# to well below the checks' tolerances.
FULL_RANK_MIX = 0.1


def _ginibre_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat = (mat + mat.conj().T) / 2
    return mat / np.real(np.trace(mat))


def _full_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    mat = (1.0 - FULL_RANK_MIX) * _ginibre_state(rng, dim, dim)
    return mat + FULL_RANK_MIX * np.eye(dim) / dim


def _rank_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    return _full_state(rng, dim) if rank == dim else _ginibre_state(rng, dim, rank)


def curve_pairs(seed: int) -> list[dict]:
    """48 seeded pairs: every (dim, kind) cell holds 4 pairs."""
    rng = np.random.default_rng([seed, 1])
    pairs = []
    for dim in CURVE_DIMS:
        for kind in CURVE_KINDS:
            rank_rho = {"pure_rho": 1, "half_rho": dim // 2}.get(kind, dim)
            rank_sigma = 1 if kind == "pure_sigma" else dim
            for _ in range(CURVE_PAIRS_PER_CELL):
                pairs.append({
                    "dim": dim,
                    "kind": kind,
                    "rho": _rank_state(rng, dim, rank_rho),
                    "sigma": _rank_state(rng, dim, rank_sigma),
                })
    return pairs


def curve_grid() -> list[float]:
    """The t values `--t-grid 0:1:201` asks for."""
    return [k / (CURVE_STEPS - 1) for k in range(CURVE_STEPS)]


def tensor_pairs(seed: int) -> list[dict]:
    """Product pairs rho1 x rho2 against sigma1 x sigma2, with their factors."""
    rng = np.random.default_rng([seed, 2])
    pairs = []
    for da, db in TENSOR_FACTORS:
        for k in range(TENSOR_PAIRS_PER_DIM):
            factors = [_full_state(rng, d) for d in (da, db, da, db)]
            pairs.append({
                "dim": da * db,
                "t": float(TENSOR_TS[int(rng.integers(len(TENSOR_TS)))]),
                "uhlmann": k % TENSOR_UHLMANN_EVERY == 0,
                "factors": factors,  # rho1, rho2, sigma1, sigma2
                "rho": np.kron(factors[0], factors[1]),
                "sigma": np.kron(factors[2], factors[3]),
            })
    return pairs


def state_record(mat: np.ndarray) -> dict:
    """The density-matrix JSON record that `specfid` state files hold."""
    return {"type": "density", "dim": int(mat.shape[0]),
            "re": mat.real.tolist(), "im": mat.imag.tolist()}
