"""Output checks of each workload, judged against the oracle and the paper.

Every check reads the content of an output, never an exit status alone,
and compares it with values the oracle computes from the inputs, or with
properties the method must have.  Nothing is compared with stored output.
Each check function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json

import numpy as np

import oracle
import workloads as wl

T_GRID_21 = [round(0.05 * k, 10) for k in range(21)]

# Agreement between a reported violation and its oracle re-evaluation.
AGREE_ATOL = 1e-9
AGREE_RTOL = 1e-6
# Curve and tensor values against the oracle.
VALUE_ATOL = 1e-9
LOG_CONVEX_FLOOR = -1e-8

# Suites whose worst witness the oracle cannot re-evaluate.  Eight omit an
# input their violation depends on.  The support suite's pair is singular
# on both sides: its mean is the limit of eps-blended means, whose
# eigenvectors pin the support only to about sqrt(eps), far above 1e-7.
NOT_REBUILDABLE = {
    "support_identity": "both matrices are singular; the oracle has no exact route",
    "congruence_invariance": "the congruence C is not recorded",
    "tensor_compatibility": "the second factor pair is not recorded",
    "multiplicativity": "only the first factor pair is recorded",
    "unitary_invariance": "the unitary U is not recorded",
    "tensor_stabilization": "the ancilla tau is not recorded",
    "separate_concavity": "sigma is not recorded",
    "variational_minimizer": "the sampled candidates are not recorded",
    "variational_dominance": "the sampled candidates are not recorded",
}


def _mat(record: dict) -> np.ndarray:
    return np.asarray(record["re"], dtype=float) + 1j * np.asarray(record["im"], dtype=float)


def _second_diffs(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return v[:-2] - 2.0 * v[1:-1] + v[2:]


def _maxabs(m) -> float:
    return float(np.abs(m).max())


# --- catalog: re-evaluating worst witnesses ---------------------------------------
# Each function takes the worst witness and returns the violation the
# suite defines, computed by the oracle.


def _pair(w):
    return _mat(w["rho"]), _mat(w["sigma"])


def _inverse_identity(w):
    a, b = _pair(w)
    lhs = oracle.inverse(oracle.geometric_mean(a, b))
    return _maxabs(lhs - oracle.geometric_mean(oracle.inverse(a), oracle.inverse(b)))


def _mean_flip(w):
    a, b = _pair(w)
    t = w["t"]
    return _maxabs(oracle.weighted_mean(a, b, t) - oracle.weighted_mean(b, a, 1.0 - t))


def _spectral_eigenvalues(w):
    a, b = _pair(w)
    lam_mean = np.linalg.eigvalsh(oracle.weighted_mean(a, b, 0.5))
    lam_prod = np.sort(np.linalg.eigvals(a @ b).real)
    return float(np.abs(lam_mean - np.sqrt(np.clip(lam_prod, 0, None))).max())


def _riccati(w):
    a, b = _pair(w)
    x = oracle.riccati(a, b)
    return _maxabs(x @ a @ x - b)


def _midpoint_uhlmann(w):
    rho, sigma = _pair(w)
    return abs(oracle.fidelity(rho, sigma, 0.5) - oracle.uhlmann(rho, sigma))


def _endpoints(w):
    rho, sigma = _pair(w)
    return max(abs(oracle.fidelity(rho, sigma, t) - 1.0) for t in (0.0, 1.0))


def _flip_symmetry(w):
    rho, sigma = _pair(w)
    t = w["t"]
    return abs(oracle.fidelity(rho, sigma, t) - oracle.fidelity(sigma, rho, 1.0 - t))


def _universal_bound(w):
    rho, sigma = _pair(w)
    return max(oracle.fidelity(rho, sigma, w["t"]) - 1.0, 0.0)


def _midpoint_minimum(w):
    rho, sigma = _pair(w)
    return oracle.fidelity(rho, sigma, 0.5) - oracle.fidelity(rho, sigma, w["t"])


def _convexity(w):
    rho, sigma = _pair(w)
    return max(-float(_second_diffs(oracle.curve(rho, sigma, T_GRID_21)).min()), 0.0)


def _log_convexity(w):
    rho, sigma = _pair(w)
    logs = np.log(oracle.curve(rho, sigma, T_GRID_21))
    return max(-float(_second_diffs(logs).min()), 0.0)


def _first_fvg(w):
    rho, sigma = _pair(w)
    gap = 1.0 - oracle.fidelity(rho, sigma, w["t"]) - oracle.half_trace_distance(rho, sigma)
    return max(gap, 0.0)


def _zero_condition(w):
    rho, sigma = _pair(w)
    return oracle.fidelity(rho, sigma, w["t"])


def _positivity(w):
    rho, sigma = _pair(w)
    f = oracle.fidelity(rho, sigma, w["t"])
    return 1.0 - f if f <= 0.0 else 0.0


def _closed_form_pure_rho(w):
    # the matrix route through sigma, against the overlap closed form
    rho, sigma = _pair(w)
    t = w["t"]
    closed = oracle.overlap(rho, sigma) ** t
    return abs(oracle.fidelity(rho, sigma, t, via="full_rank_sigma") - closed)


def _closed_form_pure_sigma(w):
    rho, sigma = _pair(w)
    t = w["t"]
    closed = oracle.overlap(rho, sigma) ** (1.0 - t)
    return abs(oracle.fidelity(rho, sigma, t, via="full_rank_rho") - closed)


def _bloch_closed_forms(w):
    rho, sigma = _pair(w)
    t = w["t"]
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    r = np.array([oracle.overlap(rho, p) for p in paulis])
    s = np.array([oracle.overlap(sigma, p) for p in paulis])
    ov = 0.5 * (1.0 + float(r @ s))
    via = "full_rank_sigma" if oracle.rank(sigma) == 2 else None
    return max(abs(oracle.fidelity(rho, sigma, t, via=via) - ov**t),
               abs(oracle.uhlmann(rho, sigma) - ov**0.5))


def _classicalization(w):
    p, q, t = np.asarray(w["p"]), np.asarray(w["q"]), w["t"]
    matrix = oracle.fidelity(np.diag(p), np.diag(q), t, via="full_rank_sigma")
    return abs(matrix - oracle.diagonal_value(p, q, t))


def _renyi_midpoint(w):
    rho, sigma = _pair(w)
    return abs(oracle.renyi_half(rho, sigma) + 2.0 * np.log(oracle.uhlmann(rho, sigma)))


def _dpi_drop(w):
    rho, sigma = _pair(w)
    t = w["t"]
    return (oracle.fidelity(rho, sigma, t)
            - oracle.fidelity(oracle.pinch(rho), oracle.pinch(sigma), t))


def _dpi_midpoint(w):
    return max(_dpi_drop(w), 0.0)


def _second_fvg(w):
    t, c = w["t"], w["c"]
    rho = np.diag([1.0, 0.0]).astype(complex)
    psi = np.array([c, np.sqrt(1.0 - c * c)])
    sigma = np.outer(psi, psi).astype(complex)
    f = oracle.fidelity(rho, sigma, t)
    return oracle.half_trace_distance(rho, sigma) - np.sqrt(max(0.0, 1.0 - f * f))


REDERIVE = {
    "inverse_identity": _inverse_identity,
    "mean_flip_identity": _mean_flip,
    "spectral_eigenvalue_law": _spectral_eigenvalues,
    "riccati": _riccati,
    "midpoint_uhlmann": _midpoint_uhlmann,
    "endpoints": _endpoints,
    "flip_symmetry": _flip_symmetry,
    "universal_bound": _universal_bound,
    "midpoint_minimum": _midpoint_minimum,
    "convexity_in_t": _convexity,
    "log_convexity_in_t": _log_convexity,
    "first_fvg": _first_fvg,
    "zero_condition": _zero_condition,
    "positivity": _positivity,
    "closed_form_pure_rho": _closed_form_pure_rho,
    "closed_form_pure_sigma": _closed_form_pure_sigma,
    "bloch_closed_forms": _bloch_closed_forms,
    "classicalization": _classicalization,
    "renyi_midpoint_uhlmann": _renyi_midpoint,
    "dpi_monotone": _dpi_drop,
    "dpi_midpoint": _dpi_midpoint,
    "second_fvg": _second_fvg,
}
assert set(REDERIVE) | set(NOT_REBUILDABLE) == set(wl.SUITES)


def _check_report(pid: str, seed: int, rc: int, report: dict) -> list[str]:
    verdict, tol = wl.SUITES[pid]
    got, reported = report["verdict"], report["max_violation"]
    problems = []
    if report["property"] != pid or report["seed"] != seed or report["samples"] < 1:
        problems.append(f"{pid}: report header {report['property']!r}, seed {report['seed']}")
    if got != verdict:
        problems.append(f"{pid}: verdict {got}, the catalog states {verdict}")
    if (got == "holds") != (reported <= tol):
        problems.append(f"{pid}: max_violation {reported!r} contradicts verdict {got}")
    if rc != (1 if got == "unexpected" else 0):
        problems.append(f"{pid}: exit status {rc} for verdict {got}")
    if pid in NOT_REBUILDABLE or problems:
        return problems
    try:
        again = REDERIVE[pid](report["witness"])
    except (KeyError, oracle.NoRoute) as exc:
        return [f"{pid}: witness cannot be re-evaluated: {exc!r}"]
    if verdict == "holds":
        if not again <= tol:
            problems.append(f"{pid}: oracle re-evaluates the witness to {again!r} > {tol}")
    elif not (again > 0.0 and abs(again - reported) <= AGREE_ATOL + AGREE_RTOL * abs(reported)):
        problems.append(f"{pid}: oracle violation {again!r}, reported {reported!r}")
    return problems


def _check_dpi_search(t: float, rc: int, record: dict) -> list[str]:
    w = record["witness"]
    if t == 0.5:
        if record["verdict"] != "holds" or w is not None or rc != 0:
            return [f"dpi 0.5: verdict {record['verdict']}, witness {w is not None}"]
        return []
    if record["verdict"] != "fails_as_predicted" or w is None or rc != 0:
        return [f"dpi {t}: verdict {record['verdict']}, witness {w is not None}"]
    drop = _dpi_drop(w)
    if not drop > 0.0 or w["t"] != t:
        return [f"dpi {t}: oracle drop under pinching {drop!r}"]
    return []


def midpoint_counterexample() -> list[str]:
    """The commuting pair diag(0.99, 0.01) against I/2 has F_0.6 < F_0.5."""
    rho, sigma = np.diag([0.99, 0.01]), np.eye(2) / 2
    if oracle.fidelity(rho, sigma, 0.6) < oracle.fidelity(rho, sigma, 0.5):
        return []
    return ["midpoint_minimum: the commuting counterexample does not hold"]


def check_catalog(seed: int, outputs: list[dict]) -> list[str]:
    problems = midpoint_counterexample()
    for (label, _), out in zip(wl.catalog_ops(seed), outputs, strict=True):
        if out is None:  # failed operations are counted, not checked
            continue
        kind, _, arg = label.partition(":")
        record = json.loads(out["stdout"])
        if kind == "verify":
            (report,) = record["reports"]
            problems += _check_report(arg, seed, out["rc"], report)
        else:
            problems += _check_dpi_search(float(arg), out["rc"], record)
    return problems


# --- curve ---------------------------------------------------------------------


def check_curve(seed: int, outputs: list[dict]) -> list[str]:
    grid = np.array(wl.curve_grid())
    half = wl.curve_grid().index(0.5)
    problems = []
    for i, (pair, out) in enumerate(zip(wl.curve_pairs(seed), outputs, strict=True)):
        if out is None:
            continue
        name = f"sweep {i} ({pair['kind']}, d={pair['dim']})"
        rows = json.loads(out["stdout"])["rows"]
        ts = np.array([float(row["t"]) for row in rows])
        if out["rc"] != 0 or len(rows) != len(grid) or np.abs(ts - grid).max() > 1e-12:
            problems.append(f"{name}: exit {out['rc']}, {len(rows)} rows")
            continue
        values = np.array([float(row["value"]) for row in rows])
        rho, sigma = pair["rho"], pair["sigma"]
        expect = [("oracle curve", oracle.curve(rho, sigma, grid), values),
                  ("F_1/2 = Uhlmann", oracle.uhlmann(rho, sigma), values[half])]
        if pair["kind"] == "full":
            expect.append(("F_0 = F_1 = 1", 1.0, values[[0, -1]]))
        if pair["kind"] in ("pure_rho", "pure_sigma"):
            exps = grid if pair["kind"] == "pure_rho" else 1.0 - grid
            expect.append(("closed form", oracle.overlap(rho, sigma) ** exps, values))
        for label, ref, got in expect:
            err = float(np.abs(ref - got).max())
            if not err <= VALUE_ATOL:
                problems.append(f"{name}: {label} off by {err:.3e}")
        if not values.max() <= 1.0 + VALUE_ATOL:
            problems.append(f"{name}: F_t reaches {values.max()!r} > 1")
        lsd = min(float(row["log_second_diff"]) for row in rows[1:-1])
        if not lsd >= LOG_CONVEX_FLOOR:
            problems.append(f"{name}: log second difference {lsd!r}")
    return problems


# --- tensor --------------------------------------------------------------------


def check_tensor(seed: int, outputs: list[dict]) -> list[str]:
    pairs = wl.tensor_pairs(seed)
    problems = []
    for out in filter(None, outputs):
        pair = pairs[out["pair"]]
        r1, r2, s1, s2 = pair["factors"]
        name = f"{out['kind']} pair {out['pair']} (d={pair['dim']})"
        if out["kind"] == "spectral":
            t = pair["t"]
            refs = {"product of factor values":
                    oracle.fidelity(r1, s1, t) * oracle.fidelity(r2, s2, t)}
        else:
            refs = {"product of factor Uhlmann values":
                    oracle.uhlmann(r1, s1) * oracle.uhlmann(r2, s2),
                    "product of factor F_1/2 values":
                    oracle.fidelity(r1, s1, 0.5) * oracle.fidelity(r2, s2, 0.5)}
        for label, ref in refs.items():
            if not abs(out["value"] - ref) <= VALUE_ATOL:
                problems.append(f"{name}: {out['value']!r} vs {label} {ref!r}")
    return problems


CHECKS = {"catalog": check_catalog, "curve": check_curve, "tensor": check_tensor}
