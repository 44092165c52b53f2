"""Verification harness: suites, searches, replay, and sweep."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

import specfid.verify
from specfid import (
    TOL,
    Channel,
    DensityMatrix,
    ParamError,
    ToleranceError,
    UnknownProperty,
    apply,
    from_bloch,
    list_properties,
    pinching,
    pure_state,
    random_density,
    random_unitary,
    replay_reference_counterexample,
    run_suite,
    search_dpi_violation,
    second_fvg_failure,
    spectral_fidelity,
    t_sweep,
    trial_rng,
)
from specfid.fidelity import _power_traces, _spectral_fidelities, fvg_bounds
from specfid.linalg import _block_psd, hermitize, power, psd_eig
from specfid.means import _mean
from specfid.states import _densities
from specfid.verify import (
    _CHUNK_CAP,
    _REFERENCE_RHO,
    _REFERENCE_SIGMA,
    _REGISTRY,
    PropertySpec,
    _chunks,
    _inverse,
    _minimize_coherence,
    _pds,
    _run_trials,
    _second_fvg,
    _second_fvg_scan,
)

REPORT_KEYS = ["property", "verdict", "max_violation", "witness", "seed", "samples"]

HOLDING_SUITES = [
    "congruence_invariance",
    "inverse_identity",
    "tensor_compatibility",
    "support_identity",
    "mean_flip_identity",
    "spectral_eigenvalue_law",
    "riccati",
    "variational_minimizer",
    "midpoint_uhlmann",
    "endpoints",
    "flip_symmetry",
    "multiplicativity",
    "unitary_invariance",
    "tensor_stabilization",
    "universal_bound",
    "convexity_in_t",
    "log_convexity_in_t",
    "first_fvg",
    "zero_condition",
    "positivity",
    "closed_form_pure_rho",
    "closed_form_pure_sigma",
    "bloch_closed_forms",
    "classicalization",
    "renyi_midpoint_uhlmann",
    "variational_dominance",
    "dpi_midpoint",
]


def test_registry_lists_every_suite():
    names = list_properties()
    assert set(HOLDING_SUITES) <= set(names)
    assert {
        "dpi_monotone",
        "second_fvg",
        "midpoint_minimum",
        "separate_concavity",
    } <= set(names)
    assert all(isinstance(v, str) and v for v in names.values())


@pytest.mark.parametrize("property_id", HOLDING_SUITES)
def test_holding_suites_hold(property_id):
    samples = 4 if property_id == "variational_dominance" else 25
    report = run_suite(property_id, n_samples=samples)
    assert report.verdict == "holds", (property_id, report.max_violation)


def test_report_json_schema():
    report = run_suite("riccati", n_samples=5)
    record = report.to_json()
    assert list(record) == REPORT_KEYS
    report2 = run_suite("midpoint_minimum", n_samples=10)
    assert list(report2.to_json()) == REPORT_KEYS + ["notes"]


def test_run_suite_deterministic():
    a = run_suite("flip_symmetry", n_samples=10, rng_seed=7)
    b = run_suite("flip_symmetry", n_samples=10, rng_seed=7)
    assert a.to_json() == b.to_json()
    c = run_suite("flip_symmetry", n_samples=10, rng_seed=8)
    assert c.max_violation != a.max_violation


def test_run_suite_validation():
    with pytest.raises(UnknownProperty):
        run_suite("no_such_property")
    with pytest.raises(ParamError):
        run_suite("riccati", dims=[1])
    # t must lie in [0, 1]: a NaN violation never wins, so t = nan would
    # report holds with an empty witness
    for t in (math.nan, math.inf, 1.5, -0.1):
        with pytest.raises(ParamError, match="outside"):
            run_suite("dpi_monotone", n_samples=3, t=t)
    # a suite that runs no trials has checked nothing
    for property_id in ("riccati", "zero_condition", "first_fvg"):
        with pytest.raises(ParamError):
            run_suite(property_id, n_samples=0)


def test_dpi_monotone_verdicts_by_t():
    mid = run_suite("dpi_monotone", n_samples=30, t=0.5)
    assert mid.verdict == "holds"
    off = run_suite("dpi_monotone", n_samples=30, t=0.8)
    assert off.verdict == "fails_as_predicted"
    assert off.max_violation > 1e-3
    default = run_suite("dpi_monotone", n_samples=30)
    assert default.verdict == "fails_as_predicted"


def test_second_fvg_fails_as_predicted():
    report = run_suite("second_fvg")
    assert report.verdict == "fails_as_predicted"
    assert report.max_violation > 0.1
    assert report.notes and "t < 0.5" in report.notes[0]


def test_midpoint_minimum_is_refuted():
    # The stated bound F_t >= F_{1/2} per pair is false; the suite must
    # say so honestly and document the true symmetrized consequence.
    report = run_suite("midpoint_minimum", n_samples=40)
    assert report.verdict == "unexpected"
    assert report.max_violation > 1e-3
    assert any("symmetrized" in note for note in report.notes)
    # The witness pins the parameter where the dip beats the midpoint.
    assert 0.0 < report.worst_witness["t"] < 1.0


def test_separate_concavity_holds_at_midpoint_only():
    mid = run_suite("separate_concavity", n_samples=25)
    assert mid.verdict == "holds"
    off = run_suite("separate_concavity", n_samples=40, t=0.25)
    assert off.verdict == "unexpected"
    assert off.max_violation > 1e-4
    assert any("one-sided" in note for note in off.notes)
    # Mirror image under the flip: same worst gap at t and 1 - t.
    off_hi = run_suite("separate_concavity", n_samples=40, t=0.75)
    assert off_hi.max_violation == pytest.approx(off.max_violation, rel=1e-9)


def _coherent_classical(t: float, p: float) -> tuple[float, float]:
    """F_t of the equal-weight superposition against the (p, 1-p) pure
    state, before and after dephasing."""
    rho = from_bloch((1.0, 0.0, 0.0))
    sigma = pure_state((math.sqrt(p), math.sqrt(1.0 - p)))
    channel = pinching(2)
    before = spectral_fidelity(rho, sigma, t).value
    after = spectral_fidelity(apply(channel, rho), apply(channel, sigma), t).value
    return before, after


def test_dpi_analytic_family_oracle():
    # The paper's closed forms: (1/2 + sqrt(p(1-p)))^t before dephasing,
    # 2^(t-1) (p^t + (1-p)^t) after; dephasing raises F_t below t = 1/2.
    before, after = _coherent_classical(0.25, 0.01)
    assert before == pytest.approx(0.879927861868329, abs=1e-9)
    assert after == pytest.approx(0.7811415961109461, abs=1e-9)
    assert before == pytest.approx((0.5 + math.sqrt(0.01 * 0.99)) ** 0.25, abs=1e-9)
    assert after == pytest.approx(2.0**-0.75 * (0.01**0.25 + 0.99**0.25), abs=1e-9)
    assert before > after


def test_dpi_analytic_family_limits_and_balance():
    # p -> 0: before -> 2^{-t} and after -> 2^{t-1}, separated for t < 1/2.
    before, after = _coherent_classical(0.25, 1e-12)
    assert before == pytest.approx(2.0**-0.25, abs=1e-5)
    assert after == pytest.approx(2.0**-0.75, abs=1e-3)
    # p = 1/2 makes the two states equal: both sides 1, no violation.
    before, after = _coherent_classical(0.3, 0.5)
    assert before == pytest.approx(1.0, abs=1e-9)
    assert after == pytest.approx(1.0, abs=1e-9)


def test_replay_reference_counterexample():
    witness = replay_reference_counterexample()
    assert witness.t == 0.8
    assert witness.f_before == pytest.approx(0.755086, abs=1e-4)
    assert witness.f_after == pytest.approx(0.752207, abs=1e-4)
    assert witness.f_before == pytest.approx(0.7550853719736925, abs=1e-12)
    assert witness.f_after == pytest.approx(0.7522068683516738, abs=1e-12)
    record = witness.to_json()
    assert record["f_before"] > record["f_after"]


def test_search_finds_witness_off_midpoint():
    witness = search_dpi_violation(0.8, dim=2, n_trials=2000, rng_seed=42)
    assert witness is not None
    assert witness.f_after < witness.f_before - 1e-7
    # Determinism of the search.
    again = search_dpi_violation(0.8, dim=2, n_trials=2000, rng_seed=42)
    assert again.to_json() == witness.to_json()


def test_search_low_t_uses_flip_roles():
    witness = search_dpi_violation(0.25, dim=2, n_trials=2000, rng_seed=1)
    assert witness is not None
    assert witness.f_after < witness.f_before - 1e-7


def test_search_empty_at_midpoint():
    assert search_dpi_violation(0.5, dim=2, n_trials=1500, rng_seed=42) is None


def test_search_validation():
    with pytest.raises(ParamError):
        search_dpi_violation(0.0)
    with pytest.raises(ParamError):
        search_dpi_violation(1.0)
    with pytest.raises(ParamError):
        search_dpi_violation(0.8, dim=1)
    # An exhausted budget is an empty result, but an empty budget is an error:
    # None after zero trials would read as "no violation".
    assert search_dpi_violation(0.8, n_trials=1, rng_seed=3) is None
    for n_trials in (0, -4):
        with pytest.raises(ParamError):
            search_dpi_violation(0.5, 2, n_trials)


@pytest.mark.parametrize("t, dim, seed", [(0.2, 3, 5), (0.8, 2, 42)])
def test_search_bisects_the_first_violating_trial_of_the_suite(monkeypatch, t, dim, seed):
    # The search walks the dpi_monotone trial stream: the pair it bisects
    # is the suite's first trial whose drop exceeds the margin.
    bisected = []
    monkeypatch.setattr(
        specfid.verify, "_minimize_coherence",
        lambda rho, sigma, t, channel: bisected.append((rho, sigma)),
    )
    search_dpi_violation(t, dim=dim, n_trials=200, rng_seed=seed)
    ((rho, sigma),) = bisected
    for trial in range(200):
        (value,), (fields,), _ = _alone(_REGISTRY["dpi_monotone"], seed, trial, dim, t)
        if value > TOL.dpi_margin:
            break
    assert np.array_equal(rho.mat, fields["rho"])
    assert np.array_equal(sigma.mat, fields["sigma"])


def _count_calls(monkeypatch, name: str) -> list:
    """Record every call verify makes to its binding of name."""
    original = getattr(specfid.verify, name)
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(specfid.verify, name, counted)
    return calls


def test_bisection_dephases_its_pair_once(monkeypatch):
    # Pinching maps every point of the bisection line to the dephased
    # pair, so the fidelity after it is computed once: 40 bisection
    # points plus the dephased pair and the witness's own before.
    rho, sigma = DensityMatrix(_REFERENCE_RHO), DensityMatrix(_REFERENCE_SIGMA)
    applies = _count_calls(monkeypatch, "apply")
    fidelities = _count_calls(monkeypatch, "spectral_fidelity")
    witness = _minimize_coherence(rho, sigma, 0.8, pinching(2))
    assert len(applies) == 2
    assert len(fidelities) == 42
    assert witness.f_after < witness.f_before - 1e-7


def test_dpi_runs_share_one_pinching_per_dim(monkeypatch):
    assert pinching(3) is pinching(3)
    run_suite("dpi_midpoint", n_samples=4)
    built = []
    original = Channel.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Channel, "__post_init__", counted)
    run_suite("dpi_midpoint", n_samples=4)
    run_suite("dpi_monotone", n_samples=4)
    search_dpi_violation(0.8, dim=3, n_trials=30)
    assert built == []


def test_maximizer_failing_the_block_test_makes_the_report(monkeypatch):
    # Only trial 0's maximizer fails the block test; the report is that
    # trial's, with the one note, whatever the later trials measure.
    block_psd = specfid.verify._block_psd
    calls = []

    def first_call_fails(*args):
        calls.append(args)
        return len(calls) > 1 and block_psd(*args)

    monkeypatch.setattr(specfid.verify, "_block_psd", first_call_fails)
    report = run_suite("variational_dominance", n_samples=2)
    assert report.max_violation == 1.0
    assert report.worst_witness["trial"] == 0
    assert report.notes == ("maximizer failed the block feasibility test",)
    assert report.verdict == "unexpected"


def test_second_fvg_failure_oracle():
    result = second_fvg_failure(0.25, 0.5)
    assert result.half_trace_dist == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert result.rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert result.violated
    # At the midpoint the pure-state comparison is an equality.
    mid = second_fvg_failure(0.5, 0.3)
    assert mid.half_trace_dist == pytest.approx(mid.rhs, abs=1e-10)
    assert not mid.violated
    with pytest.raises(ParamError):
        second_fvg_failure(0.25, 0.0)
    with pytest.raises(ParamError):
        second_fvg_failure(0.25, 1.0)
    with pytest.raises(ParamError):
        second_fvg_failure(1.5, 0.5)


def test_t_sweep_identical_states_flat():
    rho = DensityMatrix(np.eye(2) / 2)
    curve = t_sweep(rho, rho, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in curve.values)
    assert all(abs(d) < 1e-10 for d in curve.second_diff)


def test_t_sweep_pure_pair_log_linear():
    rho = pure_state([1.0, 0.0])
    sigma = pure_state([math.cos(0.4), math.sin(0.4)])
    grid = [0.1 * k for k in range(11)]
    curve = t_sweep(rho, sigma, grid)
    c2 = math.cos(0.4) ** 2
    for tg, value in zip(curve.ts, curve.values):
        assert value == pytest.approx(c2**tg, abs=1e-10)
    assert all(abs(d) < 1e-8 for d in curve.log_second_diff)


def test_t_sweep_validation_and_extension():
    rho = DensityMatrix(np.diag([0.4, 0.6]))
    sigma = DensityMatrix(np.diag([0.7, 0.3]))
    with pytest.raises(ParamError):
        t_sweep(rho, sigma, [0.5, 0.1])
    curve = t_sweep(rho, sigma, [-0.5, 0.0, 0.5, 1.0, 1.5])
    assert len(curve.values) == 5
    assert curve.values[0] > 1.0  # outside [0, 1] the family exceeds 1


def test_t_sweep_log_of_zero_value():
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    sigma = DensityMatrix(np.diag([0.0, 1.0]))
    curve = t_sweep(rho, sigma, [0.25, 0.5, 0.75])
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in curve.values)
    assert all(lv == -math.inf for lv in curve.log_values)
    # -inf - 2 (-inf) + (-inf) is NaN; the values' own difference is exactly 0.
    assert curve.second_diff == (0.0,)
    assert len(curve.log_second_diff) == 1 and math.isnan(curve.log_second_diff[0])
    for grid in ([0.25, 0.75], [0.5]):
        short = t_sweep(rho, sigma, grid)
        assert len(short.values) == len(short.log_values) == len(grid)
        assert short.second_diff == () and short.log_second_diff == ()


@pytest.mark.parametrize("steps", [2, 201])
def test_t_sweep_costs_three_eigh_calls_at_any_grid_length(monkeypatch, steps):
    rng = trial_rng(34, 0)
    rho, sigma = random_density(3, 3, rng), random_density(3, 3, rng)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    curve = t_sweep(rho, sigma, np.linspace(0.0, 1.0, steps))
    assert len(curve.values) == steps
    # two for the Riccati solution, one for the whole curve
    assert len(calls) == 3


def test_variational_minimizer_reports_no_negative_violation():
    report = run_suite("variational_minimizer", n_samples=20)
    assert report.max_violation >= 0.0
    assert report.verdict == "holds"


def test_search_finds_witness_above_two_dimensions():
    for t in (0.2, 0.8):
        for dim in (3, 4):
            witness = search_dpi_violation(t, dim=dim, n_trials=30, rng_seed=42)
            assert witness is not None, (t, dim)
            assert witness.rho.dim == dim
            assert witness.f_after < witness.f_before - 1e-7


def test_witness_replayability():
    # The worst witness stored in a report reproduces its violation.
    report = run_suite("flip_symmetry", n_samples=15)
    wit = report.worst_witness
    rho = _state_from_witness(wit["rho"])
    sigma = _state_from_witness(wit["sigma"])
    t = wit["t"]
    gap = abs(
        spectral_fidelity(rho, sigma, t).value
        - spectral_fidelity(sigma, rho, 1.0 - t).value
    )
    assert gap == pytest.approx(report.max_violation, rel=1e-9, abs=1e-15)


def _state_from_witness(record):
    mat = np.asarray(record["re"], dtype=complex) + 1j * np.asarray(record["im"])
    return DensityMatrix(mat)


SAMPLED_SUITES = [pid for pid, spec in _REGISTRY.items() if spec.chunk is not None]


def _trial(rows, witness, i):
    """Trial i's row of values and the witness fields of each of its points."""
    return rows[i], [witness(i, j) for j in range(len(rows[i]))]


def _alone(spec, seed, trial, dim, t):
    """One trial run as a chunk of one: its row, its points' witness
    fields, and the chunk's peaks."""
    rows, witness, peaks = spec.chunk([trial_rng(seed, trial)], dim, [trial], t)
    assert len(rows) == 1
    return (*_trial(rows, witness, 0), peaks)


@pytest.mark.parametrize("property_id", SAMPLED_SUITES)
def test_witness_replays_from_its_trial(property_id):
    # Every witness names its trial; trial_rng(seed, trial) regenerates
    # every input of that trial, so the suite's chunk function on that
    # trial alone reproduces the reported violation bit for bit.
    seed = 11
    spec = _REGISTRY[property_id]
    samples = 3 if property_id == "variational_dominance" else 12
    report = run_suite(property_id, n_samples=samples, rng_seed=seed)
    trial = report.worst_witness["trial"]
    dim = spec.dims[trial % len(spec.dims)]
    row, _, _ = _alone(spec, seed, trial, dim, spec.t)
    assert max(max(row), 0.0) == report.max_violation


def _same(a, b) -> bool:
    """Exact equality of witness fields, matrices by bytes."""
    if isinstance(a, DensityMatrix):
        return isinstance(b, DensityMatrix) and np.array_equal(a.mat, b.mat)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _bytes(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _assert_same_candidates(got, ref):
    """The same row of values, byte for byte, and the same witness fields
    of every point, key by key in order, of (row, fields, ...) pairs."""
    (row, fields), (ref_row, ref_fields) = got[:2], ref[:2]
    assert _bytes(row) == _bytes(ref_row)
    assert list(map(type, row)) == list(map(type, ref_row))
    assert len(fields) == len(ref_fields)
    for point, ref_point in zip(fields, ref_fields):
        assert list(point) == list(ref_point)
        assert all(_same(point[k], ref_point[k]) for k in ref_point)


def _peak_of(peaks) -> tuple:
    """The elementwise maxima over several chunks' peaks; () if none has any."""
    found = [p for p in peaks if p]
    return tuple(map(max, *found)) if found else ()


@pytest.mark.parametrize("property_id", SAMPLED_SUITES)
def test_chunked_stream_equals_its_trials_one_by_one(monkeypatch, property_id):
    # Three dims interleave, and a cap of 64 trials (2 for
    # variational_dominance, whose trials are slow) makes every dim's
    # trials cross a chunk boundary.  Each row and witness must be the one
    # its trial gives as a chunk of one, bit for bit, and each chunk's
    # peaks the maxima of its trials' own.
    spec = _REGISTRY[property_id]
    dims, seed = (2, 3, 5), 8
    cap = 2 if property_id == "variational_dominance" else 64
    n = 3 * cap + min(cap + 1, 50)
    monkeypatch.setattr(specfid.verify, "_CHUNK_CAP", cap)
    # the DPI stream flips its near-classical pairs below the midpoint
    t = 0.3 if property_id == "dpi_monotone" else spec.t
    seen, chunks_per_dim = [], dict.fromkeys(dims, 0)
    for dim, trials, (rows, witness, peaks) in _chunks(spec.chunk, dims, n, seed, t):
        assert len(rows) == len(trials) <= cap
        assert trials == sorted(trials) and all(dims[trial % 3] == dim for trial in trials)
        alone = [_alone(spec, seed, trial, dim, t) for trial in trials]
        for i, ref in enumerate(alone):
            _assert_same_candidates(_trial(rows, witness, i), ref)
        assert _bytes(peaks) == _bytes(_peak_of(ref[2] for ref in alone))
        seen += trials
        chunks_per_dim[dim] += 1
    assert sorted(seen) == list(range(n))
    assert min(chunks_per_dim.values()) >= 2


def test_a_chunk_of_mixed_dims_hands_each_trial_its_own_stream():
    # Trials of three dims each run in their own dim's chunks, one
    # seeding pass a chunk; every trial still sees numpy's stream for
    # (seed, trial) as it starts.
    seen = {}

    def record(rngs, dim, trials, t):
        for rng, trial in zip(rngs, trials):
            seen[trial] = (dim, rng.bit_generator.state, rng.standard_normal(3))
        return [], None, ()

    seed = 2**32 + 1
    list(_chunks(record, (2, 3, 5), 40, seed, None))
    assert sorted(seen) == list(range(40))
    for trial, (dim, state, draws) in seen.items():
        ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        assert dim == (2, 3, 5)[trial % 3]
        assert state == ref.bit_generator.state
        assert np.array_equal(draws, ref.standard_normal(3))


def _fake_spec(rows_by_trial):
    """A suite whose trial k measures rows_by_trial[k] and whose witness
    names the point."""
    def chunk(rngs, dim, trials, t):
        rows = [list(rows_by_trial[trial]) for trial, _ in zip(trials, rngs)]
        return rows, lambda i, j: {"point": j}, ()
    return PropertySpec(chunk, 0.0, (3, 2), len(rows_by_trial), lambda t: False, "fake")


def test_the_winner_is_the_greatest_value_then_the_earliest_trial_and_point():
    # dims (3, 2): dim 3 runs trials 0, 2, 4 before dim 2 runs 1, 3, 5
    def winner(rows_by_trial):
        worst, witness, _ = _run_trials(_fake_spec(rows_by_trial), (3, 2), len(rows_by_trial), 1,
                                        None)
        return worst, witness

    assert winner([[0.5, 0.5]] * 6) == (0.5, {"trial": 0, "dim": 3, "point": 0})
    # the maximum at trial 1 (dim 2) beats the same value at trial 2 (dim 3)
    tied = [[0.1], [0.2, 0.9, 0.9], [0.9], [0.3], [0.9], [0.4]]
    assert winner(tied) == (0.9, {"trial": 1, "dim": 2, "point": 1})
    # a NaN never wins, not even at the head of a row
    nan = math.nan
    assert winner([[nan, nan], [nan, 0.3], [0.2, nan, 0.25], [nan]]) == (
        0.3, {"trial": 1, "dim": 2, "point": 1})
    assert winner([[0.2, nan, 0.25], [nan]]) == (0.25, {"trial": 0, "dim": 3, "point": 2})
    # a value must beat -1 to become the witness
    assert winner([[nan], [-1.0], [-3.0]]) == (-1.0, {})


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8])
def test_stacked_pd_draws_equal_the_one_draw_form(dim):
    # A trial's pd draws are one standard_normal call; each stacked
    # matrix, in a chunk or alone, is the per-draw formula's, byte for byte.
    def pd(rng):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return hermitize(g @ g.conj().T / dim + 0.1 * np.eye(dim))

    trials = range(300)
    stacked = _pds((trial_rng(7, k) for k in trials), dim, dim)
    alone = [_pds([rng], dim, dim) for rng in map(partial(trial_rng, 7), trials)]
    formula = [(pd(rng), pd(rng)) for rng in map(partial(trial_rng, 7), trials)]
    for k in (0, 1):
        expected = [pair[k].tobytes() for pair in formula]
        assert [m.tobytes() for m in stacked[k]] == expected
        assert [pair[k][0].tobytes() for pair in alone] == expected


def test_one_point_suites_read_the_midpoint_off_without_decomposing_x(monkeypatch):
    # Trials 5 and 16 test t = 1/2, trial 4 t = 0.4.  Each pair costs two
    # decompositions for its Riccati solve, and X a third only off the
    # midpoint, as a one-point call costs: the chunk adds none.
    spec = _REGISTRY["closed_form_pure_rho"]
    matrices = []
    eigh = np.linalg.eigh

    def counting_eigh(mat):
        matrices.append(int(np.prod(mat.shape[:-2])))
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for trials, expected in (([5, 16], 4), ([4, 5], 5)):
        matrices.clear()
        list(spec.chunk((trial_rng(1, k) for k in trials), 3, trials, None))
        assert sum(matrices) == expected


def test_large_dims_run_in_small_chunks(monkeypatch):
    # A chunk's stacks are bounded by matrix size: at d = 64 a chunk
    # holds at most 2**14 // 64**2 = 4 trials.  A suite takes full chunks
    # from its first trial; the DPI search, which stops at its first hit,
    # grows them 1, 2, 4, ... so it evaluates few trials beyond that hit.
    # Each value is still the one its trial gives alone.
    def recorded(chunk_fn, sizes, stream):
        def chunk(rngs, dim, trials, t):
            sizes.append(len(trials))
            rows, witness, peaks = chunk_fn(rngs, dim, trials, t)
            stream.extend((trial, _trial(rows, witness, i)) for i, trial in enumerate(trials))
            return rows, witness, peaks
        return chunk

    endpoints, dpi = _REGISTRY["endpoints"], _REGISTRY["dpi_monotone"]
    sizes, stream = [], []
    list(_chunks(recorded(endpoints.chunk, sizes, stream), (64,), 11, 3, 0.5))
    assert sizes == [4, 4, 3]
    assert [trial for trial, _ in stream] == list(range(11))
    for trial, got in stream:
        _assert_same_candidates(got, _alone(endpoints, 3, trial, 64, 0.5))
    sizes, stream = [], []
    monkeypatch.setattr(specfid.verify, "_dpi_chunk", recorded(dpi.chunk, sizes, stream))
    assert search_dpi_violation(0.5, dim=64, n_trials=11, rng_seed=3) is None
    assert sizes == [1, 2, 4, 4]
    assert [trial for trial, _ in stream] == list(range(11))
    for trial, got in stream:
        _assert_same_candidates(got, _alone(dpi, 3, trial, 64, 0.5))
    # up to d = 8 the cap stays 256 trials, and each dim fills its own
    # chunks; a dim's cap is its own, whatever other dims the run has
    def sizes_of(dims, n):
        sizes = []
        list(_chunks(lambda rngs, dim, trials, t: sizes.append(len(trials)), dims, n, 3, 0.5))
        return sizes

    assert sizes_of((2, 8), 600) == [_CHUNK_CAP, 300 - _CHUNK_CAP] * 2
    assert sizes_of((2, 64), 20) == [10, 4, 4, 2]


def _draw_by_draw(rng, dim, t):
    """variational_dominance's trial as it ran before its feasibility loop
    took rounds of draws: ((row, witness fields, peaks), feasible stack,
    fallbacks taken)."""
    t_grid = (0.1, 0.25, 0.4, 0.5) if t is None else (t,)
    rho, sigma = (stack[0] for stack in _densities([rng], dim, dim, dim))
    x_star = _mean(rho, sigma, riccati=True)[0]
    inv_rho = _inverse(rho)
    if not _block_psd(inv_rho, x_star, sigma):
        return ([1.0], [{"rho": rho, "sigma": sigma}], (1.0,)), None, 0
    root = power(*psd_eig(x_star), 0.5, support_only=False)
    targets = _spectral_fidelities(rho, sigma, t_grid)
    feasible, fallbacks = [], 0
    while len(feasible) < 200:
        u = random_unitary(dim, rng)
        shrink = hermitize(u @ np.diag(rng.uniform(0.0, 1.0, dim)) @ u.conj().T)
        cand = hermitize(float(rng.uniform(0.0, 1.0)) * root @ shrink @ root)
        if not _block_psd(inv_rho, cand, sigma):
            fallbacks += 1
            cand = hermitize(float(rng.uniform(0.0, 1.0)) * x_star)
            if not _block_psd(inv_rho, cand, sigma):
                continue
        feasible.append(cand)
    gaps = (_power_traces(rho, np.array(feasible), t_grid) - targets).tolist()
    row = [v for values in gaps for v in values]
    fields = [{"t": tg, "rho": rho, "sigma": sigma} for _ in gaps for tg in t_grid]
    return (row, fields, ()), np.array(feasible), fallbacks


@pytest.mark.parametrize("seed", [7, 42, 2**32])
def test_feasibility_rounds_equal_the_draw_by_draw_loop(monkeypatch, seed):
    # The rounds test up to 8 draws as one stack and replay the stream
    # to the first failing one; the feasible candidates, and so every
    # value, are the draw-by-draw loop's, byte for byte.  Over these
    # trials the fallback fires, and some round is cut before its last
    # draw.
    spec = _REGISTRY["variational_dominance"]
    feasible, cut = [], []

    def record_feasible(rho, x, ts):
        feasible.append(x)
        return _power_traces(rho, x, ts)

    def record_cut(a11, a12, a22):
        passed = _block_psd(a11, a12, a22)
        cut.append(passed.ndim > 0 and not passed[:-1].all())
        return passed

    monkeypatch.setattr(specfid.verify, "_power_traces", record_feasible)
    monkeypatch.setattr(specfid.verify, "_block_psd", record_cut)
    fallbacks = 0
    for k, t in enumerate((None, 0.3, 0.45)):
        for trial in range(5 * k, 5 * k + 5):
            dim = 2 + trial % 5
            feasible.clear()
            got = _alone(spec, seed, trial, dim, t)
            ref, ref_feasible, n = _draw_by_draw(trial_rng(seed, trial), dim, t)
            _assert_same_candidates(got, ref)
            assert got[2] == ref[2]
            assert feasible[0].tobytes() == ref_feasible.tobytes()
            fallbacks += n
    assert fallbacks > 0
    assert any(cut)


def test_stacked_second_fvg_scan_equals_its_points_one_by_one():
    # The scan evaluates its 171 points from one stack of 9 pure pairs
    # and one t-grid; each point, and so the worst value, its witness,
    # the violating region and the notes, are those of one-point calls,
    # whose distance and bound are fvg_bounds' on the same pair.
    t_grid = tuple(round(0.05 * k, 10) for k in range(1, 20))
    c_grid = tuple(round(0.1 * k, 10) for k in range(1, 10))
    worst, witness, region, points = -1.0, {}, [], []
    for tg in t_grid:
        for c in c_grid:
            result = second_fvg_failure(tg, c)
            pair = pure_state((1.0, 0.0)), pure_state((c, math.sqrt(1.0 - c * c)))
            assert result[:2] == fvg_bounds(*pair, tg)[1:]
            points.append(result)
            v = result.half_trace_dist - result.rhs
            if result.violated:
                region.append((tg, c))
            if v > worst:
                worst, witness = v, {"t": tg, "c": c}
    stacked = [result for row in _second_fvg(t_grid, c_grid) for result in row]
    assert stacked == points
    assert [(tg, c) for tg in t_grid for c in c_grid
            if stacked[t_grid.index(tg) * len(c_grid) + c_grid.index(c)].violated] == region
    notes = (f"upper-bound violations on the pure-state grid: {len(region)} of "
             f"{len(points)} points, all with t < 0.5",)
    assert _second_fvg_scan() == (worst, witness, notes)


@pytest.mark.xfail(
    strict=True,
    reason="seed 31, trial 227 (dim 4): F_1 = 1 + 3.7e-10 on a rho with smallest "
    "eigenvalue 6.6e-8, over the 1e-10 tolerance; see the conditioning contract",
)
def test_endpoints_hold_at_seed_31():
    assert run_suite("endpoints", rng_seed=31).verdict == "holds"


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(72, marks=pytest.mark.xfail(
            strict=True,
            reason="seed 72: violation 8.4e-5 at t = 0.1; the ancilla pair's solve has "
            "honest eigenvalues below 1e-13 that the unit floor of support_cutoff "
            "drops (finding b); without the floor the suite holds")),
        pytest.param(91, marks=pytest.mark.xfail(
            strict=True,
            reason="seed 91: violation 1.1e-5 at t = 0; the inner matrix of the "
            "Riccati solve has an honest eigenvalue 4.8e-15, below even the relative "
            "support cutoff, so X loses a direction of weight 1.1e-5")),
        pytest.param(92, marks=pytest.mark.xfail(
            strict=True,
            reason="seed 92: violation 1.5e-7 at t = 0.7; the ancilla pair's solve has "
            "honest eigenvalues below 1e-13 that the unit floor of support_cutoff "
            "drops (finding b); without the floor the suite holds")),
    ],
)
def test_tensor_stabilization_holds_at_seed(seed):
    assert run_suite("tensor_stabilization", rng_seed=seed).verdict == "holds"
