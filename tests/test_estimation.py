from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from combphase import estimation, fiber_comb_preset
from combphase.errors import (
    DegenerateFitError,
    ScenarioConfigError,
    SingularInformationError,
    WrapAmbiguityError,
)
from combphase.estimation import (
    MeasurementRecord,
    RefineConfig,
    estimator_study,
    fisher_matrix,
    iterative_refine,
    log_likelihood_and_grad,
    ml_estimate,
    offset_resolution,
    optimize_reference_phase,
    sample_record,
)
from combphase.protocols import ProtocolSpec, RamseyOutcomeModel, ramsey_model
from combphase.scenarios import run_scenario


def _model(kind="1B", n=100, nd=0, xi=np.pi / 2, theta=np.pi / 2):
    return ramsey_model(ProtocolSpec(kind, n, nd, xi, theta))


def test_fisher_oracle_quadrature_fringe():
    # N pi/2-pulses at quadrature: information 4 N^2 M in the phase step
    n, m_shots = 100, 1000
    f = fisher_matrix(_model(n=n), 0.001, m_shots)
    assert f == pytest.approx(4.0 * n**2 * m_shots, rel=1e-9)


@given(theta=st.floats(0.3, 2.8), dphi=st.floats(-0.02, 0.02))
@settings(max_examples=30, deadline=None)
def test_fisher_psd_everywhere(theta, dphi):
    # I_dphidphi is a sum of squares over probabilities: never negative
    assert fisher_matrix(_model(n=20, xi=1.0, theta=theta), dphi, 100) >= 0.0


@given(theta=st.floats(0.3, 2.8), dphi=st.floats(-0.02, 0.02))
@settings(max_examples=30, deadline=None)
def test_score_has_zero_expectation(theta, dphi):
    # E[S] = sum_s dP/ddphi = 0 for each arm
    model = _model(n=20, xi=1.0, theta=theta)
    _, _, d1, d2 = model.evaluate(dphi)
    for d in (d1, d2):
        assert abs(d.sum()) < 1e-10


def test_sample_record_deterministic_counts():
    model = _model()
    a = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    b = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    assert np.array_equal(a.counts1, b.counts1)
    assert np.array_equal(a.counts2, b.counts2)
    assert a.counts1.sum() == 500


def test_sampling_cache_keeps_the_latest_dphi_only():
    model = _model()
    first = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    other = sample_record(model, np.pi / 2, 0.002, 500, seed=9)
    again = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    assert list(model.cache) == ["probs"]
    fresh = sample_record(_model(), np.pi / 2, 0.002, 500, seed=9)
    for a, b in ((first, again), (other, fresh)):
        assert np.array_equal(a.counts1, b.counts1) and np.array_equal(a.counts2, b.counts2)


def test_measurement_record_validation():
    with pytest.raises(ValueError, match="counts1"):
        MeasurementRecord(10, np.array([4, 7]), np.array([5, 5]))  # does not sum to m_shots
    with pytest.raises(ValueError, match="counts2"):
        MeasurementRecord(10, np.array([4, 6]), np.array([5, 5, 0]))  # three outcomes


def test_theta_slots_must_match_the_model():
    # the model holds the pulse area; sample_record's theta and ml_estimate's
    # init[0] remain only as slots that must repeat it
    model = _model(n=100)
    with pytest.raises(ValueError, match="pulse area"):
        sample_record(model, 0.95 * np.pi / 2, 0.002, 1000, seed=0)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    with pytest.raises(ValueError, match="pulse area"):
        ml_estimate(rec, model, (0.95 * np.pi / 2, 0.0))


def test_log_likelihood_gradient_matches_fd():
    model = _model(theta=0.95 * np.pi / 2)
    rec = sample_record(model, 0.95 * np.pi / 2, 0.002, 1000, seed=0)
    dp = 0.0015
    _, score = log_likelihood_and_grad(rec, model, dp)
    h = 1e-7
    lp, _ = log_likelihood_and_grad(rec, model, dp + h)
    lm, _ = log_likelihood_and_grad(rec, model, dp - h)
    assert (lp - lm) / (2 * h) == pytest.approx(score, rel=1e-4, abs=1e-3)


def test_ml_estimate_recovers_truth():
    model = _model(n=100)
    dphi_true = 0.002
    rec = sample_record(model, np.pi / 2, dphi_true, 10_000, seed=3)
    est = ml_estimate(rec, model, (np.pi / 2, 0.0))
    sigma = np.sqrt(est.bound)
    assert abs(est.dphi_hat - dphi_true) < 5.0 * sigma
    assert est.converged


def test_ml_estimate_rejects_the_removed_joint_fit():
    model = _model(n=100)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    fixed = ml_estimate(rec, model, (np.pi / 2, 0.0), fix_theta=True)
    # on a fresh model, since a repeated record on the same one is memoised
    assert fixed == ml_estimate(rec, _model(n=100), (np.pi / 2, 0.0))
    with pytest.raises(ValueError, match="joint"):
        ml_estimate(rec, model, (np.pi / 2, 0.0), fix_theta=False)


def test_ml_estimate_wrap_guard():
    model = _model(n=1000)
    rec = sample_record(model, np.pi / 2, 0.0, 100, seed=0)
    with pytest.raises(WrapAmbiguityError):
        ml_estimate(rec, model, (np.pi / 2, 0.01))  # chi * init = 10 > pi


def test_ml_estimate_degenerate_without_pulse_area():
    # theta = 0: the train does nothing, so no outcome depends on dphi
    model = _model(n=10, theta=0.0)
    rec = sample_record(model, 0.0, 0.01, 1000, seed=1)
    with pytest.raises(DegenerateFitError, match="no phase information"):
        ml_estimate(rec, model, (0.0, 0.0))


def test_optimize_reference_phase_reaches_max_information():
    spec = ProtocolSpec("1B", 50, 0, 0.0, np.pi / 2)
    xi = optimize_reference_phase(spec, 0.001)
    f = fisher_matrix(ramsey_model(replace(spec, reference_phase=xi)), 0.001, 1)
    assert f == pytest.approx(4.0 * 50**2, rel=1e-6)
    # and the chosen fringe is balanced, not pinned at a node
    p1 = ramsey_model(replace(spec, reference_phase=xi)).evaluate(0.001)[0]
    assert 0.05 < p1[1] < 0.95


def _bounded_brent_fit(record, model, window, dphi0=0.0):
    """Oracle: the fixed-theta fit as a bounded Brent minimisation of the
    negative log-likelihood over the whole window."""
    res = optimize.minimize_scalar(
        lambda x: -log_likelihood_and_grad(record, model, x)[0],
        bounds=(dphi0 - window, dphi0 + window), method="bounded", options={"xatol": 1e-12},
    )
    return float(res.x)


def _sweep_model(kind, n, nd):
    """A bundled CRLB point: the model at its reference phase, chi and true dphi."""
    spec = ProtocolSpec(kind, n, nd, 0.0, np.pi / 2)
    chi = spec.enhancement
    dphi = 0.2 / chi
    xi = optimize_reference_phase(spec, dphi)
    return ramsey_model(replace(spec, reference_phase=xi)), chi, dphi


@pytest.mark.parametrize("kind,n,nd", [("1B", 10, 0), ("1B", 1000, 0), ("2B", 100, 50)])
def test_fixed_theta_fit_matches_bounded_brent(kind, n, nd):
    model, chi, dphi = _sweep_model(kind, n, nd)
    m_shots = 10_000
    p = model.evaluate(dphi)[0][1]
    sigma = np.sqrt(m_shots * p * (1.0 - p))
    # 300 distinct records spanning +-5 sigma of n1 around its expectation
    n1s = np.unique(np.round(m_shots * p + np.linspace(-5.0, 5.0, 300) * sigma).astype(int))
    assert n1s.size == 300
    window = np.pi / (4.0 * chi)
    worst = 0.0
    for n1 in n1s:
        rec = MeasurementRecord(m_shots, [m_shots - n1, n1], [m_shots, 0])
        est = ml_estimate(rec, model, (np.pi / 2, 0.0))
        assert est.converged
        worst = max(worst, chi * abs(est.dphi_hat - _bounded_brent_fit(rec, model, window)))
    assert worst <= 1e-6


def _brentq_fit(record, model, dphi0=0.0):
    """Oracle: the scalar fixed-theta fit, (dphi_hat, converged).

    It scans the window's 65-point grid record by record, brackets the score
    root with `_falling_bracket` beside the best grid point, keeps the half
    of a two-interval bracket where the score at that point changes sign,
    and solves it with brentq on the scalar score of
    `log_likelihood_and_grad`.  A grid point where an observed outcome's
    probability is clipped, and not across the whole grid, is a pole of the
    score: +inf just above it and -inf just below it.
    """
    chi = model.spec.enhancement
    window = np.pi / (4.0 * chi)
    grid = np.linspace(dphi0 - window, dphi0 + window, 65)
    p1, p2, d1, d2 = model.evaluate(grid)
    ll = score = 0.0
    pole = np.zeros(grid.size, dtype=bool)
    for counts, p, dp in ((record.counts1, p1, d1), (record.counts2, p2, d2)):
        pc = np.clip(p, 1e-12, 1.0)
        ll = ll + np.log(pc) @ counts
        score = score + (dp / pc) @ counts
        node = (pc == 1e-12) & ~np.all(pc == 1e-12, axis=0)
        pole |= np.any(node & (counts > 0), axis=1)
    up, down = np.where(pole, np.inf, score), np.where(pole, -np.inf, score)
    k = int(np.argmax(ll))
    bracket = estimation._falling_bracket(up, down, k)
    if bracket is None:
        return float(grid[k]), False
    a, b = bracket
    if b - a == 2:
        a, b = (a, k) if np.sign(up[a]) > np.sign(down[k]) else (k, b)
    known = {float(grid[a]): up[a], float(grid[b]): down[b]}

    def dphi_score(x):
        return known[x] if x in known else log_likelihood_and_grad(record, model, x)[1]

    root, res = optimize.brentq(
        dphi_score, grid[a], grid[b], xtol=1e-12 / chi, full_output=True, disp=False
    )
    return float(root), bool(res.converged)


def _oracle_batches():
    """(model, dphi0, m_shots, counts rows) of each oracle batch.

    The three bundled CRLB points take the 300 records of
    `test_fixed_theta_fit_matches_bounded_brent` and two records with all
    arm-1 shots in one outcome, one of which has no root in the window.  On
    the phase_ref N = 1 model at reference phase 0 the window [0, pi / 4]
    starts on a fringe node, where the score of every record is exactly
    zero, so records with all shots in outcome 0 take that bracket end;
    the others have an inner root or, with all shots in outcome 1, none.
    """
    batches = []
    for kind, n, nd in [("1B", 10, 0), ("1B", 1000, 0), ("2B", 100, 50)]:
        model, chi, dphi = _sweep_model(kind, n, nd)
        m = 10_000
        p = model.evaluate(dphi)[0][1]
        sigma = np.sqrt(m * p * (1.0 - p))
        n1s = np.unique(np.round(m * p + np.linspace(-5.0, 5.0, 300) * sigma).astype(int))
        n1s = np.concatenate([n1s, [0, m]])
        batches.append((model, 0.0, m, [[m - n1, n1, m, 0] for n1 in n1s]))
    model = ramsey_model(ProtocolSpec("phase_ref", 1, 0, 0.0))
    m = 1000
    n1s = [0, 500, 0, 1, 10, 100, 300, 480, 600, 900, 999, 1000, 0]
    batches.append((model, np.pi / 8.0, m, [[m - n1, n1, m, 0] for n1 in n1s]))
    return batches


@pytest.mark.parametrize("batch", range(4), ids=["1B-10", "1B-1000", "2B-100x50", "phase_ref-1"])
def test_batched_fits_match_the_scalar_oracle(batch):
    model, dphi0, m, rows = _oracle_batches()[batch]
    chi = model.spec.enhancement
    fits = estimation._fit_records(model, np.array(rows), m, dphi0)
    assert len(fits) == len(rows)
    worst = 0.0
    for row, fit in zip(rows, fits):
        dphi_hat, converged = _brentq_fit(MeasurementRecord(m, row[:2], row[2:]), model, dphi0)
        assert fit.converged == converged
        worst = max(worst, chi * abs(fit.dphi_hat - dphi_hat))
    assert worst <= 1e-9
    # the batch holds rows without a root, pinned to the window edge
    window = np.pi / (4.0 * chi)
    assert any(not f.converged and abs(f.dphi_hat - dphi0) >= 0.98 * window for f in fits)
    if batch == 3:
        # ... and rows whose root is the bracket end with a zero score
        ends = [f for f in fits if f.converged and f.n_evaluations == 0]
        assert len(ends) >= 3 and all(f.dphi_hat == 0.0 for f in ends)
        assert sum(f.converged and f.n_evaluations > 0 for f in fits) >= 7


@pytest.mark.parametrize("batch", range(4), ids=["1B-10", "1B-1000", "2B-100x50", "phase_ref-1"])
def test_each_batched_fit_is_its_one_row_fit_bit_for_bit(batch):
    model, dphi0, m, rows = _oracle_batches()[batch]
    fits = estimation._fit_records(model, np.array(rows), m, dphi0)
    for row, fit in zip(rows, fits):
        alone = estimation._fit_records(model, np.array([row]), m, dphi0)[0]
        assert np.array_equal(
            [alone.dphi_hat, alone.bound, alone.converged, alone.n_evaluations],
            [fit.dphi_hat, fit.bound, fit.converged, fit.n_evaluations],
        )
        record = MeasurementRecord(m, row[:2], row[2:])
        fresh = ml_estimate(record, ramsey_model(model.spec), (model.spec.theta, dphi0))
        assert fresh == alone


def test_an_empty_batch_fits_nothing():
    model, _, _ = _sweep_model("1B", 10, 0)
    assert estimation._fit_records(model, np.zeros((0, 4), dtype=int), 10_000) == []


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("n1,mirror", [(0, True), (10_000, False)])
def test_fixed_theta_fit_without_a_root_returns_the_window_edge(n, n1, mirror):
    # xi and xi + pi are equally informative and mirror the fringe; on the
    # bundled xi, n1 = M is likeliest beyond the window, on its mirror n1 = 0
    model, chi, _ = _sweep_model("1B", n, 0)
    if mirror:
        xi = np.mod(model.spec.reference_phase + np.pi, 2.0 * np.pi)
        model = ramsey_model(replace(model.spec, reference_phase=xi))
    rec = MeasurementRecord(10_000, [10_000 - n1, n1], [10_000, 0])
    est = ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert abs(est.dphi_hat) >= 0.98 * np.pi / (4.0 * chi)
    assert not est.converged


def _weak_pulse_model():
    """1A, N = 20, theta = 0.05 at the reference phase of its study at dphi = 0.05."""
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    xi = optimize_reference_phase(spec, 0.05)
    return ramsey_model(replace(spec, reference_phase=xi))


def test_fixed_theta_fit_brackets_beside_the_best_grid_point():
    # The dphi score is negative on both grid neighbours of the best grid
    # point and positive on it, so the maximum lies between it and its right
    # neighbour.  (Seed 1 of the weak-pulse study below draws this record.)
    model = _weak_pulse_model()
    rec = MeasurementRecord(10_000, [8741, 1259], [5197, 4803])
    window = np.pi / 4.0
    grid = np.linspace(-window, window, 65)
    ll = [log_likelihood_and_grad(rec, model, x)[0] for x in grid]
    k = int(np.argmax(ll))
    scores = [log_likelihood_and_grad(rec, model, grid[i])[1] for i in (k - 1, k, k + 1)]
    assert scores[0] < 0 < scores[1] and scores[2] < 0
    est = ml_estimate(rec, model, (0.05, 0.0))
    assert est.converged
    assert grid[k] < est.dphi_hat < grid[k + 1]
    assert log_likelihood_and_grad(rec, model, est.dphi_hat)[0] >= max(ll)


@pytest.mark.parametrize(
    "score,bracket",
    [
        ([3.0, 1.0, -2.0], (0, 2)),  # the neighbours bracket the root
        ([-1.0, 2.0, -3.0], (1, 2)),  # the root lies right of k
        ([1.0, -2.0, 3.0], (0, 1)),  # the root lies left of k
        ([1.0, 2.0, 3.0], None),  # rising throughout: the maximum is beyond the window
        ([-1.0, 2.0, 3.0], None),  # a minimum lies beside k, but no maximum
    ],
)
def test_falling_bracket_picks_the_maximum_side(score, bracket):
    assert estimation._falling_bracket(np.array(score), np.array(score), 1) == bracket


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["node below", "node above"])
def test_a_fit_beside_a_clipped_fringe_node_finds_the_maximum(side):
    # the window [0, pi / 4] starts on a node of P1(1), where the clipped
    # score is exactly zero although outcome 1 was seen: the log-likelihood
    # is -82.9 there and peaks at 0.00866, at -27.3; the window [-pi / 4, 0]
    # ends on that node
    model = ramsey_model(ProtocolSpec("phase_ref", 1, 0, 0.0))
    chi, dphi0 = model.spec.enhancement, side * np.pi / 8.0
    record = MeasurementRecord(10_000, [9997, 3], [10_000, 0])
    fit = ml_estimate(record, model, (np.pi / 2, dphi0))
    assert fit.converged and np.isfinite(fit.bound)
    dphi_hat, converged = _brentq_fit(record, model, dphi0)
    assert converged and chi * abs(fit.dphi_hat - dphi_hat) <= 1e-9
    # rounding of the log-likelihood, about 1e-12, blurs its maximum over a
    # few 1e-9 in dphi, so the maximiser is held to the gate of
    # test_fixed_theta_fit_matches_bounded_brent
    window = np.pi / (4.0 * chi)
    assert chi * abs(fit.dphi_hat - _bounded_brent_fit(record, model, window, dphi0)) <= 1e-6


def test_an_outcome_clipped_across_the_window_marks_no_node():
    # at theta = pi / 2 arm 2 reads outcome 1 with P < 1e-30 across the
    # window; a count there shifts the log-likelihood by a constant only
    model, _, _ = _sweep_model("1B", 10, 0)
    m = 10_000
    seen = ml_estimate(MeasurementRecord(m, [5000, 5000], [m - 1, 1]), model, (np.pi / 2, 0.0))
    assert seen == ml_estimate(MeasurementRecord(m, [5000, 5000], [m, 0]), model, (np.pi / 2, 0.0))


def test_weak_pulse_bound_is_the_fixed_theta_bound():
    # theta is known, so the study is graded against 1/I_dphidphi
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    _, bound, _ = estimator_study(spec, 0.05, 10_000, range(2))
    assert bound == 1.0 / fisher_matrix(_weak_pulse_model(), 0.05, 10_000)


def test_weak_pulse_study_reaches_the_fixed_theta_bound():
    # 2000 seeds gave variance / bound = 0.926.  At 500 seeds the estimate
    # spreads as 0.926 chi^2_499 / 499 (6.3 % relative standard deviation),
    # so it falls outside [0.7, 1.5] with probability 1.3e-5 (6e-4 if the
    # true ratio were two standard errors lower, at 0.87).
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    estimates, bound, _ = estimator_study(spec, 0.05, 10_000, range(500))
    assert 0.7 <= np.var(estimates, ddof=1) / bound <= 1.5


def test_fit_cache_lives_on_the_model_and_not_in_its_identity():
    spec = ProtocolSpec("1B", 100, 0, np.pi / 2, np.pi / 2)
    model = ramsey_model(spec)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    first = ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert model.cache
    fresh = ramsey_model(spec)
    assert not fresh.cache
    assert fresh == model and hash(fresh) == hash(model)
    again = ml_estimate(rec, fresh, (np.pi / 2, 0.0))
    assert again == first


def _reference_phase_by_models(spec, dphi, grid):
    """Oracle: the reference-phase search with one model and one Fisher
    information per probed xi; exact ties go to the smallest xi.  It refines
    with the library's nested grids, so the two searches probe the same xi."""

    def probe(xi):
        m = ramsey_model(replace(spec, reference_phase=float(np.mod(xi, 2.0 * np.pi))))
        try:
            i = fisher_matrix(m, dphi, 1)
        except SingularInformationError:
            return 0.0, 1.0
        return i, abs(m.evaluate(dphi)[0][1] - 0.5)

    xis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = [probe(xi) for xi in xis]
    best_i = max(v[0] for v in vals)
    near = [(imb, xi) for xi, (i, imb) in zip(xis, vals) if i >= best_i * (1.0 - 1e-9)]
    least = min(imb for imb, _ in near)
    best_xi = min(xi for imb, xi in near if imb <= least + 1e-12)
    step = 2.0 * np.pi / grid
    xi, refined = estimation._refine_argmax(np.vectorize(lambda x: probe(x)[0]), best_xi, step)
    if refined > best_i * (1.0 + 1e-9):
        best_xi = xi
    return float(np.mod(best_xi, 2.0 * np.pi))


_REFERENCE_SEARCH_POINTS = [
    ("1B", 10, 0, np.pi / 2, 0.02),
    ("2B", 100, 50, np.pi / 2, 4e-5),
    ("1A", 7, 0, 0.9, 0.013),
    ("2A", 6, 3, 0.9, 0.01),
    ("phase_ref", 9, 0, 1.0, 0.01),
    ("1B", 64, 0, 0.95 * np.pi / 2, 0.003),
]


@pytest.mark.parametrize("kind,n,nd,theta,dphi", _REFERENCE_SEARCH_POINTS)
def test_reference_phase_search_matches_one_model_per_probe(kind, n, nd, theta, dphi):
    spec = ProtocolSpec(kind, n, nd, 0.0, theta)
    expected = _reference_phase_by_models(spec, dphi, 64)
    assert optimize_reference_phase(spec, dphi) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "kind,n,nd,theta,dphi",
    [*_REFERENCE_SEARCH_POINTS, ("1A", 20, 0, 0.05, 0.01), ("2A", 6, 3, 0.9, 0.03)],
)
def test_reference_phase_search_reaches_the_bounded_brent_maximum(kind, n, nd, theta, dphi):
    # Near a flat peak two exact optimisers can land ~1e-6 apart in xi, so
    # compare the information they reach, not xi.
    spec = ProtocolSpec(kind, n, nd, 0.0, theta)

    def info(xi):
        try:
            m = ramsey_model(replace(spec, reference_phase=float(np.mod(xi, 2.0 * np.pi))))
            return fisher_matrix(m, dphi, 1)
        except SingularInformationError:
            return 0.0

    xi = optimize_reference_phase(spec, dphi)
    step = 2.0 * np.pi / 64
    res = optimize.minimize_scalar(
        lambda x: -info(x), bounds=(xi - step, xi + step), method="bounded",
        options={"xatol": 1e-12},
    )
    assert info(xi) >= -res.fun * (1.0 - 1e-10)


def test_sensitivity_scan_slope_and_csv(tmp_path):
    cfg = tmp_path / "scan.yaml"
    cfg.write_text(
        "schema_version: 1\nname: small_scan\nkind: table1_scaling\nseed: 3\n"
        "params: {m_shots: 2000, n_seeds: 40, scans: [{kind: 1B, n_values: [16, 32, 64]}]}\n"
    )
    result = run_scenario(cfg, tmp_path)
    assert result["summary"]["slopes"]["1B"] == pytest.approx(-1.0, abs=0.15)
    lines = (tmp_path / "scaling_1B.csv").read_text().splitlines()
    assert lines[0] == "N,N_d,M,sigma_dphi,crlb,ratio"
    assert len(lines) == 4
    assert "slope" in (tmp_path / "scaling_1B.slope.json").read_text()


def test_sensitivity_scan_needs_three_sizes(tmp_path):
    def scan(entry):
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(
            "schema_version: 1\nname: bad_scan\nkind: table1_scaling\nseed: 3\n"
            f"params: {{m_shots: 200, n_seeds: 3, scans: [{entry}]}}\n"
        )
        run_scenario(cfg, tmp_path / "out")

    with pytest.raises(ScenarioConfigError, match="three"):
        scan("{kind: 1B, n_values: [10, 20]}")
    with pytest.raises(ScenarioConfigError, match="n_delay_values"):
        scan("{kind: 2B, n_values: [10, 20, 40], n_delay_values: [4, 8]}")
    assert not list((tmp_path / "out").glob("scaling_*"))


def test_estimator_study_matches_per_seed_fits():
    # each seed is fit on a fresh model, so no memoised fit takes part in the
    # expectation; the seed range draws some records more than once
    spec = ProtocolSpec("1B", 50, 0, 0.0, np.pi / 2)
    seeds = range(5, 45)
    estimates, variance, diagnostics = estimator_study(spec, 0.004, 2000, seeds)
    spec = replace(spec, reference_phase=optimize_reference_phase(spec, 0.004))
    records = [sample_record(ramsey_model(spec), spec.theta, 0.004, 2000, s) for s in seeds]
    distinct = len({(tuple(r.counts1), tuple(r.counts2)) for r in records})
    assert distinct < len(records)
    fits = [ml_estimate(rec, ramsey_model(spec), (spec.theta, 0.0)) for rec in records]
    assert estimates.tolist() == [f.dphi_hat for f in fits]
    assert variance == 1.0 / fisher_matrix(ramsey_model(spec), 0.004, 2000)
    window = np.pi / (4.0 * spec.enhancement)
    # each distinct record's fit counts once
    evaluations = {(tuple(r.counts1), tuple(r.counts2)): f.n_evaluations for r, f in zip(records, fits)}
    assert diagnostics == {
        "fits": len(records),
        "distinct_records": distinct,
        "nonconverged": sum(not f.converged for f in fits),
        "pinned": sum(abs(f.dphi_hat) >= 0.98 * window for f in fits),
        "score_evaluations": sum(evaluations.values()),
    }
    assert diagnostics["score_evaluations"] > 0


def test_a_repeated_record_returns_the_stored_fit():
    spec = ProtocolSpec("1B", 100, 0, np.pi / 2, np.pi / 2)
    model = ramsey_model(spec)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    first = ml_estimate(rec, model, (np.pi / 2, 0.0))
    copy = MeasurementRecord(rec.m_shots, rec.counts1.copy(), rec.counts2.copy())
    again = ml_estimate(copy, model, (np.pi / 2, 0.0))
    fresh = ml_estimate(rec, ramsey_model(spec), (np.pi / 2, 0.0))
    assert first == fresh and fresh.n_evaluations > 0
    assert again == replace(fresh, n_evaluations=0)


def test_memoised_fits_do_not_collide():
    # records and calls that share all but one part of the memo key, each
    # fit on one shared model and compared with a fit on a fresh model
    spec = ProtocolSpec("2A", 6, 3, np.pi / 2, 0.9)
    shared = ramsey_model(spec)
    rec = MeasurementRecord(1000, [576, 424], [368, 632])  # the expected counts at dphi = 0.05
    calls = [
        (rec, 0.0),
        (rec, 0.02),  # init
        (MeasurementRecord(2000, [1152, 848], [736, 1264]), 0.0),  # m_shots
        (MeasurementRecord(1000, [576, 424], [390, 610]), 0.0),  # counts2
    ]
    fits = []
    for rec, init in calls:
        est = ml_estimate(rec, shared, (spec.theta, init))
        assert est == ml_estimate(rec, ramsey_model(spec), (spec.theta, init))
        fits.append(est)
    assert len({replace(f, n_evaluations=0) for f in fits}) == len(calls)


def test_a_record_that_raises_keeps_raising(monkeypatch):
    # the wrap and phase-information checks come before the memo lookup
    model = _model(n=1000)
    rec = sample_record(model, np.pi / 2, 0.0, 100, seed=0)
    ml_estimate(rec, model, (np.pi / 2, 0.0))
    for _ in range(2):
        with pytest.raises(WrapAmbiguityError):
            ml_estimate(rec, model, (np.pi / 2, 0.01))
    blind = _model(n=10, theta=0.0)
    rec = sample_record(blind, 0.0, 0.01, 1000, seed=1)
    for _ in range(2):
        with pytest.raises(DegenerateFitError):
            ml_estimate(rec, blind, (0.0, 0.0))
    # a fit that raises after the lookup, at its bound, stores nothing
    model = _model(n=100)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    information = estimation._information

    def singular(probs, m_shots, chi):
        # the fringe grid is taken per shot, so only the bound sees the record's M
        info, flags = information(probs, m_shots, chi)
        return info, flags | (m_shots == rec.m_shots)

    with monkeypatch.context() as m:
        m.setattr(estimation, "_information", singular)
        for _ in range(2):
            with pytest.raises(SingularInformationError):
                ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert ml_estimate(rec, model, (np.pi / 2, 0.0)).n_evaluations > 0


@pytest.mark.parametrize(
    "kind,n,nd,theta,dphi",
    [
        ("1B", 10, 0, np.pi / 2, 0.02),
        ("1B", 1000, 0, np.pi / 2, 2e-4),
        ("2B", 100, 50, np.pi / 2, 4e-5),
        ("1A", 20, 0, 0.05, 0.05),
        ("2A", 6, 3, 0.9, 0.01),
    ],
)
def test_three_point_post_fit_matches_the_scalar_oracle(kind, n, nd, theta, dphi):
    spec = ProtocolSpec(kind, n, nd, 0.0, theta)
    model = ramsey_model(replace(spec, reference_phase=optimize_reference_phase(spec, dphi)))
    for seed in range(40):
        rec = sample_record(model, theta, dphi, 10_000, seed)
        est = ml_estimate(rec, model, (theta, 0.0))
        # oracle: the scalar Fisher information at the estimate
        assert est.bound == 1.0 / fisher_matrix(model, est.dphi_hat, rec.m_shots)


def test_a_first_fit_evaluates_the_model_once_besides_its_score(monkeypatch):
    # one fringe-grid evaluation, which also checks the window's information,
    # and the score evaluations of the root; the bound comes from the last of
    # them, since the root is the last iterate
    calls = [0]
    evaluate = RamseyOutcomeModel.evaluate

    def counted(self, dphi):
        calls[0] += 1
        return evaluate(self, dphi)

    rec = sample_record(_model(n=100), np.pi / 2, 0.002, 10_000, seed=3)
    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", counted)
    est = ml_estimate(rec, _model(n=100), (np.pi / 2, 0.0))
    assert est.converged and est.n_evaluations > 0
    assert calls[0] == 1 + est.n_evaluations


def test_a_singular_window_raises_before_any_score_evaluation(monkeypatch):
    evaluate = RamseyOutcomeModel.evaluate

    def singular(self, dphi):
        p1, p2, d1, d2 = (np.array(a) for a in evaluate(self, dphi))
        p1[..., 0], p1[..., 1] = 0.0, 1.0  # a vanishing outcome ...
        d1[..., 0], d1[..., 1] = 1.0, -1.0  # ... with a finite slope
        return p1, p2, d1, d2

    def no_score(*args):
        raise AssertionError("score evaluated")

    rec = sample_record(_model(n=100), np.pi / 2, 0.002, 1000, seed=0)
    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", singular)
    monkeypatch.setattr(estimation, "_row_scores", no_score)
    model = _model(n=100)
    for _ in range(2):
        with pytest.raises(SingularInformationError):
            ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert not model.cache
    # the sentinel is live: on a regular window the fit does reach it
    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", evaluate)
    with pytest.raises(AssertionError, match="score evaluated"):
        ml_estimate(rec, model, (np.pi / 2, 0.0))


def test_study_evaluates_the_model_once_per_distinct_record(monkeypatch):
    # deterministic call counts: one sampling evaluate per study, and a fixed
    # number for its fits however many records are distinct: the fringe
    # grid, one per root iteration of the whole batch, the bounds of the
    # batch and the study's bound
    calls = {"all": 0, "sampling": 0}
    evaluate = RamseyOutcomeModel.evaluate
    draw = estimation.sample_record
    inside = [False]
    records = []

    def counted(self, dphi):
        calls["all"] += 1
        calls["sampling"] += inside[0]
        return evaluate(self, dphi)

    def sampled(*args):
        inside[0] = True
        try:
            rec = draw(*args)
        finally:
            inside[0] = False
        records.append((tuple(rec.counts1), tuple(rec.counts2)))
        return rec

    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", counted)
    monkeypatch.setattr(estimation, "sample_record", sampled)
    estimator_study(ProtocolSpec("1B", 10, 0, 0.0, np.pi / 2), 0.02, 10_000, range(200))
    assert len(records) == 200
    distinct = len(set(records))
    assert distinct < 200
    assert calls["sampling"] == 1
    assert calls["all"] <= 20 < distinct


def test_offset_resolution_arithmetic():
    assert offset_resolution(1e8, 500_000, 500_000) == pytest.approx(4e-4)
    assert offset_resolution(1e8, 500) == pytest.approx(2e5)
    assert offset_resolution(1e8, 500, 0) == offset_resolution(1e8, 500, 1)
    for args in [(1e8, 0, 5), (1e8, 500, -1), (0.0, 500, 5), (np.inf, 500, 5), (np.nan, 500, 5)]:
        with pytest.raises(ValueError, match="n >= 1"):
            offset_resolution(*args)


def test_iterative_refine_already_locked():
    trace = iterative_refine(0.0, RefineConfig(m_shots=2000, seed=2, prior_bound=0.01))
    assert trace.locked
    assert abs(trace.final_residual) <= 3.0 * trace.final_crlb_sigma
    # train length grows geometrically until the cap
    ns = [s.n for s in trace.stages]
    assert all(b > a for a, b in zip(ns, ns[1:]))


def test_iterative_refine_tightens_each_stage():
    trace = iterative_refine(0.008, RefineConfig(m_shots=5000, seed=7, prior_bound=0.01))
    sigmas = [s.crlb_sigma for s in trace.stages]
    assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
    assert trace.locked


@pytest.mark.parametrize(
    "field,value", [("m_shots", 0), ("growth", 1), ("growth", 4.0), ("max_stages", 0), ("max_stages", True)]
)
def test_refine_config_rejects_bad_counts(field, value):
    with pytest.raises(ValueError, match=field):
        RefineConfig(**{field: value})


def test_iterative_refine_rejects_out_of_prior_truth():
    with pytest.raises(WrapAmbiguityError):
        iterative_refine(0.05, RefineConfig(prior_bound=0.01))


# Scenario seed of the benchmark's lock workload at master seed 1.  Lock 14
# of that run (true dphi 0.01251954992842703) pins its first fit, at N = 62,
# backs off to N = 14 and then locks in six stages.
_LOCK_SEED = 1835504127
_BACKOFF_LOCK = 14


def _fiber_lock(i):
    """(true dphi, config) of lock ``i`` of a `refine_fiber` run at `_LOCK_SEED`."""
    prior = abs(fiber_comb_preset().phase_step)
    seed = _LOCK_SEED + i
    true = float(np.random.default_rng(seed).uniform(-prior, prior))
    config = RefineConfig(m_shots=5000, prior_bound=prior, seed=13 * seed + _LOCK_SEED)
    return true, config


def _record_fits(monkeypatch):
    """Record (model, dphi_hat, window) of every ml_estimate call."""
    fits = []

    def spy(record, model, init, **kwargs):
        est = ml_estimate(record, model, init, **kwargs)
        fits.append((model, est.dphi_hat, np.pi / (4.0 * model.spec.enhancement)))
        return est

    monkeypatch.setattr(estimation, "ml_estimate", spy)
    return fits


def test_iterative_refine_recovers_from_one_backoff(monkeypatch):
    fits = _record_fits(monkeypatch)
    true, config = _fiber_lock(_BACKOFF_LOCK)
    trace = iterative_refine(true, config)
    pinned_model, dphi_hat, window = fits[0]
    assert abs(dphi_hat) >= 0.98 * window
    pinned_n = pinned_model.spec.n_pulses
    backed_off = pinned_n // config.growth
    backed_off -= backed_off % 2
    assert [s.n for s in trace.stages] == [backed_off * config.growth**k for k in range(6)]
    assert (pinned_n, backed_off) == (62, 14)
    assert trace.backoffs == 1
    assert trace.locked
    assert len(fits) == len(trace.stages) + 1


def test_shared_models_leave_every_lock_unchanged(monkeypatch):
    """Sharing one model per train length across locks changes no trace."""
    locks = [_fiber_lock(i) for i in range(20)]
    alone = [iterative_refine(true, config) for true, config in locks]
    fits = _record_fits(monkeypatch)
    models = {}
    shared = [iterative_refine(true, config, models) for true, config in locks]
    assert shared == alone
    assert any(t.backoffs for t in shared)
    # one model per distinct spec fitted, each with one fringe grid
    assert {model.spec for model, _, _ in fits} == set(models)
    assert all(model is models[model.spec] for model, _, _ in fits)
    assert all(sum(key[0] == "grid" for key in m.cache) == 1 for m in models.values())
