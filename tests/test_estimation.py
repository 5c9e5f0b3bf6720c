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
from combphase.protocols import ProtocolSpec, ramsey_model
from combphase.scenarios import run_scenario


def _model(kind="1B", n=100, nd=0, xi=np.pi / 2, theta=np.pi / 2):
    return ramsey_model(ProtocolSpec(kind, n, nd, xi, theta))


def test_fisher_oracle_quadrature_fringe():
    # N pi/2-pulses at quadrature: information 4 N^2 M in the phase step
    n, m_shots = 100, 1000
    f = fisher_matrix(_model(n=n), np.pi / 2, 0.001, m_shots)
    assert f == pytest.approx(4.0 * n**2 * m_shots, rel=1e-9)


@given(theta=st.floats(0.3, 2.8), dphi=st.floats(-0.02, 0.02))
@settings(max_examples=30, deadline=None)
def test_fisher_psd_everywhere(theta, dphi):
    # I_dphidphi is a sum of squares over probabilities: never negative
    assert fisher_matrix(_model(n=20, xi=1.0), theta, dphi, 100) >= 0.0


@given(theta=st.floats(0.3, 2.8), dphi=st.floats(-0.02, 0.02))
@settings(max_examples=30, deadline=None)
def test_score_has_zero_expectation(theta, dphi):
    # E[S] = sum_s dP/ddphi = 0 for each arm
    model = _model(n=20, xi=1.0)
    _, _, d1, d2 = model.evaluate(theta, dphi)
    for d in (d1, d2):
        assert abs(d.sum()) < 1e-10


def test_sample_record_deterministic_counts():
    model = _model()
    a = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    b = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    assert np.array_equal(a.counts1, b.counts1)
    assert np.array_equal(a.counts2, b.counts2)
    assert a.counts1.sum() == 500


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(10, np.array([4, 7]))  # does not sum to m_shots


def test_log_likelihood_gradient_matches_fd():
    model = _model(theta=0.95 * np.pi / 2)
    rec = sample_record(model, 0.95 * np.pi / 2, 0.002, 1000, seed=0)
    th, dp = 0.95 * np.pi / 2, 0.0015
    _, score = log_likelihood_and_grad(rec, model, th, dp)
    h = 1e-7
    lp, _ = log_likelihood_and_grad(rec, model, th, dp + h)
    lm, _ = log_likelihood_and_grad(rec, model, th, dp - h)
    assert (lp - lm) / (2 * h) == pytest.approx(score, rel=1e-4, abs=1e-3)


def test_ml_estimate_recovers_truth():
    model = _model(n=100)
    dphi_true = 0.002
    rec = sample_record(model, np.pi / 2, dphi_true, 10_000, seed=3)
    est = ml_estimate(rec, model, (np.pi / 2, 0.0))
    sigma = np.sqrt(est.bound)
    assert abs(est.dphi_hat - dphi_true) < 5.0 * sigma
    assert est.converged
    assert est.ratio == est.variance / est.bound
    assert est.ratio > 0.5  # observed vs expected information agree in order


def test_ml_estimate_rejects_the_removed_joint_fit():
    model = _model(n=100)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    fixed = ml_estimate(rec, model, (np.pi / 2, 0.0), fix_theta=True)
    assert fixed == ml_estimate(rec, model, (np.pi / 2, 0.0))
    with pytest.raises(ValueError, match="joint"):
        ml_estimate(rec, model, (np.pi / 2, 0.0), fix_theta=False)


def test_ml_estimate_wrap_guard():
    model = _model(n=1000)
    rec = sample_record(model, np.pi / 2, 0.0, 100, seed=0)
    with pytest.raises(WrapAmbiguityError):
        ml_estimate(rec, model, (np.pi / 2, 0.01))  # chi * init = 10 > pi


def test_ml_estimate_degenerate_without_second_arm():
    # at theta = pi/2 arm 1 alone carries no theta information, but theta is
    # held fixed, so the single-arm fit is well-posed
    model = _model(n=10)
    rec = sample_record(model, np.pi / 2, 0.01, 1000, seed=1, arms=("p1",))
    assert rec.counts2 is None
    est = ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert est.converged
    assert est.bound == 1.0 / fisher_matrix(model, np.pi / 2, est.dphi_hat, 1000, ("p1",))


def test_ml_estimate_degenerate_without_pulse_area():
    # theta = 0: the train does nothing, so no outcome depends on dphi
    model = _model(n=10, theta=0.0)
    rec = sample_record(model, 0.0, 0.01, 1000, seed=1)
    with pytest.raises(DegenerateFitError, match="no phase information"):
        ml_estimate(rec, model, (0.0, 0.0))


def test_optimize_reference_phase_reaches_max_information():
    spec = ProtocolSpec("1B", 50, 0, 0.0, np.pi / 2)
    xi = optimize_reference_phase(spec, np.pi / 2, 0.001)
    f = fisher_matrix(ramsey_model(replace(spec, reference_phase=xi)), np.pi / 2, 0.001, 1)
    assert f == pytest.approx(4.0 * 50**2, rel=1e-6)
    # and the chosen fringe is balanced, not pinned at a node
    p1 = ramsey_model(replace(spec, reference_phase=xi)).evaluate(np.pi / 2, 0.001)[0]
    assert 0.05 < p1[1] < 0.95


def _bounded_brent_fit(record, model, theta, window):
    """Oracle: the fixed-theta fit as a bounded Brent minimisation of the
    negative log-likelihood over the whole window."""
    res = optimize.minimize_scalar(
        lambda x: -log_likelihood_and_grad(record, model, theta, x)[0],
        bounds=(-window, window), method="bounded", options={"xatol": 1e-12},
    )
    return float(res.x)


def _sweep_model(kind, n, nd):
    """A bundled CRLB point: the model at its reference phase, chi and true dphi."""
    spec = ProtocolSpec(kind, n, nd, 0.0, np.pi / 2)
    chi = spec.enhancement
    dphi = 0.2 / chi
    xi = optimize_reference_phase(spec, spec.theta, dphi)
    return ramsey_model(replace(spec, reference_phase=xi)), chi, dphi


@pytest.mark.parametrize("kind,n,nd", [("1B", 10, 0), ("1B", 1000, 0), ("2B", 100, 50)])
def test_fixed_theta_fit_matches_bounded_brent(kind, n, nd):
    model, chi, dphi = _sweep_model(kind, n, nd)
    m_shots = 10_000
    p = model.evaluate(np.pi / 2, dphi)[0][1]
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
        worst = max(worst, chi * abs(est.dphi_hat - _bounded_brent_fit(rec, model, np.pi / 2, window)))
    assert worst <= 1e-6


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
    xi = optimize_reference_phase(spec, spec.theta, 0.05)
    return ramsey_model(replace(spec, reference_phase=xi))


def test_fixed_theta_fit_brackets_beside_the_best_grid_point():
    # The dphi score is negative on both grid neighbours of the best grid
    # point and positive on it, so the maximum lies between it and its right
    # neighbour.  (Seed 1 of the weak-pulse study below draws this record.)
    model = _weak_pulse_model()
    rec = MeasurementRecord(10_000, [8741, 1259], [5197, 4803])
    window = np.pi / 4.0
    grid = np.linspace(-window, window, 65)
    ll = [log_likelihood_and_grad(rec, model, 0.05, x)[0] for x in grid]
    k = int(np.argmax(ll))
    scores = [log_likelihood_and_grad(rec, model, 0.05, grid[i])[1] for i in (k - 1, k, k + 1)]
    assert scores[0] < 0 < scores[1] and scores[2] < 0
    est = ml_estimate(rec, model, (0.05, 0.0))
    assert est.converged
    assert grid[k] < est.dphi_hat < grid[k + 1]
    assert log_likelihood_and_grad(rec, model, 0.05, est.dphi_hat)[0] >= max(ll)


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
    assert estimation._falling_bracket(np.array(score), 1) == bracket


def test_weak_pulse_bound_is_the_fixed_theta_bound():
    # theta is known, so the study is graded against 1/I_dphidphi
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    _, bound = estimator_study(spec, 0.05, 10_000, range(2))
    assert bound == 1.0 / fisher_matrix(_weak_pulse_model(), 0.05, 0.05, 10_000)


def test_weak_pulse_study_reaches_the_fixed_theta_bound():
    # 2000 seeds gave variance / bound = 0.926.  At 500 seeds the estimate
    # spreads as 0.926 chi^2_499 / 499 (6.3 % relative standard deviation),
    # so it falls outside [0.7, 1.5] with probability 1.3e-5 (6e-4 if the
    # true ratio were two standard errors lower, at 0.87).
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    estimates, bound = estimator_study(spec, 0.05, 10_000, range(500))
    assert 0.7 <= np.var(estimates, ddof=1) / bound <= 1.5


@pytest.mark.parametrize("window", [0.0, -0.01, np.nan, np.inf])
def test_ml_estimate_rejects_a_bad_window(window):
    model = _model(n=100)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    with pytest.raises(ValueError, match="dphi_window"):
        ml_estimate(rec, model, (np.pi / 2, 0.0), dphi_window=window)


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
    # a narrower window on the same model gets its own grid: the fit pins at its edge
    narrow = ml_estimate(rec, model, (np.pi / 2, 0.0), dphi_window=0.001)
    assert narrow.dphi_hat == pytest.approx(0.001) and not narrow.converged


def _reference_phase_by_models(spec, theta, dphi, grid):
    """Oracle: the reference-phase search with one model and one Fisher
    information per probed xi; exact ties go to the smallest xi."""

    def probe(xi):
        m = ramsey_model(replace(spec, reference_phase=float(np.mod(xi, 2.0 * np.pi))))
        try:
            i = fisher_matrix(m, theta, dphi, 1)
        except SingularInformationError:
            return 0.0, 1.0
        return i, abs(m.evaluate(theta, dphi)[0][1] - 0.5)

    xis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    vals = [probe(xi) for xi in xis]
    best_i = max(v[0] for v in vals)
    near = [(imb, xi) for xi, (i, imb) in zip(xis, vals) if i >= best_i * (1.0 - 1e-9)]
    least = min(imb for imb, _ in near)
    best_xi = min(xi for imb, xi in near if imb <= least + 1e-12)
    step = 2.0 * np.pi / grid
    res = optimize.minimize_scalar(
        lambda x: -probe(x)[0], bounds=(best_xi - step, best_xi + step), method="bounded"
    )
    if -res.fun > best_i * (1.0 + 1e-9):
        best_xi = res.x
    return float(np.mod(best_xi, 2.0 * np.pi))


@pytest.mark.parametrize(
    "kind,n,nd,theta,dphi",
    [
        ("1B", 10, 0, np.pi / 2, 0.02),
        ("2B", 100, 50, np.pi / 2, 4e-5),
        ("1A", 7, 0, 0.9, 0.013),
        ("2A", 6, 3, 0.9, 0.01),
        ("phase_ref", 9, 0, 1.0, 0.01),
        ("1B", 64, 0, 0.95 * np.pi / 2, 0.003),
    ],
)
def test_reference_phase_search_matches_one_model_per_probe(kind, n, nd, theta, dphi):
    spec = ProtocolSpec(kind, n, nd, 0.0, theta)
    expected = _reference_phase_by_models(spec, theta, dphi, 64)
    assert optimize_reference_phase(spec, theta, dphi) == pytest.approx(expected, abs=1e-9)


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
    spec = ProtocolSpec("1B", 50, 0, 0.0, np.pi / 2)
    estimates, variance = estimator_study(spec, 0.004, 2000, range(5, 9))
    xi = optimize_reference_phase(spec, spec.theta, 0.004)
    model = ramsey_model(replace(spec, reference_phase=xi))
    expected = [
        ml_estimate(sample_record(model, spec.theta, 0.004, 2000, s), model,
                    (spec.theta, 0.0)).dphi_hat
        for s in range(5, 9)
    ]
    assert estimates.tolist() == expected
    assert variance == 1.0 / fisher_matrix(model, spec.theta, 0.004, 2000)


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
        fits.append((model, est.dphi_hat, kwargs["dphi_window"]))
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
