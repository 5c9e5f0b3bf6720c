import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import chi2

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
    dp = model.evaluate(dphi)[1]
    for d in (dp[:2], dp[2:]):
        assert abs(d.sum()) < 1e-10


def test_sample_record_deterministic_counts():
    model = _model()
    a = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    b = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    assert np.array_equal(a.counts1, b.counts1)
    assert np.array_equal(a.counts2, b.counts2)
    assert a.counts1.sum() == 500


def _default_rng_record(p, m_shots, seed):
    """Arm 1's and arm 2's counts drawn from ``p`` by a fresh ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n1 = rng.binomial(m_shots, min(max(p[1], 0.0), 1.0))
    n2 = rng.binomial(m_shots, min(max(p[3], 0.0), 1.0))
    return [m_shots - n1, n1], [m_shots - n2, n2]


@pytest.mark.parametrize("n,m_shots", [(14, 5000), (62, 5000), (3584, 200), (1000, 1)])
def test_a_drawn_record_is_the_sampled_record_bit_for_bit(n, m_shots):
    # the lockstep takes a group's probabilities from one batched evaluate
    # and draws each record with the helper `sample_record` draws with;
    # both are the draws of a fresh default_rng per seed
    model = _model(n=n)
    residuals = np.linspace(-0.5, 0.5, 11) * np.pi / (4.0 * model.spec.enhancement)
    p = model.evaluate(residuals)[0]
    for i, (residual, seed) in enumerate(zip(residuals.tolist(), range(100, 111))):
        assert np.array_equal(p[i], _model(n=n).evaluate(residual)[0])
        drawn = estimation._draw_record(p[i], m_shots, seed)
        sampled = sample_record(_model(n=n), np.pi / 2, residual, m_shots, seed)
        assert np.array_equal(drawn.counts1, sampled.counts1)
        assert np.array_equal(drawn.counts2, sampled.counts2)
        assert (drawn.counts1.tolist(), drawn.counts2.tolist()) == _default_rng_record(p[i], m_shots, seed)


#: seeds at every 32-bit word boundary of SeedSequence's 4-word pool and past it
_EDGE_SEEDS = [
    0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**128 + 1, 2**200, np.int64(7),
]


def _oracle_seeds():
    """The edge seeds and 200 random ones of 0 to 256 bits, so of 1 to 8 words."""
    rng = np.random.default_rng(20141)
    widths = rng.integers(0, 257, size=200).tolist()
    return _EDGE_SEEDS + [int.from_bytes(rng.bytes(32), "little") >> (256 - bits) for bits in widths]


def test_batched_seeds_give_the_default_rng_states():
    seeds = _oracle_seeds()
    expected = [np.random.default_rng(seed).bit_generator.state for seed in seeds]
    words = [np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist() for seed in seeds]
    # one batch of seeds of every length, and each seed as a batch of one
    assert estimation._seed_words(seeds).tolist() == words
    assert [estimation._seed_words([seed])[0].tolist() for seed in seeds] == words
    assert [rng.bit_generator.state for rng in estimation._streams(seeds)] == expected
    assert [rng.bit_generator.state for rng in list(estimation._streams(seeds))] == expected
    assert estimation._seed_words([]).shape == (0, 4)


@pytest.mark.parametrize("seeds,error", [([3, -1], ValueError), ([1.5], TypeError), ([None], TypeError)])
def test_batched_seeds_must_be_non_negative_integers(seeds, error):
    with pytest.raises(error):
        estimation._seed_words(seeds)


#: (M, p) across numpy's binomial regimes: p = 0 draws nothing, M p <= 30
#: inverts the CDF (M = 1, p = 1e-9, and p = 1 through q = 1 - p = 0), and
#: M p > 30 runs BTPE, whose set-up differs with M
_BINOMIAL_CASES = [(m, p) for p in (0.3, 1e-9, 0.0, 1.0) for m in (5000, 1, 10_000)]


def test_streams_draw_what_a_fresh_default_rng_draws():
    # consecutive seeds alternate regimes and constants, and each case
    # comes back after the others, so a binomial set-up kept from the
    # previous seed's draws would show
    cases = _BINOMIAL_CASES * 2
    seeds = [2**64 + 5 + 7919 * k for k in range(len(cases))]

    for seed, (m, p), rng in zip(seeds, cases, estimation._streams(seeds)):
        fresh = np.random.default_rng(seed)
        drawn = [rng.binomial(m, p), rng.binomial(m, 1.0 - p), rng.binomial(m, p)]
        assert drawn == [fresh.binomial(m, p), fresh.binomial(m, 1.0 - p), fresh.binomial(m, p)]
        assert rng.uniform(-1.0, 1.0) == fresh.uniform(-1.0, 1.0)
    # a lock's truth is the first uniform of its seed's stream
    bound = abs(fiber_comb_preset().phase_step)
    truths = [rng.uniform(-bound, bound) for rng in estimation._streams(seeds)]
    assert truths == [np.random.default_rng(seed).uniform(-bound, bound) for seed in seeds]


@pytest.mark.parametrize("m_shots", [1, 5000, 10_000])
def test_drawn_counts_are_the_draws_of_a_fresh_default_rng(m_shots):
    # one batch, rows alternating across the regimes; probabilities a
    # rounding off [0, 1] are clipped, as before the draw
    probs = [p for _, p in _BINOMIAL_CASES] + [-1e-17, 1.0 + 1e-16]
    p = np.array([[1.0 - a, a, 1.0 - b, b] for a, b in zip(probs, probs[::-1])])
    seeds = list(range(300, 300 + len(p)))
    counts = estimation._draw_counts(p, m_shots, seeds)
    assert counts.shape == (len(p), 4)
    for row, q, seed in zip(counts.tolist(), p, seeds):
        arm1, arm2 = _default_rng_record(q, m_shots, seed)
        assert row == arm1 + arm2


def test_sampling_cache_keeps_the_latest_dphi_only():
    # a lone draw keeps nothing on the model, not even its evaluation; only
    # a study or the lockstep of a run's locks keeps the records it draws
    model = _model()
    first = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    other = sample_record(model, np.pi / 2, 0.002, 500, seed=9)
    again = sample_record(model, np.pi / 2, 0.001, 500, seed=9)
    assert not model.cache
    fresh = sample_record(_model(), np.pi / 2, 0.002, 500, seed=9)
    for a, b in ((first, again), (other, fresh)):
        assert np.array_equal(a.counts1, b.counts1) and np.array_equal(a.counts2, b.counts2)


def test_measurement_record_validation():
    with pytest.raises(ValueError, match="counts1"):
        MeasurementRecord(10, np.array([4, 7]), np.array([5, 5]))  # does not sum to m_shots
    with pytest.raises(ValueError, match="counts2"):
        MeasurementRecord(10, np.array([4, 6]), np.array([5, 5, 0]))  # three outcomes
    with pytest.raises(ValueError, match="counts1"):
        MeasurementRecord(10, [-1, 11], [5, 5])  # a negative count
    with pytest.raises(ValueError, match="counts1"):
        MeasurementRecord(9, [4.5, 5.5], [4, 5])  # fractional counts, which int() would truncate
    with pytest.raises(ValueError, match="counts2"):
        MeasurementRecord(10, [4, 6], [np.nan, 10])  # not a count, and no cast warning either
    whole = MeasurementRecord(10, [4.0, 6.0], [5, 5])  # whole counts given as floats
    assert whole.counts1.tolist() == [4, 6] and whole.counts1.dtype == whole.counts2.dtype == int


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


def _grid_scores(record, model, grid):
    """(up, down, ll) of ``record`` on ``grid`` from scalar numpy sums: the
    score as seen just above and just below each point, and the
    log-likelihood."""
    p, dp = model.evaluate(grid)
    ll = score = 0.0
    pole = np.zeros(grid.size, dtype=bool)
    for counts, arm in ((record.counts1, slice(0, 2)), (record.counts2, slice(2, 4))):
        pc = np.clip(p[:, arm], 1e-12, 1.0)
        ll = ll + np.log(pc) @ counts
        score = score + (dp[:, arm] / pc) @ counts
        node = (pc == 1e-12) & ~np.all(pc == 1e-12, axis=0)
        pole |= np.any(node & (counts > 0), axis=1)
    return np.where(pole, np.inf, score), np.where(pole, -np.inf, score), ll


def _scalar_bracket(up, down, k):
    """The scalar bracket rule: grid indices (a, b) beside the best grid
    point k where the score falls through zero, or None.

    ``up`` and ``down`` are the grid scores as seen just above and just
    below each point.  The two grid neighbours of k come first, then (k,
    k + 1), then (k - 1, k); a bracket of the two neighbours keeps the half
    where the score at k changes sign.
    """
    a, b = max(k - 1, 0), min(k + 1, len(up) - 1)
    for lo, hi in ((a, b), (k, b), (a, k)):
        if np.sign(up[lo]) > np.sign(down[hi]):
            if hi - lo == 2:
                return (lo, k) if np.sign(up[lo]) > np.sign(down[k]) else (k, hi)
            return lo, hi
    return None


def _brentq_fit(record, model, dphi0=0.0):
    """Oracle: the scalar fixed-theta fit, (dphi_hat, converged).

    It scans the window's 65-point grid record by record, brackets the score
    root with `_scalar_bracket` beside the best grid point, and solves it
    with brentq on the scalar score of `log_likelihood_and_grad`.  A grid
    point where an observed outcome's probability is clipped, and not across
    the whole grid, is a pole of the score: +inf just above it and -inf
    just below it.
    """
    chi = model.spec.enhancement
    window = np.pi / (4.0 * chi)
    grid = np.linspace(dphi0 - window, dphi0 + window, 65)
    up, down, ll = _grid_scores(record, model, grid)
    k = int(np.argmax(ll))
    bracket = _scalar_bracket(up, down, k)
    if bracket is None:
        return float(grid[k]), False
    a, b = bracket
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
    Off quadrature (2A 6x3 at theta = 0.9) arm 2 carries phase information
    too: 30 drawn records and the four with each arm's shots in one
    outcome, one of which has no root in the window.
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
    spec, dphi, m = ProtocolSpec("2A", 6, 3, 0.0, 0.9), 0.01, 10_000
    model = ramsey_model(replace(spec, reference_phase=optimize_reference_phase(spec, dphi)))
    rows = [estimation._row(sample_record(model, spec.theta, dphi, m, seed)) for seed in range(30)]
    rows += [[a, m - a, b, m - b] for a in (0, m) for b in (0, m)]
    batches.append((model, 0.0, m, rows))
    return batches


@pytest.mark.parametrize("batch", range(5), ids=["1B-10", "1B-1000", "2B-100x50", "phase_ref-1", "2A-6x3"])
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


@pytest.mark.parametrize("batch", range(5), ids=["1B-10", "1B-1000", "2B-100x50", "phase_ref-1", "2A-6x3"])
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
    """1A, N = 20, theta = 0.05 at the reference phase of its studies."""
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    return ramsey_model(replace(spec, reference_phase=optimize_reference_phase(spec, 0.0)))


def test_fixed_theta_fit_brackets_beside_the_best_grid_point():
    # The dphi score is negative on both grid neighbours of the best grid
    # point and positive on it, so the maximum lies between it and its right
    # neighbour.  Off quadrature, at xi = pi / 8, arm 1's fringe peaks inside
    # the window, and this record's two modes lie one grid step apart.
    # (Seed 8 draws it at dphi = pi / 400, a fifth of the window, and M = 1000.)
    model = ramsey_model(ProtocolSpec("1A", 20, 0, np.pi / 8, 0.05))
    rec = MeasurementRecord(1000, [997, 3], [302, 698])
    window = np.pi / (4.0 * model.spec.enhancement)
    grid = np.linspace(-window, window, 65)
    ll = [log_likelihood_and_grad(rec, model, x)[0] for x in grid]
    k = int(np.argmax(ll))
    scores = [log_likelihood_and_grad(rec, model, grid[i])[1] for i in (k - 1, k, k + 1)]
    assert scores[0] < 0 < scores[1] and scores[2] < 0
    est = ml_estimate(rec, model, (0.05, 0.0))
    assert est.converged
    assert grid[k] < est.dphi_hat < grid[k + 1]
    assert log_likelihood_and_grad(rec, model, est.dphi_hat)[0] >= max(ll)


def _selection(up, down, best):
    """`estimation._brackets` of the rows as a list of (lo, hi) or None."""
    lo, hi, found = estimation._brackets(up, down, best)
    return [(l, h) if f else None for l, h, f in zip(lo.tolist(), hi.tolist(), found.tolist())]


@pytest.mark.parametrize(
    "score,bracket",
    [
        ([3.0, 1.0, -2.0], (1, 2)),  # the neighbours bracket the root, which lies right of k
        ([-1.0, 2.0, -3.0], (1, 2)),  # the root lies right of k
        ([1.0, -2.0, 3.0], (0, 1)),  # the root lies left of k
        ([1.0, 2.0, 3.0], None),  # rising throughout: the maximum is beyond the window
        ([-1.0, 2.0, 3.0], None),  # a minimum lies beside k, but no maximum
    ],
)
def test_falling_bracket_picks_the_maximum_side(score, bracket):
    score = np.array([score])
    assert _selection(score, score, np.array([1])) == [bracket]


def _random_score_rows(rng, rows, points=65):
    """(up, down, best) of ``rows`` random grid score rows: scores of either
    sign or exactly zero, poles (+inf just above, -inf just below) at about
    one point in six, and the best point anywhere, on either grid end in
    one row of four."""
    score = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(rows, points))
    pole = rng.random((rows, points)) < 1.0 / 6.0
    best = rng.integers(0, points, rows)
    ends = rng.random(rows) < 0.25
    best[ends] = rng.choice([0, points - 1], np.count_nonzero(ends))
    return np.where(pole, np.inf, score), np.where(pole, -np.inf, score), best


def test_the_array_selection_is_the_scalar_rule():
    up, down, best = _random_score_rows(np.random.default_rng(42), 20_000)
    expected = [_scalar_bracket(u, d, k) for u, d, k in zip(up, down, best.tolist())]
    assert _selection(up, down, best) == expected
    # the rows hold every case the rule tells apart
    found = [(r, b) for r, b in enumerate(expected) if b is not None]
    assert len(found) < len(expected)
    assert any(up[r, lo] == 0.0 or down[r, hi] == 0.0 for r, (lo, hi) in found)
    assert any(up[r, lo] == np.inf for r, (lo, _) in found)
    assert any(down[r, hi] == -np.inf for r, (_, hi) in found)
    assert {0, 64} <= {int(best[r]) for r, _ in found}
    for model, dphi0, m, rows in _oracle_batches():
        window = np.pi / (4.0 * model.spec.enhancement)
        grid = np.linspace(dphi0 - window, dphi0 + window, 65)
        up, down, ll = zip(*(_grid_scores(MeasurementRecord(m, r[:2], r[2:]), model, grid) for r in rows))
        best = np.argmax(ll, axis=1)
        expected = [_scalar_bracket(u, d, k) for u, d, k in zip(up, down, best.tolist())]
        assert _selection(np.array(up), np.array(down), best) == expected


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
    _, bound, _ = estimator_study(spec, 0.02, 10_000, range(2))
    assert bound == 1.0 / fisher_matrix(_weak_pulse_model(), 0.02, 10_000)


def test_weak_pulse_study_reaches_the_fixed_theta_bound():
    # chi dphi = 0.4.  2000 seeds gave variance / bound = 0.951.  At 500
    # seeds the estimate spreads as 0.951 chi^2_499 / 499 (6.3 % relative
    # standard deviation), so it falls outside [0.7, 1.5] with probability
    # 2.2e-6 (1.3e-4 if the true ratio were two standard errors lower, at
    # 0.89).
    spec = ProtocolSpec("1A", 20, 0, 0.0, 0.05)
    estimates, bound, _ = estimator_study(spec, 0.02, 10_000, range(500))
    assert 0.7 <= np.var(estimates, ddof=1) / bound <= 1.5


#: (kind, N values, N_d values) of the enhancement rule's tests, odd 1A included
_RULE_SIZES = [
    ("1A", (1, 2, 7, 8, 20, 21, 101), (0,)),
    ("1B", (2, 10, 64, 1000), (0,)),
    ("2A", (2, 6, 20), (1, 3, 50)),
    ("2B", (2, 6, 100), (1, 3, 50)),
    ("phase_ref", (1, 6, 9, 50), (0,)),
]


@pytest.mark.parametrize("kind,ns,nds", _RULE_SIZES, ids=[r[0] for r in _RULE_SIZES])
def test_enhancement_is_the_phase_rate_at_quadrature(kind, ns, nds):
    # at theta = xi = pi / 2 arm 1 reads the fringe (1 + sin(2 chi dphi)) / 2,
    # whose per-shot information is 4 chi^2 at every dphi, so sqrt(I) / (2 chi)
    # is 1 as dphi -> 0, for the weak-pulse kinds as for their pairs
    for n in ns:
        for nd in nds:
            spec = ProtocolSpec(kind, n, nd, np.pi / 2, np.pi / 2)
            for dphi in (0.0, 1e-9, 1e-7):
                info = fisher_matrix(ramsey_model(spec), dphi, 1)
                assert abs(np.sqrt(info) / (2.0 * spec.enhancement) - 1.0) <= 1e-12, (n, nd, dphi)


@pytest.mark.parametrize(
    "kind,n,nd", [("1A", 7, 0), ("1A", 20, 0), ("1B", 10, 0), ("2A", 6, 3), ("2B", 100, 50), ("phase_ref", 9, 0)]
)
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.9, np.pi / 2])
def test_the_reference_phase_at_the_prior_centre_is_quadrature(kind, n, nd, theta):
    # at dphi = 0 the information is flat in xi, and the balanced fringe wins
    assert optimize_reference_phase(ProtocolSpec(kind, n, nd, 0.0, theta), 0.0) == np.pi / 2


#: Fixed-theta points where arm 2's mirror mode made the study's estimates
#: alias to -dphi while its reference phase was chosen at the truth
_ALIAS_ROWS = [
    ("1A", 20, 0, 0.05, 0.01),
    ("1A", 20, 0, 0.05, 0.002),
    ("2A", 6, 3, 0.9, 0.01),
    ("2A", 6, 3, 0.9, 0.03),
]


def test_alias_rows_reach_the_bound_about_the_truth():
    # An unbiased estimator at its bound has n MSE / bound ~ chi^2_n about the
    # truth.  The band is two-sided at a false-alarm rate of 1e-3 split over
    # the points: [0.785, 1.248] at 500 seeds.  Seeds 0-499 read 0.92, 0.96,
    # 0.97 and 0.97.
    n_seeds, level = 500, 1e-3 / len(_ALIAS_ROWS)
    lo, hi = chi2.ppf(level / 2.0, n_seeds) / n_seeds, chi2.isf(level / 2.0, n_seeds) / n_seeds
    ratios = {}
    for kind, n, nd, theta, dphi in _ALIAS_ROWS:
        spec = ProtocolSpec(kind, n, nd, 0.0, theta)
        estimates, bound, _ = estimator_study(spec, dphi, 10_000, range(n_seeds))
        ratios[kind, dphi] = float(np.mean((estimates - dphi) ** 2) / bound)
    assert all(lo <= r <= hi for r in ratios.values()), (lo, hi, ratios)


def test_a_studys_reference_phase_does_not_depend_on_the_truth(monkeypatch):
    # the experimenter sets xi before seeing data: every study of one spec
    # runs at the same xi, whatever its truth
    phases = []
    model = estimation.ramsey_model

    def spy(spec):
        phases.append(spec.reference_phase)
        return model(spec)

    monkeypatch.setattr(estimation, "ramsey_model", spy)
    for kind, n, nd, theta in [("1A", 20, 0, 0.05), ("2A", 6, 3, 0.9), ("1B", 10, 0, np.pi / 2)]:
        phases.clear()
        spec = ProtocolSpec(kind, n, nd, 0.0, theta)
        for chi_dphi in (-0.5, 0.0, 0.2, 0.5):
            estimator_study(spec, chi_dphi / spec.enhancement, 1000, range(3))
        assert phases == [np.pi / 2] * 4, (kind, phases)


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
        "params: {m_shots: 2000, scans: [{kind: 1B, n_values: [16, 32, 64]}]}\n"
    )
    result = run_scenario(cfg, tmp_path)
    slope = result["summary"]["slopes"]["1B"]
    assert slope == pytest.approx(-1.0, abs=1e-9)
    header, *rows = [line.split(",") for line in (tmp_path / "scaling_1B.csv").read_text().splitlines()]
    assert header == ["N", "N_d", "M", "chi", "crlb", "scaled_constant"]
    assert [r[:4] for r in rows] == [[str(n), "0", "2000", f"{n}.0"] for n in (16, 32, 64)]
    for *_, chi, crlb, constant in rows:
        assert float(crlb) == pytest.approx(1.0 / (2.0 * float(chi) * np.sqrt(2000)), rel=1e-12)
        assert float(constant) == pytest.approx(0.5, abs=1e-12)
    assert json.loads((tmp_path / "scaling_1B.slope.json").read_text()) == {"kind": "1B", "slope": slope}


@pytest.mark.parametrize(
    "scan,chis",
    [
        ({"kind": "1A", "n_values": [4, 8, 16]}, [4.0, 8.0, 16.0]),
        ({"kind": "2A", "n_values": [10, 20, 100], "n_delay_values": [3, 7, 50]}, [30.0, 140.0, 5000.0]),
    ],
    ids=["1A", "2A"],
)
def test_weak_pulse_kind_scans_share_their_pairs_chi(tmp_path, scan, chis):
    # a scan runs at theta = pi / 2, where a 1A or 2A train rotates as its
    # 1B or 2B pair: an even 1A scan has three distinct chi, and each
    # point's scaled constant sigma chi sqrt(M) is 1/2, not 1/(2 N)
    cfg = tmp_path / "scan.yaml"
    params = {"m_shots": 1000, "scans": [scan]}
    cfg.write_text(json.dumps({"schema_version": 1, "name": "weak_scan", "kind": "table1_scaling", "params": params}))
    run_scenario(cfg, tmp_path / "out")
    kind = scan["kind"]
    header, *rows = [line.split(",") for line in (tmp_path / "out" / f"scaling_{kind}.csv").read_text().splitlines()]
    assert [float(r[header.index("chi")]) for r in rows] == chis
    for row in rows:
        assert float(row[header.index("scaled_constant")]) == pytest.approx(0.5, abs=1e-12)


def test_sensitivity_scan_needs_three_sizes(tmp_path):
    def scan(entry):
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(
            "schema_version: 1\nname: bad_scan\nkind: table1_scaling\nseed: 3\n"
            f"params: {{m_shots: 200, scans: [{entry}]}}\n"
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
    spec = replace(spec, reference_phase=optimize_reference_phase(spec, 0.0))
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
    stored = dict(model.cache)
    copy = MeasurementRecord(rec.m_shots, rec.counts1.copy(), rec.counts2.copy())
    again = ml_estimate(copy, model, (np.pi / 2, 0.0))
    fresh = ml_estimate(rec, ramsey_model(spec), (np.pi / 2, 0.0))
    assert first == fresh and fresh.n_evaluations > 0
    assert again == fresh and again is first
    # the read writes nothing: the same keys hold the same objects
    assert list(model.cache) == list(stored)
    assert all(model.cache[key] is value for key, value in stored.items())


def test_memoised_fits_do_not_collide():
    # records and calls that share all but one part of the memo key, each
    # fit on one shared model and compared with a fit on a fresh model
    spec = ProtocolSpec("2A", 6, 3, np.pi / 2, 0.9)
    shared = ramsey_model(spec)
    rec = MeasurementRecord(1000, [526, 474], [397, 603])  # the expected counts at dphi = 0.02
    calls = [
        (rec, 0.0),
        (rec, 0.01),  # init
        (MeasurementRecord(2000, [1052, 948], [794, 1206]), 0.0),  # m_shots
        (MeasurementRecord(1000, [526, 474], [419, 581]), 0.0),  # counts2
    ]
    fits = []
    for rec, init in calls:
        est = ml_estimate(rec, shared, (spec.theta, init))
        assert est == ml_estimate(rec, ramsey_model(spec), (spec.theta, init))
        fits.append(est)
    assert len({replace(f, n_evaluations=0) for f in fits}) == len(calls)


def test_a_record_that_raises_keeps_raising(monkeypatch):
    # errors repeat because a fit that raises, whether at the wrap or
    # phase-information checks or at its bound, stores nothing
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
    # a fit that raises at its bound stores nothing either
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


def test_a_stored_fit_is_read_without_the_window_checks(monkeypatch):
    # the fit that stored the result passed them for the same key
    windows = []
    fit_window = estimation._fit_window

    def spy(model, dphi0, m_shots):
        windows.append(dphi0)
        return fit_window(model, dphi0, m_shots)

    monkeypatch.setattr(estimation, "_fit_window", spy)
    model = _model(n=100)
    rec = sample_record(model, np.pi / 2, 0.002, 1000, seed=0)
    first = ml_estimate(rec, model, (np.pi / 2, 0.0))
    assert windows == [0.0]
    assert ml_estimate(rec, model, (np.pi / 2, 0.0)) is first
    assert windows == [0.0]


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
        probs = evaluate(self, dphi)
        probs[0, ..., :2] = 0.0, 1.0  # a vanishing outcome of arm 1 ...
        probs[1, ..., :2] = 1.0, -1.0  # ... with a finite slope
        return probs

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
    # deterministic call counts: the study's `sample_record` calls read the
    # records its one evaluation at the truth drew, and its fits take a
    # fixed number however many records are distinct: the fringe grid, one
    # per root iteration of the whole batch and the bounds of the batch
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
    assert calls["sampling"] == 0
    assert calls["all"] <= 20 < distinct


def test_a_study_evaluates_the_model_once_at_its_truth(monkeypatch):
    # the records and the study's bound share one evaluation at the true
    # dphi, batched over the seeds
    at_truth = []
    evaluate = RamseyOutcomeModel.evaluate

    def counted(self, dphi):
        # a scalar call at the truth counts too, as shape ()
        at_truth.append(np.shape(dphi) if np.size(dphi) > 0 and np.all(dphi == 0.02) else None)
        return evaluate(self, dphi)

    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", counted)
    estimator_study(ProtocolSpec("1B", 10, 0, 0.0, np.pi / 2), 0.02, 10_000, range(20))
    # one call, at a one-point array: the 20 seeds share its row
    assert [shape for shape in at_truth if shape is not None] == [(1,)]


def test_a_study_without_seeds_returns_its_bound_alone():
    spec = ProtocolSpec("1B", 10, 0, 0.0, np.pi / 2)
    estimates, bound, diagnostics = estimator_study(spec, 0.02, 1000, [])
    assert estimates.shape == (0,)
    model = ramsey_model(replace(spec, reference_phase=optimize_reference_phase(spec, 0.0)))
    assert bound == 1.0 / fisher_matrix(model, 0.02, 1000) == 2.5e-06
    assert diagnostics == dict.fromkeys(
        ("fits", "distinct_records", "nonconverged", "pinned", "score_evaluations"), 0
    )


def _study_models(monkeypatch):
    """Record the outcome model of every `estimator_study`."""
    models = []
    build = estimation.ramsey_model

    def spy(spec):
        models.append(build(spec))
        return models[-1]

    monkeypatch.setattr(estimation, "ramsey_model", spy)
    return models


def test_a_studys_kept_records_are_fresh_draws(monkeypatch):
    models = _study_models(monkeypatch)
    spec = ProtocolSpec("1B", 50, 0, 0.0, np.pi / 2)
    estimator_study(spec, 0.004, 2000, range(5, 45))
    [model] = models
    kept = model.cache["records"]
    assert sorted(kept) == [(0.004, 2000, seed) for seed in range(5, 45)]
    for (dphi, m_shots, seed), record in kept.items():
        fresh = sample_record(ramsey_model(model.spec), spec.theta, dphi, m_shots, seed)
        assert record.m_shots == fresh.m_shots
        for a, b in ((record.counts1, fresh.counts1), (record.counts2, fresh.counts2)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _cache_kinds(models):
    """The kinds of entry in the caches of ``models``."""
    return {key if key == "records" else key[0] for model in models for key in model.cache}


def test_a_model_caches_fringe_grids_fits_and_records_only(monkeypatch):
    models = _study_models(monkeypatch)
    estimator_study(ProtocolSpec("1B", 10, 0, 0.0, np.pi / 2), 0.02, 1000, range(50))
    assert _cache_kinds(models) == {"grid", "fit", "records"}
    locks = [_fiber_lock(i) for i in range(20)]
    shared = {}
    estimation._prefit_locks(locks, shared)
    for true, config in locks:
        iterative_refine(true, config, shared)
    assert _cache_kinds(shared.values()) == {"grid", "fit", "records"}


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
    "field,value",
    [("m_shots", 0), ("growth", 1), ("growth", 4.0), ("max_stages", 0), ("max_stages", True)]
    # a NaN bound used to reach the first train length and fail converting NaN to an integer
    + [("prior_bound", v) for v in (float("nan"), float("inf"), 0.0, -0.01, "0.02", True)]
    # a bad seed used to raise an untyped error from inside the first stage
    + [("seed", v) for v in (None, 1.5, -1, True)],
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


def test_no_two_attempts_of_a_lock_share_a_seed(monkeypatch):
    # lock 14 backs off: its retry must draw a fresh record, not the stream
    # of the fit that pinned
    seeds = []
    sample = estimation.sample_record

    def spy(model, theta, dphi, m_shots, seed):
        seeds.append(seed)
        return sample(model, theta, dphi, m_shots, seed)

    monkeypatch.setattr(estimation, "sample_record", spy)
    for i in range(20):
        seeds.clear()
        true, config = _fiber_lock(i)
        trace = iterative_refine(true, config)
        assert len(seeds) == len(trace.stages) + trace.backoffs
        assert len(set(seeds)) == len(seeds), (i, seeds)
        assert trace.backoffs == (i == _BACKOFF_LOCK)


def test_shared_models_leave_every_lock_unchanged(monkeypatch):
    """Sharing one model per train length across locks changes no trace."""
    locks = [_fiber_lock(i) for i in range(20)]
    alone = [iterative_refine(true, config) for true, config in locks]
    fits = _record_fits(monkeypatch)
    models = {}
    shared = [iterative_refine(true, config, models) for true, config in locks]
    assert shared == alone
    assert any(t.backoffs for t in shared)
    # one model per distinct train length fitted, keyed by that length,
    # each with one fringe grid
    assert {model.spec.n_pulses for model, _, _ in fits} == set(models)
    assert all(model is models[model.spec.n_pulses] for model, _, _ in fits)
    assert all(sum(key[0] == "grid" for key in m.cache) == 1 for m in models.values())


def test_a_lock_run_builds_one_spec_per_train_length(monkeypatch):
    """Both passes of a lock run find each stage's model by its train length:
    a `ProtocolSpec` is built once per distinct N, not once per stage."""
    lengths = []
    spec = estimation.ProtocolSpec

    def spy(kind, n_pulses, *args):
        lengths.append(n_pulses)
        return spec(kind, n_pulses, *args)

    monkeypatch.setattr(estimation, "ProtocolSpec", spy)
    locks = [_fiber_lock(i) for i in range(20)]
    outcomes, models = _lockstep_locks(locks)
    assert sum(len(t.stages) + t.backoffs for t in outcomes) > len(models)
    assert sorted(lengths) == sorted(models) == sorted(set(lengths))
    assert all(m.spec.n_pulses == n for n, m in models.items())


def _lone_locks(locks):
    """Each lock run alone, with models of its own: a trace, or the error it raised."""
    outcomes = []
    for true, config in locks:
        try:
            outcomes.append(iterative_refine(true, config))
        except WrapAmbiguityError as e:
            outcomes.append((type(e), str(e)))
    return outcomes


def _lockstep_locks(locks, prefill=None):
    """The locks run as a run runs them: the lockstep fills the shared
    models' memos (over ``prefill``, the locks themselves by default), then
    each lock runs on its own."""
    models = {}
    estimation._prefit_locks(locks if prefill is None else prefill, models)
    outcomes = []
    for true, config in locks:
        try:
            outcomes.append(iterative_refine(true, config, models))
        except WrapAmbiguityError as e:
            outcomes.append((type(e), str(e)))
    return outcomes, models


def _fit_calls(monkeypatch):
    """Record the number of rows of every `_fit_records` call."""
    calls = []
    fit = estimation._fit_records

    def spy(model, counts, m_shots, dphi0=0.0):
        calls.append(len(counts))
        return fit(model, counts, m_shots, dphi0)

    monkeypatch.setattr(estimation, "_fit_records", spy)
    return calls


def test_lockstep_locks_equal_lone_locks(monkeypatch):
    locks = [_fiber_lock(i) for i in range(20)]
    alone = _lone_locks(locks)
    assert alone[_BACKOFF_LOCK].backoffs == 1
    calls = _fit_calls(monkeypatch)
    fits = _record_fits(monkeypatch)
    models = {}
    estimation._prefit_locks(locks, models)
    prefit = len(calls)
    lockstep = [iterative_refine(true, config, models) for true, config in locks]
    assert lockstep == alone
    # every lock read its fits from the memo, and each distinct record was fit once
    assert len(calls) == prefit
    diagnostics = estimation._diagnostics(models.values(), len(fits), 0, 0)
    assert sum(calls) == diagnostics["distinct_records"] <= len(fits)
    # one fit per train length at each step: split the fits lock by lock
    lengths, start = [], 0
    for trace in lockstep:
        end = start + len(trace.stages) + trace.backoffs
        lengths.append([model.spec.n_pulses for model, _, _ in fits[start:end]])
        start = end
    assert start == len(fits)
    steps = max(map(len, lengths))
    per_step = [{ns[k] for ns in lengths if k < len(ns)} for k in range(steps)]
    assert prefit <= sum(map(len, per_step)) <= steps * max(map(len, per_step)) < len(fits)


@pytest.mark.parametrize("chi", [2.0, 62.0, 14.0 * 4**5])
def test_a_fit_pins_within_0_98_of_its_window(chi):
    window = np.pi / (4.0 * chi)
    assert estimation.window_half_width(chi) == window
    edge = 0.98 * window
    estimates = np.array([-window, -edge, edge, np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0), 0.0])
    assert estimation._pinned(estimates, chi).tolist() == [True, True, True, False, False, False]
    assert estimation._pinned(edge, chi) and not estimation._pinned(0.5 * window, chi)


@pytest.mark.parametrize(
    "seed, n_locks, backoff_locks",
    [(_LOCK_SEED, 15, [_BACKOFF_LOCK]), (101, 100, [25, 46, 49])],
    ids=["back-off run", "bundled run"],
)
def test_refine_study_runs_each_lock_as_a_lone_lock(monkeypatch, seed, n_locks, backoff_locks):
    # the bundled run's locks share fits, which the back-off run's do not
    prior = abs(fiber_comb_preset().phase_step)
    config = RefineConfig(m_shots=5000, prior_bound=prior)
    truths, traces, diagnostics, timings = estimation.refine_study(config, prior, seed, n_locks)
    seeds = range(seed, seed + n_locks)
    assert truths == [np.random.default_rng(s).uniform(-prior, prior) for s in seeds]
    # each lone lock fits on models of its own; each distinct record's fit is kept once
    stored = {}
    fit = estimation.ml_estimate

    def spy(record, model, init, **kwargs):
        est = fit(record, model, init, **kwargs)
        stored[model.spec, tuple(record.counts1), tuple(record.counts2)] = est
        return est

    monkeypatch.setattr(estimation, "ml_estimate", spy)
    lone = [iterative_refine(true, replace(config, seed=13 * s + seed)) for true, s in zip(truths, seeds)]
    assert traces == lone
    assert [i for i, t in enumerate(traces) if t.backoffs] == backoff_locks
    # the manifest's keys and order; a pinned fit is a back-off
    assert list(diagnostics) == [
        "fits", "distinct_records", "nonconverged", "pinned", "backoffs", "score_evaluations"
    ]
    assert diagnostics["fits"] == sum(len(t.stages) + t.backoffs for t in lone)
    assert diagnostics["pinned"] == diagnostics["backoffs"] == len(backoff_locks)
    assert diagnostics["nonconverged"] == sum(t.nonconverged for t in lone)
    assert diagnostics["distinct_records"] == len(stored) <= diagnostics["fits"]
    assert diagnostics["score_evaluations"] == sum(est.n_evaluations for est in stored.values()) > 0
    assert list(timings) == ["prefit_s", "locks_s"]
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())


def _count_model_work(monkeypatch):
    """Count every `RamseyOutcomeModel.evaluate` call and every seed whose
    stream `_streams` starts: every record drawn, alone or in a batch."""
    counts = {"evaluate": 0, "draw": 0}
    evaluate, streams = RamseyOutcomeModel.evaluate, estimation._streams

    def counted_evaluate(self, dphi):
        counts["evaluate"] += 1
        return evaluate(self, dphi)

    def counted_streams(seeds):
        seeds = list(seeds)
        counts["draw"] += len(seeds)
        return streams(seeds)

    monkeypatch.setattr(RamseyOutcomeModel, "evaluate", counted_evaluate)
    monkeypatch.setattr(estimation, "_streams", counted_streams)
    return counts


def test_locks_after_the_lockstep_neither_evaluate_nor_draw(monkeypatch):
    locks = [_fiber_lock(i) for i in range(20)]
    alone = _lone_locks(locks)
    assert alone[_BACKOFF_LOCK].backoffs == 1
    models = {}
    counts = _count_model_work(monkeypatch)
    estimation._prefit_locks(locks, models)
    # the lockstep draws one record per fit of the locks, back-offs included
    assert counts["draw"] == sum(len(t.stages) + t.backoffs for t in alone)
    counts.update(evaluate=0, draw=0)
    assert [iterative_refine(true, config, models) for true, config in locks] == alone
    assert counts == {"evaluate": 0, "draw": 0}


def test_a_kept_draw_is_a_fresh_draw():
    locks = [_fiber_lock(i) for i in range(20)]
    alone = _lone_locks(locks)
    models = {}
    estimation._prefit_locks(locks, models)
    kept = [
        (model.spec, key, record)
        for model in models.values()
        for key, record in model.cache["records"].items()
    ]
    # one kept record per fit of the locks, back-offs included
    assert len(kept) == sum(len(t.stages) + t.backoffs for t in alone)
    for spec, (residual, m_shots, seed), record in kept:
        fresh = sample_record(ramsey_model(spec), spec.theta, residual, m_shots, seed)
        assert record.m_shots == fresh.m_shots
        for a, b in ((record.counts1, fresh.counts1), (record.counts2, fresh.counts2)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_a_lock_that_raises_in_lockstep_raises_alone(monkeypatch):
    # every fit at N = 14 pins to the window edge; every lock starts at
    # N = 62, and lock 14, which backs off from 62 to 14, pins twice
    fit = estimation._fit_records

    def pinned_at_14(model, counts, m_shots, dphi0=0.0):
        results = fit(model, counts, m_shots, dphi0)
        if model.spec.n_pulses != 14:
            return results
        window = np.pi / (4.0 * model.spec.enhancement)
        return [replace(r, dphi_hat=window) for r in results]

    monkeypatch.setattr(estimation, "_fit_records", pinned_at_14)
    locks = [_fiber_lock(i) for i in range(20)]
    alone = _lone_locks(locks)
    assert [i for i, outcome in enumerate(alone) if isinstance(outcome, tuple)] == [_BACKOFF_LOCK]
    assert alone[_BACKOFF_LOCK] == (WrapAmbiguityError, "estimate pinned to the fringe edge twice at N=14")
    # the lockstep raises the lone lock's error itself
    with pytest.raises(WrapAmbiguityError) as raised:
        estimation._prefit_locks(locks, {})
    assert (type(raised.value), str(raised.value)) == alone[_BACKOFF_LOCK]


def test_locks_do_not_depend_on_the_prefill(monkeypatch):
    locks = [_fiber_lock(i) for i in range(20)]
    alone = _lone_locks(locks)
    calls = _fit_calls(monkeypatch)
    # perturbed toward 0, so no truth leaves the prior: the memo holds fits
    # of records the locks mostly do not draw, and no kept draw has a lock's
    # residual, so they draw and fit most of their records on their own
    models = {}
    estimation._prefit_locks([(true - np.copysign(1e-4, true), config) for true, config in locks], models)
    prefit = len(calls)
    assert [iterative_refine(true, config, models) for true, config in locks] == alone
    assert 0 < prefit < len(calls) - prefit
    # emptied: the prefill's fits, its kept draws, or both are gone before
    # the locks run, and what is gone the locks compute on their own
    for fits, draws in ((True, False), (False, True), (True, True)):
        models = {}
        estimation._prefit_locks(locks, models)
        for model in models.values():
            assert model.cache["records"]
            for key in list(model.cache):
                if (fits and key[0] == "fit") or (draws and key == "records"):
                    del model.cache[key]
        assert [iterative_refine(true, config, models) for true, config in locks] == alone
    # and no prefill at all
    assert _lockstep_locks(locks, prefill=[])[0] == alone
