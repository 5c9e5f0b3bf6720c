"""End-to-end acceptance suite.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line to the terminal (bypassing capture), so a
plain ``pytest -v`` run shows the scoreboard.
"""
import contextlib
import csv
import json

import numpy as np
import pytest
import yaml
from scipy.stats import binom, chi2, norm

from combphase import estimation
from combphase._su2 import SIGMA_X, ordered_product
from combphase.comb import PulseTrain
from combphase.estimation import offset_resolution
from combphase.protocols import (
    closed_form_1a,
    closed_form_1b,
    closed_form_2b,
    compose_train,
    phase_reference_sequence,
)
from combphase.pulses import matrix_infidelity, rwa_matrix
from combphase.raman import visibility_budget
from combphase.scenarios import find_scenario, load_scenario_config, run_scenario


@contextlib.contextmanager
def report(capsys, number, title):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\nacceptance criterion {number:2d} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"\nacceptance criterion {number:2d} ({title}): PASS")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


#: The false-alarm rate of criteria 5 and 9: an estimator that saturates its
#: bound, or a run of ideal locks, fails the criterion with at most this
#: probability at any master seed.
FALSE_ALARM = 1e-3

#: An ideal lock's residual lies beyond 3 sigma with probability 0.0027.
P_BEYOND_3SIGMA = 2.0 * norm.sf(3.0)


def chi2_factors(dof, level):
    """(lo, hi): a sample variance ratio r on ``dof`` degrees of freedom has
    the two-sided chi-square interval [r lo, r hi] for its true ratio, at
    false-alarm rate ``level``."""
    return dof / chi2.isf(level / 2.0, dof), dof / chi2.ppf(level / 2.0, dof)


def crlb_failures(ratios, n_seeds):
    """Criterion 5's gate: the points whose variance ratio is incompatible
    with [1, 1.5].  Each point's interval, on n_seeds - 1 degrees of freedom
    at `FALSE_ALARM` split over the points, must meet [1, 1.5]; a point
    whose true ratio lies there misses it with at most its share."""
    lo, hi = chi2_factors(n_seeds - 1, FALSE_ALARM / len(ratios))
    return [i for i, r in enumerate(ratios) if r * hi < 1.0 or r * lo > 1.5]


def allowed_beyond_3sigma(n_locks):
    """The most locks of ``n_locks`` that criterion 9 lets lie beyond 3
    sigma: a count that ideal locks exceed with probability at most half
    of `FALSE_ALARM`."""
    return int(binom.isf(FALSE_ALARM / 2.0, n_locks, P_BEYOND_3SIGMA))


def lock_failures(ratios):
    """Criterion 9's gate on the locks' final |residual| / sigma: what fails
    of "at most `allowed_beyond_3sigma` beyond 3 sigma, none beyond 5"."""
    beyond = sum(r > 3.0 for r in ratios)
    failures = []
    if beyond > allowed_beyond_3sigma(len(ratios)):
        failures.append(f"{beyond} of {len(ratios)} locks beyond 3 sigma")
    if max(ratios) > 5.0:
        failures.append(f"worst lock at {max(ratios):.2f} sigma")
    return failures


def test_criterion_01_rwa_validity(tmp_path, capsys):
    with report(capsys, 1, "rotating-wave validity curve"):
        run_scenario("rwa_validity", tmp_path)
        rows = _read_csv(tmp_path / "rwa_validity.csv")
        cycles = [int(r["cycles"]) for r in rows]
        fid = {int(r["cycles"]): float(r["fidelity"]) for r in rows}
        infid = {int(r["cycles"]): float(r["infidelity"]) for r in rows}
        assert cycles == [5, 10, 20, 30, 60]
        ordered = [fid[c] for c in cycles]
        assert all(b > a for a, b in zip(ordered, ordered[1:]))  # non-decreasing
        assert infid[10] / infid[30] >= 5.0


def test_criterion_02_closed_form_equivalence(capsys):
    with report(capsys, 2, "closed-form train unitaries"):
        rng = np.random.default_rng(12345)
        worst = 0.0
        for case in range(200):
            kind = ["1B", "2B", "phase_ref"][case % 3]
            n = 2 * int(rng.integers(1, 5000))  # up to 10^4 pulses
            dphi = float(rng.uniform(-0.5, 0.5))
            if kind == "2B":
                nd = int(rng.integers(1, 64))
                phases = np.empty(n)
                phases[0::2] = np.arange(n // 2) * dphi
                phases[1::2] = (np.arange(n // 2) + nd) * dphi
                closed = closed_form_2b(dphi, n, nd).matrix
            else:
                phases = np.arange(n) * dphi
                if kind == "phase_ref":
                    closed = None  # composed below with explicit gates
                else:
                    closed = closed_form_1b(phases).matrix
            train = PulseTrain(np.arange(n) * 1e-8, phases, np.full(n, np.pi / 2))
            if kind == "phase_ref":
                closed = phase_reference_sequence(train).matrix
                u = ordered_product([SIGMA_X @ rwa_matrix(np.full(n, np.pi / 2), phases)])
            else:
                u = compose_train(train).matrix
            worst = max(worst, matrix_infidelity(u, closed))
        assert worst < 1e-9
        # weak-pulse series: first-order closed form agrees to O(theta^2)
        theta = 1e-3
        for n in (10, 50, 100):
            # the weak-pulse closed form counts pulses from m = 1
            phases = (np.arange(n) + 1) * 0.21
            u = compose_train(PulseTrain(np.arange(n) * 1e-8, phases, np.full(n, theta))).matrix
            v = closed_form_1a(theta, 0.21, n)
            assert np.max(np.abs(u - v)) < 5.0 * (n * theta) ** 2


def test_criterion_03_permutation_optimality(tmp_path, capsys):
    with report(capsys, 3, "split-halves rearrangement optimality"):
        result = run_scenario("permutation_optimality", tmp_path)
        rows = _read_csv(tmp_path / "permutation_optimality.csv")
        assert sorted({int(r["n"]) for r in rows}) == [4, 6, 8, 10]
        assert result["summary"]["max_difference"] < 1e-12


def test_criterion_04_scaling_slopes(tmp_path, capsys):
    with report(capsys, 4, "sensitivity scaling slopes"):
        # the Cramer-Rao bound at chi dphi = 0.2 is 1 / (2 chi sqrt(M)), so its
        # slope against N is that of 1 / chi: N^-1 for 1B, N^-2 for 2B with
        # N_d = N, and -log N(N + 1) against log N for phase_ref
        result = run_scenario("table1_scaling", tmp_path)
        slopes = result["summary"]["slopes"]
        assert sorted(slopes) == ["1B", "2B", "phase_ref"]
        rows = {kind: _read_csv(tmp_path / f"scaling_{kind}.csv") for kind in slopes}
        for kind, slope in slopes.items():
            sidecar = json.loads((tmp_path / f"scaling_{kind}.slope.json").read_text())
            assert sidecar == {"kind": kind, "slope": slope}
            for r in rows[kind]:
                assert float(r["scaled_constant"]) == pytest.approx(0.5, abs=1e-9)
        assert slopes["1B"] == pytest.approx(-1.0, abs=1e-9)
        assert all(r["N_d"] == r["N"] for r in rows["2B"])
        assert slopes["2B"] == pytest.approx(-2.0, abs=1e-9)
        n = np.array([float(r["N"]) for r in rows["phase_ref"]])
        assert slopes["phase_ref"] == pytest.approx(np.polyfit(np.log(n), -np.log(n * (n + 1)), 1)[0], abs=1e-9)


def test_criterion_05_crlb_saturation(tmp_path, capsys):
    with report(capsys, 5, "ML estimator saturates the CRLB"):
        result = run_scenario("crlb_saturation", tmp_path)
        ratios = result["summary"]["ratios"]
        assert len(ratios) == 10
        n_seeds = load_scenario_config(find_scenario("crlb_saturation")).params["n_seeds"]
        assert crlb_failures(ratios, n_seeds) == []


def test_criterion_06_offset_resolution_numbers(tmp_path, capsys):
    with report(capsys, 6, "offset-frequency resolution arithmetic"):
        # full-scale claim, by arithmetic: 0.4 mHz at N = N_d = 5e5, 100 MHz
        assert offset_resolution(1e8, 500_000, 500_000) == pytest.approx(4e-4, rel=1e-12)
        # 1 us-class delayed interrogation: a 200 kHz-wide offset refined by
        # a 250 x 250 train lands at the 3 Hz level
        assert round(offset_resolution(200e3, 250, 250)) == 3
        # each bundled row is that arithmetic, exactly
        result = run_scenario("resolution_extrapolation", tmp_path / "resolution")
        rows = _read_csv(tmp_path / "resolution" / "resolution.csv")
        assert rows and list(rows[0]) == ["rep_rate_hz", "n", "n_delay", "resolution_hz"]
        expected = [offset_resolution(float(r["rep_rate_hz"]), int(r["n"]), int(r["n_delay"])) for r in rows]
        assert [float(r["resolution_hz"]) for r in rows] == expected == result["summary"]["resolution_hz"]
        # the Cramer-Rao bound at reduced scale, N_d = N / 2, verifies the
        # 1/(N N_d) law the extrapolation relies on: sigma * N * N_d * sqrt(M)
        # is constant
        cfg = tmp_path / "reduced.yaml"
        cfg.write_text(yaml.safe_dump({
            "schema_version": 1, "name": "reduced", "kind": "table1_scaling",
            "params": {
                "m_shots": 2000,
                "scans": [{"kind": "2B", "n_values": [8, 16, 32], "n_delay_values": [4, 8, 16]}],
            },
        }))
        run_scenario(cfg, tmp_path / "reduced")
        consts = [float(r["scaled_constant"]) for r in _read_csv(tmp_path / "reduced" / "scaling_2B.csv")]
        assert len(consts) == 3
        for c in consts:
            assert c == pytest.approx(0.5, abs=1e-9)
        assert np.ptp(consts) / np.mean(consts) < 1e-9


def test_criterion_07_three_level_raman(tmp_path, capsys):
    with report(capsys, 7, "three-level Raman fidelity"):
        result = run_scenario("raman_three_level", tmp_path)
        s = result["summary"]
        assert s["excited_population"] < 1e-3
        assert s["monotone"]
        assert s["max_curve_deviation"] / (2.0 * np.pi) < 0.01


def test_criterion_08_error_models(tmp_path, capsys):
    with report(capsys, 8, "dephasing and Doppler error budgets"):
        result = run_scenario("error_models", tmp_path)
        s = result["summary"]
        assert 1e-10 <= s["dephasing_phase_error_rad"] <= 1e-8
        assert s["doppler_velocity_m_per_s"] == pytest.approx(5.0, rel=0.2)
        assert s["doppler_phase_error_rad"] == pytest.approx(1e-3, rel=0.5)
        assert s["doppler_copropagating_rad"] == 0.0


def test_criterion_09_iterative_refinement(tmp_path, capsys):
    with report(capsys, 9, "iterative offset lock"):
        result = run_scenario("refine_fiber", tmp_path)
        rows = _read_csv(tmp_path / "refine_fiber.csv")
        assert len(rows) == 100
        ratios = [float(r["residual_over_crlb"]) for r in rows]
        assert max(ratios) == result["summary"]["worst_residual_ratio"]
        assert lock_failures(ratios) == []
        assert max(int(r["stages"]) for r in rows) <= 6


def test_criterion_10_visibility_budget(capsys):
    with report(capsys, 10, "excited-state visibility budget"):
        assert abs(visibility_budget(1.0 / 8e-9, 100e-12, 0.1) - 184) <= 1


# --- criteria 5 and 9: false-alarm rate, power, seed sweep, doctored runs ---


def test_criterion_05_gate_states_its_false_alarm_rate_and_power():
    dof, level = 499, FALSE_ALARM / 10  # the bundled 500 seeds and 10 points
    lo, hi = chi2_factors(dof, level)
    assert (round(lo, 3), round(hi, 3)) == (0.790, 1.295)

    def p_fail(rho):
        """P(a point whose true ratio is rho fails), from r = rho chi2 / dof."""
        return chi2.cdf(dof / (hi * rho), dof) + chi2.sf(1.5 * dof / (lo * rho), dof)

    # false alarm: a true ratio anywhere in [1, 1.5] fails a point with
    # probability at most level, so a run fails with at most FALSE_ALARM
    for rho in np.linspace(1.0, 1.5, 11):
        assert p_fail(rho) <= level * (1.0 + 1e-9)
    # power: a point whose variance is 2.22 times its bound fails with
    # probability at least 0.99, and one at 2.21 times with less
    assert p_fail(2.22) >= 0.99 > p_fail(2.21)


def test_criterion_09_gate_states_its_false_alarm_rate_and_power():
    n = 100  # the bundled locks
    allowed = allowed_beyond_3sigma(n)
    assert allowed == 3
    # false alarm: ideal locks put 4 or more of 100 beyond 3 sigma with
    # probability 1.7e-4, and one beyond 5 sigma with probability 5.7e-5
    count_alarm = binom.sf(allowed, n, P_BEYOND_3SIGMA)
    worst_alarm = 1.0 - (1.0 - 2.0 * norm.sf(5.0)) ** n
    assert count_alarm == pytest.approx(1.7e-4, rel=0.01)
    assert worst_alarm == pytest.approx(5.7e-5, rel=0.01)
    assert count_alarm + worst_alarm <= FALSE_ALARM
    # power: a run whose locks land beyond 3 sigma with probability 0.097,
    # 36 times an ideal lock's, fails with probability at least 0.99
    assert binom.sf(allowed, n, 0.097) >= 0.99 > binom.sf(allowed, n, 0.096)


#: Master seeds of the gates' seed sweep: the bundled seeds 29 and 101, the
#: seeds at which the old gates failed, and seeds a million apart.  Nearby
#: seeds share most of their records (seeds 1 and 3 share 498 of each
#: point's 500), so only seeds far apart sample the gates' false-alarm rate.
SWEEP_SEEDS = (1, 3, 29, 101, 12345, 100_000, 200_000, 300_000, *range(10**6, 16 * 10**6, 10**6))


def test_criterion_05_passes_at_every_swept_seed(tmp_path):
    n_seeds = load_scenario_config(find_scenario("crlb_saturation")).params["n_seeds"]
    failed = {}
    for seed in SWEEP_SEEDS:
        ratios = run_scenario("crlb_saturation", tmp_path / str(seed), seed=seed)["summary"]["ratios"]
        if points := crlb_failures(ratios, n_seeds):
            failed[seed] = {i: ratios[i] for i in points}
    assert failed == {}


def test_criterion_09_passes_at_every_swept_seed(tmp_path):
    failed = {}
    for seed in SWEEP_SEEDS:
        run_scenario("refine_fiber", tmp_path / str(seed), seed=seed)
        rows = _read_csv(tmp_path / str(seed) / "refine_fiber.csv")
        if failures := lock_failures([float(r["residual_over_crlb"]) for r in rows]):
            failed[seed] = failures
    assert failed == {}


def test_criterion_05_fails_estimates_spread_to_twice_the_bound(tmp_path, monkeypatch):
    study = estimation.estimator_study

    def spread(spec, dphi, m_shots, seeds):
        estimates, bound, diagnostics = study(spec, dphi, m_shots, seeds)
        scale = np.sqrt(2.0 * bound / np.var(estimates, ddof=1))
        return estimates.mean() + scale * (estimates - estimates.mean()), bound, diagnostics

    monkeypatch.setattr(estimation, "estimator_study", spread)
    ratios = run_scenario("crlb_saturation", tmp_path)["summary"]["ratios"]
    assert ratios == pytest.approx([2.0] * 10)
    n_seeds = load_scenario_config(find_scenario("crlb_saturation")).params["n_seeds"]
    assert crlb_failures(ratios, n_seeds) == list(range(10))


def test_criterion_09_fails_five_locks_beyond_3_sigma(tmp_path):
    run_scenario("refine_fiber", tmp_path)
    ratios = [float(r["residual_over_crlb"]) for r in _read_csv(tmp_path / "refine_fiber.csv")]
    assert lock_failures(ratios) == []
    # the locks within 3 sigma, last first, pushed out until five lie beyond
    inside = [i for i, r in enumerate(ratios) if r <= 3.0][::-1]
    doctored = list(ratios)
    for i in inside[: 5 - (len(ratios) - len(inside))]:
        doctored[i] = 3.5
    assert sum(r > 3.0 for r in doctored) == 5
    assert lock_failures(doctored) == ["5 of 100 locks beyond 3 sigma"]
    # and one lock beyond 5 sigma fails on its own
    assert lock_failures([*ratios[:-1], 5.01]) == ["worst lock at 5.01 sigma"]
