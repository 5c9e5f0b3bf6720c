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
from combphase.scenarios import run_scenario


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
                u = ordered_product(SIGMA_X @ rwa_matrix(np.full(n, np.pi / 2), phases))
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
        for r in ratios:
            assert 1.0 <= r <= 1.5


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
        assert result["summary"]["all_locked"]
        assert result["summary"]["worst_residual_ratio"] <= 3.0
        assert max(int(r["stages"]) for r in rows) <= 6


def test_criterion_10_visibility_budget(capsys):
    with report(capsys, 10, "excited-state visibility budget"):
        assert abs(visibility_budget(1.0 / 8e-9, 100e-12, 0.1) - 184) <= 1
