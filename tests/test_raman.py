import numpy as np
import pytest

from combphase import _su2, raman
from combphase._su2 import unitarity_defect
from combphase.errors import IntegrationError
from combphase.raman import (
    LambdaSpec,
    integrate_lambda,
    phase_map,
    visibility_budget,
)
from combphase.scenarios import find_scenario, load_scenario_config, run_scenario

W_AT = 2.0 * np.pi * 100.0


def _spec(detuning_fraction, rabi=12.0, **kw):
    return LambdaSpec(
        rabi=rabi,
        duration=1.0,
        laser_freq=W_AT * (1.0 - detuning_fraction),
        excited_energy=W_AT,
        **kw,
    )


def test_lambda_spec_validation():
    with pytest.raises(ValueError):
        _spec(0.0)  # resonant: not a Raman configuration
    with pytest.raises(ValueError):
        LambdaSpec(rabi=-1.0, duration=1.0, laser_freq=1.0, excited_energy=2.0)
    with pytest.raises(ValueError):
        _spec(0.1, envelope_kind="sinc")


def test_strongly_detuned_pulse_empties_excited_state():
    u, pop_c = integrate_lambda(_spec(0.2))
    assert pop_c < 1e-3
    assert unitarity_defect(u.matrix) < 1e-8


def test_full_model_phase_map_small_detuning():
    grid = np.linspace(0.0, 2.0 * np.pi, 13)
    pm = phase_map(_spec(0.02), grid)
    assert pm.monotone
    # deviation from the identity map is well under 1% of a full turn,
    # but genuinely nonzero for the carrier-resolved model
    assert pm.max_curve_deviation / (2.0 * np.pi) < 0.01
    assert pm.max_curve_deviation > 1e-4


def test_bundled_phase_map_is_converged():
    p = load_scenario_config(find_scenario("raman_three_level")).params
    l = _spec(p["detuning_fraction_map"], rabi=p["rabi"])
    assert (p["transition_hz"], p["duration"]) == (100.0, 1.0)  # as W_AT and _spec assume
    grid = np.linspace(0.0, 2.0 * np.pi, 5)
    phi_s = phase_map(l, grid).phi_s
    # reference: a fixed 400 steps per carrier cycle, phases taken modulo 2 pi
    u = raman._propagate(l, np.concatenate(([0.0], grid)), int(np.ceil(400 * l.carrier_cycles)))
    raw = np.angle(u[:, 1, 0] / u[:, 0, 0])
    assert np.max(np.abs(np.angle(np.exp(1.0j * (phi_s - raw[1:] + raw[0]))))) <= 1e-9


@pytest.mark.parametrize("detuning_fraction", [0.02, 0.2])
def test_phase_map_reads_steps_of_pi_forwards(detuning_fraction):
    # a grid step of pi sits on the branch cut of unwrapping the raw phase
    pm = phase_map(_spec(detuning_fraction), np.linspace(0.0, 2.0 * np.pi, 3))
    assert np.allclose(pm.phi_s, [0.0, np.pi, 2.0 * np.pi], rtol=0.0, atol=1e-6)
    assert pm.monotone
    assert pm.max_curve_deviation < 1e-6


def test_phase_map_raises_when_not_stabilizing(monkeypatch):
    short = LambdaSpec(rabi=4.0, duration=0.1, laser_freq=0.8 * W_AT, excited_energy=W_AT)
    monkeypatch.setattr(_su2, "MAX_DOUBLINGS", 0)  # give up before any doubling
    with pytest.raises(IntegrationError):
        phase_map(short, np.linspace(0.0, 1.0, 3))


def test_phase_map_deviation_grows_with_detuning():
    grid = np.linspace(0.0, 2.0 * np.pi, 9)
    small = phase_map(_spec(0.02), grid)
    large = phase_map(_spec(0.2), grid)
    assert large.max_curve_deviation > small.max_curve_deviation


def test_phase_map_csv_format(tmp_path):
    cfg = tmp_path / "raman.yaml"
    cfg.write_text(
        "schema_version: 1\nname: small_raman\nkind: raman_three_level\n"
        "params: {grid_points: 5, transition_hz: 20.0, rabi: 4.0}\n"
    )
    run_scenario(cfg, tmp_path)
    lines = (tmp_path / "raman_phase_map.csv").read_text().splitlines()
    assert lines[0] == "phi_l,phi_s,dphi_s_dphi_l"
    assert len(lines) == 6


def test_visibility_budget_number():
    assert visibility_budget(gamma=1.0 / 8e-9, t_e=100e-12, epsilon=0.1) == 184
    with pytest.raises(ValueError):
        visibility_budget(1.0, 1.0, 1.5)
