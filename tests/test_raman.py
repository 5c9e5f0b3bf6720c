import warnings

import numpy as np
import pytest

from combphase import _su2, raman
from combphase._su2 import magnus_generators, refine_until_stable, step_count, unitarity_defect
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
    with pytest.raises(ValueError, match="must be positive"):
        _spec(0.2, rabi=0.0)  # no drive: b stays empty, and phi_s is undefined


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["rabi", "duration", "laser_freq", "excited_energy"])
def test_lambda_spec_rejects_non_finite_inputs(field, value):
    # a NaN duration used to build a spec that integrate_lambda then failed
    # on, converting NaN to a step count
    spec = dict(rabi=12.0, duration=1.0, laser_freq=0.8 * W_AT, excited_energy=W_AT)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LambdaSpec(**{**spec, field: value})


def test_lambda_envelope_is_a_cos2_of_peak_rabi():
    spec = _spec(0.2, rabi=3.0)
    tau = spec.duration
    assert spec.envelope(0.0) == 3.0
    assert np.all(spec.envelope([-0.51 * tau, 0.51 * tau, -3.0 * tau]) == 0.0)
    t = np.linspace(-tau / 2, tau / 2, 20001)
    assert np.trapezoid(spec.envelope(t), t) == pytest.approx(3.0 * tau / 2, rel=1e-8)


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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_phase_map_rejects_a_non_finite_grid(value):
    # a non-finite phase would fold to nan and share another phase's propagator
    with pytest.raises(ValueError, match="finite"):
        phase_map(_spec(0.2), np.array([0.0, 1.0, value]))


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


def test_time_reversal_transposes_the_propagator():
    # the cos^2 envelope is even and leg 1 has phase 0, so U(-phi) = U(phi)^T,
    # at any phase: negative ones, ones beyond 2 pi, and pi
    l = _spec(0.2)
    phases = np.concatenate((np.random.default_rng(5).uniform(-9.0, 4.0 * np.pi, 12), [np.pi, -np.pi]))
    steps = step_count(l.carrier_cycles)
    forward, backward = raman._propagate(l, phases, steps), raman._propagate(l, -phases, steps)
    assert np.max(np.abs(backward - forward.swapaxes(-1, -2))) <= 1e-13


def test_integrated_propagator_is_symmetric():
    u = integrate_lambda(_spec(0.2))[0].matrix
    assert np.max(np.abs(u - u.T)) <= 1e-13


def _unfolded_phase_map(l, grid):
    """Oracle: phase_map's refinement and extraction on the unfolded stack,
    which propagates every phase, and the step counts it took."""
    phi2, steps = np.concatenate(([0.0], grid)), []

    def propagate(s):
        steps.append(s)
        return raman._propagate(l, phi2, s)

    u = refine_until_stable(propagate, step_count(l.carrier_cycles), raman.PHASE_MAP_TOL)
    raw = np.angle(u[:, 1, 0] / u[:, 0, 0])
    phi_s = grid + np.unwrap(np.angle(np.exp(1.0j * (raw[1:] - raw[0] - grid))))
    return phi_s, np.gradient(phi_s, grid), steps


def _bundled_spec_and_grid():
    p = load_scenario_config(find_scenario("raman_three_level")).params
    return _spec(p["detuning_fraction_map"], rabi=p["rabi"]), np.linspace(0.0, 2.0 * np.pi, p["grid_points"])


def _traced_phase_map(monkeypatch, l, grid):
    """phase_map's result and the (steps, width) of each propagation it ran."""
    calls = []

    def generators(hamiltonians, duration, steps, width, work):
        calls.append((steps, width))
        return magnus_generators(hamiltonians, duration, steps, width, work)

    monkeypatch.setattr(raman, "magnus_generators", generators)
    return phase_map(l, grid), calls


@pytest.mark.parametrize(
    "grid",
    [None, np.linspace(0.0, 2.0 * np.pi, 8), np.array([3.0, -1.2, 7.5, np.pi, -9.0, 0.4, 4.0 * np.pi, -2.5])],
    ids=["bundled", "even", "unsorted"],
)
def test_folded_phase_map_matches_the_unfolded_stack(grid, monkeypatch):
    l, bundled = _bundled_spec_and_grid()
    grid = bundled if grid is None else grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the unsorted grid is not monotone
        phi_s, dphi_s, steps = _unfolded_phase_map(l, grid)
        pm, calls = _traced_phase_map(monkeypatch, l, grid)
    assert [s for s, _ in calls] == steps
    assert np.max(np.abs(pm.phi_s - phi_s)) <= 1e-13
    assert np.max(np.abs(pm.dphi_s - dphi_s)) <= 1e-12


def test_bundled_phase_map_propagates_thirteen_phases(monkeypatch):
    # 25 grid points on [0, 2 pi] and the reference point fold onto k pi / 12
    pm, calls = _traced_phase_map(monkeypatch, *_bundled_spec_and_grid())
    assert {width for _, width in calls} == {13}
    assert pm.monotone


def test_visibility_budget_number():
    assert visibility_budget(gamma=1.0 / 8e-9, t_e=100e-12, epsilon=0.1) == 184
    with pytest.raises(ValueError):
        visibility_budget(1.0, 1.0, 1.5)
