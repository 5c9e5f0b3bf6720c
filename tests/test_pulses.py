import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from combphase import _su2, pulses, raman, scenarios
from combphase._su2 import rot_x, rot_z, step_count, unitarity_defect
from combphase.errors import IntegrationError, UndefinedPhaseError
from combphase.pulses import (
    PulseSpec,
    Unitary,
    effective_phase,
    integrate_pulse,
    matrix_fidelity,
    matrix_infidelity,
    rwa_matrix,
    rwa_unitary,
    unitary_fidelity,
)

W = 2.0 * np.pi  # carrier at 1 Hz in angular units


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(envelope_kind="triangle")
    with pytest.raises(ValueError):
        PulseSpec(theta=-0.1)
    with pytest.raises(ValueError):
        PulseSpec(tau=0.0)
    with pytest.raises(ValueError):
        PulseSpec(carrier_freq=-1.0)


@given(
    kind=st.sampled_from(["gaussian", "cos2", "rect"]),
    theta=st.floats(0.01, 3.0),
    tau=st.floats(0.5, 100.0),
)
@settings(max_examples=40, deadline=None)
def test_envelope_area_equals_theta(kind, theta, tau):
    p = PulseSpec(kind, theta, tau, W, W)
    t = np.linspace(-tau / 2, tau / 2, 20001)
    area = np.trapezoid(p.envelope(t), t)
    assert area == pytest.approx(theta, rel=1e-5)


@pytest.mark.parametrize("tau", [1e-14, 3e-13, 1.0, 7.3])
def test_gaussian_area_matches_scipy_erf(tau):
    std, half = tau * pulses._GAUSSIAN_STD_FRACTION, tau / 2.0
    assert pulses._gaussian_area(tau) == std * np.sqrt(2.0 * np.pi) * erf(half / (std * np.sqrt(2.0)))


def test_envelope_vanishes_outside_support():
    p = PulseSpec("gaussian", 1.0, 2.0, W, W)
    assert p.envelope(1.01) == 0.0
    assert p.envelope(-1.01) == 0.0


def test_rwa_closed_form_at_pi_half():
    # theta = pi/2, phi = 0: U = i sigma_x up to the stated convention
    u = rwa_unitary(PulseSpec("gaussian", np.pi / 2, 1.0, W, W, 0.0)).matrix
    expected = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    assert np.allclose(u, expected, atol=1e-12)


def test_rwa_phase_enters_as_conjugation():
    theta, phi = 0.7, 0.4
    u = rwa_matrix(theta, phi)
    expected = rot_z(phi) @ rot_x(theta) @ rot_z(-phi)
    assert np.allclose(u, expected)
    # off-diagonal carries exp(-2 i phi)
    u0 = rwa_matrix(theta, 0.0)
    assert u[0, 1] == pytest.approx(u0[0, 1] * np.exp(-2.0j * phi))


@given(theta=st.floats(0.05, 3.0), phi=st.floats(0.0, np.pi - 1e-3))
@settings(max_examples=40, deadline=None)
def test_effective_phase_recovers_phase_mod_pi(theta, phi):
    u = Unitary(rwa_matrix(theta, phi))
    assert effective_phase(u) == pytest.approx(phi % np.pi, abs=1e-9)


def test_effective_phase_undefined_for_diagonal_unitary():
    with pytest.raises(UndefinedPhaseError):
        effective_phase(Unitary(rot_z(0.3)))


def test_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        Unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


# frozen oracle: infidelity of the full model vs the rotating-wave closed
# form for a resonant theta = pi/4 gaussian pulse of the given cycle count
RWA_INFIDELITY_ORACLE = {
    5: 2.1812e-04,
    10: 5.3823e-05,
    30: 5.9579e-06,
}


@pytest.mark.parametrize("cycles,expected", sorted(RWA_INFIDELITY_ORACLE.items()))
def test_full_model_matches_rwa_oracle(cycles, expected):
    p = PulseSpec("gaussian", np.pi / 4, cycles, W, W, 0.3)
    u = integrate_pulse(p)
    infid = 1.0 - unitary_fidelity(u, rwa_unitary(p))
    assert infid == pytest.approx(expected, rel=1e-3)


def test_integrated_propagator_is_unitary_to_1e10():
    p = PulseSpec("cos2", np.pi / 2, 12.0, W, W, 1.1)
    u = integrate_pulse(p)
    assert unitarity_defect(u.matrix) < 1e-10


# a small Raman pulse: 16 carrier cycles, detuned by 20 % of the transition
LAMBDA = raman.LambdaSpec(rabi=4.0, duration=1.0, laser_freq=0.8 * 20 * W, excited_energy=20 * W)
PULSE_10 = PulseSpec("gaussian", np.pi / 4, 10.0, W, W)


@pytest.mark.parametrize(
    "integrate,spec",
    [(integrate_pulse, PULSE_10), (raman.integrate_lambda, LAMBDA)],
    ids=["integrate_pulse", "integrate_lambda"],
)
def test_integrate_pulse_raises_when_not_stabilizing(integrate, spec, monkeypatch):
    monkeypatch.setattr(_su2, "MAX_DOUBLINGS", 0)  # give up before any doubling
    with pytest.raises(IntegrationError):
        integrate(spec)


def test_richardson_estimate_bounds_the_error():
    # results at the fixed Richardson bound, 1e-8, against a fixed 400 steps per carrier cycle
    pulse = pulses._propagate_two_level(PULSE_10, PULSE_10.ceo_phase, 4000)[0]
    assert np.linalg.norm(integrate_pulse(PULSE_10).matrix - pulse) <= 1e-8
    lam = raman._propagate(LAMBDA, 0.0, int(np.ceil(400 * LAMBDA.carrier_cycles)))[0]
    assert np.linalg.norm(raman.integrate_lambda(LAMBDA)[0].matrix - lam) <= 1e-8


def test_overflowing_step_raises_without_a_warning():
    huge = replace(LAMBDA, rabi=1.0e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="propagator step failed"):
            raman.integrate_lambda(huge)


PULSE = PulseSpec("gaussian", np.pi / 3, 10.0, W, W)
#: the shared Magnus integrator at d = 2 over CEO phases and at d = 3 over phi_2
PROPAGATORS = {
    2: lambda grid: pulses._propagate_two_level(PULSE, grid, step_count(PULSE.carrier_cycles)),
    3: lambda grid: raman._propagate(LAMBDA, grid, step_count(LAMBDA.carrier_cycles)),
}


#: the shared Magnus integrator at a given step count, the pulse's cycles and
#: the same propagator at the integrator's fixed Richardson bound
STEPPERS = {
    2: (
        lambda steps: pulses._propagate_two_level(PULSE, PULSE.ceo_phase, steps)[0],
        PULSE.carrier_cycles,
        lambda: integrate_pulse(PULSE).matrix,
    ),
    3: (
        lambda steps: raman._propagate(LAMBDA, 0.0, steps)[0],
        LAMBDA.carrier_cycles,
        lambda: raman.integrate_lambda(LAMBDA)[0].matrix,
    ),
}


@pytest.mark.parametrize("d", sorted(STEPPERS))
def test_halving_the_step_divides_the_error_by_about_64(d):
    propagate, cycles, _ = STEPPERS[d]
    reference = propagate(int(np.ceil(400 * cycles)))
    steps = step_count(cycles)
    errors = [np.linalg.norm(propagate(s) - reference) for s in (steps, 2 * steps, 4 * steps)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 48.0 <= coarse / fine <= 80.0


@pytest.mark.parametrize("d", sorted(STEPPERS))
def test_richardson_estimate_tracks_the_sixth_order_error(d):
    propagate, cycles, at_fixed_bound = STEPPERS[d]
    reference = propagate(int(np.ceil(400 * cycles)))
    for steps in (step_count(cycles), 2 * step_count(cycles)):
        coarse, fine = propagate(steps), propagate(2 * steps)
        # the estimate runs a few percent below the error, so no one-sided bound
        estimate = np.linalg.norm(fine - coarse) / 63.0
        assert 0.5 <= estimate / np.linalg.norm(fine - reference) <= 2.0
        # refinement stops at the first doubling whose estimate is within tol
        assert np.array_equal(_su2.refine_until_stable(propagate, steps, 1.01 * estimate), fine)
        assert np.array_equal(_su2.refine_until_stable(propagate, steps, 0.99 * estimate), propagate(4 * steps))
    assert np.linalg.norm(at_fixed_bound() - reference) <= 1e-8


@pytest.mark.parametrize("d", sorted(PROPAGATORS))
def test_batched_propagation_matches_one_value_at_a_time(d):
    grid = np.array([0.0, 0.5, 1.2])
    batch = PROPAGATORS[d](grid)
    assert batch.shape == (grid.size, d, d)
    for phase, u in zip(grid, batch):
        assert np.allclose(u, PROPAGATORS[d](phase)[0], atol=1e-12)


def _bundled_phase_map():
    """phi_s and d phi_s / d phi_l of the bundled map, one stack of 26 phases."""
    params = scenarios.load_scenario_config(scenarios.find_scenario("raman_three_level")).params
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    result = raman.phase_map(spec, np.linspace(0.0, 2.0 * np.pi, params["grid_points"]))
    return np.stack([result.phi_s, result.dphi_s])


#: propagations at grid widths 2 and 26; at a budget of 7 matrices the first
#: takes blocks of 3 steps and the bundled map blocks of one step
BLOCKED = {
    "2": lambda: PROPAGATORS[2](np.array([0.0, 1.2])),
    "3": lambda: PROPAGATORS[3](np.array([0.0, 1.2])),
    "bundled phase map": _bundled_phase_map,
}


@pytest.mark.parametrize("name", sorted(BLOCKED))
def test_propagation_does_not_depend_on_block_size(name, monkeypatch):
    default = BLOCKED[name]()
    monkeypatch.setattr(_su2, "MAGNUS_BLOCK", 7)
    assert np.allclose(BLOCKED[name](), default, rtol=0.0, atol=1e-12)


def test_rwa_matrix_broadcasts_the_conjugated_rotation():
    thetas, phis = np.array([0.0, 0.3, np.pi / 2]), np.array([[0.1], [2.5]])
    u = rwa_matrix(thetas, phis)
    assert u.shape == (2, 3, 2, 2)
    for i, phi in enumerate(phis[:, 0]):
        for j, theta in enumerate(thetas):
            assert np.allclose(u[i, j], rot_z(phi) @ rot_x(theta) @ rot_z(-phi), rtol=0.0, atol=1e-15)



def _entrywise_rwa_matrix(theta, phi):
    """Oracle: the closed form written entry by entry."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    u = np.empty(theta.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = u[..., 1, 1] = np.cos(theta)
    u[..., 0, 1] = 1.0j * np.sin(theta) * np.exp(-2.0j * phi)
    u[..., 1, 0] = 1.0j * np.sin(theta) * np.exp(2.0j * phi)
    return u


def test_rwa_matrix_is_bitwise_the_entrywise_closed_form():
    theta, phi = np.random.default_rng(11).uniform(-10.0, 10.0, size=(2, 200_000))
    assert np.array_equal(rwa_matrix(theta, phi), _entrywise_rwa_matrix(theta, phi))
    assert np.array_equal(rwa_matrix(0.3, 2.5), _entrywise_rwa_matrix(0.3, 2.5))


def test_step_count_rule():
    # 8 steps per period of the fastest frequency, and never fewer than 50
    assert step_count(10.0) == 80
    assert step_count(10.01) == 81
    assert step_count(0.1) == 50


def test_integrated_effective_phase_tracks_ceo_phase():
    p = PulseSpec("gaussian", np.pi / 4, 30.0, W, W)
    phis = [0.2, 0.7, 1.3]
    for phi in phis:
        u = integrate_pulse(replace(p, ceo_phase=phi))
        assert effective_phase(u) == pytest.approx(phi, abs=2e-3)


def test_fidelity_bounds():
    a = Unitary(rot_z(0.3))
    b = Unitary(rot_z(0.3) * np.exp(0.7j))  # global phase only
    assert unitary_fidelity(a, b) == pytest.approx(1.0)
    assert 0.0 <= unitary_fidelity(a, Unitary(rot_x(1.0))) < 1.0
    with pytest.raises(ValueError):
        matrix_fidelity(np.eye(2), np.eye(3))


def test_infidelity_keeps_its_digits_below_double_spacing_at_one():
    a = rot_x(0.4) @ rot_z(1.1)
    b = a @ rot_z(1e-9)
    assert 1.0 - matrix_fidelity(a, b) == 0.0
    # 1 - cos(1e-9) = 5e-19
    assert matrix_infidelity(a, b) == pytest.approx(5e-19, rel=1e-6)
    assert matrix_infidelity(a, b * np.exp(0.7j)) == pytest.approx(5e-19, rel=1e-6)
    assert matrix_infidelity(a, rot_x(1.0)) == pytest.approx(1.0 - matrix_fidelity(a, rot_x(1.0)))
    with pytest.raises(ValueError):
        matrix_infidelity(np.eye(2), np.eye(3))
