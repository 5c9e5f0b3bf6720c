import numpy as np
import pytest
from scipy.constants import hbar, physical_constants

from combphase import noise
from combphase.noise import (
    DephasingSpec,
    ThermalSpec,
    ac_stark_preset,
    be_doppler_preset,
    doppler_phase_error,
    doppler_velocity,
    expected_dephasing_error,
    spin_echo_residual,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        DephasingSpec(sigma_eps=-1.0)
    with pytest.raises(ValueError):
        ThermalSpec(linewidth=-1.0, mass=1e-26, wavelength=3e-7)


def test_constants_match_codata():
    assert noise.hbar == hbar
    assert noise._AMU == physical_constants["atomic mass constant"][0]


def test_closely_paired_pulses_suppress_dephasing():
    # 100 Hz-class shift over a 10 ps pair: phase error in the 1e-9 rad range
    err = expected_dephasing_error(ac_stark_preset(), 10e-12)
    assert 1e-10 < err < 1e-8
    # versus the full 10 ns repetition period: a thousand times worse
    assert expected_dephasing_error(ac_stark_preset(), 10e-9) / err == pytest.approx(1e3)


def test_doppler_velocity_and_phase_error():
    th = be_doppler_preset()
    v = doppler_velocity(th)
    assert v == pytest.approx(5.0, rel=0.2)
    err = doppler_phase_error(th, 10e-12)
    assert err == pytest.approx(1e-3, rel=0.5)


def test_copropagating_geometry_cancels_exactly():
    th = be_doppler_preset(copropagating=True)
    assert doppler_phase_error(th, 10e-12) == 0.0
    assert doppler_phase_error(th, 1.0) == 0.0


def test_doppler_rejects_negative_gap():
    with pytest.raises(ValueError):
        doppler_phase_error(be_doppler_preset(), -1.0)


def test_spin_echo_cancels_constant_field():
    assert spin_echo_residual([2.5] * 8, [1e-9] * 8) == 0.0


def test_spin_echo_residual_matches_signed_sum():
    rng = np.random.default_rng(0)
    eps = rng.normal(size=6)
    gaps = rng.uniform(1e-9, 2e-9, size=6)
    expected = sum((-1.0) ** k * eps[k] * gaps[k] for k in range(6))
    assert spin_echo_residual(eps, gaps) == pytest.approx(expected)
    with pytest.raises(ValueError):
        spin_echo_residual([1.0, 2.0], [1.0])
