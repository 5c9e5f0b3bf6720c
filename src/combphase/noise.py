"""Error models: slow sigma_z dephasing fields and thermal-motion phase errors.

A stray field epsilon(t) sigma_z (ac Stark, Zeeman, residual detuning) varies
much slower than a single pulse, so it is held constant over each pulse and
only shifts the inter-pulse phase bookkeeping by the integral of epsilon over
the gap.  Keeping paired pulses a few ps apart makes this error negligible.

Thermal motion lets the atom sample the spatial phase of the beam between
pulses; a copropagating Raman geometry cancels the effect exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: reduced Planck constant [J s] and atomic mass constant [kg], CODATA 2022
hbar = 1.0545718176461565e-34
_AMU = 1.66053906892e-27

#: atomic masses [kg] for the species discussed in the trapped-ion estimates
ATOMIC_MASS = {
    "Be9": 9.0121831 * _AMU,
    "Ca40": 39.962590866 * _AMU,
    "Yb171": 170.9363302 * _AMU,
}


@dataclass(frozen=True)
class DephasingSpec:
    """Stationary, slowly varying sigma_z field.

    ``sigma_eps`` is the stationary standard deviation in rad/s.  Quoted
    "100 Hz-class" shifts are ordinary frequencies; multiply by 2 pi (see
    `ac_stark_preset`).
    """

    sigma_eps: float  # rad/s

    def __post_init__(self):
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be >= 0")


def ac_stark_preset() -> DephasingSpec:
    """Pessimistic 100 Hz-class ac Stark shift, slow on any pulse timescale."""
    return DephasingSpec(sigma_eps=2.0 * np.pi * 100.0)


@dataclass(frozen=True)
class ThermalSpec:
    """Doppler-cooled atom: k_B T ~ hbar Gamma, all of it read as kinetic energy."""

    linewidth: float  # Gamma [rad/s], angular
    mass: float  # kg
    wavelength: float  # m
    copropagating_raman: bool = False

    def __post_init__(self):
        if self.linewidth <= 0 or self.mass <= 0 or self.wavelength <= 0:
            raise ValueError("linewidth, mass and wavelength must be positive")


def expected_dephasing_error(d: DephasingSpec, gap: float) -> float:
    """Order-of-magnitude phase error for one inter-pulse gap: sigma_eps * gap."""
    return d.sigma_eps * gap


def doppler_velocity(th: ThermalSpec) -> float:
    """v = sqrt(2 hbar Gamma / m), the pessimistic all-kinetic estimate."""
    return float(np.sqrt(2.0 * hbar * th.linewidth / th.mass))


def doppler_phase_error(th: ThermalSpec, gap: float) -> float:
    """Phase error (2 pi / lambda) v gap; exactly zero when copropagating.

    In a copropagating Raman pair the +k x phase of one leg is cancelled by
    the -k x phase of the other, independent of the atom's position.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    if th.copropagating_raman:
        return 0.0
    return float(2.0 * np.pi / th.wavelength * doppler_velocity(th) * gap)


def spin_echo_residual(eps_values, gaps) -> float:
    """Accumulated phase error of a sign-alternating (echo) pulse arrangement.

    eps_values[k] is the field during interval k of length gaps[k]; the echo
    flips the sign of successive contributions, so a constant field cancels
    exactly.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if eps_values.shape != gaps.shape:
        raise ValueError("eps_values and gaps must have equal length")
    signs = (-1.0) ** np.arange(eps_values.size)
    return float(np.sum(signs * eps_values * gaps))


def be_doppler_preset(copropagating: bool = False) -> ThermalSpec:
    """Light Be atom cooled on a ~200 MHz-wide line, 300 nm-class light."""
    return ThermalSpec(
        linewidth=2.0 * np.pi * 200e6,
        mass=ATOMIC_MASS["Be9"],
        wavelength=313e-9,
        copropagating_raman=copropagating,
    )
