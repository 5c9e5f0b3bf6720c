"""Three-level Lambda/Raman physics.

Two long-lived states a and b are coupled through an excited state c by a
pulse that drives both legs with a common envelope but independent phases.
Detuning the laser from the a,b <-> c transitions keeps c essentially empty
at the end of the pulse while the leg phase difference phi_l = phi_2 - phi_1
is imprinted as a relative phase phi_s between a and b.  `phase_map` charts
phi_s(phi_l) for the full carrier-resolved model; in the rotating-wave limit
the map is exactly the identity.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._su2 import (
    PROPAGATOR_TOL, expm_herm, magnus_generators, ordered_product, refine_until_stable, step_count,
)
from .errors import IntegrationError
from .pulses import ENVELOPE_KINDS, Unitary, unit_envelope

#: Richardson error bound of `phase_map`'s stacked propagators (Frobenius norm)
PHASE_MAP_TOL = 1e-6


@dataclass(frozen=True)
class LambdaSpec:
    """Raman pulse: common-envelope two-leg drive through an excited state.

    ``rabi`` is the peak amplitude of the envelope s(t) (not an integrated
    area); both legs share the same s(t).  Leg 1 has phase 0, so the leg
    phase difference phi_l is leg 2's phase.
    """

    rabi: float  # peak of s(t) [rad/s]
    duration: float  # tau [s]
    laser_freq: float  # omega [rad/s]
    excited_energy: float  # omega_at [rad/s]
    envelope_kind: str = "cos2"

    def __post_init__(self):
        if self.rabi < 0 or self.duration <= 0 or self.laser_freq <= 0:
            raise ValueError("rabi, duration and laser_freq must be positive")
        if self.envelope_kind not in ENVELOPE_KINDS:
            raise ValueError(f"unknown envelope kind {self.envelope_kind!r}")
        if self.detuning == 0.0:
            raise ValueError("Raman regime requires a nonzero detuning")

    @property
    def detuning(self) -> float:
        return self.excited_energy - self.laser_freq

    @property
    def carrier_cycles(self) -> float:
        return self.duration * self.laser_freq / (2.0 * np.pi)

    def envelope(self, t):
        """Evaluate s(t); vectorized, zero outside [-duration/2, duration/2]."""
        shape, _ = unit_envelope(self.envelope_kind, t, self.duration)
        return self.rabi * shape


def _lambda_hamiltonians(l: LambdaSpec, phi2_grid, times) -> np.ndarray:
    """Rotating-frame (at the laser frequency) Hamiltonians, (T, G, 3, 3)."""
    phi2 = np.atleast_1d(np.asarray(phi2_grid, dtype=float))
    times = np.asarray(times, dtype=float)
    s = l.envelope(times)[:, None]
    wt = l.laser_freq * times[:, None]
    leg1 = s * np.cos(wt) * np.exp(1.0j * wt)
    leg2 = s * np.cos(wt + phi2[None, :]) * np.exp(1.0j * wt)
    h = np.zeros((times.size, phi2.size, 3, 3), dtype=complex)
    h[..., 2, 2] = l.detuning
    h[..., 2, 0] = leg1
    h[..., 0, 2] = np.conj(leg1)
    h[..., 2, 1] = leg2
    h[..., 1, 2] = np.conj(leg2)
    return h


def _propagate(l: LambdaSpec, phi2_grid, steps: int) -> np.ndarray:
    """Magnus propagation over the pulse, batched over phi_2: (G, 3, 3)."""
    width = np.size(phi2_grid)
    blocks = magnus_generators(lambda t: _lambda_hamiltonians(l, phi2_grid, t), l.duration, steps, width)
    return ordered_product(expm_herm(g) for g in blocks)


def integrate_lambda(l: LambdaSpec) -> tuple[Unitary, float]:
    """Propagator of the three-level model at phi_l = 0 and the residual |c>
    population.

    The population is quoted for an atom starting in |a>.  The step count
    starts at 8 per period of the laser carrier and is doubled until the
    Richardson estimate of the error, in Frobenius norm, is within
    `PROPAGATOR_TOL`, as in `integrate_pulse`.
    """
    u = refine_until_stable(
        lambda steps: _propagate(l, 0.0, steps)[0], step_count(l.carrier_cycles), PROPAGATOR_TOL
    )
    return Unitary(u), float(np.abs(u[2, 0]) ** 2)


@dataclass(frozen=True)
class PhaseMapResult:
    """phi_s(phi_l) samples plus derivative diagnostics."""

    phi_l: np.ndarray
    phi_s: np.ndarray
    dphi_s: np.ndarray  # d phi_s / d phi_l on the grid
    max_identity_deviation: float  # max |d phi_s / d phi_l - 1|
    max_curve_deviation: float  # max |phi_s - phi_l| [rad]
    monotone: bool


def phase_map(l: LambdaSpec, phi_l_grid) -> PhaseMapResult:
    """Relative a-b phase imprinted by the pulse, as a function of phi_l.

    The atom starts in |a>; phi_s is arg(c_b / c_a) referenced to its value
    at phi_l = 0, with its deviation from phi_l unwrapped along the grid (so
    a grid step of pi reads forwards).  A non-monotone curve would
    invalidate phase stabilization and is flagged (with a warning).  The
    grid is propagated as one stack and refined as in `integrate_lambda`,
    to `PHASE_MAP_TOL`.  On the bundled 25-point map that stops at 16 steps
    per carrier cycle (estimates 2.7e-7, 4.4e-9, 6.9e-11 at 16, 32, 64),
    with phi_s within 2.6e-8 rad of a 400-step reference, against the
    6.3e-2 rad that criterion 7 needs; a bound of 2.7e-7 or less would go
    on to 32 steps per cycle and cost 56 steps per cycle in all.
    """
    grid = np.asarray(phi_l_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("need a 1-d grid with at least 3 points")
    phi2 = np.concatenate(([0.0], grid))  # leading reference point
    u = refine_until_stable(
        lambda steps: _propagate(l, phi2, steps), step_count(l.carrier_cycles), PHASE_MAP_TOL
    )
    ca, cb = u[:, 0, 0], u[:, 1, 0]
    if np.min(np.abs(cb)) < 1e-9:
        raise IntegrationError("b amplitude vanished; phase extraction undefined")
    raw = np.angle(cb / ca)
    phi_s = grid + np.unwrap(np.angle(np.exp(1.0j * (raw[1:] - raw[0] - grid))))
    dphi_s = np.gradient(phi_s, grid)
    monotone = bool(np.all(np.diff(phi_s) > 0) or np.all(np.diff(phi_s) < 0))
    if not monotone:
        warnings.warn("phi_s(phi_l) is not monotone on this grid", stacklevel=2)
    return PhaseMapResult(
        phi_l=grid,
        phi_s=phi_s,
        dphi_s=dphi_s,
        max_identity_deviation=float(np.max(np.abs(dphi_s - 1.0))),
        max_curve_deviation=float(np.max(np.abs(phi_s - grid))),
        monotone=monotone,
    )


def visibility_budget(gamma: float, t_e: float, epsilon: float) -> int:
    """Pulse budget N = -ln(epsilon) / (gamma T_e) before losing visibility epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if gamma <= 0 or t_e <= 0:
        raise ValueError("gamma and t_e must be positive")
    with np.errstate(divide="ignore", over="ignore"):
        budget = -np.log(epsilon) / (gamma * t_e)
    if not np.isfinite(budget):
        raise ValueError(f"the pulse budget is not finite: gamma * t_e = {gamma * t_e!r}")
    return int(budget)
