"""Single-pulse two-level physics.

A laser pulse is described by its gaussian envelope's integrated area (Rabi
angle), duration, carrier frequency and carrier-envelope offset (CEO)
phase.  On resonance and for long enough pulses the propagator has the
closed form

    U(theta, phi) = exp(-i phi sigma_z) (cos(theta) + i sin(theta) sigma_x)
                    exp(+i phi sigma_z),

so the CEO phase enters only through conjugation with sigma_z.  Note the
full-angle convention: the off-diagonal element carries exp(-2i phi), hence
phi is recoverable from a single unitary only modulo pi.  This convention is
used consistently everywhere in the package (see README).

`integrate_pulse` propagates the full semiclassical model, carrier wiggles
included, and is the reference against which the closed form is judged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._su2 import (
    PROPAGATOR_TOL, expm_herm, magnus_generators, ordered_product, refine_until_stable, step_count,
    su2_matrix, unitarity_defect, workspace,
)
from .errors import UndefinedPhaseError


_UNITARITY_TOL = 1e-10  # the largest unitarity_defect a Unitary accepts
#: width of the truncated gaussian envelope, as a fraction of the duration
_GAUSSIAN_STD_FRACTION = 1.0 / 8.0


def _gaussian_area(tau: float) -> float:
    std, half = tau * _GAUSSIAN_STD_FRACTION, tau / 2.0
    return std * np.sqrt(2.0 * np.pi) * math.erf(half / (std * np.sqrt(2.0)))


@dataclass(frozen=True)
class PulseSpec:
    """One laser pulse: area, duration, frequencies, phase.

    The envelope s(t) is a truncated gaussian of standard deviation tau / 8,
    supported on [-tau/2, tau/2] and normalized so that its integral equals
    the Rabi angle ``theta``.  Every input must be finite.
    """

    theta: float = np.pi / 4
    tau: float = 30.0 * 2.0 * np.pi
    carrier_freq: float = 1.0  # rad/s
    atom_freq: float = 1.0  # rad/s
    ceo_phase: float = 0.0

    def __post_init__(self):
        for name in ("theta", "tau", "carrier_freq", "atom_freq", "ceo_phase"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")

    @property
    def detuning(self) -> float:
        return self.atom_freq - self.carrier_freq

    @property
    def carrier_cycles(self) -> float:
        """Number of carrier oscillations contained in the pulse."""
        return self.tau * self.carrier_freq / (2.0 * np.pi)

    def envelope(self, t):
        """Evaluate s(t); vectorized, zero outside [-tau/2, tau/2]."""
        t = np.asarray(t, dtype=float)
        shape = np.exp(-0.5 * (t / (self.tau * _GAUSSIAN_STD_FRACTION)) ** 2)
        return self.theta * np.where(np.abs(t) <= self.tau / 2.0, shape, 0.0) / _gaussian_area(self.tau)


@dataclass(frozen=True)
class Unitary:
    """A 2x2 or 3x3 unitary matrix (its unitarity defect is checked against 1e-10)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise ValueError("expected a square 2x2 or 3x3 matrix")
        object.__setattr__(self, "matrix", m)
        if unitarity_defect(m) > _UNITARITY_TOL:
            raise ValueError("matrix is not unitary within tolerance")


def rwa_unitary(p: PulseSpec) -> Unitary:
    """Closed-form resonant propagator; depends only on theta and the phase."""
    return Unitary(rwa_matrix(p.theta, p.ceo_phase))


def rwa_matrix(theta, phi) -> np.ndarray:
    """The closed form exp(-i phi sigma_z) exp(i theta sigma_x) exp(+i phi sigma_z).

    That is [[c, i s e^{-2i phi}], [i s e^{2i phi}, c]] with c, s = cos, sin
    of theta; theta and phi broadcast, giving shape (..., 2, 2).  It is built
    from its top row, `rwa_row`, which `protocols.compose_train` multiplies
    as is.
    """
    return su2_matrix(rwa_row(theta, phi))


def rwa_row(theta, phi) -> np.ndarray:
    """Top row (c, i s e^{-2i phi}) of `rwa_matrix`, of shape (..., 2)."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    row = np.empty(theta.shape + (2,), dtype=complex)
    row[..., 0] = np.cos(theta)
    row[..., 1] = 1.0j * np.sin(theta) * np.exp(-2.0j * phi)
    return row


def _rotating_frame_hamiltonians(p: PulseSpec, phases, times) -> np.ndarray:
    """H(t) in the frame co-rotating with the carrier, shape (T, G, 2, 2).

    The lab-frame drive is written so that its rotating-wave limit is exactly
    the closed form of `rwa_unitary`: amplitude 2*s(t), carrier phase 2*phi
    and a sign that makes the resonant area-theta pulse equal
    cos(theta) + i sin(theta) sigma_x.
    """
    phases = np.atleast_1d(np.asarray(phases, dtype=float))
    times = np.asarray(times, dtype=float)
    s = p.envelope(times)[:, None]
    delta = p.detuning
    fast = np.exp(1.0j * (2.0 * p.carrier_freq * times[:, None] + 2.0 * phases[None, :]))
    slow = np.exp(-2.0j * phases[None, :]) * np.ones_like(times)[:, None]
    drive = -s * (fast + slow)  # coefficient of sigma_plus
    h = np.zeros(drive.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = delta / 2.0
    h[..., 1, 1] = -delta / 2.0
    h[..., 0, 1] = drive
    h[..., 1, 0] = np.conj(drive)
    return h


def _propagate_two_level(p: PulseSpec, phases, steps: int) -> np.ndarray:
    """Magnus propagation over the pulse, batched over CEO phases: (G, 2, 2)."""
    width = np.size(phases)
    work = workspace(2, steps, width)
    blocks = magnus_generators(lambda t: _rotating_frame_hamiltonians(p, phases, t), p.tau, steps, width, work)
    return ordered_product(expm_herm(g, work) for g in blocks)


def integrate_pulse(p: PulseSpec) -> Unitary:
    """Propagator of the full semiclassical model, in the rotating frame.

    The step count starts at 8 per carrier cycle and is doubled until the
    Richardson estimate of the error, in Frobenius norm, is within
    `PROPAGATOR_TOL`; failure to stabilize raises IntegrationError.
    """
    u = refine_until_stable(
        lambda s: _propagate_two_level(p, p.ceo_phase, s)[0], step_count(p.carrier_cycles), PROPAGATOR_TOL
    )
    return Unitary(u)


def unitary_fidelity(a: Unitary, b: Unitary) -> float:
    """|tr(a^dag b)| / dim; equals 1 iff a and b agree up to global phase."""
    return matrix_fidelity(a.matrix, b.matrix)


def matrix_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Bare ndarray version of `unitary_fidelity`."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])


def matrix_infidelity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - `matrix_fidelity`(a, b) for unitary a and b, without subtracting from 1.

    It is ||a - e^{i phi} b||_F^2 / (2 d) with phi = arg tr(b^dag a), the
    global phase that brings b closest to a: for unitaries this equals
    1 - |tr(a^dag b)| / d, and it keeps the digits of an infidelity far
    below the spacing of doubles near 1.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    overlap = np.trace(b.conj().T @ a)
    phase = overlap / abs(overlap) if overlap else 1.0
    return float(np.linalg.norm(a - phase * b) ** 2 / (2 * a.shape[0]))


def effective_phase(u: Unitary | np.ndarray) -> float:
    """CEO phase read back from the sigma_plus coefficient of a 2x2 unitary.

    For the closed form the (0, 1) entry is i sin(theta) exp(-2i phi), so the
    phase is recovered as (pi/2 - arg u01) / 2, reduced to [0, pi).  The
    full-angle conjugation convention makes phi ambiguous modulo pi.
    """
    m = u.matrix if isinstance(u, Unitary) else np.asarray(u)
    if m.shape != (2, 2):
        raise ValueError("effective_phase is defined for 2x2 unitaries only")
    if abs(m[0, 1]) <= 1e-12:
        raise UndefinedPhaseError("off-diagonal element vanishes; phase undefined")
    phi = (np.pi / 2.0 - np.angle(m[0, 1])) / 2.0
    return float(np.mod(phi, np.pi))
