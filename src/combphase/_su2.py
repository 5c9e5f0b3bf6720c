"""Small linear-algebra helpers for 2x2 (and batched Hermitian) matrices.

Everything here is plain numpy; the point is to keep the hot paths of the
protocol/estimation code free of scipy.linalg.expm calls, which dominate
runtime for long pulse trains.  The one propagator of pulses, Raman pulses
and trains (step count, Magnus step, ordered product, step doubling) is here.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegrationError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rot_x(angle: float) -> np.ndarray:
    """exp(i * angle * sigma_x)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 1.0j * s], [1.0j * s, c]])


def rot_z(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_z), i.e. diag(e^{-i angle}, e^{+i angle})."""
    return np.array([[np.exp(-1.0j * angle), 0.0], [0.0, np.exp(1.0j * angle)]])


def expm_herm(h: np.ndarray, scale: complex = -1.0j) -> np.ndarray:
    """exp(scale * h) for a (batched) Hermitian matrix via eigendecomposition.

    h may have shape (..., d, d); the result has the same shape.
    """
    w, v = np.linalg.eigh(h)
    phases = np.exp(scale * w)
    return np.einsum("...ik,...k,...jk->...ij", v, phases, v.conj())


def matpow_with_grad(m: np.ndarray, dms: list[np.ndarray], n: int):
    """Return (m**n, [d(m**n)/dp for each dm in dms]) by square-and-multiply.

    Uses the product rule at every squaring, so the derivatives are exact
    (no finite differences) and cost O(log n) matrix products.
    """
    p = np.eye(m.shape[0], dtype=complex)
    dps = [np.zeros_like(p) for _ in dms]
    base, dbases = m, list(dms)
    k = int(n)
    if k < 0:
        raise ValueError("negative power")
    while k:
        if k & 1:
            dps = [dp @ base + p @ db for dp, db in zip(dps, dbases)]
            p = p @ base
        k >>= 1
        if k:
            dbases = [db @ base + base @ db for db in dbases]
            base = base @ base
    return p, dps


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dag U - 1."""
    d = u.shape[-1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def step_count(steps_per_cycle: int, cycles: float) -> int:
    """Initial Magnus step count for a pulse of ``cycles`` carrier periods."""
    if steps_per_cycle < 100:
        raise ValueError("steps_per_cycle must be >= 100")
    return max(int(np.ceil(steps_per_cycle * cycles)), 50)


def magnus_generators(hamiltonians, duration: float, steps: int) -> np.ndarray:
    """Two-point Gauss (4th-order) Magnus generators on [-duration/2, duration/2].

    ``hamiltonians(times)`` gives H of shape (T, G, d, d); the (steps, G, d, d)
    generators are exactly Hermitian, so each step is unitary to machine
    precision (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
    """
    h_step = duration / steps
    t0 = -duration / 2.0 + h_step * np.arange(steps)
    c = np.sqrt(3.0) / 6.0
    h1 = hamiltonians(t0 + (0.5 - c) * h_step)
    h2 = hamiltonians(t0 + (0.5 + c) * h_step)
    comm = h2 @ h1 - h1 @ h2
    return (h_step / 2.0) * (h1 + h2) - 1.0j * (np.sqrt(3.0) * h_step**2 / 12.0) * comm


def ordered_product(factors) -> np.ndarray:
    """Product of (batched) matrices from the identity, later factors to the left."""
    u = None
    for f in factors:
        if u is None:
            u = np.broadcast_to(np.eye(f.shape[-1], dtype=complex), f.shape).copy()
        u = f @ u
    return u


def refine_until_stable(propagate, steps: int, tol: float, max_refinements: int) -> np.ndarray:
    """``propagate(steps)``, doubling ``steps`` until two results agree to ``tol``."""
    u_prev = propagate(steps)
    for _ in range(max_refinements):
        steps *= 2
        u = propagate(steps)
        if np.linalg.norm(u - u_prev) <= tol:
            return u
        u_prev = u
    raise IntegrationError(f"propagator did not stabilize to {tol} after {max_refinements} doublings")
