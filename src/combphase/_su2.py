"""Small linear-algebra helpers for 2x2 (and batched Hermitian) matrices.

Everything here is plain numpy; the point is to keep the hot paths of the
protocol/estimation code free of scipy.linalg.expm calls, which dominate
runtime for long pulse trains.  The one propagator of pulses, Raman pulses
and trains (step count, Magnus step, ordered product, step doubling) is here,
and its one accuracy parameter is ``tol`` (see `refine_until_stable`).  It
works on whole arrays, never one step at a time: `magnus_generators` yields
the step generators in blocks of `MAGNUS_BLOCK` steps, each block is
exponentiated by one batched `expm_herm` call, and `ordered_product` reduces
the stacked factors pairwise, as a tree of batched matmuls.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegrationError

#: Magnus steps per generator block; bounds the memory of one block of
#: (steps, grid, d, d) arrays, whatever the total step count
MAGNUS_BLOCK = 1024

#: Magnus steps per period of the fastest frequency before any doubling
STEPS_PER_PERIOD = 16
#: doublings before `refine_until_stable` gives up: at most 1024 steps per period
MAX_DOUBLINGS = 6

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rot_x(angle: float) -> np.ndarray:
    """exp(i * angle * sigma_x)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 1.0j * s], [1.0j * s, c]])


def rot_z(angle) -> np.ndarray:
    """exp(-i * angle * sigma_z), i.e. diag(e^{-i angle}, e^{+i angle}).

    ``angle`` may be an array; the result then has shape ``angle.shape + (2, 2)``.
    """
    u = np.zeros(np.shape(angle) + (2, 2), dtype=complex)
    u[..., 0, 0] = np.exp(-1.0j * angle)
    u[..., 1, 1] = np.exp(1.0j * angle)
    return u


def expm_herm(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a (batched) Hermitian matrix via eigendecomposition.

    h may have shape (..., d, d); the result has the same shape.
    """
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1.0j * w)
    return np.einsum("...ik,...k,...jk->...ij", v, phases, v.conj())


def matpow_with_grad(m: np.ndarray, dm: np.ndarray, n: int):
    """Return (m**n, d(m**n)) by square-and-multiply, for a derivative ``dm`` of ``m``.

    ``m`` and ``dm`` may be stacks of shape (..., d, d) that broadcast
    together.  The derivative is exact (no finite differences): it is the
    top-right block of the n-th power of the block upper-triangular matrix
    [[m, dm], [0, m]], so each product of the square-and-multiply applies
    the product rule, in O(log n) products of 2d x 2d matrices.
    """
    k = int(n)
    if k < 0:
        raise ValueError("negative power")
    d = m.shape[-1]
    block = np.zeros(np.broadcast_shapes(m.shape, dm.shape)[:-2] + (2 * d, 2 * d), dtype=complex)
    block[..., :d, :d] = m
    block[..., d:, d:] = m
    block[..., :d, d:] = dm
    power = np.linalg.matrix_power(block, k)
    return power[..., :d, :d], power[..., :d, d:]


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dag U - 1."""
    d = u.shape[-1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def step_count(cycles: float) -> int:
    """Initial Magnus step count for a pulse of ``cycles`` periods of its fastest frequency."""
    return max(int(np.ceil(STEPS_PER_PERIOD * cycles)), 50)


def magnus_generators(hamiltonians, duration: float, steps: int):
    """Two-point Gauss (4th-order) Magnus generators on [-duration/2, duration/2].

    ``hamiltonians(times)`` gives H of shape (T, G, d, d).  The (steps, G, d, d)
    generators are yielded in time order, in blocks of at most `MAGNUS_BLOCK`
    steps.  They are exactly Hermitian, so each step is unitary to machine
    precision (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
    """
    h_step = duration / steps
    c = np.sqrt(3.0) / 6.0
    for start in range(0, steps, MAGNUS_BLOCK):
        t0 = -duration / 2.0 + h_step * np.arange(start, min(start + MAGNUS_BLOCK, steps))
        h1 = hamiltonians(t0 + (0.5 - c) * h_step)
        h2 = hamiltonians(t0 + (0.5 + c) * h_step)
        comm = h2 @ h1 - h1 @ h2
        yield (h_step / 2.0) * (h1 + h2) - 1.0j * (np.sqrt(3.0) * h_step**2 / 12.0) * comm


def ordered_product(blocks) -> np.ndarray:
    """Time-ordered product of stacked factors, later factors to the left.

    ``blocks`` is one (S, ..., d, d) array of factors in time order, or an
    iterable of such arrays, block after block.  Each block is reduced
    pairwise, as a tree of batched matmuls of depth log2(S) (Blelloch,
    CMU-CS-90-190 (1990)), and the block products are then multiplied in
    order.  The result has shape (..., d, d).
    """
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    u = None
    for f in blocks:
        if len(f) == 0:
            raise ValueError("ordered_product of no factors")
        while len(f) > 1:
            pairs = f[1::2] @ f[0 : len(f) - 1 : 2]
            if len(f) % 2:
                pairs[-1] = f[-1] @ pairs[-1]
            f = pairs
        u = f[0] if u is None else f[0] @ u
    if u is None:
        raise ValueError("ordered_product of no factors")
    return u


def refine_until_stable(propagate, steps: int, tol: float) -> np.ndarray:
    """``propagate(steps)``, doubling ``steps`` until its error estimate is within ``tol``.

    The Magnus step is 4th order, so |U_2s - U_s| / 15 estimates the error
    of U_2s (Richardson), in Frobenius norm over the whole (stacked) result.
    A step exponential that fails (`np.linalg.LinAlgError`, say on a
    Hamiltonian too large for floating point) raises IntegrationError.
    """
    try:
        u_prev = propagate(steps)
        for _ in range(MAX_DOUBLINGS):
            steps *= 2
            u = propagate(steps)
            if np.linalg.norm(u - u_prev) / 15.0 <= tol:
                return u
            u_prev = u
    except np.linalg.LinAlgError as e:
        raise IntegrationError(f"propagator step failed: {e}") from e
    raise IntegrationError(f"propagator did not stabilize to {tol} after {MAX_DOUBLINGS} doublings")
