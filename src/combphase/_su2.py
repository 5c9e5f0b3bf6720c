"""Small linear-algebra helpers for 2x2 (and batched Hermitian) matrices.

Everything here is plain numpy; the point is to keep the hot paths of the
protocol/estimation code free of scipy.linalg.expm calls, which dominate
runtime for long pulse trains.  The one propagator of pulses, Raman pulses
and trains (step count, Magnus step, ordered product, step doubling) is here,
and its one accuracy parameter is ``tol`` (see `refine_until_stable`).  Its
step is the three-node Gauss 6th-order Magnus step of Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009), section 5 (see `magnus_generators`).  It
works on whole arrays, never one step at a time: `magnus_generators` yields
the step generators in blocks of `MAGNUS_BLOCK` steps, each block is
exponentiated by one batched `expm_herm` call, and `ordered_product` reduces
the stacked factors pairwise, as a tree of batched matmuls.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegrationError

#: Magnus steps per generator block; bounds the memory of one block of
#: (steps, grid, d, d) arrays, whatever the total step count.  A 6th-order
#: step keeps about 15 such arrays alive at once.
MAGNUS_BLOCK = 256

#: Magnus steps per period of the fastest frequency before any doubling
STEPS_PER_PERIOD = 8
#: doublings before `refine_until_stable` gives up: at most 512 steps per period
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
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
    """Three-point Gauss (6th-order) Magnus generators on [-duration/2, duration/2].

    ``hamiltonians(times)`` gives H of shape (T, G, d, d).  The (steps, G, d, d)
    generators are yielded in time order, in blocks of at most `MAGNUS_BLOCK`
    steps.  Each step of length h samples a_k = h H at the Gauss nodes
    1/2 - sqrt(15)/10, 1/2 and 1/2 + sqrt(15)/10 of the step, and forms the
    alpha_1, alpha_2, alpha_3 / C_1, C_2 scheme of Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009), section 5, for Y' = -i H Y:

        b1 = a2, b2 = sqrt(15)/3 (a3 - a1), b3 = 10/3 (a3 - 2 a2 + a1),
        c1 = -i [b1, b2], c2 = i/60 [b1, 2 b3 + c1],
        generator = b1 + b3/12 - i/240 [-20 b1 - b3 + c1, b2 + c2],

    with alpha_k = -i b_k, C_k = -i c_k and exp(-i generator) the step.
    Every term is exactly Hermitian (each commutator is taken as
    x y - (x y)^dagger), so each step is unitary to machine precision.
    """
    h_step = duration / steps
    c = np.sqrt(15.0) / 10.0
    for start in range(0, steps, MAGNUS_BLOCK):
        t0 = -duration / 2.0 + h_step * np.arange(start, min(start + MAGNUS_BLOCK, steps))
        h1 = hamiltonians(t0 + (0.5 - c) * h_step)
        h2 = hamiltonians(t0 + 0.5 * h_step)
        h3 = hamiltonians(t0 + (0.5 + c) * h_step)
        b1 = h_step * h2
        b2 = (h_step * np.sqrt(15.0) / 3.0) * (h3 - h1)
        b3 = (h_step * 10.0 / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = -1.0j * _commutator(b1, b2)
        c2 = (1.0j / 60.0) * _commutator(b1, 2.0 * b3 + c1)
        yield b1 + b3 / 12.0 - (1.0j / 240.0) * _commutator(c1 - 20.0 * b1 - b3, b2 + c2)


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for stacks of Hermitian x and y, from one matmul.

    y x = (x y)^dagger, so [x, y] = x y - (x y)^dagger, which is exactly
    anti-Hermitian in floating point.
    """
    xy = x @ y
    return xy - xy.conj().swapaxes(-1, -2)


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

    The Magnus step is 6th order, so |U_2s - U_s| / (2^6 - 1) = |U_2s - U_s| / 63
    estimates the error of U_2s (Richardson), in Frobenius norm over the
    whole (stacked) result.  Arithmetic that overflows or goes invalid, or a
    step exponential that fails (`np.linalg.LinAlgError`), say on a
    Hamiltonian too large for floating point, raises IntegrationError, and
    no numpy warning is emitted.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            u_prev = propagate(steps)
            for _ in range(MAX_DOUBLINGS):
                steps *= 2
                u = propagate(steps)
                if np.linalg.norm(u - u_prev) / 63.0 <= tol:
                    return u
                u_prev = u
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        raise IntegrationError(f"propagator step failed: {e}") from e
    raise IntegrationError(f"propagator did not stabilize to {tol} after {MAX_DOUBLINGS} doublings")
