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
the stacked factors pairwise, as a tree of batched products.

The matrices are 2x2 or 3x3, so numpy's stacked matmul and LAPACK spend
their time on loops of length d.  Inside `magnus_generators`, `expm_herm`
and `ordered_product` the stacks are therefore held in a contiguous
(d, d, ...) structure-of-arrays layout, in which `_mm` forms a product from
d elementwise operations over the whole stack.  Every function still takes
and returns (..., d, d) arrays.  `expm_herm` is a Taylor polynomial with
scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)), built from such products.

The train of the outcome model is the k-th power of one SU(2) matrix.
`matpow_with_grad` forms it and its derivative in closed form (the Chebyshev
form m^k = cos(k alpha) I + sin(k alpha) / sin(alpha) (m - cos(alpha) I)), from
elementwise operations whose count does not grow with k.
"""
from __future__ import annotations

import math

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


#: Taylor degree m -> the largest 1-norm theta_m of x for which the
#: truncation error of the degree-m Taylor polynomial of exp(x) stays below
#: 2^-53.  For |x| <= theta <= (m + 2) / 2 the remainder sum_{k>m} |x|^k / k!
#: is at most twice its first term, so theta_m = ((m + 1)! 2^-54)^(1/(m+1)).
_TAYLOR_THETA = {m: (math.factorial(m + 1) * 2.0**-54) ** (1.0 / (m + 1)) for m in range(1, 19)}


def _soa(a: np.ndarray) -> np.ndarray:
    """A (..., d, d) stack as a contiguous (d, d, ...) array.

    A view with moved axes is not enough: elementwise ops keep their input's
    memory order, so every later op would still stride through d-long rows.
    """
    return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))


def _aos(a: np.ndarray) -> np.ndarray:
    """A (d, d, ...) array as a (..., d, d) view; `_soa` of it copies nothing."""
    return np.moveaxis(a, (0, 1), (-2, -1))


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks in the (d, d, ...) layout, batch shapes broadcast."""
    out = x[:, 0, None] * y[None, 0]
    for k in range(1, x.shape[0]):
        out += x[:, k, None] * y[None, k]
    return out


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(degree, squarings) for a generator of 1-norm ``norm``.

    The smallest degree m whose theta_m covers ``norm``; past the last
    theta_m, the top degree and the fewest squarings that bring ``norm``
    within it.  Each squaring doubles the rounding error, so the degree is
    raised as far as the table goes before any squaring.
    """
    if not math.isfinite(norm):
        raise np.linalg.LinAlgError(f"matrix exponential of a non-finite generator (1-norm {norm})")
    for m, theta in _TAYLOR_THETA.items():
        if norm <= theta:
            return m, 0
    return m, math.ceil(math.log2(norm / theta))


def expm_herm(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a (batched) Hermitian matrix.

    h may have shape (..., d, d); the result has the same shape.  With
    x = -i h / 2^s, the degree-m Taylor polynomial of exp(x) is evaluated by
    Horner's rule and squared s times (scaling and squaring, Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)).  One (m, s) serves
    the whole stack, chosen by `_taylor_plan` so that its largest 1-norm of
    x is within theta_m, where the Taylor truncation error is below 2^-53
    (see `_TAYLOR_THETA`).  The result is unitary to a few ulp times 2^s.
    A non-finite h raises `np.linalg.LinAlgError`.
    """
    a = _soa(h)
    # 1-norm: largest column sum, over the whole stack
    m, s = _taylor_plan(float(np.max(np.abs(a).sum(axis=0), initial=0.0)))
    x = (-1.0j * 0.5**s) * a
    # Horner's rule from the top coefficient: p <- x (p + I / k!), then + I
    p = x / math.factorial(m)
    for k in range(m - 1, -1, -1):
        for i in range(a.shape[0]):
            p[i, i] += 1.0 / math.factorial(k)
        if k:
            p = _mm(x, p)
    for _ in range(s):
        p = _mm(p, p)
    return _aos(p)


#: a 2x2 matrix's real 8-vector (re, im of x_00, x_01, x_10, x_11) from its
#: top row (re, im of x_00, x_01), for x in SU(2) or a tangent of it
_SU2_ROWS = np.array([0, 1, 2, 3, 2, 3, 0, 1])
_SU2_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0])


def matpow_with_grad(m: np.ndarray, dm: np.ndarray, n: int):
    """Return (m**n, d(m**n)) in closed form, for an SU(2) ``m`` and a tangent ``dm``.

    ``m`` must be in SU(2) and ``dm`` a tangent of SU(2) at ``m`` (such as
    m i H with H traceless Hermitian); only their top rows are read.  Both
    may be stacks of shape (..., 2, 2), of one shape.  The work is
    elementwise and the same for any n, so a stack rounds exactly like each
    of its matrices on its own.  The name is kept from the square-and-multiply
    form this replaces, since `perfbench/tracer.py` looks it up by name.

    Write m = c I + B, with c = Re m_00 and B traceless and anti-Hermitian of
    norm s = hypot(Im m_00, |m_01|), so B^2 = -s^2 I.  The sign of c is
    folded out first, m^k = (-1)^k (-m)^k, so that alpha = atan2(s, c) is at
    most pi/2.  Then m^k = cos(k alpha) I + U B with U = sin(k alpha) / s
    (U = k at s = 0), a Chebyshev polynomial of m.  For dm = dc I + dB,

        d(m^k) = k U dc I + U dB + (c U - k cos k alpha) (dc - c (v.dv) / s^2) B,

    where v.dv = Im m_00 Im dm_00 + Re(conj(m_01) dm_01), the derivative of
    s^2 / 2 (Frechet derivative of a matrix power: Higham, *Functions of
    Matrices*, SIAM 2008, section 3.2).  On the tangent, c dc + v.dv = 0;
    written with it, the derivative keeps no 1 / sin^2 alpha, and the
    coefficient of (v.dv) / s^2 vanishes like alpha^2, so that term is taken
    as 0 at s = 0, where m = +-I.
    """
    k = int(n)
    if k < 0:
        raise ValueError("negative power")
    # top rows as real 4-vectors: (c, Im m_00, Re m_01, Im m_01), the same for dm
    row, drow = (np.ascontiguousarray(x[..., 0, :]).view(float) for x in (m, dm))
    c, z, dc, dz = row[..., 0], row[..., 1], drow[..., 0], drow[..., 1]
    s = np.hypot(z, np.abs(m[..., 0, 1]))
    # alpha and U of the folded -m where c < 0; the sign goes back in below
    c_abs = np.abs(c)
    alpha = k * np.arctan2(s, c_abs)
    cos_k, sin_k = np.cos(alpha), np.sin(alpha)
    positive = s > 0.0
    s = np.where(positive, s, 1.0)  # v.dv = 0 at s = 0, where B = 0
    u = np.where(positive, sin_k / s, float(k))
    vdv = z * dz + row[..., 2] * drow[..., 2] + row[..., 3] * drow[..., 3]
    w = (c_abs * u - k * cos_k) * (dc - c * (vdv / s / s))
    # m^k = sign^k (sign m)^k: cos_k and w take sign^k, u takes sign^(k+1)
    sign = np.copysign(1.0, c)
    if k % 2:
        cos_k, w = sign * cos_k, sign * w
    else:
        u = sign * u
    # top rows of m^k = cos_k I + u B and of d(m^k) = k u dc I + u dB + w B
    top = np.empty(np.shape(c) + (2, 4))
    top[..., 0, :] = u[..., None] * row
    top[..., 1, :] = u[..., None] * drow + w[..., None] * row
    top[..., 0, 0] = cos_k
    top[..., 1, 0] = (k * u) * dc
    # an SU(2) matrix or tangent has the bottom row (-conj(x_01), conj(x_00))
    full = np.take(top, _SU2_ROWS, axis=-1) * _SU2_SIGNS
    out = full.view(complex).reshape(top.shape[:-2] + (2, 2, 2))
    return out[..., 0, :, :], out[..., 1, :, :]


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
        h1, h2, h3 = (_soa(hamiltonians(t0 + node * h_step)) for node in (0.5 - c, 0.5, 0.5 + c))
        b1 = h_step * h2
        b2 = (h_step * np.sqrt(15.0) / 3.0) * (h3 - h1)
        b3 = (h_step * 10.0 / 3.0) * (h3 - 2.0 * h2 + h1)
        c1 = -1.0j * _commutator(b1, b2)
        c2 = (1.0j / 60.0) * _commutator(b1, 2.0 * b3 + c1)
        yield _aos(b1 + b3 / 12.0 - (1.0j / 240.0) * _commutator(c1 - 20.0 * b1 - b3, b2 + c2))


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] for Hermitian x and y in the (d, d, ...) layout, from one product.

    y x = (x y)^dagger, so [x, y] = x y - (x y)^dagger, which is exactly
    anti-Hermitian in floating point.
    """
    xy = _mm(x, y)
    return xy - xy.conj().swapaxes(0, 1)


def ordered_product(blocks) -> np.ndarray:
    """Time-ordered product of stacked factors, later factors to the left.

    ``blocks`` is one (S, ..., d, d) array of factors in time order, or an
    iterable of such arrays, block after block.  Each block is reduced
    pairwise, as a tree of batched products of depth log2(S) (Blelloch,
    CMU-CS-90-190 (1990)), and the block products are then multiplied in
    order.  The result has shape (..., d, d).
    """
    if isinstance(blocks, np.ndarray):
        blocks = (blocks,)
    u = None
    for f in blocks:
        if len(f) == 0:
            raise ValueError("ordered_product of no factors")
        f = _soa(f)  # (d, d, S, ...)
        while f.shape[2] > 1:
            n = f.shape[2]
            pairs = _mm(f[:, :, 1::2], f[:, :, 0 : n - 1 : 2])
            if n % 2:
                pairs[:, :, -1] = _mm(f[:, :, -1], pairs[:, :, -1])
            f = pairs
        u = f[:, :, 0] if u is None else _mm(f[:, :, 0], u)
    if u is None:
        raise ValueError("ordered_product of no factors")
    return np.ascontiguousarray(_aos(u))


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
