"""Small linear-algebra helpers for 2x2 (and batched Hermitian) matrices.

Everything here is plain numpy; the point is to keep the hot paths of the
protocol/estimation code free of scipy.linalg.expm calls, which dominate
runtime for long pulse trains.  The one propagator of pulses and Raman
pulses (step count, Magnus step, ordered product, step doubling) is here,
and its accuracy is fixed (`PROPAGATOR_TOL`, see `refine_until_stable`).  Its
step is the three-node Gauss 6th-order Magnus step of Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 151 (2009), section 5 (see `magnus_generators`).  It
works on whole arrays, never one step at a time: `magnus_generators` yields
the step generators in blocks of at most `MAGNUS_BLOCK` matrices (steps times
grid width), each block is exponentiated by one batched `expm_herm` call, and
`ordered_product` reduces the stacked factors pairwise, as a tree of batched
products.  A solve allocates its block-sized arrays once and reuses them
through ``out=`` in every block: the seven rows of its `workspace`, in
which `magnus_generators` forms the generator terms and commutator products
and `expm_herm` its x, x^2, p and squarings, and the tree's two half-block
levels and their product scratch, which `ordered_product` allocates at its
first block.  No block allocates or frees a block-sized array, so glibc
never trims the heap that the next block would fault back in: a pass of the
benchmark's ``propagate`` workload made 6,500 minor page faults when every
block allocated its own, and makes 960 (see CHANGES.md).  A yielded block
and an exponential are views of workspace rows, valid until the next block
is drawn, and the Hamiltonian callback's arrays are never written into.
The bound counts matrices, not steps, so that a block's working
set stays in a core's L2 cache at any grid width: every product of a block
streams a few block-sized arrays.  On a 2-vCPU Xeon with 2 MB of L2 per
core, a 26-phase stack (the bundled phase map's grid, unfolded) took
0.113 s in blocks of 256 steps (6656 matrices, 0.96 MB per 3x3 array) and
0.089 s in blocks of 2048 matrices (medians of 15 interleaved runs).

The matrices are 2x2 or 3x3, so numpy's stacked matmul and LAPACK spend
their time on loops of length d.  Inside `magnus_generators`, `expm_herm`
and `ordered_product` the stacks are therefore held in a contiguous
(d, d, ...) structure-of-arrays layout, in which `_mm` forms a product from
d elementwise operations over the whole stack.  Every function still takes
and returns (..., d, d) arrays.  `expm_herm` is a Taylor polynomial with
scaling and squaring (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)), reduced modulo the characteristic polynomial of its argument: its
Taylor recurrence runs on d coefficient arrays of the batch shape, and a
block takes one such product besides its squarings.

An SU(2) matrix, or a tangent of SU(2), is [[a, b], [-conj(b), conj(a)]],
fixed by its top row (a, b), and `su2_matrix` rebuilds the full matrix.  A
pulse train is a product of SU(2) closed forms, and `su2_ordered_product`
multiplies their top rows in the same pairwise tree as `ordered_product`,
with no (N, 2, 2) stack.  The train of the outcome model is the k-th power
of one SU(2) matrix.  `matpow_with_grad` forms it and its derivative in
closed form (the Chebyshev form m^k = cos(k alpha) I + sin(k alpha) /
sin(alpha) (m - cos(alpha) I)), from elementwise operations whose count does
not grow with k.  It takes and returns top rows.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IntegrationError

#: Matrices (steps x grid width) per generator block, so that a block's
#: working set stays in a core's L2 cache (1-4 MB) whatever the step count
#: and grid width.  At d = 3 one block-sized complex array takes 295 KB; a
#: solve holds 8.5 of them for all its blocks (the seven `workspace` rows and
#: the tree's three half-block arrays), the bundled phase map peaks at 10.4
#: with the Hamiltonian callback's arrays (3.05 MB under tracemalloc), and
#: each product streams three.  A grid wider than this gets one step per block.
MAGNUS_BLOCK = 2048

#: Magnus steps per period of the fastest frequency before any doubling
STEPS_PER_PERIOD = 8
#: doublings before `refine_until_stable` gives up: at most 512 steps per period
MAX_DOUBLINGS = 6
#: Richardson error bound (Frobenius norm) of `integrate_pulse` and `integrate_lambda`
PROPAGATOR_TOL = 1e-8

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


def _mm(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """x @ y for stacks in the (d, d, ...) layout, batch shapes broadcast,
    written into ``out``; ``tmp`` is scratch of out's shape.  Neither may
    share memory with x or y."""
    np.multiply(x[:, 0, None], y[None, 0], out=out)
    for k in range(1, x.shape[0]):
        out += np.multiply(x[:, k, None], y[None, k], out=tmp)
    return out


def workspace(d: int, steps: int, width: int) -> np.ndarray:
    """The block-sized arrays of one propagation of ``steps`` Magnus steps
    at grid width ``width``, reused across its blocks.

    Seven rows, each as large as the largest block's (d, d, steps, width)
    stack: `magnus_generators` forms a block's terms in all seven, and
    `expm_herm` exponentiates the block in three of the six that the block
    does not occupy.  Allocated once per solve, so no block allocates or
    frees a block-sized array.
    """
    steps = min(steps, max(1, MAGNUS_BLOCK // width))
    return np.empty((7, d, d, steps * width), dtype=complex)


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


def expm_herm(h: np.ndarray, work: np.ndarray) -> np.ndarray:
    """exp(-i h) for a (batched) Hermitian matrix, d = 2 or 3.

    h may have shape (..., d, d); the result has the same shape.  The
    stacks of the computation live in the first three rows of ``work``
    (along its first axis) that share no memory with h, each of at least
    h.size entries, so h may itself be a row of a `workspace`.  The result
    is a view of one of those rows, valid until they are written again.  With
    x = -i h / 2^s, the degree-m Taylor polynomial of exp(x) is evaluated
    and squared s times (scaling and squaring, Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009)).  One (m, s) serves the whole stack,
    chosen by `_taylor_plan` so that its largest 1-norm of x is within
    theta_m, where the Taylor truncation error is below 2^-53 (see
    `_TAYLOR_THETA`).

    The polynomial is reduced modulo the characteristic polynomial of x
    (Cayley-Hamilton; Putzer, Amer. Math. Monthly 73, 2 (1966); Higham,
    *Functions of Matrices*, SIAM 2008, section 1.2), with t = tr x,
    q = (t^2 - tr x^2) / 2 and det x = (t^3 - 3 t tr x^2 + 2 tr x^3) / 6:

        x^2 = t x - q I                  (d = 2, where q = det x),
        x^3 = t x^2 - q x + det(x) I     (d = 3).

    So it is p = r_0 I + r_1 x (+ r_2 x^2), and Horner's rule, r <- x r +
    1/k!, runs on the coefficient arrays r_k of the batch shape.  Besides
    the squarings, the stack takes one stacked product, x^2.  On random
    stacks the result is unitary to about 2 ulp (4.4e-16) times 2^s.  A
    non-finite h raises `np.linalg.LinAlgError`.
    """
    a = _soa(h)
    d = a.shape[0]
    if d not in (2, 3):
        raise ValueError(f"expm_herm takes 2x2 or 3x3 matrices, not {d}x{d}")
    row_x, row_x2, row_tmp = [w for w in work if not np.may_share_memory(w, a)][:3]
    x, x2, tmp = (np.ndarray(a.shape, complex, w) for w in (row_x, row_x2, row_tmp))
    # 1-norm: largest column sum, over the whole stack
    m, s = _taylor_plan(float(np.max(np.abs(a, out=np.ndarray(a.shape, float, row_x)).sum(axis=0), initial=0.0)))
    np.multiply(-1.0j * 0.5**s, a, out=x)
    _mm(x, x, x2, tmp)
    t, tr2 = np.trace(x), np.trace(x2)
    q = 0.5 * (t * t - tr2)
    # x^d in the basis I, x (, x^2)
    if d == 2:
        c = np.stack([-q, t])
    else:
        det = (t * t * t - 3.0 * t * tr2 + 2.0 * np.einsum("ij...,ji...->...", x, x2)) / 6.0
        c = np.stack([det, -q, t])
    # Horner's rule on the coefficients of p in that basis, r <- x r + 1/k!
    r = np.zeros_like(c)
    r[0] = 1.0 / math.factorial(m)
    for k in range(m - 1, -1, -1):
        xr = c * r[-1]
        xr[1:] += r[:-1]
        xr[0] += 1.0 / math.factorial(k)
        r = xr
    # p = r_0 I + r_1 x (+ r_2 x^2), in place on x and x^2
    p = np.multiply(r[1], x, out=x)
    if d == 3:
        p += np.multiply(r[2], x2, out=x2)
    for i in range(d):
        p[i, i] += r[0]
    spare = x2
    for _ in range(s):
        p, spare = _mm(p, p, spare, tmp), p
    return _aos(p)


def su2_matrix(row: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrix [[a, b], [-conj(b), conj(a)]] of top rows (..., 2) = (a, b).

    An SU(2) matrix, or a tangent of SU(2) at one, is fixed by its top row.
    """
    a, b = row[..., 0], row[..., 1]
    return np.stack([row, np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def matpow_with_grad(m: np.ndarray, dm: np.ndarray, n: int) -> np.ndarray:
    """Return the top rows of (m**n, d(m**n)) in closed form, for an SU(2)
    matrix ``m`` and a tangent ``dm``, each given by its top row.

    ``m`` is the top row (a, b) of an SU(2) matrix [[a, b], [-conj(b),
    conj(a)]], and ``dm`` that of a tangent of SU(2) at it (such as m i H
    with H traceless Hermitian), which has the same form.  Both may be
    stacks of shape (..., 2), of one shape.  The two results come stacked
    as one (2, ..., 2) array, which unpacks as the pair.  The work is
    elementwise and the same for any n, so a stack rounds exactly like each
    of its rows on its own.  The name is kept from the square-and-multiply
    form this replaces, since `perfbench/tracer.py` looks it up by name.

    Write m = c I + B, with c = Re a and B traceless and anti-Hermitian of
    norm s = hypot(Im a, |b|), so B^2 = -s^2 I.  The sign of c is folded out
    first, m^k = (-1)^k (-m)^k, so that alpha = atan2(s, c) is at most pi/2.
    Then m^k = cos(k alpha) I + U B with U = sin(k alpha) / s (U = k at
    s = 0), a Chebyshev polynomial of m.  For dm = dc I + dB,

        d(m^k) = k U dc I + U dB + (c U - k cos k alpha) (dc - c (v.dv) / s^2) B,

    where v.dv = Im a Im da + Re(conj(b) db), the derivative of s^2 / 2
    (Frechet derivative of a matrix power: Higham, *Functions of Matrices*,
    SIAM 2008, section 3.2).  On the tangent, c dc + v.dv = 0; written with
    it, the derivative keeps no 1 / sin^2 alpha, and the coefficient of
    (v.dv) / s^2 vanishes like alpha^2, so that term is taken as 0 at s = 0,
    where m = +-I.
    """
    k = int(n)
    if k < 0:
        raise ValueError("negative power")
    # top rows as real 4-vectors: (c, Im a, Re b, Im b), the same for dm
    row, drow = (np.ascontiguousarray(x).view(float) for x in (m, dm))
    c, z, dc, dz = row[..., 0], row[..., 1], drow[..., 0], drow[..., 1]
    s = np.hypot(z, np.abs(m[..., 1]))
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
    top = np.empty((2,) + np.shape(c) + (4,))
    top[0] = u[..., None] * row
    top[1] = u[..., None] * drow + w[..., None] * row
    top[0, ..., 0] = cos_k
    top[1, ..., 0] = (k * u) * dc
    return top.view(complex)


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dag U - 1."""
    d = u.shape[-1]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def step_count(cycles: float) -> int:
    """Initial Magnus step count for a pulse of ``cycles`` periods of its fastest frequency."""
    return max(int(np.ceil(STEPS_PER_PERIOD * cycles)), 50)


def magnus_generators(hamiltonians, duration: float, steps: int, width: int, work: np.ndarray):
    """Three-point Gauss (6th-order) Magnus generators on [-duration/2, duration/2].

    ``hamiltonians(times)`` gives H of shape (T, G, d, d), with G = ``width``.
    The (steps, G, d, d) generators are yielded in time order, in blocks of
    max(1, `MAGNUS_BLOCK` // G) steps, the last block holding the rest.  Each
    step of length h samples a_k = h H at the Gauss nodes 1/2 - sqrt(15)/10,
    1/2 and 1/2 + sqrt(15)/10 of the step, and forms the alpha_1, alpha_2,
    alpha_3 / C_1, C_2 scheme of Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009), section 5, for Y' = -i H Y:

        b1 = a2, b2 = sqrt(15)/3 (a3 - a1), b3 = 10/3 (a3 - 2 a2 + a1),
        c1 = -i [b1, b2], c2 = i/60 [b1, 2 b3 + c1],
        generator = b1 + b3/12 - i/240 [-20 b1 - b3 + c1, b2 + c2],

    with alpha_k = -i b_k, C_k = -i c_k and exp(-i generator) the step.
    Every term is exactly Hermitian (each commutator is taken as
    x y - (x y)^dagger), so each step is unitary to machine precision.

    Every block forms these terms in the seven rows of ``work`` (see
    `workspace`), in the order of operations of the formula above, so that
    each generator is bitwise that formula's.  The block it yields is a view
    of one of those rows: it stays valid until the next block is drawn, which
    overwrites it, so a caller that keeps blocks must copy them.  The
    callback's arrays are never written into: each sample is copied into the
    (d, d, ...) layout, as complex, even where `_soa` would return the
    callback's own memory (a (1, 1, d, d) stack is already in that layout)
    or a real or read-only array.
    """
    h_step = duration / steps
    c = np.sqrt(15.0) / 10.0
    block = max(1, MAGNUS_BLOCK // width)
    d = work.shape[1]
    for start in range(0, steps, block):
        t0 = -duration / 2.0 + h_step * np.arange(start, min(start + block, steps))
        h1, h2, h3, b3, c1, c2, tmp = (np.ndarray((d, d, t0.size, width), complex, w) for w in work)
        for h, node in zip((h1, h2, h3), (0.5 - c, 0.5, 0.5 + c)):
            np.copyto(h, np.moveaxis(hamiltonians(t0 + node * h_step), (-2, -1), (0, 1)))
        # h2 and h3 then hold b1 and b2; h1 holds 2 b3 + c1, then the last commutator
        np.multiply(2.0, h2, out=b3)
        np.subtract(h3, b3, out=b3)
        b3 += h1
        np.multiply(h_step * 10.0 / 3.0, b3, out=b3)
        b2 = np.subtract(h3, h1, out=h3)
        np.multiply(h_step * np.sqrt(15.0) / 3.0, b2, out=b2)
        b1 = np.multiply(h_step, h2, out=h2)
        _commutator(b1, b2, c1, tmp)
        np.multiply(-1.0j, c1, out=c1)
        c2_arg = np.multiply(2.0, b3, out=h1)
        c2_arg += c1
        _commutator(b1, c2_arg, c2, tmp)
        np.multiply(1.0j / 60.0, c2, out=c2)
        b2 += c2
        x = np.multiply(20.0, b1, out=c2)
        np.subtract(c1, x, out=x)
        x -= b3
        x = _commutator(x, b2, h1, tmp)
        np.multiply(1.0j / 240.0, x, out=x)
        b3 /= 12.0
        b1 += b3
        b1 -= x
        yield _aos(b1)


def _commutator(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """[x, y] for Hermitian x and y in the (d, d, ...) layout, from one
    product, written into ``out`` (``tmp`` is scratch, as for `_mm`).

    y x = (x y)^dagger, so [x, y] = x y - (x y)^dagger, which is exactly
    anti-Hermitian in floating point.
    """
    xy = _mm(x, y, out, tmp)
    xy -= np.conjugate(xy.swapaxes(0, 1), out=tmp)
    return xy


def ordered_product(blocks) -> np.ndarray:
    """Time-ordered product of stacked factors, later factors to the left.

    ``blocks`` is an iterable of (S, ..., d, d) arrays of factors in time
    order, block after block.  Each block is reduced pairwise, as a tree of
    batched products of depth log2(S) (Blelloch, CMU-CS-90-190 (1990)), and
    the block products are then multiplied in order.  The result has shape
    (..., d, d).  The tree's two level arrays and its product scratch are
    allocated at the first block, half a block each, and again only for a
    later block larger than the first.  A block is reduced before the next
    is drawn, so it may be a view that the next block overwrites.
    """
    u = levels = None
    for f in blocks:
        if len(f) == 0:
            raise ValueError("ordered_product of no factors")
        f = _soa(f)  # (d, d, S, ...)
        half = f[:, :, 1::2].size
        if levels is None or levels.shape[1] < half:
            levels = np.empty((3, half), dtype=complex)
        if u is None:
            spare, tmp = np.empty((2,) + f.shape[:2] + f.shape[3:], dtype=complex)
        level = 0
        while f.shape[2] > 1:
            n = f.shape[2]
            shape = f.shape[:2] + (n // 2,) + f.shape[3:]
            out, tmp_level = np.ndarray(shape, complex, levels[level]), np.ndarray(shape, complex, levels[2])
            pairs = _mm(f[:, :, 1::2], f[:, :, 0 : n - 1 : 2], out, tmp_level)
            if n % 2:
                pairs[:, :, -1] = _mm(f[:, :, -1], pairs[:, :, -1], spare, tmp)
            f, level = pairs, 1 - level
        if u is None:
            u = f[:, :, 0].copy()
        else:
            u, spare = _mm(f[:, :, 0], u, spare, tmp), u
    if u is None:
        raise ValueError("ordered_product of no factors")
    return np.ascontiguousarray(_aos(u))


def _row_mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Top row of su2_matrix(x) @ su2_matrix(y), for top rows x and y of one
    shape (..., 2): (a1, b1) (a0, b0) = (a1 a0 - b1 conj(b0), a1 b0 + b1 conj(a0))."""
    a1, b1, a0, b0 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    out = np.empty(x.shape, dtype=complex)
    out[..., 0] = a1 * a0 - b1 * b0.conj()
    out[..., 1] = a1 * b0 + b1 * a0.conj()
    return out


def su2_ordered_product(rows: np.ndarray) -> np.ndarray:
    """Top row (..., 2) of the time-ordered product of SU(2) factors given by
    their top rows (S, ..., 2) in time order, later factors to the left.

    The same pairwise tree as `ordered_product`, on top rows: half the data
    of the (S, ..., 2, 2) stack, and 4 complex products per pair instead of
    8.  `su2_matrix` rebuilds the matrix.
    """
    if len(rows) == 0:
        raise ValueError("su2_ordered_product of no factors")
    f = rows
    while len(f) > 1:
        n = len(f)
        pairs = _row_mm(f[1::2], f[0 : n - 1 : 2])
        if n % 2:
            pairs[-1] = _row_mm(f[-1], pairs[-1])
        f = pairs
    return f[0]


def refine_until_stable(propagate, steps: int, tol: float) -> np.ndarray:
    """``propagate(steps)``, doubling ``steps`` until its error estimate is within ``tol``.

    The Magnus step is 6th order, so |U_2s - U_s| / (2^6 - 1) = |U_2s - U_s| / 63
    estimates the error of U_2s (Richardson), in Frobenius norm over the
    whole (stacked) result.  No estimate is taken below eps sqrt(2s n), for a
    result of n entries: each of the 2s factors carries a rounding error of
    about eps per entry, and these add up like a random walk, so a smaller
    |U_2s - U_s| shows rounding, not accuracy, and a ``tol`` below that floor
    is never reached.  (A 5-cycle pulse at 3200 steps lies about 7e-14 from
    one at 25600 steps, and its floor is 2.5e-14.)  Arithmetic that overflows
    or goes invalid, or a step exponential that fails
    (`np.linalg.LinAlgError`), say on a Hamiltonian too large for floating
    point, raises IntegrationError, and no numpy warning is emitted.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            u_prev = propagate(steps)
            for _ in range(MAX_DOUBLINGS):
                steps *= 2
                u = propagate(steps)
                rounding = np.finfo(float).eps * math.sqrt(steps * u.size)
                if max(np.linalg.norm(u - u_prev) / 63.0, rounding) <= tol:
                    return u
                u_prev = u
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        raise IntegrationError(f"propagator step failed: {e}") from e
    raise IntegrationError(f"propagator did not stabilize to {tol} after {MAX_DOUBLINGS} doublings")
