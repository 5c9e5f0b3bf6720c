"""Statistical engine: Fisher information, ML estimation of the phase step,
seed-sweep estimator studies and the iterative lock.

The measurement model is the two-arm Ramsey experiment of `protocols`:
2M atoms, M interrogated with the Hadamard/reference-phase sandwich (arm 1)
and M with the bare train (arm 2).  Everything downstream treats the two
binomial arms as independent samples of known parametric distributions.

Every fit holds the pulse area theta at its known value, the model's
``spec.theta``, and estimates dphi alone, so the model carries dphi
derivatives only, the Fisher information I_dphidphi is a number, and the
Cramer-Rao bound is 1 / I_dphidphi (Kay, *Estimation Theory*, 1993, ch. 3).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFitError, SingularInformationError, WrapAmbiguityError
from .protocols import (
    ProtocolSpec, RamseyOutcomeModel, ramsey_model, ramsey_probabilities, train_unitary_with_grad,
)

_PCLIP = 1e-12  # probability floor used inside likelihoods only
#: points of the fixed-theta fringe grid over the dphi window (64 intervals)
_GRID_POINTS = 65
#: Illinois iterations after which a fit that has not met its tolerance stops
_ROOT_ITERATIONS = 100
#: reference phases on the grid of `optimize_reference_phase` before its refinement
_REFERENCE_GRID = 64
#: points of each nested grid of `_refine_argmax`, and how many grids it nests
_REFINE_POINTS = 65
_REFINE_ROUNDS = 4
#: longest train the lock grows to
_N_MAX = 1 << 20
#: the lock keeps chi * (residual bound) below this fraction of pi
_SAFETY_FRACTION = 0.25


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of the two arms; counts are per outcome s in {0, 1}."""

    m_shots: int
    counts1: np.ndarray
    counts2: np.ndarray

    def __post_init__(self):
        for arm in ("counts1", "counts2"):
            c = np.asarray(getattr(self, arm), dtype=int)
            if c.shape != (2,) or c.sum() != self.m_shots:
                raise ValueError(f"{arm} must be two outcomes summing to m_shots")
            object.__setattr__(self, arm, c)


@dataclass(frozen=True)
class EstimationResult:
    dphi_hat: float
    bound: float  # Cramer-Rao bound 1 / I_dphidphi at the estimate
    converged: bool
    n_evaluations: int


def _information(probs, m_shots: int, chi: float):
    """dphi Fisher information (...) and a (...) mask of singular points.

    ``probs`` is an `evaluate` tuple (p1, p2, dp1_dphi, dp2_dphi), each
    indexed by the outcome on its last axis.  I = sum over both arms and
    outcomes of M (dP/ddphi)^2 / P.
    Outcomes with P = 0 contribute nothing when their dphi derivative also
    vanishes (removable); a vanishing probability with a nonzero dphi
    derivative means the score diverges, and the point is flagged.  The
    test looks at dP/ddphi alone, since it is the only derivative in I.
    """
    p1, p2, d1, d2 = probs
    info = 0.0
    singular = False
    for p, dp in ((p1, d1), (p2, d2)):
        for s in range(2):
            ps, ds = p[..., s], dp[..., s]
            node = ps < 1e-14
            # Near a fringe node P ~ d^2 and dP ~ 2 chi d, so the term
            # dP^2 / P stays bounded by ~4 chi^2 (removable).  A genuine
            # P -> 0 crossing with finite slope blows far past that.
            square = ds * ds
            ratio = square / np.maximum(ps, 1e-300)
            singular = singular | (node & (ratio > max(1e8, 1e4 * chi * chi)))
            info = info + np.where(node, 0.0, m_shots * square / np.where(node, 1.0, ps))
    return info, singular


def _information_at(model: RamseyOutcomeModel, dphi, m_shots):
    """dphi information at ``dphi`` (scalar or array); raises if any point is singular."""
    info, singular = _information(model.evaluate(dphi), m_shots, model.spec.enhancement)
    if np.any(singular):
        raise SingularInformationError("outcome probability vanishes with nonzero derivative")
    return info


def fisher_matrix(model: RamseyOutcomeModel, dphi: float, m_shots: int) -> float:
    """I_dphidphi = sum over both arms and outcomes of M (dP/ddphi)^2 / P at
    the model's known pulse area.

    Outcomes with P = 0 contribute nothing when their derivative also
    vanishes (removable); a vanishing probability with a nonzero derivative
    means the score diverges and raises SingularInformationError.  The name
    predates the scalar result; `perfbench/tracer.py` wraps it by name.
    """
    return float(_information_at(model, dphi, m_shots))


def _check_theta(model: RamseyOutcomeModel, theta) -> None:
    """Raise ValueError unless ``theta`` is the model's pulse area ``spec.theta``."""
    if theta != model.spec.theta:
        raise ValueError(f"theta {theta!r} differs from the model's pulse area {model.spec.theta!r}")


def sample_record(
    model: RamseyOutcomeModel,
    theta: float,
    dphi: float,
    m_shots: int,
    seed: int,
) -> MeasurementRecord:
    """Binomial draws of ``m_shots`` from each arm; deterministic under the seed.

    The model holds the pulse area; ``theta`` must equal ``model.spec.theta``
    (ValueError otherwise).  The slot stays only for callers that pass it.
    The model caches the outcome probabilities at the latest ``dphi`` only,
    so the records of one study evaluate the model once, and a lock that
    samples each stage at a new residual keeps one entry per model.
    """
    _check_theta(model, theta)
    rng = np.random.default_rng(seed)
    cached = model.cache.get("probs")
    if cached is None or cached[0] != dphi:
        cached = model.cache["probs"] = (dphi, model.evaluate(dphi))
    p1, p2, *_ = cached[1]
    n1 = rng.binomial(m_shots, min(max(p1[1], 0.0), 1.0))
    n2 = rng.binomial(m_shots, min(max(p2[1], 0.0), 1.0))
    return MeasurementRecord(m_shots, np.array([m_shots - n1, n1]), np.array([m_shots - n2, n2]))


def log_likelihood_and_grad(record: MeasurementRecord, model, dphi):
    """Joint log-likelihood of both arms and its analytic dphi score at one dphi.

    The fit engine `_fit_records` computes the same score for many records at
    once; this scalar form is the reference that tests check it against, and
    `perfbench/tracer.py` wraps it by name.
    """
    p1, p2, d1, d2 = model.evaluate(dphi)
    ll = 0.0
    score = 0.0
    for counts, p, dp in ((record.counts1, p1, d1), (record.counts2, p2, d2)):
        pc = np.clip(p, _PCLIP, 1.0)
        ll = ll + np.sum(counts * np.log(pc), axis=-1)
        score = score + np.sum(counts / pc * dp, axis=-1)
    return float(ll), float(score)


def ml_estimate(
    record: MeasurementRecord,
    model: RamseyOutcomeModel,
    init: tuple[float, float],
    fix_theta: bool = True,
) -> EstimationResult:
    """Maximum-likelihood estimate of dphi with theta held at ``model.spec.theta``.

    ``init`` is (theta, initial dphi guess).  Its theta must equal
    ``model.spec.theta`` (ValueError otherwise); the slot stays only for
    callers that pass it.  The fit window is the unambiguous quarter-fringe
    pi / (4 chi) around ``init[1]``; an initial accumulated phase beyond the
    fringe raises WrapAmbiguityError (use `iterative_refine` instead), and a
    window without phase information raises DegenerateFitError.
    ``fix_theta=False`` raises ValueError: the joint (theta, dphi) fit has
    been removed, and the keyword stays only for callers that pass True.

    The fit is the one-record call of the batched engine `_fit_records`.
    Fits are memoised on the model, keyed by the initial dphi, ``m_shots``
    and both arms' counts; `estimator_study` fills the memo with all its
    distinct records from one engine call.  The first read of a stored fit
    returns it with the score evaluations its fit took, and later reads of
    the same record return it with ``n_evaluations=0``.  The wrap and
    phase-information checks run before the lookup, and a fit that raises
    stores nothing, so errors repeat as well.
    """
    if not fix_theta:
        raise ValueError("the joint (theta, dphi) fit has been removed; theta is always fixed")
    _check_theta(model, init[0])
    dphi0 = float(init[1])
    _fit_window(model, dphi0, record.m_shots)
    counts = [*record.counts1.tolist(), *record.counts2.tolist()]
    key = _memo_key(dphi0, record.m_shots, counts)
    result = model.cache.get(key)
    if result is None:
        result = _fit_records(model, np.array([counts]), record.m_shots, dphi0)[0]
    model.cache[key] = replace(result, n_evaluations=0)
    return result


def _memo_key(dphi0: float, m_shots: int, counts) -> tuple:
    """`ml_estimate`'s memo key of a record with ``counts`` (arm 1's outcomes
    0 and 1, then arm 2's) fit around ``dphi0``."""
    return ("fit", dphi0, m_shots, tuple(counts))


def distinct_fits(models) -> int:
    """Number of distinct records fit on ``models``: their memo entries."""
    return sum(key[0] == "fit" for model in models for key in model.cache)


def _fit_window(model, dphi0: float, m_shots: int):
    """(grid, terms, nodes) of the `_fringe_grid` over the fit window
    pi / (4 chi) around ``dphi0``, after the wrap and phase-information
    checks."""
    chi = model.spec.enhancement
    if abs(chi * dphi0) >= np.pi:
        raise WrapAmbiguityError(
            "initial accumulated phase exceeds pi; run iterative refinement"
        )
    window = np.pi / (4.0 * chi)
    grid, terms, nodes, peak = _fringe_grid(model, dphi0 - window, dphi0 + window)
    if m_shots * peak / (chi * chi) <= 1e-9:
        raise DegenerateFitError("no phase information anywhere in the window")
    return grid, terms, nodes


def _fringe_grid(model, lo, hi):
    """(grid, terms, nodes, peak) over [lo, hi] from one batched evaluation
    cached on the model.

    ``terms`` has shape (4, 2, 65): for each outcome column (arm 1 s = 0, 1,
    then arm 2 s = 0, 1) its clipped log-probability and its dphi score
    weight (dP/dphi) / P on the 65-point grid.  ``nodes`` (4, 65) marks the
    grid points where an outcome's probability is clipped at `_PCLIP`, for
    an outcome that is not clipped across the whole grid; it is None when
    no point is marked.  ``peak`` is the largest per-shot dphi information
    on the grid.  Isolated fringe nodes are fine, a window-wide blind spot
    is not, which is why the whole grid is looked at.  A singular grid point
    raises SingularInformationError and caches nothing.
    """
    key = ("grid", lo, hi)
    if key not in model.cache:
        grid = np.linspace(lo, hi, _GRID_POINTS)
        probs = model.evaluate(grid)
        info, singular = _information(probs, 1, model.spec.enhancement)
        if np.any(singular):
            raise SingularInformationError("outcome probability vanishes with nonzero derivative")
        p1, p2, d1p, d2p = probs
        pc = np.clip(np.concatenate([p1, p2], axis=-1), _PCLIP, 1.0).T
        dp = np.concatenate([d1p, d2p], axis=-1).T
        terms = np.stack([np.log(pc), dp / pc], axis=1)
        nodes = pc == _PCLIP
        nodes &= ~nodes.all(axis=1, keepdims=True)
        nodes = nodes if nodes.any() else None
        model.cache[key] = (grid, terms, nodes, max(0.0, float(np.max(info))))
    return model.cache[key]


def _falling_bracket(up, down, k):
    """Grid indices (a, b) next to k where the score falls through zero, or None.

    ``up`` and ``down`` are the grid scores as seen just above and just
    below each point; they differ only at a pole (see `_fit_records`).  The
    two grid neighbours of k come first.  If their scores share a sign that
    the score at k does not, the root lies between k and one neighbour.
    """
    a, b = max(k - 1, 0), min(k + 1, len(up) - 1)
    for lo, hi in ((a, b), (k, b), (a, k)):
        if np.sign(up[lo]) > np.sign(down[hi]):
            return lo, hi
    return None


def _row_scores(model, x, counts1, counts2):
    """dphi score of each row of the arms' counts (R, 2) at its own ``x``
    (R,), from one evaluation of the model; the arithmetic of
    `log_likelihood_and_grad`.  Returns the scores and that evaluation, its
    (p1, p2, dp1_dphi, dp2_dphi) stacked as one (4, R, 2) array."""
    probs = p1, p2, d1, d2 = model.evaluate(x)
    # np.minimum(np.maximum(...)) is np.clip without its per-call overhead
    score = (
        (counts1 / np.minimum(np.maximum(p1, _PCLIP), 1.0) * d1).sum(axis=-1)
        + (counts2 / np.minimum(np.maximum(p2, _PCLIP), 1.0) * d2).sum(axis=-1)
    )
    return score, np.stack(probs)


def _fit_records(model, counts, m_shots: int, dphi0: float = 0.0) -> list[EstimationResult]:
    """Fixed-theta ML fits of R records of one model together, one
    `EstimationResult` per row of ``counts`` (R, 4): arm 1's outcomes 0 and
    1, then arm 2's, each row summing to ``m_shots`` per arm.

    - **Grid.** The counts meet the `_fringe_grid` terms of the window around
      ``dphi0`` in one (R, 2, 65) product, which gives every row's
      log-likelihood and score on the grid.  It is written as four broadcast
      products rather than a BLAS matmul, whose kernel changes with R, so a
      row rounds the same in any batch.
    - **Brackets.** Each row takes `_falling_bracket` beside its best grid
      point, and a bracket of two grid intervals keeps the half where the
      grid score at that point changes sign.  A row without a bracket has
      its maximum on or beyond the window edge and returns the best grid
      point with ``converged=False``; a row with a zero score at a bracket
      end returns that end.
    - **Poles.** At a `_fringe_grid` node of an outcome the row observed,
      the log-likelihood falls to -inf, so the score is +inf just above the
      point and -inf just below it: such a point is never a root or a
      zero-score end.
    - **Roots.** The Illinois modified regula falsi (Dowell & Jarratt, BIT
      11, 168, 1971): a secant step inside the bracket, and the score kept
      at the bracket's old end is halved whenever the new point lands on the
      same side as the last one; while that end is a pole the step bisects
      the bracket instead.  Every active row moves from one
      `model.evaluate` of the active rows per iteration.  A row stops at its
      latest point once its next secant step is shorter than half of
      ``xtol = 1e-12 / chi``; one still open after `_ROOT_ITERATIONS`
      iterations stops with ``converged=False``.  ``n_evaluations`` counts
      the iterations a row took part in.
    - **Bound.** 1 / I_dphidphi at every row's estimate: infinite at a
      point without information, such as a fringe node, and
      SingularInformationError at a singular one.  A row whose root is its
      last iterate takes it from the evaluation of its last score; the rows
      whose root is a grid point share one batched evaluation.

    Each row's result is bit-for-bit the one it gets when fit alone.
    """
    counts = np.asarray(counts, dtype=float).reshape(-1, 4)
    grid, terms, nodes = _fit_window(model, dphi0, m_shots)
    both = (counts[:, 0, None, None] * terms[0] + counts[:, 1, None, None] * terms[1]) + (
        counts[:, 2, None, None] * terms[2] + counts[:, 3, None, None] * terms[3]
    )
    ll, score = both[:, 0], both[:, 1]
    up = down = score
    if nodes is not None:  # the window holds fringe nodes
        pole = ((counts[:, :, None] > 0) & nodes).any(axis=1)
        up, down = np.where(pole, np.inf, score), np.where(pole, -np.inf, score)
    best = np.argmax(ll, axis=1)
    root = grid[best]
    converged = np.zeros(len(counts), dtype=bool)
    evaluations = np.zeros(len(counts), dtype=int)
    rows, ends = [], []
    for r, k in enumerate(best.tolist()):
        bracket = _falling_bracket(up[r], down[r], k)
        if bracket is None:
            continue
        converged[r] = True
        lo, hi = bracket
        if hi - lo == 2:  # the grid score at k tells which half holds the root
            lo, hi = (lo, k) if np.sign(up[r, lo]) > np.sign(down[r, k]) else (k, hi)
        if up[r, lo] == 0.0 or down[r, hi] == 0.0:
            root[r] = grid[lo] if up[r, lo] == 0.0 else grid[hi]
        else:
            rows.append(r)
            ends.append((lo, hi))
    rows = np.array(rows, dtype=int)
    lo, hi = np.array(ends, dtype=int).reshape(-1, 2).T
    # b is the latest point and a the end kept from earlier steps; their
    # scores have opposite signs, so the secant step never divides by zero
    a, b = grid[lo], grid[hi]
    fa, fb = up[rows, lo], down[rows, hi]
    poles = nodes is not None and bool(np.isinf(fa).any() or np.isinf(fb).any())
    if poles:  # keep each pole as the end a, the one the loop bisects towards
        swap = np.isinf(fb)
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        fa, fb = np.where(swap, fb, fa), np.where(swap, fa, fb)
    counts1, counts2 = counts[rows, :2], counts[rows, 2:]
    xtol = 1e-12 / model.spec.enhancement
    # the evaluation at each row's root, for the rows whose root is an iterate
    at_root = np.empty((4, len(counts), 2))
    iterate = np.zeros(len(counts), dtype=bool)
    for n in range(_ROOT_ITERATIONS):
        step = fb * (b - a) / (fb - fa)
        if poles:
            step = np.where(np.isinf(fa), 0.5 * (b - a), step)
        done = np.abs(step) < 0.5 * xtol
        if np.count_nonzero(done):
            root[rows[done]] = b[done]
            evaluations[rows[done]] = n
            open_ = ~done
            if n:  # b is the last iterate, not a bracket end
                at_root[:, rows[done]] = last[:, done]
                iterate[rows[done]] = True
                last = last[:, open_]
            rows, a, b, fa, fb, step, counts1, counts2 = (
                v[open_] for v in (rows, a, b, fa, fb, step, counts1, counts2)
            )
        if not rows.size:
            break
        x = b - step
        fx, last = _row_scores(model, x, counts1, counts2)
        crossed = np.sign(fx) != np.sign(fb)
        a, fa = np.where(crossed, b, a), np.where(crossed, fb, 0.5 * fa)
        b, fb = x, fx
    if rows.size:
        root[rows] = b
        evaluations[rows] = _ROOT_ITERATIONS
        converged[rows] = False
        at_root[:, rows] = last
        iterate[rows] = True
    info = np.empty(len(counts))
    info[iterate], singular = _information(at_root[:, iterate], m_shots, model.spec.enhancement)
    if np.any(singular):
        raise SingularInformationError("outcome probability vanishes with nonzero derivative")
    if not iterate.all():
        info[~iterate] = _information_at(model, root[~iterate], m_shots)
    return [
        EstimationResult(dp, 1.0 / i if i else np.inf, c, e)
        for dp, i, c, e in zip(root.tolist(), info.tolist(), converged.tolist(), evaluations.tolist())
    ]


def _refine_argmax(f, x, half):
    """Maximum of the vectorised ``f`` near ``x``, as ``(argmax, value)``.

    A grid of `_REFINE_POINTS` over ``x +- half`` is recentred on its best
    point and narrowed to one grid step either side, `_REFINE_ROUNDS` times;
    each grid holds the previous best point, so the value never falls.
    """
    for _ in range(_REFINE_ROUNDS):
        xs = x + np.linspace(-half, half, _REFINE_POINTS)
        values = f(xs)
        k = int(np.argmax(values))
        x, best = xs[k], values[k]
        half *= 2.0 / (_REFINE_POINTS - 1)
    return float(x), float(best)


def optimize_reference_phase(spec: ProtocolSpec, dphi: float) -> float:
    """Reference phase maximizing the dphi Fisher information at the pulse
    area ``spec.theta``.

    A 64-point grid over [0, 2 pi) picks the start, then `_refine_argmax`
    narrows 4 nested 65-point grids within one grid step of it, to about
    1e-7 rad.  The refined point replaces the grid point only if it carries
    over 1 + 1e-9 times its information, so where the information is flat
    in xi the grid point stays.

    The information is taken per shot, since the shot count scales it and
    leaves the argmax alone.  The train does not depend on the reference
    phase, so its unitary and dphi derivative are computed once and every probe
    only re-applies arm 1.
    """
    train = train_unitary_with_grad(spec, dphi)
    chi = spec.enhancement

    def probe(xi):
        """(dphi information, fringe imbalance |P1(1) - 1/2|) at reference phase(s) xi."""
        probs = ramsey_probabilities(train, np.mod(xi, 2.0 * np.pi))
        info, singular = _information(probs, 1, chi)
        info = np.where(singular, 0.0, info)
        return info, np.where(singular, 1.0, np.abs(probs[0][..., 1] - 0.5))

    xis = np.linspace(0.0, 2.0 * np.pi, _REFERENCE_GRID, endpoint=False)
    info, imbalance = probe(xis)
    best_i = info.max()
    # The information is often flat in xi; among near-maximal points prefer a
    # balanced fringe so finite-sample ML behaves like the asymptotic theory.
    # xi and xi + pi mirror the fringe and tie exactly, so rounding must not
    # decide: ties within 1e-12 go to the smallest xi.
    imbalance = np.where(info >= best_i * (1.0 - 1e-9), imbalance, np.inf)
    best_xi = xis[np.argmax(imbalance <= imbalance.min() + 1e-12)]
    xi, refined = _refine_argmax(lambda x: probe(x)[0], best_xi, 2.0 * np.pi / _REFERENCE_GRID)
    if refined > best_i * (1.0 + 1e-9):
        best_xi = xi
    return float(np.mod(best_xi, 2.0 * np.pi))


# --- seed-sweep estimator study -------------------------------------------


def estimator_study(
    spec: ProtocolSpec,
    dphi: float,
    m_shots: int,
    seeds,
) -> tuple[np.ndarray, float, dict]:
    """Fixed-theta ML estimates of ``dphi`` over simulated experiments.

    The reference phase is chosen for maximal dphi information at the true
    point, then each seed draws one record of ``m_shots`` per arm, one
    `sample_record` call per seed.  The distinct records are fit together by
    one `_fit_records` call and stored in the model's fit memo, and each
    seed reads its fit through `ml_estimate`, so a study's model evaluations
    do not grow with its number of distinct records.

    Returns the estimates in seed order, the fixed-theta Cramer-Rao bound
    1 / I_dphidphi on the variance of one experiment's estimate (the bound
    `ml_estimate` reports), and the study's diagnostics: ``fits`` (one per
    seed), ``distinct_records``, ``nonconverged`` fits, fits ``pinned``
    within 0.98 of the window edge, and ``score_evaluations``, the
    ``n_evaluations`` of the distinct records' fits summed.  A study none of
    whose fits converged raises DegenerateFitError: its estimates are not
    maximum-likelihood estimates, and their spread says nothing about the
    estimator.
    """
    xi = optimize_reference_phase(spec, dphi)
    model = ramsey_model(replace(spec, reference_phase=xi))
    records = [sample_record(model, spec.theta, dphi, m_shots, s) for s in seeds]
    counts = np.array([[*r.counts1, *r.counts2] for r in records], dtype=int).reshape(-1, 4)
    distinct = np.unique(counts, axis=0)
    distinct_fits = _fit_records(model, distinct, m_shots)
    for row, fit in zip(distinct.tolist(), distinct_fits):
        model.cache[_memo_key(0.0, m_shots, row)] = fit
    fits = [ml_estimate(rec, model, (spec.theta, 0.0)) for rec in records]
    if fits and not any(f.converged for f in fits):
        raise DegenerateFitError(f"none of the {len(fits)} fits of the study converged")
    estimates = np.array([f.dphi_hat for f in fits], dtype=float)
    window = np.pi / (4.0 * spec.enhancement)
    diagnostics = {
        "fits": len(fits),
        "distinct_records": len(distinct),
        "nonconverged": sum(not f.converged for f in fits),
        "pinned": int(np.sum(np.abs(estimates) >= 0.98 * window)),
        "score_evaluations": sum(f.n_evaluations for f in distinct_fits),
    }
    return estimates, 1.0 / fisher_matrix(model, dphi, m_shots), diagnostics


# --- offset-frequency resolution ------------------------------------------


def offset_resolution(rep_rate: float, n: int, n_delay: int = 1) -> float:
    """Single-shot offset-frequency resolution f_rep / (N N_d) [Hz].

    Raises ValueError unless N >= 1, N_d >= 0 and the rate is positive and
    finite; N_d = 0 (no delay) counts as 1.
    """
    if n < 1 or n_delay < 0 or not (np.isfinite(rep_rate) and rep_rate > 0):
        raise ValueError(
            f"need n >= 1, n_delay >= 0 and a positive finite rep rate, got "
            f"n={n}, n_delay={n_delay}, rep_rate={rep_rate}"
        )
    return rep_rate / (n * max(n_delay, 1))


# --- iterative refinement -------------------------------------------------


@dataclass(frozen=True)
class RefineConfig:
    m_shots: int = 10000
    growth: int = 4
    max_stages: int = 6
    prior_bound: float = 0.02  # |dphi| known a priori [rad]
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m_shots", 1), ("growth", 2), ("max_stages", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class RefineStage:
    n: int
    dphi_hat: float  # estimated residual at this stage
    residual: float  # true residual after feedback
    crlb_sigma: float


@dataclass(frozen=True)
class RefineTrace:
    stages: list[RefineStage]
    locked: bool
    final_crlb_sigma: float
    backoffs: int  # fits that pinned to the window edge and shortened the train
    nonconverged: int  # fits, back-offs included, whose root did not converge
    score_evaluations: int  # n_evaluations summed over the fits, back-offs included

    @property
    def final_residual(self) -> float:
        return self.stages[-1].residual


def iterative_refine(
    true_dphi: float,
    config: RefineConfig = RefineConfig(),
    models: dict[ProtocolSpec, RamseyOutcomeModel] | None = None,
) -> RefineTrace:
    """Lock a simulated comb: estimate, feed back, grow the train, repeat.

    Each stage runs protocol 1B at quadrature reference phase.  The next
    train grows by ``growth``, capped so that five CRLB standard deviations
    of the stage's estimate, the residual bound the controller can know,
    stay inside the unambiguous fringe.  A fit that pins to its window edge
    is treated as a wrap: the stage backs off once to N // growth, rounded
    down to an even length, and aborts with WrapAmbiguityError if it happens
    again.  ``RefineTrace.backoffs`` counts the back-offs,
    ``RefineTrace.nonconverged`` the fits, back-offs included, that returned
    ``converged=False``, and ``RefineTrace.score_evaluations`` sums their
    ``n_evaluations``.

    ``models`` maps each stage's `ProtocolSpec` to its outcome model.  A
    dict shared by several locks lets them reuse one model per train length,
    and with it the fringe grid cached on the model; the locks' results do
    not change.  Models missing from the dict
    are built and added.  With ``None`` the lock keeps a dict of its own.
    """
    if abs(true_dphi) > config.prior_bound * 1.001:
        raise WrapAmbiguityError("true offset exceeds the assumed prior bound")
    if models is None:
        models = {}
    residual = float(true_dphi)
    bound = config.prior_bound
    stages: list[RefineStage] = []
    n = _safe_train_length(bound)
    backoffs = nonconverged = score_evaluations = 0
    stage_idx = 0
    while stage_idx < config.max_stages:
        spec = ProtocolSpec("1B", n, 0, np.pi / 2.0, np.pi / 2.0)
        if spec not in models:
            models[spec] = ramsey_model(spec)
        model = models[spec]
        rec = sample_record(
            model, spec.theta, residual, config.m_shots, seed=config.seed + 7919 * stage_idx
        )
        window = np.pi / (4.0 * spec.enhancement)
        est = ml_estimate(rec, model, (spec.theta, 0.0))
        nonconverged += not est.converged
        score_evaluations += est.n_evaluations
        if abs(est.dphi_hat) >= 0.98 * window:
            if backoffs:
                raise WrapAmbiguityError(
                    f"estimate pinned to the fringe edge twice at N={n}"
                )
            backoffs += 1
            n = max(n // config.growth, 2)
            n -= n % 2
            continue
        residual -= est.dphi_hat
        crlb_sigma = float(np.sqrt(est.bound))
        stages.append(RefineStage(n, est.dphi_hat, residual, crlb_sigma))
        stage_idx += 1
        bound = 5.0 * crlb_sigma
        n_next = min(n * config.growth, _safe_train_length(bound))
        n_next -= n_next % 2
        if n_next <= n:
            break
        n = n_next
    final_sigma = stages[-1].crlb_sigma
    return RefineTrace(
        stages=stages,
        locked=bool(abs(stages[-1].residual) <= 3.0 * final_sigma),
        final_crlb_sigma=final_sigma,
        backoffs=backoffs,
        nonconverged=nonconverged,
        score_evaluations=score_evaluations,
    )


def _safe_train_length(bound: float) -> int:
    """Longest even train, at most `_N_MAX`, whose fringe keeps ``bound`` unambiguous."""
    if bound <= 0:
        return _N_MAX
    n = int(_SAFETY_FRACTION * np.pi / bound)
    n = max(n - (n % 2), 2)  # even for the 1B closed form
    return min(n, _N_MAX)
