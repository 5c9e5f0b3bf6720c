"""Statistical engine: Fisher information, ML estimation of the phase step,
seed-sweep estimator studies and the iterative lock.

The measurement model is the two-arm Ramsey experiment of `protocols`:
2M atoms, M interrogated with the Hadamard/reference-phase sandwich (arm 1)
and M with the bare train (arm 2).  Everything downstream treats the two
binomial arms as independent samples of known parametric distributions.

Every fit holds the pulse area theta at its known value and estimates dphi
alone, so the model carries dphi derivatives only, the Fisher information
I_dphidphi is a number, and the Cramer-Rao bound is 1 / I_dphidphi (Kay,
*Estimation Theory*, 1993, ch. 3).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .errors import DegenerateFitError, SingularInformationError, WrapAmbiguityError
from .protocols import (
    ProtocolSpec, RamseyOutcomeModel, ramsey_model, ramsey_probabilities, train_unitary_with_grad,
)

_PCLIP = 1e-12  # probability floor used inside likelihoods only
#: points of the fixed-theta fringe grid over the dphi window (64 intervals)
_GRID_POINTS = 65
#: reference phases on the grid of `optimize_reference_phase` before its refinement
_REFERENCE_GRID = 64
#: longest train the lock grows to
_N_MAX = 1 << 20
#: the lock keeps chi * (residual bound) below this fraction of pi
_SAFETY_FRACTION = 0.25


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of the two arms; counts are per outcome s in {0, 1}."""

    m_shots: int
    counts1: np.ndarray
    counts2: np.ndarray | None = None

    def __post_init__(self):
        c1 = np.asarray(self.counts1, dtype=int)
        if c1.shape != (2,) or c1.sum() != self.m_shots:
            raise ValueError("arm-1 counts must be two outcomes summing to m_shots")
        object.__setattr__(self, "counts1", c1)
        if self.counts2 is not None:
            c2 = np.asarray(self.counts2, dtype=int)
            if c2.shape != (2,) or c2.sum() != self.m_shots:
                raise ValueError("arm-2 counts must be two outcomes summing to m_shots")
            object.__setattr__(self, "counts2", c2)


@dataclass(frozen=True)
class EstimationResult:
    dphi_hat: float
    variance: float  # inverse observed dphi information at the estimate
    bound: float  # Cramer-Rao bound 1 / I_dphidphi at the estimate
    ratio: float  # variance / bound
    converged: bool
    n_evaluations: int


def _arm_terms(probs, arms):
    """(p, dp_dphi) of each arm in ``arms`` from an `evaluate` tuple."""
    p1, p2, d1, d2 = probs
    out = []
    if "p1" in arms:
        out.append((p1, d1))
    if "p2" in arms:
        out.append((p2, d2))
    return out


def _information(arm_terms, m_shots: int, chi: float):
    """dphi Fisher information (...) and a (...) mask of singular points.

    ``arm_terms`` holds (p, dp_dphi) per arm, each indexed by the outcome on
    its last axis.  I = sum over arms and outcomes of M (dP/ddphi)^2 / P.
    Outcomes with P = 0 contribute nothing when their dphi derivative also
    vanishes (removable); a vanishing probability with a nonzero dphi
    derivative means the score diverges, and the point is flagged.  The
    test looks at dP/ddphi alone, since it is the only derivative in I.
    """
    info = 0.0
    singular = False
    for p, dp in arm_terms:
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


def _information_at(model: RamseyOutcomeModel, theta, dphi, m_shots, arms):
    """dphi information at ``dphi`` (scalar or array); raises if any point is singular."""
    terms = _arm_terms(model.evaluate(theta, dphi), arms)
    info, singular = _information(terms, m_shots, model.spec.enhancement)
    if np.any(singular):
        raise SingularInformationError("outcome probability vanishes with nonzero derivative")
    return info


def fisher_matrix(
    model: RamseyOutcomeModel,
    theta: float,
    dphi: float,
    m_shots: int,
    arms=("p1", "p2"),
) -> float:
    """I_dphidphi = sum over arms and outcomes of M (dP/ddphi)^2 / P, theta known.

    Outcomes with P = 0 contribute nothing when their derivative also
    vanishes (removable); a vanishing probability with a nonzero derivative
    means the score diverges and raises SingularInformationError.  The name
    predates the scalar result; `perfbench/tracer.py` wraps it by name.
    """
    return float(_information_at(model, theta, dphi, m_shots, arms))


def _dphi_bound(model, theta, dphi, m_shots, arms=("p1", "p2")) -> float:
    """Cramer-Rao bound on the variance of a dphi estimate with theta known."""
    return 1.0 / fisher_matrix(model, theta, dphi, m_shots, arms)


def sample_record(
    model: RamseyOutcomeModel,
    theta: float,
    dphi: float,
    m_shots: int,
    seed: int,
    arms=("p1", "p2"),
) -> MeasurementRecord:
    """Binomial draws from both arms; deterministic under the seed."""
    rng = np.random.default_rng(seed)
    p1, p2, *_ = model.evaluate(theta, dphi)
    c1 = None
    c2 = None
    if "p1" in arms:
        n1 = rng.binomial(m_shots, np.clip(p1[1], 0.0, 1.0))
        c1 = np.array([m_shots - n1, n1])
    if "p2" in arms:
        n2 = rng.binomial(m_shots, np.clip(p2[1], 0.0, 1.0))
        c2 = np.array([m_shots - n2, n2])
    if c1 is None:
        raise ValueError("arm 1 is required in a measurement record")
    return MeasurementRecord(m_shots=m_shots, counts1=c1, counts2=c2)


def log_likelihood_and_grad(record: MeasurementRecord, model, theta, dphi):
    """Joint log-likelihood of both arms and its analytic dphi score."""
    p1, p2, d1, d2 = model.evaluate(theta, dphi)
    ll = 0.0
    score = 0.0
    sets = [(record.counts1, p1, d1)]
    if record.counts2 is not None:
        sets.append((record.counts2, p2, d2))
    for counts, p, dp in sets:
        pc = np.clip(p, _PCLIP, 1.0)
        ll += float(np.sum(counts * np.log(pc)))
        score += float(np.sum(counts / pc * dp))
    return ll, score


def ml_estimate(
    record: MeasurementRecord,
    model: RamseyOutcomeModel,
    init: tuple[float, float],
    fix_theta: bool = True,
    dphi_window: float | None = None,
) -> EstimationResult:
    """Maximum-likelihood estimate of dphi with theta held at ``init[0]``.

    ``dphi_window`` defaults to the unambiguous quarter-fringe pi / (4 chi)
    around the initial guess ``init[1]``; a non-positive or non-finite
    window raises ValueError, and an initial accumulated phase beyond the
    fringe raises WrapAmbiguityError (use `iterative_refine` instead).
    ``fix_theta=False`` raises ValueError: the joint (theta, dphi) fit has
    been removed, and the keyword stays only for callers that pass True.

    The log-likelihood is scanned on a 65-point dphi grid over the window,
    and the estimate is the root of the analytic dphi score (brentq) in a
    grid interval next to the best grid point where the score falls through
    zero.  If there is none, the maximum lies on or beyond the window edge:
    the best grid point is returned with ``converged=False``.  The grid and
    the phase-information probes depend only on the model and the window, so
    they are computed once per model and shared by its records;
    ``n_evaluations`` counts the score evaluations of this record alone.
    ``variance`` is the inverse observed information and ``bound`` the
    fixed-theta Cramer-Rao bound 1 / I_dphidphi, both at the estimate.
    """
    if not fix_theta:
        raise ValueError("the joint (theta, dphi) fit has been removed; theta is always fixed")
    theta, dphi0 = float(init[0]), float(init[1])
    chi = model.spec.enhancement
    if dphi_window is None:
        dphi_window = np.pi / (4.0 * chi)
    elif not (np.isfinite(dphi_window) and dphi_window > 0.0):
        raise ValueError(f"dphi_window must be positive and finite, got {dphi_window}")
    if abs(chi * dphi0) >= np.pi:
        raise WrapAmbiguityError(
            "initial accumulated phase exceeds pi; run iterative refinement"
        )
    arms = ("p1",) if record.counts2 is None else ("p1", "p2")
    if _phase_information(model, theta, dphi0, dphi_window, record.m_shots, arms) <= 1e-9:
        raise DegenerateFitError("no phase information anywhere in the window")

    dp, converged, n_evaluations = _fixed_theta_fit(
        record, model, theta, dphi0 - dphi_window, dphi0 + dphi_window, chi
    )
    bound = _dphi_bound(model, theta, dp, record.m_shots, arms)
    variance = _observed_variance(record, model, theta, dp, chi)
    return EstimationResult(
        dphi_hat=dp,
        variance=variance,
        bound=bound,
        ratio=variance / bound,
        converged=converged,
        n_evaluations=n_evaluations,
    )


def _phase_information(model, theta, dphi0, window, m_shots, arms):
    """Largest dphi information, over chi^2, at five points of the window.

    Isolated nodes are fine, a window-wide blind spot is not, so the
    information is probed at several points.  Cached on the model per window.
    """
    key = ("probes", theta, dphi0, window, m_shots, arms)
    if key not in model.cache:
        chi = model.spec.enhancement
        probes = dphi0 + np.array([-0.6, -0.25, 0.0, 0.25, 0.6]) * window
        info = _information_at(model, theta, probes, m_shots, arms) / (chi * chi)
        model.cache[key] = max(0.0, float(np.max(info)))
    return model.cache[key]


def _fringe_grid(model, theta, lo, hi):
    """dphi grid over [lo, hi] with each arm's clipped log-probabilities and
    dphi score weights (dP/dphi) / P, from one batched evaluation cached on
    the model."""
    key = ("grid", theta, lo, hi)
    if key not in model.cache:
        grid = np.linspace(lo, hi, _GRID_POINTS)
        p1, p2, d1p, d2p = model.evaluate(theta, grid)
        terms = []
        for p, dp in ((p1, d1p), (p2, d2p)):
            pc = np.clip(p, _PCLIP, 1.0)
            terms.append((np.log(pc), dp / pc))
        model.cache[key] = (grid, terms)
    return model.cache[key]


def _falling_bracket(score, k):
    """Grid indices (a, b) next to k where the score falls through zero, or None.

    The two grid neighbours of k come first.  If their scores share a sign
    that the score at k does not, the root lies between k and one neighbour.
    """
    a, b = max(k - 1, 0), min(k + 1, len(score) - 1)
    for lo, hi in ((a, b), (k, b), (a, k)):
        if np.sign(score[lo]) > np.sign(score[hi]):
            return lo, hi
    return None


def _fixed_theta_fit(record, model, theta, lo, hi, chi):
    """(dphi_hat, converged, score evaluations) of the fixed-theta fit on [lo, hi]."""
    grid, terms = _fringe_grid(model, theta, lo, hi)
    counts = (record.counts1,) if record.counts2 is None else (record.counts1, record.counts2)
    ll = sum(log_p @ c for (log_p, _), c in zip(terms, counts))
    score = sum(weight @ c for (_, weight), c in zip(terms, counts))
    k = int(np.argmax(ll))
    bracket = _falling_bracket(score, k)
    if bracket is None:
        return float(grid[k]), False, 0
    a, b = bracket
    # brentq starts from both ends of the bracket, whose scores the grid holds
    known = {float(grid[a]): score[a], float(grid[b]): score[b]}
    evals = [0]

    def dphi_score(x):
        if x in known:
            return known[x]
        evals[0] += 1
        return log_likelihood_and_grad(record, model, theta, x)[1]

    root, res = optimize.brentq(
        dphi_score, grid[a], grid[b], xtol=1e-12 / chi, full_output=True, disp=False
    )
    return float(root), bool(res.converged), evals[0]


def _observed_variance(record, model, theta, dphi, chi):
    """Inverse observed dphi information, from a central difference of the
    exact dphi score."""
    h = 1e-7 / chi
    _, gp = log_likelihood_and_grad(record, model, theta, dphi + h)
    _, gm = log_likelihood_and_grad(record, model, theta, dphi - h)
    info = -(gp - gm) / (2.0 * h)
    return 1.0 / info if info > 0 else np.inf


def optimize_reference_phase(spec: ProtocolSpec, theta: float, dphi: float) -> float:
    """Reference phase maximizing the dphi Fisher information (grid + refine).

    The information is taken per shot, since the shot count scales it and
    leaves the argmax alone.  The train does not depend on the reference
    phase, so its unitary and dphi derivative are computed once and every probe
    only re-applies arm 1.
    """
    train = train_unitary_with_grad(spec, theta, dphi)
    chi = spec.enhancement

    def probe(xi):
        """(dphi information, fringe imbalance |P1(1) - 1/2|) at reference phase(s) xi."""
        probs = ramsey_probabilities(train, np.mod(xi, 2.0 * np.pi))
        info, singular = _information(_arm_terms(probs, ("p1", "p2")), 1, chi)
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
    step = 2.0 * np.pi / _REFERENCE_GRID
    res = optimize.minimize_scalar(
        lambda x: -probe(x)[0], bounds=(best_xi - step, best_xi + step), method="bounded"
    )
    if -res.fun > best_i * (1.0 + 1e-9):
        best_xi = res.x
    return float(np.mod(best_xi, 2.0 * np.pi))


# --- seed-sweep estimator study -------------------------------------------


def estimator_study(
    spec: ProtocolSpec,
    dphi: float,
    m_shots: int,
    seeds,
) -> tuple[np.ndarray, float]:
    """Fixed-theta ML estimates of ``dphi`` over simulated experiments.

    The reference phase is chosen for maximal dphi information at the true
    point, then each seed draws one record of ``m_shots`` per arm and is fit
    with theta held at ``spec.theta``.  Returns the estimates in seed order
    and the fixed-theta Cramer-Rao bound 1 / I_dphidphi on the variance of
    one experiment's estimate, the bound `ml_estimate` reports.
    """
    theta = spec.theta
    xi = optimize_reference_phase(spec, theta, dphi)
    model = ramsey_model(replace(spec, reference_phase=xi))

    def one(seed):
        rec = sample_record(model, theta, dphi, m_shots, seed)
        return ml_estimate(rec, model, (theta, 0.0)).dphi_hat

    estimates = np.array([one(s) for s in seeds], dtype=float)
    return estimates, float(_dphi_bound(model, theta, dphi, m_shots))


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


def refined_offset_uncertainty(initial_width: float, n: int, n_delay: int = 1) -> float:
    """Offset uncertainty after refining an initial width by the train gain.

    A delayed train of N pulses with delay N_d compresses the uncertainty of
    the offset frequency by the phase-accumulation factor N * N_d.
    """
    return initial_width / (n * max(n_delay, 1))


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
    again.  ``RefineTrace.backoffs`` counts the back-offs.

    ``models`` maps each stage's `ProtocolSpec` to its outcome model.  A
    dict shared by several locks lets them reuse one model per train length,
    and with it the fringe grid and phase-information probes cached on the
    model; the locks' results do not change.  Models missing from the dict
    are built and added.  With ``None`` every stage builds its own model.
    """
    if abs(true_dphi) > config.prior_bound * 1.001:
        raise WrapAmbiguityError("true offset exceeds the assumed prior bound")
    residual = float(true_dphi)
    bound = config.prior_bound
    stages: list[RefineStage] = []
    n = _safe_train_length(bound)
    backoffs = 0
    stage_idx = 0
    while stage_idx < config.max_stages:
        spec = ProtocolSpec("1B", n, 0, np.pi / 2.0, np.pi / 2.0)
        model = ramsey_model(spec)
        if models is not None:
            model = models.setdefault(spec, model)
        rec = sample_record(
            model, np.pi / 2.0, residual, config.m_shots, seed=config.seed + 7919 * stage_idx
        )
        window = np.pi / (4.0 * spec.enhancement)
        est = ml_estimate(rec, model, (np.pi / 2.0, 0.0), dphi_window=window)
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
    )


def _safe_train_length(bound: float) -> int:
    """Longest even train, at most `_N_MAX`, whose fringe keeps ``bound`` unambiguous."""
    if bound <= 0:
        return _N_MAX
    n = int(_SAFETY_FRACTION * np.pi / bound)
    n = max(n - (n % 2), 2)  # even for the 1B closed form
    return min(n, _N_MAX)
