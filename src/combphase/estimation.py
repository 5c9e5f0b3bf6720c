"""Statistical engine: Fisher information, CRLB, ML estimation, seed-sweep
estimator studies and the iterative lock.

The measurement model is the two-arm Ramsey experiment of `protocols`:
2M atoms, M interrogated with the Hadamard/reference-phase sandwich (arm 1)
and M with the bare train (arm 2).  Everything downstream treats the two
binomial arms as independent samples of known parametric distributions.
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
#: half-width of the theta window of a joint fit [rad]
_THETA_WINDOW = 0.3
#: reference phases on the grid of `optimize_reference_phase` before its refinement
_REFERENCE_GRID = 64
#: condition number above which `crlb` falls back to the pseudo-inverse
_COND_LIMIT = 1e12
#: longest train the lock grows to
_N_MAX = 1 << 20
#: the lock keeps chi * (residual bound) below this fraction of pi
_SAFETY_FRACTION = 0.25


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 information matrix over (theta, dphi) for the 2M-atom experiment."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if abs(m[0, 1] - m[1, 0]) > 1e-9 * (1.0 + abs(m[0, 1])):
            raise ValueError("Fisher matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(m)) < -1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("Fisher matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)


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
    theta_hat: float
    dphi_hat: float
    covariance: np.ndarray  # observed-information covariance estimate
    crlb_diag: np.ndarray  # (var_theta, var_dphi) lower bounds at the estimate
    ratio: np.ndarray  # achieved / CRLB, per parameter
    converged: bool
    n_evaluations: int


def _arm_terms(probs, arms):
    """(p, dp_dth, dp_dphi) of each arm in ``arms`` from an `evaluate` tuple."""
    p1, p2, d1t, d1p, d2t, d2p = probs
    out = []
    if "p1" in arms:
        out.append((p1, d1t, d1p))
    if "p2" in arms:
        out.append((p2, d2t, d2p))
    return out


def _information(arm_terms, m_shots: int, chi: float):
    """Fisher matrices (..., 2, 2) and a (...) mask of singular points.

    ``arm_terms`` holds (p, dp_dth, dp_dphi) per arm, each indexed by the
    outcome on its last axis.  I_ij = sum over arms and outcomes of
    M (d_i P)(d_j P) / P.  Outcomes with P = 0 contribute nothing when their
    derivative also vanishes (removable); a vanishing probability with a
    nonzero derivative means the score diverges, and the point is flagged.
    """
    info = 0.0
    singular = False
    for p, dt, dp in arm_terms:
        for s in range(2):
            grad = np.stack([dt[..., s], dp[..., s]], axis=-1)
            ps = p[..., s]
            node = ps < 1e-14
            # Near a fringe node P ~ d^2 and dP ~ 2 chi d, so the term
            # dP^2 / P stays bounded by ~4 chi^2 (removable).  A genuine
            # P -> 0 crossing with finite slope blows far past that.
            ratio = np.sum(grad * grad, axis=-1) / np.maximum(ps, 1e-300)
            singular = singular | (node & (ratio > max(1e8, 1e4 * chi * chi)))
            outer = grad[..., :, None] * grad[..., None, :]
            term = m_shots * outer / np.where(node, 1.0, ps)[..., None, None]
            info = info + np.where(node[..., None, None], 0.0, term)
    return info, singular


def _information_at(model: RamseyOutcomeModel, theta, dphi, m_shots, arms) -> np.ndarray:
    """Fisher matrices at ``dphi`` (scalar or array); raises if any point is singular."""
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
) -> FisherMatrix:
    """I_ij = sum over arms and outcomes of M (d_i P)(d_j P) / P.

    Outcomes with P = 0 contribute nothing when their derivative also
    vanishes (removable); a vanishing probability with a nonzero derivative
    means the score diverges and raises SingularInformationError.
    """
    return FisherMatrix(_information_at(model, theta, dphi, m_shots, arms))


@dataclass(frozen=True)
class CRLBResult:
    variances: np.ndarray  # diagonal of the (pseudo-)inverse
    singular: bool


def crlb(f: FisherMatrix) -> CRLBResult:
    """Per-parameter variance lower bounds: diagonal of the inverse Fisher.

    An all-zero or ill-conditioned matrix is flagged ``singular`` and
    inverted by the pseudo-inverse.
    """
    m = f.matrix
    singular = np.linalg.cond(m) > _COND_LIMIT if np.any(m) else True
    inv = np.linalg.pinv(m) if singular else np.linalg.inv(m)
    return CRLBResult(variances=np.diag(inv).copy(), singular=bool(singular))


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
    """Joint log-likelihood of both arms with its analytic gradient."""
    p1, p2, d1t, d1p, d2t, d2p = model.evaluate(theta, dphi)
    ll = 0.0
    grad = np.zeros(2)
    sets = [(record.counts1, p1, d1t, d1p)]
    if record.counts2 is not None:
        sets.append((record.counts2, p2, d2t, d2p))
    for counts, p, dt, dp in sets:
        pc = np.clip(p, _PCLIP, 1.0)
        ll += float(np.sum(counts * np.log(pc)))
        w = counts / pc
        grad += np.array([float(np.sum(w * dt)), float(np.sum(w * dp))])
    return ll, grad


def ml_estimate(
    record: MeasurementRecord,
    model: RamseyOutcomeModel,
    init: tuple[float, float],
    fix_theta: bool = False,
    dphi_window: float | None = None,
) -> EstimationResult:
    """Maximum-likelihood point estimate of (theta, dphi).

    ``dphi_window`` defaults to the unambiguous quarter-fringe pi / (4 chi)
    around the initial guess; a non-positive or non-finite window raises
    ValueError, and an initial accumulated phase beyond the fringe raises
    WrapAmbiguityError (use `iterative_refine` instead).

    With ``fix_theta`` the log-likelihood is scanned on a 65-point dphi grid
    over the window, and the estimate is the root of the analytic dphi
    score (brentq) inside the grid bracket around the best grid point.  If
    the score does not change sign there, the maximum lies on or beyond the
    window edge: the best grid point is returned with ``converged=False``.
    The grid and the identifiability probes depend only on the model and the
    window, so they are computed once per model and shared by its records;
    ``n_evaluations`` counts the score evaluations of this record alone.
    Otherwise (the joint path) a bounded scalar pass per coordinate is
    followed by a joint quasi-Newton polish with the analytic gradient.
    """
    theta0, dphi0 = float(init[0]), float(init[1])
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
    best_eig, best_phase_info = _identifiability(
        model, theta0, dphi0, dphi_window, record.m_shots, arms
    )
    if fix_theta:
        if best_phase_info <= 1e-9:
            raise DegenerateFitError("no phase information anywhere in the window")
    elif best_eig <= 1e-9:
        raise DegenerateFitError(
            "(theta, dphi) not jointly identifiable from the available arms"
        )

    dp_lo, dp_hi = dphi0 - dphi_window, dphi0 + dphi_window
    if fix_theta:
        th = theta0
        dp, converged, n_evaluations = _fixed_theta_fit(record, model, th, dp_lo, dp_hi, chi)
    else:
        th, dp, converged, n_evaluations = _joint_fit(record, model, theta0, dphi0, (dp_lo, dp_hi))

    bounds_result = crlb(fisher_matrix(model, th, dp, record.m_shots, arms=arms))
    cov = _observed_covariance(record, model, th, dp, fix_theta, chi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bounds_result.variances > 0, np.diag(cov) / bounds_result.variances, np.inf)
    return EstimationResult(
        theta_hat=th,
        dphi_hat=dp,
        covariance=cov,
        crlb_diag=bounds_result.variances,
        ratio=ratio,
        converged=converged,
        n_evaluations=n_evaluations,
    )


def _identifiability(model, theta0, dphi0, window, m_shots, arms):
    """(Smallest eigenvalue of the well-conditioned probes, largest phase
    information) of the chi-scaled Fisher matrix at five points of the window.

    Isolated nodes are fine, a window-wide blind spot is not, so the Fisher
    matrix is tested at several points.  Cached on the model per window.
    """
    key = ("probes", theta0, dphi0, window, m_shots, arms)
    if key not in model.cache:
        chi = model.spec.enhancement
        scale = np.array([1.0, chi])
        probes = dphi0 + np.array([-0.6, -0.25, 0.0, 0.25, 0.6]) * window
        scaled = _information_at(model, theta0, probes, m_shots, arms) / np.outer(scale, scale)
        well = np.linalg.cond(scaled) < 1e10
        best_eig = float(np.max(np.linalg.eigvalsh(scaled[well])[:, 0], initial=-np.inf))
        model.cache[key] = (best_eig, max(0.0, float(np.max(scaled[:, 1, 1]))))
    return model.cache[key]


def _fringe_grid(model, theta, lo, hi):
    """dphi grid over [lo, hi] with each arm's clipped log-probabilities and
    dphi score weights (dP/dphi) / P, from one batched evaluation cached on
    the model."""
    key = ("grid", theta, lo, hi)
    if key not in model.cache:
        grid = np.linspace(lo, hi, _GRID_POINTS)
        p1, p2, _, d1p, _, d2p = model.evaluate(theta, grid)
        terms = []
        for p, dp in ((p1, d1p), (p2, d2p)):
            pc = np.clip(p, _PCLIP, 1.0)
            terms.append((np.log(pc), dp / pc))
        model.cache[key] = (grid, terms)
    return model.cache[key]


def _fixed_theta_fit(record, model, theta, lo, hi, chi):
    """(dphi_hat, converged, score evaluations) of the fixed-theta fit on [lo, hi]."""
    grid, terms = _fringe_grid(model, theta, lo, hi)
    counts = (record.counts1,) if record.counts2 is None else (record.counts1, record.counts2)
    ll = sum(log_p @ c for (log_p, _), c in zip(terms, counts))
    score = sum(weight @ c for (_, weight), c in zip(terms, counts))
    k = int(np.argmax(ll))
    a, b = max(k - 1, 0), min(k + 1, len(grid) - 1)
    if not np.sign(score[a]) > np.sign(score[b]):
        return float(grid[k]), False, 0
    # brentq starts from both ends of the bracket, whose scores the grid holds
    known = {float(grid[a]): score[a], float(grid[b]): score[b]}
    evals = [0]

    def dphi_score(x):
        if x in known:
            return known[x]
        evals[0] += 1
        return log_likelihood_and_grad(record, model, theta, x)[1][1]

    root, res = optimize.brentq(
        dphi_score, grid[a], grid[b], xtol=1e-12 / chi, full_output=True, disp=False
    )
    return float(root), bool(res.converged), evals[0]


def _joint_fit(record, model, theta0, dphi0, dphi_bounds):
    """(theta_hat, dphi_hat, converged, evaluations) of the joint fit."""
    evals = [0]

    def nll(theta, dphi):
        evals[0] += 1
        ll, g = log_likelihood_and_grad(record, model, theta, dphi)
        return -ll, -g

    th_lo, th_hi = max(theta0 - _THETA_WINDOW, 1e-6), theta0 + _THETA_WINDOW
    res = optimize.minimize_scalar(
        lambda x: nll(theta0, x)[0], bounds=dphi_bounds, method="bounded",
        options={"xatol": 1e-12},
    )
    dp = float(res.x)
    # The theta likelihood oscillates on a pi / N scale, so locate the
    # right fringe on a grid before the local bounded refinement.
    n_grid = max(16, int(np.ceil(8.0 * (th_hi - th_lo) * model.spec.n_pulses / np.pi)))
    grid_th = np.linspace(th_lo, th_hi, n_grid)
    vals = [nll(x, dp)[0] for x in grid_th]
    k = int(np.argmin(vals))
    lo = grid_th[max(k - 1, 0)]
    hi = grid_th[min(k + 1, n_grid - 1)]
    res_t = optimize.minimize_scalar(
        lambda x: nll(x, dp)[0], bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-12},
    )
    th = float(res_t.x)
    polish = optimize.minimize(
        lambda x: nll(x[0], x[1]),
        x0=[th, dp],
        jac=True,
        method="L-BFGS-B",
        bounds=[(th_lo, th_hi), dphi_bounds],
    )
    return float(polish.x[0]), float(polish.x[1]), bool(polish.success), evals[0]


def _observed_covariance(record, model, theta, dphi, fix_theta, chi):
    """Inverse observed information (finite differences of the exact gradient).

    At fixed theta only the dphi direction is differenced.
    """
    h = np.array([1e-7, 1e-7 / chi])
    hess = np.zeros((2, 2))
    for i in (1,) if fix_theta else (0, 1):
        d = np.zeros(2)
        d[i] = h[i]
        _, gp = log_likelihood_and_grad(record, model, theta + d[0], dphi + d[1])
        _, gm = log_likelihood_and_grad(record, model, theta - d[0], dphi - d[1])
        hess[i] = -(gp - gm) / (2.0 * h[i])
    if fix_theta:
        cov = np.zeros((2, 2))
        cov[1, 1] = 1.0 / hess[1, 1] if hess[1, 1] > 0 else np.inf
        return cov
    hess = (hess + hess.T) / 2.0
    try:
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return np.full((2, 2), np.inf)


def optimize_reference_phase(spec: ProtocolSpec, theta: float, dphi: float) -> float:
    """Reference phase maximizing the dphi Fisher information (grid + refine).

    The information is taken per shot, since the shot count scales it and
    leaves the argmax alone.  The train does not depend on the reference
    phase, so its unitary and gradients are computed once and every probe
    only re-applies arm 1.
    """
    train = train_unitary_with_grad(spec, theta, dphi)
    chi = spec.enhancement

    def probe(xi):
        """(dphi information, fringe imbalance |P1(1) - 1/2|) at reference phase(s) xi."""
        probs = ramsey_probabilities(train, np.mod(xi, 2.0 * np.pi))
        info, singular = _information(_arm_terms(probs, ("p1", "p2")), 1, chi)
        info = np.where(singular, 0.0, info[..., 1, 1])
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
    and the CRLB variance of dphi for one experiment.
    """
    theta = spec.theta
    xi = optimize_reference_phase(spec, theta, dphi)
    model = ramsey_model(replace(spec, reference_phase=xi))

    def one(seed):
        rec = sample_record(model, theta, dphi, m_shots, seed)
        return ml_estimate(rec, model, (theta, 0.0), fix_theta=True).dphi_hat

    estimates = np.array([one(s) for s in seeds], dtype=float)
    variance = crlb(fisher_matrix(model, theta, dphi, m_shots)).variances[1]
    return estimates, float(variance)


# --- offset-frequency resolution ------------------------------------------


def offset_resolution(rep_rate: float, n: int, n_delay: int = 1) -> float:
    """Single-shot offset-frequency resolution f_rep / (N N_d) [Hz]."""
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
    and with it the fringe grid and identifiability probes cached on the
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
        est = ml_estimate(rec, model, (np.pi / 2.0, 0.0), fix_theta=True, dphi_window=window)
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
        crlb_sigma = float(np.sqrt(est.crlb_diag[1]))
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
