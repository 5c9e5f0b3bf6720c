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

One step draws and fits a batch of records on one model, `_prefill`: one
batched evaluation at the distinct residuals, one draw per record from its
own seed's stream, kept on the model, and one batched fit of the distinct
records the model's fit memo lacks.  Each record's stream is the one
``np.random.default_rng(seed)`` starts, bit for bit; `_streams` hashes
a whole batch of seeds in one vectorised pass of numpy's SeedSequence
hash rather than one SeedSequence per record.  `estimator_study` takes
the step once, for all its seeds at the truth, and a lock run,
`refine_study`, once per train length and step.  Each seed or lock then
reads its record through `sample_record` and its fit through
`ml_estimate`, which return the kept ones as they are, so those reads
neither evaluate the model nor draw, and give what a lone call gives.
Both studies count into `_diagnostics`, which takes the distinct
records and their score evaluations from the fits stored on the models.
"""
from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFitError, SingularInformationError, WrapAmbiguityError
from .protocols import (
    MAX_PULSES, ProtocolSpec, RamseyOutcomeModel, ramsey_model, ramsey_probabilities, train_unitary_with_grad,
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
#: the lock keeps chi * (residual bound) below this fraction of pi
_SAFETY_FRACTION = 0.25
#: factor by which the lock grows its train from one stage to the next
_GROWTH = 4


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome counts of the two arms; counts are per outcome s in {0, 1}."""

    m_shots: int
    counts1: np.ndarray
    counts2: np.ndarray

    def __post_init__(self):
        for arm in ("counts1", "counts2"):
            c = np.asarray(getattr(self, arm))
            whole = True
            if c.dtype.kind not in "iu":  # counts given otherwise, say as floats, must cast exactly
                with np.errstate(invalid="ignore"):  # NaN casts to an int that fails the comparison
                    c, given = c.astype(int), c
                whole = np.array_equal(c, given)
            # the two counts are checked as Python ints, which is cheaper than numpy reductions
            if not whole or c.shape != (2,) or min(counts := c.tolist()) < 0 or sum(counts) != self.m_shots:
                raise ValueError(f"{arm} must be two non-negative whole counts summing to m_shots")
            object.__setattr__(self, arm, c.astype(int, copy=False))


@dataclass(frozen=True)
class EstimationResult:
    dphi_hat: float
    bound: float  # Cramer-Rao bound 1 / I_dphidphi at the estimate
    converged: bool
    n_evaluations: int


def _information(probs, m_shots: int, chi: float):
    """dphi Fisher information (...) and a (...) mask of singular points.

    ``probs`` is an `evaluate` array (P, dP/ddphi) of shape (2, ..., 4),
    one column per outcome.  I = sum over both arms and outcomes of M
    (dP/ddphi)^2 / P, all four outcome columns in one pass.
    Outcomes with P = 0 contribute nothing when their dphi derivative also
    vanishes (removable); a vanishing probability with a nonzero dphi
    derivative means the score diverges, and the point is flagged.  The
    test looks at dP/ddphi alone, since it is the only derivative in I.
    """
    p, dp = probs
    node = p < 1e-14
    # Near a fringe node P ~ d^2 and dP ~ 2 chi d, so the term dP^2 / P
    # stays bounded by ~4 chi^2 (removable).  A genuine P -> 0 crossing
    # with finite slope blows far past that.
    square = dp * dp
    singular = (node & (square / np.maximum(p, 1e-300) > max(1e8, 1e4 * chi * chi))).any(axis=-1)
    info = np.where(node, 0.0, m_shots * square / np.where(node, 1.0, p)).sum(axis=-1)
    return info, singular


def _nonsingular_information(probs, m_shots: int, chi: float):
    """`_information` of ``probs``; raises SingularInformationError if any point is singular."""
    info, singular = _information(probs, m_shots, chi)
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
    return float(_nonsingular_information(model.evaluate(dphi), m_shots, model.spec.enhancement))


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
    ``seed`` is a non-negative integer, and the record is drawn from the
    stream of ``np.random.default_rng(seed)`` (see `_draw_counts`).

    A record that `_prefill` drew, for a study or for the lockstep of a
    run's locks, is kept on the model, keyed by ``(dphi, m_shots, seed)``,
    and returned as it is: it is the record this call would draw, since a
    batched `evaluate` row is bit for bit the scalar one.  Any other record
    is drawn here from one evaluation at ``dphi``, as a batch of one
    (`_draw_record`), and kept nowhere.
    """
    _check_theta(model, theta)
    record = model.cache.get("records", {}).get((dphi, m_shots, seed))
    if record is None:
        record = _draw_record(model.evaluate(dphi)[0], m_shots, seed)
    return record


def _draw_record(p, m_shots: int, seed: int) -> MeasurementRecord:
    """The record `sample_record` draws from the outcome probabilities ``p``,
    a row of `evaluate`'s four columns: the batch of one of `_draw_counts`."""
    counts = _draw_counts(np.asarray(p)[None], m_shots, [seed])[0]
    return MeasurementRecord(m_shots, counts[:2], counts[2:])


def _draw_counts(p, m_shots: int, seeds) -> np.ndarray:
    """(R, 4) counts, in `evaluate`'s column order, of one record per row of
    ``p`` (R, 4) and seed: the seed's stream (`_streams`) draws arm 1's
    outcome 1 with probability ``p[r, 1]``, then arm 2's with ``p[r, 3]``,
    each clipped to [0, 1]."""
    ones = np.minimum(np.maximum(p[:, 1::2], 0.0), 1.0).tolist()
    drawn = [
        (rng.binomial(m_shots, p1), rng.binomial(m_shots, p2))
        for rng, (p1, p2) in zip(_streams(seeds), ones, strict=True)
    ]
    counts = np.empty((len(drawn), 4), dtype=int)
    counts[:, 1::2] = np.reshape(drawn, (-1, 2))
    counts[:, ::2] = m_shots - counts[:, 1::2]
    return counts


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), after
# O'Neill's seed_seq_fe (*PCG*, HMC-CS-2014-0905, 2014): hashmix call k
# xors its word with INIT * MULT**k and multiplies it by INIT * MULT**(k+1)
_POOL = 4  # words of the entropy pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix of the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hash of the pool into the output words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, calls):
    """(xor, multiplier) uint32 columns of the hashmix calls ``calls``; a
    call None gives zeros."""
    xor = [0 if k is None else init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in calls]
    times = [0 if k is None else x * mult & 0xFFFFFFFF for k, x in zip(calls, xor)]
    return np.array(xor, dtype=np.uint32)[:, None], np.array(times, dtype=np.uint32)[:, None]


def _hashmix(words, consts):
    """SeedSequence's hashmix of ``words`` under the `_hash_consts` of its calls."""
    xor, mult = consts
    words = (words ^ xor) * mult
    words ^= words >> _SHIFT
    return words


def _mix(x, y):
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    out = _MIX_L * x - _MIX_R * y
    out ^= out >> _SHIFT
    return out


#: calls 0-3 hash the pool's words; calls 4-15 mix each word, in turn, into
#: the three others (None marks the word that stays); word k >= 4 of a
#: longer seed then takes calls 4k to 4k + 3
_POOL_HASH = _hash_consts(_INIT_A, _MULT_A, range(_POOL))
_ROUND_HASHES = [
    _hash_consts(_INIT_A, _MULT_A, [None if d == s else _POOL + 3 * s + d - (d > s) for d in range(_POOL)])
    for s in range(_POOL)
]
#: generate_state(4, uint64) hashes the pool cycled twice into 8 words
_OUTPUT_HASH = tuple(c.reshape(2, _POOL, 1) for c in _hash_consts(_INIT_B, _MULT_B, range(2 * _POOL)))


def _seed_words(seeds) -> np.ndarray:
    """(R, 4) uint64 words, row r ``np.random.SeedSequence(seeds[r])
    .generate_state(4, np.uint64)``, the words that seed PCG64 in
    ``np.random.default_rng(seeds[r])``; seeds are non-negative integers
    (TypeError or ValueError otherwise).

    A seed is split into 32-bit words, least significant first.  The first
    4 fill the pool, where a missing word hashes like a zero word, and the
    words of a seed of 2**128 or more past the pool mix into it afterwards.
    The whole batch is hashed at once in uint32 numpy arithmetic; a seed
    shorter than the longest keeps its pool past its last word.
    """
    seeds = [operator.index(s) for s in seeds]
    if seeds and min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative integers, got {min(seeds)}")
    width = max(_POOL, -(-max(seeds, default=0).bit_length() // 32))
    entropy = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    entropy = np.frombuffer(entropy, dtype="<u4").reshape(len(seeds), width).T
    pool = _hashmix(entropy[:_POOL], _POOL_HASH)
    for src, consts in enumerate(_ROUND_HASHES):
        stays = pool[src]  # _mix returns a new pool, so this row stays as it is
        pool = _mix(pool, _hashmix(stays, consts))
        pool[src] = stays
    if width > _POOL:
        bits = np.array([s.bit_length() for s in seeds])
        for k, word in enumerate(entropy[_POOL:], start=_POOL):
            consts = _hash_consts(_INIT_A, _MULT_A, range(_POOL * k, _POOL * k + _POOL))
            pool = np.where(bits > 32 * k, _mix(pool, _hashmix(word, consts)), pool)  # seeds with a word k
    words = _hashmix(pool, _OUTPUT_HASH).reshape(2 * _POOL, -1)
    # little-endian pairs of 32-bit words, as generate_state assembles them
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_words_type():
    """The seed sequence whose state is one row of `_seed_words`: PCG64 asks
    it once, for ``generate_state(4, np.uint64)``, and seeds itself from
    them.  It holds those 4 words only and returns them whatever it is
    asked, so it serves no other use.  numpy loads ``numpy.random`` on
    first use, so the type is built on first use too, and a run that draws
    nothing does not load it."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _streams(seeds):
    """Yield, for each of ``seeds`` in turn, a fresh `np.random.Generator`
    at the start of ``np.random.default_rng(seed)``'s stream.

    The seeds' PCG64 words come from one `_seed_words` pass over the batch,
    and PCG64 seeds itself from them, so no generator hashes its own seed.
    """
    seed_words = _seed_words_type()
    for words in _seed_words(seeds):
        yield np.random.Generator(np.random.PCG64(seed_words(words)))


def _row(record: MeasurementRecord) -> list[int]:
    """A record's four counts in `evaluate`'s column order: arm 1's
    outcomes 0 and 1, then arm 2's."""
    return [*record.counts1.tolist(), *record.counts2.tolist()]


def log_likelihood_and_grad(record: MeasurementRecord, model, dphi):
    """Joint log-likelihood of both arms and its analytic dphi score at one dphi.

    The fit engine `_fit_records` computes the same score for many records at
    once; this scalar form is the reference that tests check it against, and
    `perfbench/tracer.py` wraps it by name.
    """
    p, dp = model.evaluate(dphi)
    ll = 0.0
    score = 0.0
    for counts, arm in ((record.counts1, slice(0, 2)), (record.counts2, slice(2, 4))):
        pc = np.clip(p[arm], _PCLIP, 1.0)
        ll = ll + np.sum(counts * np.log(pc), axis=-1)
        score = score + np.sum(counts / pc * dp[arm], axis=-1)
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
    and both arms' counts; `_prefill` fills the memo in batches, for a
    study or for one train length and step of a run's locks.  A stored fit
    is returned as stored, without the wrap and phase-information checks:
    `_fit_records` made it after passing them for the same model, initial
    dphi and ``m_shots``.  A read writes nothing, so every read of a record
    gives the same result, and a fit that raises stores nothing, so its
    error repeats on every call.
    """
    if not fix_theta:
        raise ValueError("the joint (theta, dphi) fit has been removed; theta is always fixed")
    _check_theta(model, init[0])
    dphi0 = float(init[1])
    counts = _row(record)
    key = _memo_key(dphi0, record.m_shots, counts)
    result = model.cache.get(key)
    if result is None:
        result = model.cache[key] = _fit_records(model, np.array([counts]), record.m_shots, dphi0)[0]
    return result


def _memo_key(dphi0: float, m_shots: int, counts) -> tuple:
    """`ml_estimate`'s memo key of a record with ``counts`` (arm 1's outcomes
    0 and 1, then arm 2's) fit around ``dphi0``."""
    return ("fit", dphi0, m_shots, tuple(counts))


def _prefill(model, residuals, m_shots: int, seeds):
    """Draw, keep and fit one record of ``model`` per (residual, seed).

    One batched `evaluate` at the distinct ``residuals``, in order of first
    appearance, gives every record's outcome probabilities; a residual
    without a seed is evaluated and draws nothing.  The records are drawn
    from their seeds' streams as one (R, 4) count array (`_draw_counts`), as
    `sample_record` draws them, and kept in ``model.cache["records"]``
    under ``(residual, m_shots, seed)``.  One `_fit_records` call fits the
    distinct records the fit memo lacks, around 0, and stores them under
    `ml_estimate`'s key, or raises and stores no fit.  Returns each
    record's fit and the (2, D, 4) evaluation at the D distinct residuals.
    """
    rows = {residual: i for i, residual in enumerate(dict.fromkeys(residuals))}
    probs = model.evaluate(np.array(list(rows), dtype=float))
    p = probs[0][[rows[residual] for residual, _ in zip(residuals, seeds)]]
    counts = _draw_counts(p, m_shots, seeds)
    kept = model.cache.setdefault("records", {})
    for residual, seed, row in zip(residuals, seeds, counts):
        kept[residual, m_shots, seed] = MeasurementRecord(m_shots, row[:2], row[2:])
    keys = [_memo_key(0.0, m_shots, row) for row in counts.tolist()]
    new = [key for key in dict.fromkeys(keys) if key not in model.cache]
    if new:
        counts = np.array([key[3] for key in new])
        model.cache.update(zip(new, _fit_records(model, counts, m_shots)))
    return [model.cache[key] for key in keys], probs


def _diagnostics(models, fits: int, nonconverged: int, pinned: int, **extra) -> dict:
    """A run's manifest ``diagnostics`` in the manifest's key order: the counts
    given, then ``extra`` (a lock run's ``backoffs``).  ``distinct_records``
    (second) and ``score_evaluations`` (last) come from the fits stored in
    the memos of ``models``, so each distinct record counts once."""
    stored = [fit for model in models for key, fit in model.cache.items() if key[0] == "fit"]
    return dict(fits=fits, distinct_records=len(stored), nonconverged=nonconverged, pinned=pinned, **extra,
                score_evaluations=sum(fit.n_evaluations for fit in stored))


def window_half_width(chi: float) -> float:
    """Half-width pi / (4 chi) of the unambiguous fit window of a train of enhancement ``chi``."""
    return np.pi / (4.0 * chi)


def _pinned(dphi_hat, chi: float):
    """Whether a fit ``dphi_hat`` around 0 lies within 0.98 of its window
    edge, where the lock takes it for a wrap; elementwise on an array."""
    return np.abs(dphi_hat) >= 0.98 * window_half_width(chi)


def _fit_window(model, dphi0: float, m_shots: int):
    """(grid, terms, nodes) of the `_fringe_grid` over the fit window around
    ``dphi0``, after the wrap and phase-information checks."""
    chi = model.spec.enhancement
    if abs(chi * dphi0) >= np.pi:
        raise WrapAmbiguityError(
            "initial accumulated phase exceeds pi; run iterative refinement"
        )
    window = window_half_width(chi)
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
        info = _nonsingular_information(probs, 1, model.spec.enhancement)
        p, dp = probs
        pc, dp = np.clip(p, _PCLIP, 1.0).T, dp.T
        terms = np.stack([np.log(pc), dp / pc], axis=1)
        nodes = pc == _PCLIP
        nodes &= ~nodes.all(axis=1, keepdims=True)
        nodes = nodes if nodes.any() else None
        model.cache[key] = (grid, terms, nodes, max(0.0, float(np.max(info))))
    return model.cache[key]


def _brackets(up, down, best):
    """(lo, hi, found), three (R,) arrays: each row's grid bracket of a
    falling score root beside its best grid point k = ``best``, and whether
    it has one (a row without one keeps a meaningless (lo, hi)).

    ``up`` and ``down`` (R, G) are the grid scores as seen just above and
    just below each point; they differ only at a pole (see `_fit_records`).
    (lo, hi) brackets where sign(up[lo]) > sign(down[hi]).  The neighbours
    of k come first, then (k, k + 1), then (k - 1, k); a bracket of the two
    neighbours keeps the half where the score at k changes sign.
    """
    r = np.arange(len(best))
    a, b = np.maximum(best - 1, 0), np.minimum(best + 1, up.shape[1] - 1)
    ends = np.array([[a, best, a], [b, b, best]])
    falls = np.sign(up[r, ends[0]]) > np.sign(down[r, ends[1]])
    lo, hi = ends[:, falls.argmax(axis=0), r]
    halve = hi - lo == 2
    left = np.sign(up[r, lo]) > np.sign(down[r, best])
    return np.where(halve & ~left, best, lo), np.where(halve & left, best, hi), falls.any(axis=0)


def _row_scores(model, x, counts):
    """dphi score of each row of ``counts`` (R, 4) at its own ``x`` (R,),
    from one evaluation of the model; the arithmetic of
    `log_likelihood_and_grad`, summed per arm first.  Returns the scores
    and that evaluation, the (2, R, 4) `evaluate` array."""
    probs = p, dp = model.evaluate(x)
    # np.minimum(np.maximum(...)) is np.clip without its per-call overhead
    terms = counts / np.minimum(np.maximum(p, _PCLIP), 1.0) * dp
    return terms[:, :2].sum(axis=-1) + terms[:, 2:].sum(axis=-1), probs


def _fit_records(model, counts, m_shots: int, dphi0: float = 0.0) -> list[EstimationResult]:
    """Fixed-theta ML fits of R records of one model together, one
    `EstimationResult` per row of ``counts`` (R, 4): arm 1's outcomes 0 and
    1, then arm 2's, each row summing to ``m_shots`` per arm.

    - **Grid.** The counts meet the `_fringe_grid` terms of the window around
      ``dphi0`` in one (R, 2, 65) product, which gives every row's
      log-likelihood and score on the grid.  It is written as four broadcast
      products rather than a BLAS matmul, whose kernel changes with R, so a
      row rounds the same in any batch.
    - **Brackets.** One array pass of `_brackets` gives every row its
      bracket beside its best grid point.  A row without one has its
      maximum on or beyond the window edge and returns the best grid point
      with ``converged=False``; a row with a zero score at a bracket end
      returns that end.
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
      SingularInformationError at a singular one.  Each iteration writes
      its evaluation into its rows of ``at_root``, so a row whose root is
      its last iterate holds it there; the rows whose root is a grid point
      (no evaluations) share one batched evaluation.

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
    lo, hi, converged = _brackets(up, down, best)
    r = np.arange(len(counts))
    fa, fb = up[r, lo], down[r, hi]
    # a zero score at a bracket end makes that end the root
    root = grid[np.where(converged, np.where(fa == 0.0, lo, hi), best)]
    rows = np.flatnonzero(converged & (fa != 0.0) & (fb != 0.0))
    fa, fb = fa[rows], fb[rows]
    # b is the latest point and a the end kept from earlier steps; their
    # scores have opposite signs, so the secant step never divides by zero
    a, b = grid[lo[rows]], grid[hi[rows]]
    poles = nodes is not None and bool(np.isinf(fa).any() or np.isinf(fb).any())
    if poles:  # keep each pole as the end a, the one the loop bisects towards
        swap = np.isinf(fb)
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        fa, fb = np.where(swap, fb, fa), np.where(swap, fa, fb)
    row_counts = counts[rows]
    xtol = 1e-12 / model.spec.enhancement
    evaluations = np.zeros(len(counts), dtype=int)
    # the evaluation at each row's root: its last score's if the root is an iterate
    at_root = np.empty((2, len(counts), 4))
    for n in range(_ROOT_ITERATIONS):
        step = fb * (b - a) / (fb - fa)
        if poles:
            step = np.where(np.isinf(fa), 0.5 * (b - a), step)
        done = np.abs(step) < 0.5 * xtol
        if np.count_nonzero(done):
            root[rows[done]] = b[done]
            evaluations[rows[done]] = n
            rows, a, b, fa, fb, step, row_counts = (v[~done] for v in (rows, a, b, fa, fb, step, row_counts))
        if not rows.size:
            break
        x = b - step
        fx, at_root[:, rows] = _row_scores(model, x, row_counts)
        crossed = np.sign(fx) != np.sign(fb)
        a, fa = np.where(crossed, b, a), np.where(crossed, fb, 0.5 * fa)
        b, fb = x, fx
    root[rows] = b
    evaluations[rows] = _ROOT_ITERATIONS
    converged[rows] = False
    # a root that is a grid point was never a score's iterate
    fresh = evaluations == 0
    if fresh.any():
        at_root[:, fresh] = model.evaluate(root[fresh])
    info = _nonsingular_information(at_root, m_shots, model.spec.enhancement)
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
    train = train_unitary_with_grad(spec, [dphi])
    chi = spec.enhancement

    def probe(xi):
        """(dphi information, fringe imbalance |P1(1) - 1/2|) at reference phase(s) xi."""
        probs = ramsey_probabilities(train, np.mod(xi, 2.0 * np.pi))
        info, singular = _information(probs, 1, chi)
        info = np.where(singular, 0.0, info)
        return info, np.where(singular, 1.0, np.abs(probs[0, ..., 1] - 0.5))

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

    The reference phase is the most-information one at the prior's centre,
    dphi = 0, which an experiment can set before it sees any data; the
    information is flat in xi there, so the balanced fringe puts xi at
    pi/2, where the lock runs.  One `_prefill` draws one record of
    ``m_shots`` per arm for each seed from one evaluation at the truth, and
    fits the distinct records together; each seed then reads its record
    back through `sample_record` and its fit through `ml_estimate`.  So a
    study evaluates the model once at the truth, and its evaluations do not
    grow with its number of distinct records.

    Returns the estimates in seed order, the fixed-theta Cramer-Rao bound
    1 / I_dphidphi on the variance of one experiment's estimate (the bound
    `ml_estimate` reports), taken from the same evaluation at the truth as
    the records, and the study's `_diagnostics`: one fit per seed.  A
    study none of whose fits converged, or one of two or more seeds whose
    estimates all coincide, raises DegenerateFitError: its spread then says
    nothing about the estimator.
    """
    xi = optimize_reference_phase(spec, 0.0)
    model = ramsey_model(replace(spec, reference_phase=xi))
    seeds = list(seeds)
    # a study without seeds evaluates at the truth alone, for its bound
    _, probs = _prefill(model, [dphi] * max(len(seeds), 1), m_shots, seeds)
    records = [sample_record(model, spec.theta, dphi, m_shots, s) for s in seeds]
    fits = [ml_estimate(rec, model, (spec.theta, 0.0)) for rec in records]
    if fits and not any(f.converged for f in fits):
        raise DegenerateFitError(f"none of the {len(fits)} fits of the study converged")
    estimates = np.array([f.dphi_hat for f in fits], dtype=float)
    if len(estimates) >= 2 and np.all(estimates == estimates[0]):
        raise DegenerateFitError(f"all {len(fits)} estimates of the study coincide")
    pinned = int(np.count_nonzero(_pinned(estimates, spec.enhancement)))
    diagnostics = _diagnostics([model], len(fits), sum(not f.converged for f in fits), pinned)
    info = _nonsingular_information(probs[:, 0], m_shots, spec.enhancement)
    return estimates, 1.0 / float(info), diagnostics


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
    """One lock's shots per stage, stage bound, prior bound and seed; every
    lock grows its train by the same factor, `_GROWTH` = 4."""

    m_shots: int = 10000
    max_stages: int = 6
    prior_bound: float = 0.02  # |dphi| known a priori [rad]
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m_shots", 1), ("max_stages", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        bound = self.prior_bound
        real = isinstance(bound, (int, float, np.integer, np.floating)) and not isinstance(bound, bool)
        if not (real and 0.0 < bound < np.inf):
            raise ValueError(f"prior_bound must be a positive finite number, got {bound!r}")


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

    @property
    def final_residual(self) -> float:
        return self.stages[-1].residual


def iterative_refine(
    true_dphi: float,
    config: RefineConfig = RefineConfig(),
    models: dict[int, RamseyOutcomeModel] | None = None,
) -> RefineTrace:
    """Lock a simulated comb: estimate, feed back, grow the train, repeat.

    Each stage runs protocol 1B at quadrature reference phase.  The next
    train grows by a factor of 4 (`_GROWTH`), capped so that five CRLB
    standard deviations of the stage's estimate, the residual bound the
    controller can know, stay inside the unambiguous fringe.  A fit that
    pins to its window edge is treated as a wrap: the stage backs off once
    to N // 4, rounded down to an even length, and aborts with
    WrapAmbiguityError if it happens again.  ``RefineTrace.backoffs`` counts
    the back-offs and ``RefineTrace.nonconverged`` the fits, back-offs
    included, that returned ``converged=False``.

    The control flow is `_lock`'s; this call answers each of its stages
    with one `sample_record` and one `ml_estimate`.  ``models`` maps each
    stage's train length N to its 1B outcome model; missing models are built
    and added, and with ``None`` the lock keeps a dict of its own.  Locks
    sharing a dict share one model per train length, with its fringe grid,
    fit memo and kept records, which `refine_study` fills beforehand so
    that no stage evaluates the model or draws.  What the model lacks is
    drawn or fit here.  A stored fit is read as stored, so the trace is
    the lone lock's, whichever locks share the dict and in whatever order.
    """
    lock = _lock(true_dphi, config, {} if models is None else models)
    model, residual, m_shots, seed = next(lock)
    while True:
        theta = model.spec.theta
        rec = sample_record(model, theta, residual, m_shots, seed=seed)
        est = ml_estimate(rec, model, (theta, 0.0))
        try:
            model, residual, m_shots, seed = lock.send(est)
        except StopIteration as done:
            return done.value


def _lock(true_dphi: float, config: RefineConfig, models: dict):
    """One lock's control flow (see `iterative_refine`), as a generator.

    Each fit it needs is yielded as a sampling request ``(model, residual,
    m_shots, seed)``: draw one record of ``model`` at the true residual
    with ``seed`` and send back its `EstimationResult`, fit around 0.  It
    returns the `RefineTrace`, or raises WrapAmbiguityError for a truth
    beyond the prior bound or a second pinned fit.  The lock's own call
    (`iterative_refine`) and the lockstep of a run's locks
    (`_prefit_locks`) answer the requests.  ``models`` maps each train
    length N to its model, and a spec and model are built for a new N only.
    """
    if abs(true_dphi) > config.prior_bound * 1.001:
        raise WrapAmbiguityError("true offset exceeds the assumed prior bound")
    residual = float(true_dphi)
    stages: list[RefineStage] = []
    n = _safe_train_length(config.prior_bound)
    backoffs = nonconverged = 0
    while len(stages) < config.max_stages:
        model = models.get(n)
        if model is None:
            model = models[n] = ramsey_model(ProtocolSpec("1B", n, 0, np.pi / 2.0, np.pi / 2.0))
        # the seed counts fits, back-offs included: each attempt draws afresh
        est = yield model, residual, config.m_shots, config.seed + 7919 * (len(stages) + backoffs)
        nonconverged += not est.converged
        if _pinned(est.dphi_hat, model.spec.enhancement):
            if backoffs:
                raise WrapAmbiguityError(
                    f"estimate pinned to the fringe edge twice at N={n}"
                )
            backoffs += 1
            n = max(n // _GROWTH, 2)
            n -= n % 2
            continue
        residual -= est.dphi_hat
        crlb_sigma = float(np.sqrt(est.bound))
        stages.append(RefineStage(n, est.dphi_hat, residual, crlb_sigma))
        n_next = min(n * _GROWTH, _safe_train_length(5.0 * crlb_sigma))
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
    )


def _prefit_locks(locks, models: dict) -> None:
    """Draw and fit the records of several locks (true dphi, `RefineConfig`)
    in lockstep into ``models``, the dict of models by train length their
    `iterative_refine` calls will share (`refine_study`).  One `_lock` per
    lock runs here; at each step their requests are grouped by model and
    shot count, and one `_prefill` per group draws, keeps and fits the
    group's records, so a run's model evaluations and draws grow with its
    stages, not its locks.
    A kept record is the one its key draws, and a memo entry is the fit of
    its key, whoever stores them.

    A lock's WrapAmbiguityError (a truth beyond the prior, or a second
    pinned fit) and an error of a group's fit propagate from here.
    """
    pending = []
    for true_dphi, config in locks:
        lock = _lock(true_dphi, config, models)
        pending.append((lock, next(lock)))
    while pending:
        groups = {}
        for lock, (model, residual, m_shots, seed) in pending:
            groups.setdefault((model, m_shots), []).append((lock, residual, seed))
        pending = []
        for (model, m_shots), group in groups.items():
            group_locks, residuals, seeds = zip(*group)
            fits, _ = _prefill(model, residuals, m_shots, seeds)
            for lock, fit in zip(group_locks, fits):
                try:
                    pending.append((lock, lock.send(fit)))
                except StopIteration:
                    pass


def refine_study(config: RefineConfig, truth_bound: float, seed: int, n_locks: int):
    """A lock run of ``n_locks`` locks of ``config`` on one models dict,
    which lives for this call only.

    Lock i's truth is the first ``uniform(-truth_bound, truth_bound)`` of
    ``np.random.default_rng(seed + i)``'s stream and its seed 13 (seed + i)
    + seed.  `_prefit_locks` draws and fits every record, or raises a
    lock's error; then each lock is one `iterative_refine` that reads them,
    and its trace equals that of the lone call.  Returns the truths and
    traces in lock order, the `_diagnostics` (a pinned fit is a back-off;
    each distinct record's score evaluations count once, however many
    locks read its fit) and the wall times ``prefit_s`` and ``locks_s`` of
    the two passes.
    """
    seeds = range(seed, seed + n_locks)
    truths = [float(rng.uniform(-truth_bound, truth_bound)) for rng in _streams(seeds)]
    locks = [(truth, replace(config, seed=13 * s + seed)) for truth, s in zip(truths, seeds)]
    models = {}
    t0 = time.perf_counter()
    _prefit_locks(locks, models)
    t1 = time.perf_counter()
    traces = [iterative_refine(truth, lock, models) for truth, lock in locks]
    timings = {"prefit_s": t1 - t0, "locks_s": time.perf_counter() - t1}
    backoffs = sum(tr.backoffs for tr in traces)
    fits = sum(len(tr.stages) for tr in traces) + backoffs
    nonconverged = sum(tr.nonconverged for tr in traces)
    diagnostics = _diagnostics(models.values(), fits, nonconverged, backoffs, backoffs=backoffs)
    return truths, traces, diagnostics, timings


def _safe_train_length(bound: float) -> int:
    """Longest even train, at most `protocols.MAX_PULSES`, whose fringe keeps
    ``bound`` in (0, inf] unambiguous; an infinite bound gives N = 2."""
    n = int(_SAFETY_FRACTION * np.pi / bound)
    n = max(n - (n % 2), 2)  # even for the 1B closed form
    return min(n, MAX_PULSES)
