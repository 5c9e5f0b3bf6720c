"""Pulse-train generation and optical transformations.

A comb emits pulses every repetition period T whose carrier-envelope phase
advances by a fixed step per pulse.  The step is tied to the offset
frequency nu_0 in the angular convention

    phase_step = 2 pi nu_0 T
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import OverlapError
from .pulses import PulseSpec

#: gap between the two members of an interleaved pair [s]
INTRA_PAIR_GAP = 10e-12
#: carrier (and atomic transition) angular frequency of `fiber_comb_preset` [rad/s]
FIBER_CARRIER_FREQ = 2.0 * np.pi * 3.5e14


@dataclass(frozen=True)
class CombSpec:
    """Frequency-comb model: repetition period, offset frequency, pulse shape."""

    rep_period: float  # T [s]
    offset_freq: float  # nu_0 [Hz]
    pulse_template: PulseSpec

    def __post_init__(self):
        if self.rep_period <= 0:
            raise ValueError("rep_period must be positive")
        if self.rep_period <= self.pulse_template.tau:
            raise ValueError("rep_period must exceed the pulse duration")

    @property
    def phase_step(self) -> float:
        """Pulse-to-pulse phase increment 2 pi nu_0 T [rad]."""
        return 2.0 * np.pi * (self.offset_freq * self.rep_period)


@dataclass(frozen=True)
class PulseTrain:
    """Ordered pulse arrival events (time, CEO phase, Rabi angle).

    ``indices`` tracks which source pulse each event came from, so optical
    rearrangements can prove they use each pulse only once.
    ``pulse_duration`` (when known) is used for overlap checks: consecutive
    arrivals must be at least two pulse durations apart.
    """

    times: np.ndarray
    phases: np.ndarray
    thetas: np.ndarray
    indices: np.ndarray | None = None
    pulse_duration: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        ph = np.asarray(self.phases, dtype=float)
        th = np.asarray(self.thetas, dtype=float)
        if not (t.shape == ph.shape == th.shape) or t.ndim != 1 or t.size == 0:
            raise ValueError("times/phases/thetas must be equal-length 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("arrival times must be strictly increasing")
        if self.pulse_duration is not None and t.size > 1:
            # envelopes are supported on [-tau/2, tau/2], so arrivals one full
            # duration apart have disjoint supports
            if np.min(np.diff(t)) < self.pulse_duration * (1.0 - 1e-9):
                raise OverlapError("consecutive pulse envelopes overlap")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "thetas", th)
        if self.indices is not None:
            object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class JitterSpec:
    """Stochastic per-pulse phase noise: white increments or a random walk."""

    kind: str = "random_walk"
    sigma: float = 0.0  # std of the per-pulse phase increment [rad]

    def __post_init__(self):
        if self.kind not in ("white", "random_walk"):
            raise ValueError(f"unknown jitter kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


def generate_train(c: CombSpec, n_pulses: int, start_index: int = 0) -> PulseTrain:
    """Ideal comb output: t_m = m T, phi_m = m * phase_step, uniform theta."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    m = start_index + np.arange(n_pulses)
    return PulseTrain(
        times=m * c.rep_period,
        phases=m * c.phase_step,
        thetas=np.full(n_pulses, c.pulse_template.theta),
        indices=m,
        pulse_duration=c.pulse_template.tau,
    )


def split_delay_interleave(t: PulseTrain, n_delay: int) -> PulseTrain:
    """Split the train, delay the early half by n_delay periods, interleave.

    Pair k consists of the delayed copy of pulse k (arriving first) and the
    undelayed pulse k + n_delay, separated by `INTRA_PAIR_GAP`.  Each source
    pulse is used at most once, so a train of N pulses gives
    min(N - n_delay, n_delay) pairs.
    """
    if n_delay < 1:
        raise ValueError("n_delay must be >= 1")
    n = len(t)
    n_pairs = min(n - n_delay, n_delay)
    if n_pairs < 1:
        raise ValueError("train too short for the requested delay")
    if t.pulse_duration is not None and INTRA_PAIR_GAP < t.pulse_duration:
        raise OverlapError(
            f"intra-pair gap {INTRA_PAIR_GAP} shorter than the pulse duration"
        )
    early = slice(0, n_pairs)
    late = slice(n_delay, n_delay + n_pairs)
    times = np.empty(2 * n_pairs)
    phases = np.empty(2 * n_pairs)
    thetas = np.empty(2 * n_pairs)
    indices = np.empty(2 * n_pairs, dtype=int)
    # delayed member first, undelayed one an intra-pair gap later
    times[0::2] = t.times[late]
    times[1::2] = t.times[late] + INTRA_PAIR_GAP
    phases[0::2] = t.phases[early]
    phases[1::2] = t.phases[late]
    thetas[0::2] = t.thetas[early]
    thetas[1::2] = t.thetas[late]
    src = t.indices if t.indices is not None else np.arange(n)
    indices[0::2] = src[early]
    indices[1::2] = src[late]
    return PulseTrain(times, phases, thetas, indices, t.pulse_duration)


def apply_phase_jitter(t: PulseTrain, model: JitterSpec, seed: int) -> PulseTrain:
    """Add stochastic per-pulse phase noise; deterministic under the seed."""
    if model.sigma == 0.0:
        return t
    kicks = np.random.default_rng(seed).normal(0.0, model.sigma, size=len(t))
    noise = np.cumsum(kicks) if model.kind == "random_walk" else kicks
    return replace(t, phases=t.phases + noise)


def fiber_comb_preset() -> CombSpec:
    """A 100 MHz fiber comb with a 200 kHz-class offset and 10 ps pulses."""
    template = PulseSpec(
        theta=np.pi / 2,
        tau=10e-12,
        carrier_freq=FIBER_CARRIER_FREQ,
        atom_freq=FIBER_CARRIER_FREQ,
    )
    return CombSpec(rep_period=10e-9, offset_freq=200e3, pulse_template=template)


def wrap_pulse_count(c: CombSpec) -> int:
    """Pulse count after which the CEO phase completes a full 2 pi wrap."""
    step = abs(c.phase_step)
    if step == 0:
        return np.iinfo(np.int64).max
    return int(round(2.0 * np.pi / step))

