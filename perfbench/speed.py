"""Machine speed, sampled inside the measuring process.

On a shared host the speed of a vCPU drifts by up to 2x within seconds, with
the load of other guests, so a raw wall time moves as much with the machine
as with the program.  `SpeedProbe` runs a fixed pure-Python loop of about
100 us from a SIGALRM timer every 25 ms (0.4 % of the run) and keeps its
durations.  `reference_seconds` converts a raw duration measured over the
same interval into reference-speed seconds:

    raw * REFERENCE_PROBE_S / median(probe durations)

On 10 back-to-back passes of the propagate workload this took the spread
(interquartile range / median) of the pass time from 0.33 raw to 0.02.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_PROBE_S = 1e-4  # about the probe's duration on an unloaded 2.1 GHz Xeon vCPU
INTERVAL_S = 0.025


def _probe() -> float:
    start = perf_counter()
    s = 0
    for i in range(2000):
        s += i * i
    return perf_counter() - start


class SpeedProbe:
    """Samples the probe loop while started; one instance per process."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; return the median probe duration [s]."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(_probe())
        return statistics.median(self.samples)


def reference_seconds(raw_s: float, probe_s: float) -> float:
    """A raw duration scaled to the reference machine speed."""
    return raw_s * REFERENCE_PROBE_S / probe_s
