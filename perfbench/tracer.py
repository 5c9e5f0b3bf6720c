"""Spans around the calls into each combphase module, recorded from outside.

`Tracer` replaces public functions at their module (or class) attributes with
wrappers that record a span per call: name, start, end, parent span and run
id.  ``expm_herm`` is wrapped count-only at each caller module, because one
Magnus step takes ~16 us and a span would inflate it.  Spans stay in memory
until `write` is called.  Return values that the per-layer metrics need are
kept by reference during the pass and summarised afterwards, so no summary
work lands inside a parent's span.
"""
from __future__ import annotations

import csv
import functools
import inspect
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from combphase import comb, estimation, protocols, pulses, raman, scenarios

#: (owner, attribute, span name, keep return values)
SPANNED = (
    (scenarios, "run_scenario", "scenarios.run_scenario", True),
    (scenarios, "load_scenario_config", "scenarios.load_scenario_config", False),
    (estimation, "ml_estimate", "estimation.ml_estimate", True),
    (estimation, "log_likelihood_and_grad", "estimation.log_likelihood_and_grad", False),
    (estimation, "fisher_matrix", "estimation.fisher_matrix", False),
    (estimation, "sample_record", "estimation.sample_record", True),
    (estimation, "optimize_reference_phase", "estimation.optimize_reference_phase", False),
    (estimation, "iterative_refine", "estimation.iterative_refine", True),
    (protocols.RamseyOutcomeModel, "evaluate", "protocols.evaluate", False),
    (protocols, "matpow_with_grad", "protocols.matpow_with_grad", False),
    (protocols, "compose_train", "protocols.compose_train", True),
    (pulses, "integrate_pulse", "pulses.integrate_pulse", False),
    (raman, "integrate_lambda", "raman.integrate_lambda", False),
    (raman, "phase_map", "raman.phase_map", False),
    (comb, "generate_train", "comb.generate_train", False),
)

#: (owner, attribute, counter name): count-only wrappers
COUNTED = (
    (pulses, "expm_herm", "pulses.magnus_steps"),
    (raman, "expm_herm", "raman.magnus_steps"),
)

_NAME, _START, _END, _PARENT, _RUN = range(5)


class Tracer:
    """In-memory span recorder; use as a context manager around traced passes."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.returns: dict = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _span(self, fn, name: str, keep: bool):
        spans, stack, returns = self.spans, self._stack, self.returns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.run_id)
            if keep:
                returns[name].append((self.run_id, args, kwargs, result))
            return result

        return traced

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for owner, attr, name, keep in SPANNED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(fn, name, keep))
        for owner, attr, name in COUNTED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._count(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def write(self, path) -> None:
        """Spans as CSV: id, parent, run, name, start_ns, end_ns."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "run", "name", "start_ns", "end_ns"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s[_PARENT], s[_RUN], s[_NAME], s[_START], s[_END]])

    # --- summaries ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time [s]: duration minus time covered by children."""
        dur = np.array([s[_END] - s[_START] for s in self.spans], dtype=float)
        own = dur.copy()
        for i, s in enumerate(self.spans):
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= dur[i]
        return own * 1e-9

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations [s] of the spans called ``name``."""
        return np.array(
            [s[_END] - s[_START] for s in self.spans if s[_NAME] == name], dtype=float
        ) * 1e-9

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each per traced pass (counts and times)."""
        own = self.self_times()
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for s, t in zip(self.spans, own):
            calls[s[_NAME]] += 1
            self_s[s[_NAME]] += t
        m: dict = {}
        for _, _, name, _ in SPANNED:
            m[f"{name}.calls"] = calls[name] / passes
            m[f"{name}.self_s"] = self_s[name] / passes
        for _, _, name in COUNTED:
            m[name] = self.counts[name] / passes

        fits = self.durations("estimation.ml_estimate") * 1e6
        m["estimation.ml_estimate.p50_us"] = _pct(fits, 50)
        m["estimation.ml_estimate.p90_us"] = _pct(fits, 90)
        m.update(_fit_stats(self.returns["estimation.ml_estimate"], passes))
        m["estimation.duplicate_record_share"] = _duplicate_share(
            self.returns["estimation.sample_record"]
        )
        m.update(self._lock_stats(passes))

        evals = self.durations("protocols.evaluate")
        m["protocols.evaluate.us_per_call"] = float(evals.mean() * 1e6) if evals.size else 0.0
        n_pulses = sum(len(a[0]) for _, a, _, _ in self.returns["protocols.compose_train"])
        m["protocols.compose_train.pulses"] = n_pulses / passes
        composed = self.durations("protocols.compose_train").sum()
        m["protocols.compose_train.ns_per_pulse"] = composed / n_pulses * 1e9 if n_pulses else 0.0

        pulse_s = self.durations("pulses.integrate_pulse").sum()
        steps = self.counts["pulses.magnus_steps"]
        m["pulses.us_per_step"] = pulse_s / steps * 1e6 if steps else 0.0
        raman_s = self.durations("raman.integrate_lambda").sum() + self.durations("raman.phase_map").sum()
        steps = self.counts["raman.magnus_steps"]
        m["raman.us_per_step"] = raman_s / steps * 1e6 if steps else 0.0

        written = 0
        for *_, result in self.returns["scenarios.run_scenario"]:
            written += sum(Path(p).stat().st_size for p in result["artifacts"])
        m["scenarios.bytes_written"] = written / passes
        m["trace.spans"] = len(self.spans) / passes
        return m

    def _lock_stats(self, passes: int) -> dict:
        """Stages, back-offs and residuals of the iterative locks."""
        refine_ids = {i for i, s in enumerate(self.spans) if s[_NAME] == "estimation.iterative_refine"}
        fits_in_locks = sum(
            1 for s in self.spans if s[_NAME] == "estimation.ml_estimate" and s[_PARENT] in refine_ids
        )
        traces = [r for *_, r in self.returns["estimation.iterative_refine"]]
        stages = sum(len(t.stages) for t in traces)
        beyond = sum(
            1 for t in traces if abs(t.final_residual) > 3.0 * t.final_crlb_sigma
        )
        return {
            "estimation.iterative_refine.stages_per_lock": stages / len(traces) if traces else 0.0,
            "estimation.iterative_refine.backoffs": (fits_in_locks - stages) / passes,
            "estimation.iterative_refine.useful_fit_ratio": stages / fits_in_locks if fits_in_locks else 0.0,
            "estimation.iterative_refine.beyond_3sigma": beyond / passes,
        }


def _pct(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def _fit_stats(kept: list, passes: int) -> dict:
    """Evaluations per fit, non-converged fits and fits pinned to the window edge."""
    signature = inspect.signature(estimation.ml_estimate)
    evals = nonconv = pinned = 0
    for _, args, kwargs, res in kept:
        call = signature.bind(*args, **kwargs).arguments
        chi = max(call["model"].spec.enhancement, 1.0)
        window = call.get("dphi_window") or np.pi / (4.0 * chi)
        evals += res.n_evaluations
        nonconv += not res.converged
        pinned += abs(res.dphi_hat - float(call["init"][1])) >= 0.98 * window
    n = len(kept)
    return {
        "estimation.ml_estimate.evals_per_fit": evals / n if n else 0.0,
        "estimation.ml_estimate.nonconverged": nonconv / passes,
        "estimation.ml_estimate.pinned": pinned / passes,
    }


def _duplicate_share(kept: list) -> float:
    """Share of records whose spec and counts repeat an earlier one in its pass."""
    seen: dict = defaultdict(set)
    dup = 0
    for run, args, _, rec in kept:
        c2 = () if rec.counts2 is None else tuple(rec.counts2)
        key = (args[0].spec, tuple(rec.counts1), c2)
        dup += key in seen[run]
        seen[run].add(key)
    return dup / len(kept) if kept else 0.0
