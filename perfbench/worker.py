"""One workload in one process: set up, then timed passes until time is up.

Started by run.py, never by hand.  Prints ``ready <probe_s>`` once set-up
(imports, config load and validation, one warm-up item) is done, with the
median speed-probe duration over the set-up; with ``--setup-only`` it exits
there.  Otherwise it runs passes of the workload with the same seed for
about ``--seconds`` (a pass starts only while half of it still fits), checks
every pass, and prints one JSON line.
With ``--trace 1`` the first pass is untraced and the rest are traced.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # the digest comparison needs two; a traced run, one of each kind


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # imported here so that set-up time covers them
    sys.path.insert(0, str(ROOT / "src"))
    import combphase
    import workloads as wl
    from tracer import Tracer

    if not Path(combphase.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"combphase imported from {combphase.__file__}, not this checkout", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    cfgs = wl.load(w)
    wl.warm_up(w, cfgs, args.seed)
    print(f"ready {probe.stop()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    passes, outcomes = [], []
    out = args.out / "pass"
    started = perf_counter()
    # start another pass while at least half of it fits in the time left
    while len(outcomes) < MIN_PASSES or (
        perf_counter() - started + passes[-1]["wall_s"] / 2 < args.seconds
    ):
        traced = tracer is not None and len(outcomes) > 0
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        with tracer if traced else nullcontext():
            if traced:
                tracer.run_id = len(outcomes)
            probe.start()
            t0 = perf_counter()
            raw = wl.run_pass(w, out, args.seed)
            wall = perf_counter() - t0
            passes.append({"wall_s": wall, "probe_s": probe.stop(), "traced": traced})
        o = wl.check_pass(w, cfgs, out, raw)
        if outcomes and o.digest != outcomes[0].digest:
            o.fail(o.attempted - o.failed, f"pass {len(outcomes)}: data files differ from pass 0")
        outcomes.append(o)

    result = {
        "passes": passes,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "items_per_pass": outcomes[0].attempted,
        "problems": sorted({p for o in outcomes for p in o.problems}),
        "beyond_3sigma": statistics.median(o.beyond_3sigma for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(len(passes) - 1)
        result["problems"] += wl.check_idle_layers(w, result["layers"])
        tracer.write(args.out / "spans.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
