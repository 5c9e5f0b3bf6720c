"""combphase benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it prints the
per-layer metrics of a traced run and the tracing overhead.  Workloads,
metrics, units and bounds are declared in BENCHMARK.json; README.md in this
directory maps each per-layer metric to its layer and to the end-to-end
metric it should move.

The workload runs in its own single-threaded process with the BLAS thread
count pinned to 1.  Set-up time is the median over several fresh processes.
Times are in reference-speed seconds (see speed.py); the raw medians are
printed too.  The last line of stdout is the JSON result; the lines before
it repeat every metric by name and unit for a human reader.  Exit code 2
means the benchmark could not run (no checkout, a crashed or hung worker).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import REFERENCE_PROBE_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROCESSES = 3  # set-up-only processes, besides the measuring worker
RUN_LIMIT_S = 175  # a run must end within 180 s
MAX_PRINTED_PROBLEMS = 10
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args, work: Path, env, deadline: float, setup_only: bool):
    """Start a worker; return (raw set-up seconds, set-up probe seconds, result line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(work),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    word, _, probe = first.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise BenchError(f"worker exited with code {proc.returncode} (killed if negative)")
    return ready, float(probe), rest.strip().splitlines()[-1] if rest.strip() else ""


def measure(args, declared: dict) -> dict:
    """Run the workload and return the result object for the last line."""
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **PINNED_THREADS)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups = []
    for _ in range(0 if args.trace else SETUP_PROCESSES):
        setups.append(_worker(args, work, env, deadline, True)[:2])
    *setup, line = _worker(args, work, env, deadline, False)
    setups.append(setup)
    if not line:
        raise BenchError("worker printed no result")
    r = json.loads(line)
    plain = [p for p in r["passes"] if not p["traced"]]
    walls = [reference_seconds(p["wall_s"], p["probe_s"]) for p in plain]

    if args.trace:
        traced = [reference_seconds(p["wall_s"], p["probe_s"]) for p in r["passes"] if p["traced"]]
        values = dict(r["layers"])
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
    else:
        values = {
            "setup_s": statistics.median(reference_seconds(*s) for s in setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(r["items_per_pass"] / t for t in walls),
            "peak_rss_mb": r["peak_rss_mb"],
        }
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")

    print(f"{args.workload} seed={args.seed}: {len(r['passes'])} passes of {r['items_per_pass']} items;"
          f" times in reference-speed seconds (probe {REFERENCE_PROBE_S * 1e6:g} us)")
    for name, unit in declared.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    raw_setup = statistics.median(s[0] for s in setups) if setups else float("nan")
    print(f"  raw: setup_s = {raw_setup:.6g} s, wall_s = {statistics.median(p['wall_s'] for p in plain):.6g} s,"
          f" probe = {statistics.median(p['probe_s'] for p in r['passes']) * 1e6:.4g} us")
    print(f"  failed_share = {r['failed'] / r['attempted']:.6g} ({r['failed']} of {r['attempted']})")
    if args.workload == "lock":
        print(f"  locks beyond 3 sigma per pass (reported, not gated) = {r['beyond_3sigma']}")
    for problem in r["problems"][:MAX_PRINTED_PROBLEMS]:
        print(f"  CHECK FAILED: {problem}")
    if len(r["problems"]) > MAX_PRINTED_PROBLEMS:
        print(f"  ... and {len(r['problems']) - MAX_PRINTED_PROBLEMS} more failed checks")
    return {
        "correct": not r["problems"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "combphase" / "__init__.py").is_file():
        print(f"no combphase source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        result = measure(args, declared)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
