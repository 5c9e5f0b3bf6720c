"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload on its tiny configs once untraced and once traced, then
checks that the correctness checks pass on real output, that each check
fires on doctored output, that tracing changes no data file, that self times
add up, and that layer isolation holds.  Exits 1 if any expectation fails.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from speed import REFERENCE_PROBE_S, SpeedProbe, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def edit_csv(path: Path, column: str, value: str, row: int = 0) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def doctored(w, cfgs, plain: Path, raw: dict, edit) -> wl.Outcome:
    """Check a copy of a pass's output after ``edit(copy_dir, raw_copy)``."""
    copy = plain.parent / "doctored"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(plain, copy)
    raw = {**raw, "errors": dict(raw["errors"]), "defects": list(raw["defects"]),
           "composed": [u.copy() for u in raw["composed"]]}
    edit(copy, raw)
    return wl.check_pass(w, cfgs, copy, raw)


def run(name: str, tmp: Path):
    w = wl.tiny(wl.WORKLOADS[name])
    cfgs = wl.load(w)
    wl.warm_up(w, cfgs, SEED)
    plain = tmp / name / "plain"
    raw = wl.run_pass(w, plain, SEED)
    o = wl.check_pass(w, cfgs, plain, raw)
    tracer = Tracer()
    with tracer:
        raw_t = wl.run_pass(w, tmp / name / "traced", SEED)
    o_t = wl.check_pass(w, cfgs, tmp / name / "traced", raw_t)
    expect(o.attempted > 0 and o.failed == 0 and not o.problems, f"{name}: checks pass on real output {o.problems}")
    expect(o.digest == o_t.digest, f"{name}: tracing leaves data files byte-identical")
    own = tracer.self_times().sum()
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0) * 1e-9
    expect(abs(own - roots) <= 1e-6 * max(roots, 1.0), f"{name}: self times add up to root span time")
    m = tracer.layer_metrics(1)
    expect(not wl.check_idle_layers(w, m), f"{name}: bypassed layers {w.idle_layers} do no work")
    return w, cfgs, plain, raw, m


def check_speed_probe() -> None:
    probe = SpeedProbe()
    probe.start()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    median = probe.stop()
    expect(len(probe.samples) >= 5 and median > 0, "speed probe samples while started")
    expect(reference_seconds(2.0, 2 * REFERENCE_PROBE_S) == 1.0, "a machine at half speed halves the time")


def main() -> int:
    check_speed_probe()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)

        w, cfgs, plain, raw, m = run("sweep", tmp)
        p = cfgs[0].params
        n_fits = p["n_seeds"] * len(p["points"])
        expect(m["estimation.ml_estimate.calls"] == n_fits, "sweep: one fit per item")
        expect(m["estimation.optimize_reference_phase.calls"] == len(p["points"]), "sweep: one reference search per point")
        expect(0.0 < m["estimation.duplicate_record_share"] < 1.0, "sweep: some records repeat")
        csv_name = "sweep/crlb_saturation.csv"
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "ratio", "nan"))
        expect(o.failed == p["n_seeds"], "sweep: a non-finite ratio fails its point's items")
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "ratio", "50.0"))
        expect(o.failed == 0 and len(o.problems) == 1, "sweep: a ratio outside the band is a check failure")
        o = doctored(w, cfgs, plain, raw, lambda d, r: r["errors"].update(sweep="DegenerateFitError"))
        expect(o.failed == n_fits, "sweep: a typed error fails every item of the pass")
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "variance", "1.0"))
        expect(o.digest != wl.data_digest(plain), "sweep: a changed data file changes the digest")

        w, cfgs, plain, raw, m = run("lock", tmp)
        n_locks = cfgs[0].params["n_seeds"]
        expect(m["estimation.iterative_refine.calls"] == n_locks, "lock: one iterative_refine per item")
        expect(0.0 < m["estimation.iterative_refine.useful_fit_ratio"] <= 1.0, "lock: useful fit ratio in (0, 1]")
        expect(0.0 <= m["estimation.duplicate_record_share"] < 1.0, "lock: duplicate share reported")
        csv_name = "lock/refine_fiber.csv"
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "stages", "99"))
        expect(o.failed == 1, "lock: more stages than max_stages fails the lock")
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "residual", "nan"))
        expect(o.failed == 1, "lock: a non-finite residual fails the lock")
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / csv_name, "residual_over_crlb", "5.0"))
        expect(o.failed == 0 and not o.problems and o.beyond_3sigma >= 1, "lock: beyond 3 sigma is counted, not gated")

        w, cfgs, plain, raw, m = run("propagate", tmp)
        expect(m["pulses.magnus_steps"] > 0 and m["raman.magnus_steps"] > 0, "propagate: Magnus steps counted")
        expect(m["protocols.compose_train.pulses"] == w.compose[0] * w.compose[1], "propagate: composed pulses counted")
        o = doctored(w, cfgs, plain, raw, lambda d, r: r["defects"].append(("integrate_pulse", 1e-6)))
        expect(o.failed == 1, "propagate: a unitarity defect fails the call")
        o = doctored(w, cfgs, plain, raw, lambda d, r: edit_csv(d / "rwa/rwa_validity.csv", "fidelity", "2.0"))
        expect(len(o.problems) == 1, "propagate: RWA fidelity must increase with cycles")

        def excite(d, r):
            path = d / "raman/raman_summary.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "excited_population": 0.01}))

        o = doctored(w, cfgs, plain, raw, excite)
        expect(len(o.problems) == 1, "propagate: excited population above the limit")
        def twist(d, r):
            r["composed"][0] = r["composed"][0] @ np.diag([1.0, np.exp(1e-3j)])

        o = doctored(w, cfgs, plain, raw, twist)
        expect(o.failed == 1, "propagate: compose_train off the closed form fails the call")
    print(f"{len(failures)} expectation(s) failed" if failures else "self-check passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
