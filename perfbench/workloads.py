"""The three benchmark workloads: what one pass runs and how it is checked.

A pass drives the public API only: ``scenarios.run_scenario`` on the
benchmark's own configs, plus direct ``protocols.compose_train`` calls on the
``propagate`` workload.  Every check here must hold for any seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from combphase import comb, estimation, protocols, pulses, raman, scenarios
from combphase._su2 import unitarity_defect
from combphase.errors import CombPhaseError

CONFIGS = Path(__file__).resolve().parent / "configs"

#: per-point false-alarm rate of the sweep's CRLB-ratio band
RATIO_FALSE_ALARM = 1e-7
#: range of the estimator's true variance / CRLB ratio; 1500 disjoint seeds
#: gave 0.955 +- 0.037 at every bundled point (all sit at chi * dphi = 0.2)
RATIO_TRUE_RANGE = (0.9, 1.05)
UNITARITY_TOL = 1e-10
COMPOSE_FIDELITY_TOL = 1e-9
RAMAN_POPULATION_LIMIT = 1e-3
LOCK_RESIDUAL_SIGMAS = 3.0
#: white CEO-phase jitter on the composed trains; without it the 1B closed
#: form of a 10**4-pulse fiber-comb train is exactly rot_z(40 pi) = 1, which
#: no ordering or sign error in compose_train would change
COMPOSE_JITTER = comb.JitterSpec(kind="white", sigma=0.1)


@dataclass(frozen=True)
class Workload:
    """Configs of one workload; ``compose`` is (trains, pulses per train).

    ``idle_layers`` names per-layer metrics that must read 0 in a traced run:
    the layers this workload is meant to bypass.
    """

    name: str
    configs: tuple[str, ...]
    idle_layers: tuple[str, ...]
    compose: tuple[int, int] = (0, 0)
    config_dir: Path = CONFIGS

    def paths(self) -> list[Path]:
        return [self.config_dir / f"{c}.yaml" for c in self.configs]


_NO_MAGNUS = ("pulses.magnus_steps", "raman.magnus_steps")
WORKLOADS = {
    "sweep": Workload("sweep", ("sweep",), _NO_MAGNUS),
    "lock": Workload("lock", ("lock",), _NO_MAGNUS + ("estimation.optimize_reference_phase.calls",)),
    "propagate": Workload(
        "propagate", ("rwa", "raman"),
        ("protocols.evaluate.calls", "protocols.matpow_with_grad.calls", "estimation.ml_estimate.calls"),
        compose=(10, 10_000),
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload at self-check sizes."""
    return replace(w, config_dir=CONFIGS / "tiny", compose=(2, 200) if w.compose[0] else (0, 0))


def scenario_seed(seed: int) -> int:
    """Scenario master seed for a benchmark seed.

    Runners draw consecutive seeds from the master seed, so neighbouring
    master seeds would share nearly all their records; hashing keeps the
    inputs of different benchmark seeds apart.
    """
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


@dataclass
class Outcome:
    """Result of one pass after its checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    beyond_3sigma: int = 0

    def fail(self, items: int, problem: str) -> None:
        self.failed += items
        self.problems.append(problem)


def load(w: Workload) -> list:
    """Load and schema-validate the workload's configs."""
    return [scenarios.load_scenario_config(p) for p in w.paths()]


def warm_up(w: Workload, cfgs, seed: int) -> None:
    """Run one item of the workload outside any timed region."""
    params = cfgs[0].params
    if w.name == "sweep":
        pt = params["points"][0]
        spec = protocols.ProtocolSpec(pt["kind"], pt["n"], pt.get("n_delay", 0), np.pi / 2)
        model = protocols.ramsey_model(spec)
        rec = estimation.sample_record(model, spec.theta, pt["dphi"], pt["m_shots"], seed)
        estimation.ml_estimate(rec, model, (spec.theta, 0.0), fix_theta=True)
    elif w.name == "lock":
        prior = abs(comb.fiber_comb_preset().phase_step)
        cfg = estimation.RefineConfig(m_shots=params["m_shots"], prior_bound=prior, seed=seed)
        estimation.iterative_refine(0.5 * prior, cfg)
    else:
        train = comb.generate_train(comb.fiber_comb_preset(), w.compose[1])
        protocols.compose_train(train)


@contextmanager
def _observe_propagators(defects: list):
    """Record the unitarity defect of every integrate_pulse/lambda result."""
    originals = (pulses.integrate_pulse, raman.integrate_lambda)

    def pulse(*a, **k):
        u = originals[0](*a, **k)
        defects.append(("integrate_pulse", unitarity_defect(u.matrix)))
        return u

    def lam(*a, **k):
        u, pop = originals[1](*a, **k)
        defects.append(("integrate_lambda", unitarity_defect(u.matrix)))
        return u, pop

    pulses.integrate_pulse, raman.integrate_lambda = pulse, lam
    try:
        yield
    finally:
        pulses.integrate_pulse, raman.integrate_lambda = originals


def compose_trains(w: Workload, seed: int):
    """The seed's jittered fiber-comb trains for the direct compose_train calls."""
    n_trains, n_pulses = w.compose
    preset = comb.fiber_comb_preset()
    seeds = np.random.SeedSequence(seed).generate_state(2 * n_trains)
    return [
        comb.apply_phase_jitter(
            comb.generate_train(preset, n_pulses, start_index=int(start)), COMPOSE_JITTER, int(jitter)
        )
        for start, jitter in seeds.reshape(n_trains, 2)
    ]


def run_pass(w: Workload, out: Path, seed: int) -> dict:
    """One timed pass; returns what the checks need.  Typed errors are kept."""
    trains = compose_trains(w, seed)
    raw = {"errors": {}, "defects": [], "composed": [], "trains": trains}
    with _observe_propagators(raw["defects"]):
        for cfg_path in w.paths():
            try:
                scenarios.run_scenario(cfg_path, out / cfg_path.stem, seed=scenario_seed(seed))
            except CombPhaseError as e:
                raw["errors"][cfg_path.stem] = f"{type(e).__name__}: {e}"
        for train in trains:
            try:
                raw["composed"].append(protocols.compose_train(train).matrix)
            except CombPhaseError as e:
                raw["errors"]["compose_train"] = f"{type(e).__name__}: {e}"
    if trains:
        with open(out / "compose_train.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["train", "u00_re", "u00_im", "u01_re", "u01_im"])
            for i, u in enumerate(raw["composed"]):
                writer.writerow([i] + [repr(float(x)) for z in u[0] for x in (z.real, z.imag)])
    return raw


def data_digest(out: Path) -> str:
    """sha256 over every data file of a pass; manifests carry a timestamp."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(out)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def ratio_band(n_seeds: int) -> tuple[float, float]:
    """CRLB-ratio band: true-ratio range widened by the chi-square sampling
    error of an ``n_seeds``-sample variance, at RATIO_FALSE_ALARM per point."""
    from scipy.stats import chi2  # slow to import; keep it out of set-up

    dof = n_seeds - 1
    lo = RATIO_TRUE_RANGE[0] * chi2.ppf(RATIO_FALSE_ALARM, dof) / dof
    hi = RATIO_TRUE_RANGE[1] * chi2.isf(RATIO_FALSE_ALARM, dof) / dof
    return lo, hi


def check_sweep(cfg, out: Path, raw: dict, o: Outcome) -> None:
    n_seeds = cfg.params["n_seeds"]
    o.attempted += n_seeds * len(cfg.params["points"])
    if "sweep" in raw["errors"]:
        o.fail(o.attempted, f"sweep raised {raw['errors']['sweep']}")
        return
    lo, hi = ratio_band(n_seeds)
    for row in _rows(out / "sweep" / "crlb_saturation.csv"):
        ratio = float(row["ratio"])
        point = f"{row['kind']} N={row['n']} N_d={row['n_delay']}"
        if not math.isfinite(ratio):
            o.fail(n_seeds, f"sweep: non-finite CRLB ratio at {point}")
        elif not lo <= ratio <= hi:
            o.problems.append(f"sweep: CRLB ratio {ratio:.3f} at {point} outside [{lo:.3f}, {hi:.3f}]")


def check_lock(cfg, out: Path, raw: dict, o: Outcome) -> None:
    n_locks = cfg.params["n_seeds"]
    o.attempted += n_locks
    if "lock" in raw["errors"]:
        o.fail(n_locks, f"lock raised {raw['errors']['lock']}")
        return
    max_stages = cfg.params.get("max_stages", estimation.RefineConfig().max_stages)
    for row in _rows(out / "lock" / "refine_fiber.csv"):
        ratio = float(row["residual_over_crlb"])
        if not math.isfinite(float(row["residual"])) or not math.isfinite(ratio):
            o.fail(1, f"lock {row['seed']}: non-finite residual")
        elif int(row["stages"]) > max_stages:
            o.fail(1, f"lock {row['seed']}: {row['stages']} stages > {max_stages}")
        elif ratio > LOCK_RESIDUAL_SIGMAS:
            o.beyond_3sigma += 1


def check_propagate(cfgs, out: Path, raw: dict, o: Outcome) -> None:
    rwa_cfg, _ = cfgs
    trains = raw["trains"]
    n_cycles = len(rwa_cfg.params["cycles"])
    o.attempted += n_cycles + 2 + len(trains)
    for name, defect in raw["defects"]:
        if not defect <= UNITARITY_TOL:
            o.fail(1, f"{name}: unitarity defect {defect:.2e}")
    if "rwa" in raw["errors"]:
        o.fail(n_cycles, f"rwa raised {raw['errors']['rwa']}")
    else:
        fid = [float(r["fidelity"]) for r in _rows(out / "rwa" / "rwa_validity.csv")]
        if not all(b > a for a, b in zip(fid, fid[1:])):
            o.problems.append(f"rwa: fidelity not increasing with cycles: {fid}")
    if "raman" in raw["errors"]:
        o.fail(2, f"raman raised {raw['errors']['raman']}")
    else:
        summary = json.loads((out / "raman" / "raman_summary.json").read_text())
        if not summary["excited_population"] < RAMAN_POPULATION_LIMIT:
            o.problems.append(f"raman: excited population {summary['excited_population']:.2e}")
        if not summary["monotone"]:
            o.problems.append("raman: phase map not monotone")
    if "compose_train" in raw["errors"]:
        o.fail(len(trains), f"compose_train raised {raw['errors']['compose_train']}")
        return
    for i, (train, u) in enumerate(zip(trains, raw["composed"])):
        defect = unitarity_defect(u)
        err = abs(1.0 - pulses.matrix_fidelity(u, protocols.closed_form_1b(train.phases).matrix))
        if not (defect <= UNITARITY_TOL and err <= COMPOSE_FIDELITY_TOL):
            o.fail(1, f"compose_train {i}: defect {defect:.2e}, closed-form error {err:.2e}")


def check_idle_layers(w: Workload, layers: dict) -> list[str]:
    """Layer isolation: the layers a workload bypasses must do no work."""
    return [f"{w.name}: {k} = {layers[k]:g}, expected 0" for k in w.idle_layers if layers[k]]


def check_pass(w: Workload, cfgs, out: Path, raw: dict) -> Outcome:
    """Check one pass's outputs; digest comparison is left to the caller."""
    o = Outcome(digest=data_digest(out))
    if w.name == "sweep":
        check_sweep(cfgs[0], out, raw, o)
    elif w.name == "lock":
        check_lock(cfgs[0], out, raw, o)
    else:
        check_propagate(cfgs, out, raw, o)
    return o
