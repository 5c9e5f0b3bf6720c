"""Reproducible batch experiments driven by versioned YAML configs.

Every bundled scenario exercises one slice of the library end-to-end and
writes deterministic artifacts (CSV or JSON) plus a manifest recording the
config hash, seed, package and git versions, a timestamp and the run's wall
time.  Same config and seed always produce byte-identical data files; only
the manifest's timestamp and timings vary.
"""
from __future__ import annotations

import csv
import datetime
import hashlib
import importlib.resources
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import comb, estimation, noise, protocols, pulses, raman
from .errors import ScenarioConfigError

SCHEMA_VERSION = 1

#: Marks a key that has no default and must be set in the config.
REQUIRED = "required"


class Key(NamedTuple):
    """One config key: its default, the rule its value must pass and what
    the rule asks for.

    ``default`` is `REQUIRED` for a key the config must set; the default of
    an entry key may be a function of the entry's index and the entry.
    ``entries`` is the key table of each entry of a list-of-mappings param.
    """

    default: object
    rule: Callable
    wanted: str
    entries: dict | None = None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_at_least(least: int):
    return lambda v: _is_int(v) and v >= least


def _is_real(v) -> bool:
    # finite; an int too large for a float is not
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_positive(v) -> bool:
    return _is_real(v) and v > 0


def _count(least: int, most: int | None = None):
    if most is None:
        return _int_at_least(least), f"an integer >= {least}"
    return (lambda v: _int_at_least(least)(v) and v <= most), f"an integer from {least} to {most}"


def _one_of(options):
    return lambda v: isinstance(v, str) and v in options, f"one of {', '.join(options)}"


def _list_of(rule, items: str):
    return lambda v: isinstance(v, list) and v != [] and all(map(rule, v)), f"a non-empty list of {items}"


_REAL = _is_real, "a finite number"
_POSITIVE = _is_positive, "a positive finite number"
_NON_NEGATIVE = (lambda v: _is_real(v) and v >= 0), "a non-negative finite number"
_MAPPINGS = (lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v)), "a list of mappings"
_PROTOCOL_KIND = _one_of(protocols.PROTOCOL_KINDS)
# a Raman laser at (1 - fraction) times the transition frequency: positive,
# and detuned from the excited state
_DETUNING = (lambda v: _is_real(v) and v != 0 and v < 1), "a nonzero finite number below 1"
#: Most seeds of one study or lock run.
_MAX_SEEDS = 100_000
#: Most shots of one record: counts stay exact in the float64 likelihoods.
_MAX_SHOTS = 2**53
#: Most laser carrier cycles of one Raman pulse.  `phase_map`'s cost grows
#: about linearly in them: the bundled 25-point map (98 cycles) takes 0.1 s
#: and one at 980 cycles 0.85 s on a 2-vCPU machine.
_MAX_RAMAN_CYCLES = 1000

#: Params of each scenario kind: each one's default and rule, and the key
#: table of each entry of a list param.  The runners read only these keys,
#: and a config may set no others.  A study row is a ddof = 1 spread over
#: its seeds, a lock run needs one lock and a record one shot, and a lock
#: takes the counts `RefineConfig` accepts.  Upper bounds on seeds, cycles,
#: cases, pairings and grid points bound the work of one run.
PARAMS = {
    "rwa_validity": {
        "cycles": Key(
            [5, 10, 20, 30, 60],
            *_list_of(lambda c: _is_positive(c) and c <= 1e4, "positive numbers up to 10000"),
        ),
        "theta": Key(np.pi / 4, *_NON_NEGATIVE),
        "envelope": Key("gaussian", *_one_of(pulses.ENVELOPE_KINDS)),
        "carrier_hz": Key(1.0, *_POSITIVE),
        "integration_tol": Key(1e-8, *_POSITIVE),
    },
    # n_max >= 4 leaves room for a train of at least two pulses
    "closed_forms": {
        "n_cases": Key(200, *_count(1, 100_000)),
        "n_max": Key(10_000, *_count(4, 1_000_000)),
    },
    "permutation_optimality": {
        "sizes": Key(
            [4, 6, 8, 10],
            *_list_of(lambda n: _int_at_least(2)(n) and n <= 20 and n % 2 == 0, "even integers from 2 to 20"),
        ),
        "trials": Key(5, *_count(1, 1000)),
    },
    "table1_scaling": {
        "scans": Key(
            [
                {"kind": "1B", "n_values": [100, 1000, 10000]},
                {"kind": "2B", "n_values": [10, 32, 100], "n_delay_values": [10, 32, 100]},
            ],
            *_MAPPINGS,
            entries={
                "kind": Key(REQUIRED, *_PROTOCOL_KIND),
                "n_values": Key(REQUIRED, *_list_of(_int_at_least(1), "integers >= 1")),
                "n_delay_values": Key(
                    lambda i, scan: [0] * len(scan["n_values"]), *_list_of(_int_at_least(0), "integers >= 0")
                ),
            },
        ),
        "m_shots": Key(10_000, *_count(1, _MAX_SHOTS)),
        "n_seeds": Key(500, *_count(2, _MAX_SEEDS)),
    },
    "crlb_saturation": {
        "points": Key(
            REQUIRED,
            *_MAPPINGS,
            entries={
                "kind": Key(REQUIRED, *_PROTOCOL_KIND),
                "n": Key(REQUIRED, *_count(1)),
                "dphi": Key(REQUIRED, *_REAL),
                "n_delay": Key(0, *_count(0)),
                "m_shots": Key(10_000, *_count(1, _MAX_SHOTS)),
                "theta": Key(np.pi / 2, *_REAL),
                "seed_offset": Key(lambda i, point: 1000 * i, *_count(0)),
            },
        ),
        "n_seeds": Key(500, *_count(2, _MAX_SEEDS)),
    },
    "resolution_extrapolation": {
        "reduced_points": Key(
            [[8, 4], [16, 8], [32, 16]],
            *_list_of(
                lambda pt: isinstance(pt, list) and len(pt) == 2 and all(map(_is_int, pt)),
                "[n, n_delay] pairs of integers",
            ),
        ),
        "m_shots": Key(2000, *_count(1, _MAX_SHOTS)),
        "n_seeds": Key(100, *_count(2, _MAX_SEEDS)),
        "extrapolations": Key(
            [{"rep_rate_hz": 1e8, "n": 500_000, "n_delay": 500_000}],
            *_MAPPINGS,
            entries={
                "rep_rate_hz": Key(REQUIRED, *_POSITIVE),
                "n": Key(REQUIRED, *_count(1)),
                "n_delay": Key(REQUIRED, *_count(0)),
            },
        ),
    },
    "raman_three_level": {
        "transition_hz": Key(100.0, *_POSITIVE),
        "rabi": Key(12.0, *_POSITIVE),
        "duration": Key(1.0, *_POSITIVE),
        "detuning_fraction_population": Key(0.2, *_DETUNING),
        "detuning_fraction_map": Key(0.02, *_DETUNING),
        "grid_points": Key(25, *_count(3, 200)),
    },
    "error_models": {"pair_gap_s": Key(1e-11, *_NON_NEGATIVE)},
    "refine_fiber": {
        "prior_scale": Key(1.0, *_POSITIVE),
        "m_shots": Key(5000, *_count(1, _MAX_SHOTS)),
        "growth": Key(4, *_count(2)),
        "max_stages": Key(6, *_count(1)),
        "n_seeds": Key(100, *_count(1, _MAX_SEEDS)),
    },
    "visibility_budget": {
        "lifetime_s": Key(8e-9, *_POSITIVE),
        "excited_window_s": Key(1e-10, *_POSITIVE),
        "epsilon": Key(0.1, lambda v: _is_real(v) and 0 < v < 1, "a number in (0, 1)"),
    },
}

#: Top-level keys of a config, in the same form.
_TOP_LEVEL = {
    "schema_version": Key(
        REQUIRED, lambda v: v == SCHEMA_VERSION and not isinstance(v, bool), f"{SCHEMA_VERSION}"
    ),
    "name": Key(REQUIRED, lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "kind": Key(REQUIRED, *_one_of(PARAMS)),
    "description": Key("", lambda v: isinstance(v, str), "a string"),
    "tags": Key(
        [], lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v), "a list of strings"
    ),
    "seed": Key(0, *_count(0)),
    "params": Key({}, lambda v: isinstance(v, dict), "a mapping"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    kind: str
    description: str = ""
    tags: tuple = ()
    seed: int = 0
    params: dict = field(default_factory=dict)
    source_text: str = ""


def _check_keys(where: str, mapping: dict, required, allowed) -> None:
    for problem, keys in (
        ("unknown", [k for k in mapping if k not in allowed]),
        ("missing", [k for k in required if k not in mapping]),
    ):
        if keys:
            raise ScenarioConfigError(f"{where}: {problem} keys {', '.join(sorted(map(str, keys)))}")


def _check_level(where: str, mapping: dict, table: dict) -> list:
    """Check one mapping against its key table; return the (where, entry,
    table) of each entry of its list-of-mappings keys."""
    _check_keys(where, mapping, [k for k, key in table.items() if key.default is REQUIRED], table)
    nested = []
    for name, key in table.items():
        if name in mapping:
            value = mapping[name]
            if not key.rule(value):
                raise ScenarioConfigError(f"{where}: {name} must be {key.wanted}, got {value!r}")
            if key.entries:
                nested += [(f"{name} entry {i}", entry, key.entries) for i, entry in enumerate(value)]
    return nested


def _validate(raw) -> None:
    """Raise `ScenarioConfigError`, naming the key, unless ``raw`` is a valid
    config: the top level (`_TOP_LEVEL`), the params of its kind and each
    entry of a list param (`PARAMS`) hold only the keys of their tables,
    every required one, and values that pass the keys' rules."""
    if not isinstance(raw, dict):
        raise ScenarioConfigError("scenario config must be a mapping")
    _check_level("top level", raw, _TOP_LEVEL)
    levels = [(f"params of kind {raw['kind']}", raw.get("params", {}), PARAMS[raw["kind"]])]
    for level in levels:
        levels += _check_level(*level)


def _filled(mapping: dict, table: dict, index: int = 0) -> dict:
    """``mapping`` with the default of each key it leaves out, the entries of
    its list-of-mappings keys filled too; ``index`` is the mapping's place in
    its list."""
    out = {}
    for name, key in table.items():
        if name in mapping:
            value = mapping[name]
        else:
            value = key.default(index, mapping) if callable(key.default) else key.default
        if key.entries:
            value = [_filled(entry, key.entries, i) for i, entry in enumerate(value)]
        out[name] = value
    return out


def load_scenario_config(path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioConfigError(f"{path}: not valid YAML: {e}") from e
    _validate(raw)
    top = _filled(raw, _TOP_LEVEL)
    return ScenarioConfig(
        name=top["name"],
        kind=top["kind"],
        description=top["description"],
        tags=tuple(top["tags"]),
        seed=top["seed"],
        params=_filled(top["params"], PARAMS[top["kind"]]),
        source_text=text,
    )


def _bundle_dir():
    return importlib.resources.files("combphase") / "scenarios"


def list_scenarios(tag: str | None = None) -> list[dict]:
    """Bundled scenarios: name, kind, description and tags, sorted by name."""
    entries = sorted(_bundle_dir().iterdir(), key=lambda e: e.name)
    cfgs = [load_scenario_config(e) for e in entries if e.name.endswith(".yaml")]
    return [
        {"name": c.name, "kind": c.kind, "description": c.description, "tags": list(c.tags)}
        for c in cfgs
        if tag is None or tag in c.tags
    ]


def find_scenario(name_or_path) -> Path:
    """Resolve a bundled scenario name or an explicit config path."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    candidate = _bundle_dir() / f"{name_or_path}.yaml"
    if candidate.is_file():
        return Path(str(candidate))
    raise ScenarioConfigError(f"no scenario named or at {name_or_path!r}")


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).parent,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _write_rows(path: Path, header, rows, fmt: str) -> Path:
    """Serialize rows deterministically; floats via repr for exact round-trip.

    Like `_write_json`, it creates the output directory, so a run that
    fails before its first file leaves none behind.
    """
    def enc(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else x

    if fmt == "json":
        payload = [dict(zip(header, [enc(x) for x in r])) for r in rows]
        return _write_json(path.with_suffix(".json"), payload)
    path = path.with_suffix(".csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow([enc(x) for x in r])
    return path


def _write_json(path: Path, obj) -> Path:
    """Write one JSON document with two-space indent and a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


# --- runners ---------------------------------------------------------------


def _run_rwa_validity(cfg, out, fmt):
    p = cfg.params
    w = 2.0 * np.pi * p["carrier_hz"]
    rows = []
    for c in p["cycles"]:
        spec = pulses.PulseSpec(p["envelope"], p["theta"], c / p["carrier_hz"], w, w, 0.3)
        u = pulses.integrate_pulse(spec, tol=p["integration_tol"])
        rwa = pulses.rwa_unitary(spec)
        rows.append((c, pulses.unitary_fidelity(u, rwa), pulses._matrix_infidelity(u.matrix, rwa.matrix)))
    path = _write_rows(out / "rwa_validity", ["cycles", "fidelity", "infidelity"], rows, fmt)
    return [path], {"monotone": bool(np.all(np.diff([r[1] for r in rows]) > 0))}


def _run_closed_forms(cfg, out, fmt):
    """Closed forms of random 1B, 2B and phase_ref trains against the train
    unitary of the outcome model (`RamseyOutcomeModel.train_unitary`)."""
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst = 0.0
    for case in range(p["n_cases"]):
        kind = ["1B", "2B", "phase_ref"][case % 3]
        n = 2 * int(rng.integers(1, p["n_max"] // 2))
        nd = int(rng.integers(1, 64)) if kind == "2B" else 0
        dphi = float(rng.uniform(-0.5, 0.5))
        train = comb.PulseTrain(
            times=np.arange(n) * 1e-8,
            phases=np.arange(1, n + 1) * dphi,  # pulses m = 1..N, as in the outcome model
            thetas=np.full(n, np.pi / 2),
        )
        if kind == "2B":
            u = protocols.closed_form_2b(dphi, n, nd).matrix
        elif kind == "phase_ref":
            u = protocols.phase_reference_sequence(train).matrix
        else:
            u = protocols.closed_form_1b(train.phases).matrix
        spec = protocols.ProtocolSpec(kind, n, nd, 0.0, np.pi / 2)
        v = protocols.ramsey_model(spec).train_unitary(dphi)
        err = 1.0 - pulses.matrix_fidelity(u, v)
        worst = max(worst, err)
        rows.append((case, kind, n, nd, dphi, err))
    path = _write_rows(
        out / "closed_forms",
        ["case", "kind", "n", "n_delay", "dphi", "fidelity_error"],
        rows, fmt,
    )
    return [path], {"worst_fidelity_error": worst}


def _run_permutation(cfg, out, fmt):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for n in p["sizes"]:
        for trial in range(p["trials"]):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
            brute = protocols.brute_force_permutation_phase(phases)
            analytic, _ = protocols.optimal_permutation_phase(phases)
            rows.append((n, trial, brute, analytic, abs(brute - analytic)))
    path = _write_rows(
        out / "permutation_optimality",
        ["n", "trial", "brute_force", "analytic", "abs_difference"],
        rows, fmt,
    )
    return [path], {"max_difference": max(r[4] for r in rows)}


def _checked_specs(entries, what: str, make) -> list:
    """``make(entry)`` for every entry before any fit; a `ValueError` becomes a
    `ScenarioConfigError` that names the entry."""
    specs = []
    for i, entry in enumerate(entries):
        try:
            specs.append(make(entry))
        except ValueError as e:
            raise ScenarioConfigError(f"{what} entry {i}: {e}") from e
    return specs


def _scan_specs(scan) -> list:
    """The `ProtocolSpec` of each point of one ``scans`` entry, checked."""
    n_values, n_delays = scan["n_values"], scan["n_delay_values"]
    if len(n_delays) != len(n_values):
        raise ValueError("n_delay_values must match n_values in length")
    specs = [protocols.ProtocolSpec(scan["kind"], n, nd) for n, nd in zip(n_values, n_delays)]
    if len({spec.enhancement for spec in specs}) < 3:
        raise ValueError("a scaling scan needs at least three distinct chi for its slope error")
    return specs


def _run_table1_scaling(cfg, out, fmt):
    """sigma(dphi) over seeds at each point of each scan, and the log-log
    slope of sigma against chi = `ProtocolSpec.enhancement`.

    The true dphi at each point is 0.2 / chi, so every point sits at the same
    spot on its fringe.  Every scan is checked before the first fit.
    """
    p = cfg.params
    m_shots = p["m_shots"]
    scans = _checked_specs(p["scans"], "scans", _scan_specs)
    kinds = [specs[0].kind for specs in scans]
    if len(set(kinds)) < len(kinds):
        raise ScenarioConfigError(f"one scan per kind, since the kind names its files: {kinds}")
    artifacts = []
    slopes = {}
    studies = []
    for specs in scans:
        kind = specs[0].kind
        rows = []
        for i, spec in enumerate(specs):
            start = cfg.seed + 1000 * i
            ests, variance, diagnostics = estimation.estimator_study(
                spec, 0.2 / spec.enhancement, m_shots, range(start, start + p["n_seeds"])
            )
            studies.append(diagnostics)
            sigma = float(np.std(ests, ddof=1))
            crlb_sigma = float(np.sqrt(variance))
            rows.append((spec.n_pulses, spec.n_delay, m_shots, sigma, crlb_sigma, sigma / crlb_sigma))
        chi = np.array([spec.enhancement for spec in specs])
        coef, cov = np.polyfit(np.log(chi), np.log([r[3] for r in rows]), 1, cov=True)
        base = out / f"scaling_{kind}"
        path = _write_rows(base, ["N", "N_d", "M", "sigma_dphi", "crlb", "ratio"], rows, fmt)
        sidecar = _write_json(
            base.with_suffix(".slope.json"),
            {"kind": kind, "slope": float(coef[0]), "slope_stderr": float(np.sqrt(cov[0, 0]))},
        )
        artifacts += [path, sidecar]
        slopes[kind] = float(coef[0])
    return artifacts, {"slopes": slopes}, _summed(studies)


def _point_spec(pt):
    """The `ProtocolSpec` of one ``points`` entry."""
    return protocols.ProtocolSpec(pt["kind"], pt["n"], pt["n_delay"], 0.0, pt["theta"])


def _run_crlb_saturation(cfg, out, fmt):
    """Estimator variance against the CRLB at each point, all checked first."""
    p = cfg.params
    n_seeds = p["n_seeds"]
    specs = _checked_specs(p["points"], "points", _point_spec)
    rows = []
    studies = []
    for pt, spec in zip(p["points"], specs):
        dphi = pt["dphi"]
        m_shots = pt["m_shots"]
        base_seed = cfg.seed + pt["seed_offset"]
        ests, bound, diagnostics = estimation.estimator_study(
            spec, dphi, m_shots, range(base_seed, base_seed + n_seeds)
        )
        studies.append(diagnostics)
        var = float(np.var(ests, ddof=1))
        rows.append((spec.kind, spec.n_pulses, spec.n_delay, dphi, m_shots, var, bound, var / bound))
    path = _write_rows(
        out / "crlb_saturation",
        ["kind", "n", "n_delay", "dphi", "m_shots", "variance", "crlb", "ratio"],
        rows, fmt,
    )
    return [path], {"ratios": [r[7] for r in rows]}, _summed(studies)


def _reduced_spec(point):
    n, nd = point
    return protocols.ProtocolSpec("2B", n, nd)


def _extrapolated_row(case):
    """The ``resolution`` row of one ``extrapolations`` entry: its offset resolution [Hz]."""
    res = estimation.offset_resolution(case["rep_rate_hz"], case["n"], case["n_delay"])
    return ("extrapolated", case["n"], case["n_delay"], res, 0.0)


def _run_resolution(cfg, out, fmt):
    """Offset-frequency resolution: verified scaling at desk scale, then
    arithmetic extrapolation to configurations far beyond simulation.
    Every reduced point is checked before the first fit."""
    p = cfg.params
    rows = []
    # reduced-scale consistency: sigma * chi * sqrt(M) should be flat
    consts = []
    studies = []
    m_shots = p["m_shots"]
    specs = _checked_specs(p["reduced_points"], "reduced_points", _reduced_spec)
    for idx, spec in enumerate(specs):
        chi = spec.enhancement
        start = cfg.seed + 10_000 * idx
        ests, _, diagnostics = estimation.estimator_study(
            spec, 0.2 / chi, m_shots, range(start, start + p["n_seeds"])
        )
        studies.append(diagnostics)
        sigma = float(np.std(ests, ddof=1))
        consts.append(sigma * chi * np.sqrt(m_shots))
        rows.append(("simulated", spec.n_pulses, spec.n_delay, sigma, sigma * chi * np.sqrt(m_shots)))
    rows += [_extrapolated_row(case) for case in p["extrapolations"]]
    path = _write_rows(
        out / "resolution",
        ["row_kind", "n", "n_delay", "value", "scaled_constant"],
        rows, fmt,
    )
    spread = float(np.ptp(consts) / np.mean(consts))
    return [path], {"scaling_constant_spread": spread}, _summed(studies)


def _raman_spec(p, delta_key):
    """The `LambdaSpec` of the pulse detuned by ``p[delta_key]``, checked
    before any propagation: a valid spec of at most `_MAX_RAMAN_CYCLES`
    carrier cycles."""
    omega_at = 2.0 * np.pi * p["transition_hz"]
    try:
        spec = raman.LambdaSpec(
            rabi=p["rabi"],
            duration=p["duration"],
            laser_freq=omega_at * (1.0 - p[delta_key]),
            excited_energy=omega_at,
        )
    except ValueError as e:
        raise ScenarioConfigError(f"params of kind raman_three_level: {delta_key}: {e}") from e
    if not spec.carrier_cycles <= _MAX_RAMAN_CYCLES:
        raise ScenarioConfigError(
            f"params of kind raman_three_level: duration * transition_hz * (1 - {delta_key}) is "
            f"{spec.carrier_cycles!r} carrier cycles, more than {_MAX_RAMAN_CYCLES}"
        )
    return spec


def _run_raman(cfg, out, fmt):
    p = cfg.params
    population = _raman_spec(p, "detuning_fraction_population")
    mapped = _raman_spec(p, "detuning_fraction_map")
    # Raman regime: strongly detuned pulse must leave the excited state empty.
    _, pop_c = raman.integrate_lambda(population)
    # Phase fidelity: weakly detuned pulse maps the leg phase almost one-to-one.
    grid = np.linspace(0.0, 2.0 * np.pi, p["grid_points"])
    pm = raman.phase_map(mapped, grid)
    path = _write_rows(
        out / "raman_phase_map",
        ["phi_l", "phi_s", "dphi_s_dphi_l"],
        zip(pm.phi_l, pm.phi_s, pm.dphi_s),
        fmt,
    )
    summary = {
        "excited_population": pop_c,
        "max_curve_deviation": pm.max_curve_deviation,
        "max_identity_deviation": pm.max_identity_deviation,
        "monotone": pm.monotone,
    }
    spath = _write_json(out / "raman_summary.json", summary)
    return [path, spath], summary


def _run_error_models(cfg, out, fmt):
    p = cfg.params
    gap = p["pair_gap_s"]
    deph = noise.ac_stark_preset()
    therm = noise.be_doppler_preset()
    therm_co = noise.be_doppler_preset(copropagating=True)
    rows = [
        ("dephasing_phase_error_rad", noise.expected_dephasing_error(deph, gap)),
        ("doppler_velocity_m_per_s", noise.doppler_velocity(therm)),
        ("doppler_phase_error_rad", noise.doppler_phase_error(therm, gap)),
        ("doppler_copropagating_rad", noise.doppler_phase_error(therm_co, gap)),
        ("spin_echo_constant_field_rad", noise.spin_echo_residual([1.0] * 6, [gap] * 6)),
    ]
    path = _write_rows(out / "error_models", ["quantity", "value"], rows, fmt)
    return [path], dict(rows)


def _run_refine(cfg, out, fmt):
    p = cfg.params
    c = comb.fiber_comb_preset()
    # 200 kHz-class offset as the prior bound; prior_scale < 1 models an
    # operator underestimating the offset, which must abort with a wrap error
    prior = abs(c.phase_step) * p["prior_scale"]
    config = estimation.RefineConfig(
        m_shots=p["m_shots"],
        growth=p["growth"],
        max_stages=p["max_stages"],
        prior_bound=prior,
        seed=cfg.seed,
    )

    true_bound = abs(c.phase_step)
    # one model per train length for all locks of this run: without the
    # oracle the locks share their N schedule, so each fringe grid is built once
    models = {}

    def one(seed):
        rng = np.random.default_rng(seed)
        true = float(rng.uniform(-true_bound, true_bound))
        tr = estimation.iterative_refine(true, replace(config, seed=seed * 13 + cfg.seed), models)
        return true, tr

    results = [one(s) for s in range(cfg.seed, cfg.seed + p["n_seeds"])]
    rows = []
    for seed_i, (true, tr) in enumerate(results):
        last = tr.stages[-1]
        rows.append(
            (seed_i, true, len(tr.stages), last.n, last.residual, tr.final_crlb_sigma,
             abs(last.residual) / tr.final_crlb_sigma, int(tr.locked))
        )
    path = _write_rows(
        out / "refine_fiber",
        ["seed", "true_dphi", "stages", "final_n", "residual", "final_crlb_sigma",
         "residual_over_crlb", "locked"],
        rows, fmt,
    )
    trace_rows = [
        (s.n, s.dphi_hat, s.residual, s.crlb_sigma) for s in results[0][1].stages
    ]
    tpath = _write_rows(
        out / "refine_trace_seed0",
        ["n", "dphi_hat", "residual", "crlb_sigma"],
        trace_rows, fmt,
    )
    traces = [tr for _, tr in results]
    backoffs = sum(tr.backoffs for tr in traces)
    diagnostics = {
        "fits": sum(len(tr.stages) for tr in traces) + backoffs,
        "distinct_records": estimation.distinct_fits(models.values()),
        "nonconverged": sum(tr.nonconverged for tr in traces),
        # a fit pinned to the window edge backs off, or raises if it is the second
        "pinned": backoffs,
        "backoffs": backoffs,
        "score_evaluations": sum(tr.score_evaluations for tr in traces),
    }
    return [path, tpath], {
        "all_locked": bool(all(r[7] for r in rows)),
        "worst_residual_ratio": max(r[6] for r in rows),
        "backoffs": backoffs,
    }, diagnostics


def _summed(studies: list[dict]) -> dict:
    """The diagnostics of several `estimator_study` calls, added key by key."""
    return {key: sum(d[key] for d in studies) for key in studies[0]}


def _run_visibility(cfg, out, fmt):
    p = cfg.params
    try:
        budget = raman.visibility_budget(
            gamma=1.0 / p["lifetime_s"],
            t_e=p["excited_window_s"],
            epsilon=p["epsilon"],
        )
    except ValueError as e:
        raise ScenarioConfigError(f"params of kind visibility_budget: {e}") from e
    path = _write_rows(out / "visibility_budget", ["quantity", "value"],
                       [("pulse_budget", float(budget))], fmt)
    return [path], {"pulse_budget": budget}


_RUNNERS = {
    "rwa_validity": _run_rwa_validity,
    "closed_forms": _run_closed_forms,
    "permutation_optimality": _run_permutation,
    "table1_scaling": _run_table1_scaling,
    "crlb_saturation": _run_crlb_saturation,
    "resolution_extrapolation": _run_resolution,
    "raman_three_level": _run_raman,
    "error_models": _run_error_models,
    "refine_fiber": _run_refine,
    "visibility_budget": _run_visibility,
}


def run_scenario(
    name_or_path,
    out_dir,
    seed: int | None = None,
    fmt: str = "csv",
) -> dict:
    """Run one scenario; returns {'artifacts': [...], 'summary': {...}}.

    Writes ``manifest.json`` beside the artifacts, with the runner's wall
    time under ``timings`` and, for the runners that fit, the estimator's
    counts under ``diagnostics``.  Deterministic data files for a fixed
    config + seed.
    """
    if fmt not in ("csv", "json"):
        raise ScenarioConfigError(f"unsupported output format {fmt!r}")
    if seed is not None and int(seed) < 0:
        raise ScenarioConfigError(f"seed must be a non-negative integer, got {seed}")
    cfg = load_scenario_config(find_scenario(name_or_path))
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    out = Path(out_dir)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    # a runner that fits returns its diagnostics third
    artifacts, summary, *diagnostics = _RUNNERS[cfg.kind](cfg, out, fmt)
    run_s = time.perf_counter() - t0
    from . import __version__

    manifest = {
        "scenario": cfg.name,
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "git_rev": _git_rev(),
        "started_at": started,
        "config_sha256": hashlib.sha256(cfg.source_text.encode()).hexdigest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        # wall times live here only: data files must stay byte-identical
        "timings": {"run_s": run_s},
    }
    if diagnostics:
        manifest["diagnostics"] = diagnostics[0]
    mpath = _write_json(out / "manifest.json", manifest)
    return {
        "artifacts": [str(a) for a in artifacts] + [str(mpath)],
        "summary": _jsonable(summary),
    }


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x
