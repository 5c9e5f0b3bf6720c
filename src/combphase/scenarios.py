"""Reproducible batch experiments driven by versioned YAML configs.

Every bundled scenario exercises one slice of the library end-to-end and
writes deterministic artifacts (CSV or JSON) plus a manifest recording the
config hash, seed, package and git versions, a timestamp and the run's wall
time.  Same config and seed always produce byte-identical data files; only
the manifest's timestamp and timings vary.

`load_scenario_config` alone loads a config and decides whether it is
valid, in one pass: `_checked` checks each mapping against its key table
(`PARAMS`) and fills the defaults, and the kind's builder (`_BUILDERS`)
makes the runner's inputs (`ScenarioConfig.inputs`), applying the rules
across keys; any fault is a `ScenarioConfigError`.  Each runner
``_run_<kind>(cfg)`` computes without writing and returns a `Run`;
`run_scenario` writes its files and the manifest through `_write_files`, so
a run that raises leaves no file and no directory.
"""
from __future__ import annotations

import csv
import datetime
import functools
import importlib.resources
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import comb, estimation, noise, protocols, pulses, raman
from .errors import ScenarioConfigError

SCHEMA_VERSION = 1

#: Marks a key that has no default and must be set in the config.
REQUIRED = "required"


class Key(NamedTuple):
    """One config key: its default, the rule its value must pass and what
    the rule asks for.

    ``default`` is `REQUIRED` for a key the config must set; the default of
    an entry key may be a function of the entry.
    ``entries`` is the key table of each entry of a list-of-mappings param.
    """

    default: object
    rule: Callable
    wanted: str
    entries: dict | None = None


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
# a list of points, scans or extrapolations: a run needs at least one
_NON_EMPTY_MAPPINGS = _list_of(lambda e: isinstance(e, dict), "mappings")
_PROTOCOL_KIND = _one_of(protocols.PROTOCOL_KINDS)
# a Raman laser at (1 - fraction) times the transition frequency: positive,
# and detuned from the excited state
_DETUNING = (lambda v: _is_real(v) and v != 0 and v < 1), "a nonzero finite number below 1"
#: Most seeds of one study or lock run.
_MAX_SEEDS = 100_000
#: Most shots of one record: counts stay exact in the float64 likelihoods.
_MAX_SHOTS = 2**53
#: Most laser carrier cycles of one Raman pulse.  `phase_map`'s cost grows
#: about linearly in them, and a long pulse may take one more step doubling:
#: on a 2-vCPU machine the bundled 25-point map (98 cycles, 785 and 1570
#: steps) takes 0.06 s, and one at 980 cycles (7841 to 31364 steps) 1.3-1.4 s.
_MAX_RAMAN_CYCLES = 1000

#: Params of each scenario kind: each one's default and rule, and the key
#: table of each entry of a list param.  The runners read only these keys,
#: and a config may set no others.  A `crlb_saturation` row is a ddof = 1
#: spread over its seeds, a lock run needs one lock and a record one shot,
#: and a lock takes the counts `RefineConfig` accepts.  Upper bounds on
#: seeds, cycles, cases, pairings and grid points bound the work of one run.
PARAMS = {
    "rwa_validity": {
        "cycles": Key(
            [5, 10, 20, 30, 60],
            *_list_of(lambda c: _is_positive(c) and c <= 1e4, "positive numbers up to 10000"),
        ),
        "theta": Key(np.pi / 4, *_NON_NEGATIVE),
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
            *_NON_EMPTY_MAPPINGS,
            entries={
                "kind": Key(REQUIRED, *_PROTOCOL_KIND),
                "n_values": Key(REQUIRED, *_list_of(_int_at_least(1), "integers >= 1")),
                "n_delay_values": Key(
                    lambda scan: [0] * len(scan["n_values"]), *_list_of(_int_at_least(0), "integers >= 0")
                ),
            },
        ),
        "m_shots": Key(10_000, *_count(1, _MAX_SHOTS)),
    },
    "crlb_saturation": {
        "points": Key(
            REQUIRED,
            *_NON_EMPTY_MAPPINGS,
            entries={
                "kind": Key(REQUIRED, *_PROTOCOL_KIND),
                "n": Key(REQUIRED, *_count(1)),
                "dphi": Key(REQUIRED, *_REAL),
                "n_delay": Key(0, *_count(0)),
                "m_shots": Key(10_000, *_count(1, _MAX_SHOTS)),
                "theta": Key(np.pi / 2, *_REAL),
            },
        ),
        "n_seeds": Key(500, *_count(2, _MAX_SEEDS)),
    },
    "resolution_extrapolation": {
        "extrapolations": Key(
            [{"rep_rate_hz": 1e8, "n": 500_000, "n_delay": 500_000}],
            *_NON_EMPTY_MAPPINGS,
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
    # what the kind's builder made of the params, or None; it follows from
    # the params, so it takes no part in comparison
    inputs: object = field(default=None, repr=False, compare=False)


def _checked(where: str, mapping: dict, table: dict) -> dict:
    """``mapping`` checked against its key table and filled with the default
    of each key it leaves out, the entries of its list-of-mappings keys
    checked and filled too.

    Raises `ScenarioConfigError`, naming ``where`` and the key, for a key not
    in ``table``, a missing required key or a value that breaks its rule.
    """
    for problem, keys in (
        ("unknown", [k for k in mapping if k not in table]),
        ("missing", [k for k, key in table.items() if key.default is REQUIRED and k not in mapping]),
    ):
        if keys:
            raise ScenarioConfigError(f"{where}: {problem} keys {', '.join(sorted(map(str, keys)))}")
    out = {}
    for name, key in table.items():
        if name in mapping:
            value = mapping[name]
            if not key.rule(value):
                raise ScenarioConfigError(f"{where}: {name} must be {key.wanted}, got {value!r}")
        else:
            value = key.default(mapping) if callable(key.default) else key.default
        if key.entries:
            value = [_checked(f"{name} entry {i}", entry, key.entries) for i, entry in enumerate(value)]
        out[name] = value
    return out


def load_scenario_config(path) -> ScenarioConfig:
    """The config at ``path``, checked and filled with every default, with
    the inputs its kind's builder (`_BUILDERS`) makes of its params as
    ``inputs`` (`None` for a kind without one).  Any fault of the config
    raises `ScenarioConfigError` here."""
    import yaml  # here, not at module level: `import combphase` needs no parser

    try:
        text = Path(path).read_text()
        # libyaml's parser where pyyaml was built with it (7x faster on the
        # benchmark's sweep config); both build the same safe-loader documents
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (UnicodeDecodeError, yaml.YAMLError) as e:
        raise ScenarioConfigError(f"{path}: not valid YAML: {e}") from e
    if not isinstance(raw, dict):
        raise ScenarioConfigError("scenario config must be a mapping")
    top = _checked("top level", raw, _TOP_LEVEL)
    kind = top["kind"]
    params = _checked(f"params of kind {kind}", top["params"], PARAMS[kind])
    try:
        inputs = _BUILDERS[kind](params) if kind in _BUILDERS else None
    except ValueError as e:
        raise ScenarioConfigError(f"params of kind {kind}: {e}") from e
    return ScenarioConfig(
        name=top["name"], kind=kind, description=top["description"], tags=tuple(top["tags"]),
        seed=top["seed"], params=params, source_text=text, inputs=inputs,
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


@functools.cache
def _git_rev() -> str:
    """The source revision; the imported source does not change within a
    process, so ``git`` runs once."""
    import subprocess

    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).parent,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


class Table(NamedTuple):
    """A tabular data file: its column names and its rows."""

    header: list
    rows: list


class Run(NamedTuple):
    """What a runner returns.

    ``files`` maps each data file's stem, in writing order, to its content:
    a `Table` (``.csv``, or ``.json`` with format json) or a JSON document
    (``.json`` in either format).  ``diagnostics`` are the estimator's
    counts of a runner that fits, and ``timings`` the wall times of a
    runner's own stages.
    """

    files: dict
    summary: dict
    diagnostics: dict | None = None
    timings: dict = {}


def _write_files(out: Path, files: dict, fmt: str) -> list[Path]:
    """Write each of ``files`` (stem to content, as in `Run`) into ``out``,
    creating it, and return the paths.  Floats in a table are written via
    repr for an exact round-trip; a JSON document has two-space indent and
    a final newline."""
    def enc(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else x

    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, content in files.items():
        if isinstance(content, Table) and fmt == "csv":
            path = out / f"{stem}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(content.header)
                w.writerows([enc(x) for x in r] for r in content.rows)
        else:
            if isinstance(content, Table):
                content = [dict(zip(content.header, map(enc, r))) for r in content.rows]
            path = out / f"{stem}.json"
            path.write_text(json.dumps(content, indent=2) + "\n")
        paths.append(path)
    return paths


# --- runners ---------------------------------------------------------------


def _run_rwa_validity(cfg):
    """Each pulse, `PulseSpec`'s truncated gaussian of area theta, at a 1 Hz
    carrier: its duration (cycles / carrier) and its drive both scale with
    the carrier, so the output depends on the cycle count alone.  Each is
    propagated to `integrate_pulse`'s fixed bound."""
    p = cfg.params
    w = 2.0 * np.pi
    rows = []
    for c in p["cycles"]:
        spec = pulses.PulseSpec(p["theta"], float(c), w, w, 0.3)
        u = pulses.integrate_pulse(spec)
        rwa = pulses.rwa_unitary(spec)
        rows.append((c, pulses.unitary_fidelity(u, rwa), pulses.matrix_infidelity(u.matrix, rwa.matrix)))
    return Run(
        {"rwa_validity": Table(["cycles", "fidelity", "infidelity"], rows)},
        {"monotone": bool(np.all(np.diff([r[1] for r in rows]) > 0))},
    )


def _run_closed_forms(cfg):
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
        err = pulses.matrix_infidelity(u, v)
        worst = max(worst, err)
        rows.append((case, kind, n, nd, dphi, err))
    table = Table(["case", "kind", "n", "n_delay", "dphi", "fidelity_error"], rows)
    return Run({"closed_forms": table}, {"worst_fidelity_error": worst})


def _run_permutation(cfg):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for n in p["sizes"]:
        for trial in range(p["trials"]):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
            brute = protocols.brute_force_permutation_phase(phases)
            analytic, _ = protocols.optimal_permutation_phase(phases)
            rows.append((n, trial, brute, analytic, abs(brute - analytic)))
    table = Table(["n", "trial", "brute_force", "analytic", "abs_difference"], rows)
    return Run({"permutation_optimality": table}, {"max_difference": max(r[4] for r in rows)})


def _entry_specs(p, key: str, make) -> list:
    """``make(entry)`` of each entry of ``p[key]``; a `ValueError` names the entry."""
    specs = []
    for i, entry in enumerate(p[key]):
        try:
            specs.append(make(entry))
        except ValueError as e:
            raise ValueError(f"{key} entry {i}: {e}") from e
    return specs


def _scan_specs(scan) -> list:
    """The `ProtocolSpec` of each point of one ``scans`` entry, checked."""
    n_values, n_delays = scan["n_values"], scan["n_delay_values"]
    if len(n_delays) != len(n_values):
        raise ValueError("n_delay_values must match n_values in length")
    specs = [protocols.ProtocolSpec(scan["kind"], n, nd) for n, nd in zip(n_values, n_delays)]
    if len(set(n_values)) < 3 or len({spec.enhancement for spec in specs}) < 3:
        raise ValueError("a scaling scan needs at least three distinct N and three distinct chi")
    return specs


def _scans(p) -> list:
    """The specs of each of ``p["scans"]``, at most one scan per kind."""
    scans = _entry_specs(p, "scans", _scan_specs)
    kinds = [specs[0].kind for specs in scans]
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"one scan per kind, since the kind names its files: {kinds}")
    return scans


def _crlb_point(spec, m_shots: int) -> tuple[float, float]:
    """The Cramer-Rao bound sigma = 1 / sqrt(I) on one experiment's estimate
    of dphi, from the model's Fisher information I at chi dphi = 0.2 with
    ``m_shots`` per arm, and its scaled constant sigma chi sqrt(M).

    The reference phase is pi/2, the one every study takes: at the pulse
    area theta = pi/2 of every scan point the information does not depend
    on it.  Every point sits at the same spot on its fringe, where the
    constant is 1/2 for every kind, since chi is the phase rate there.
    """
    chi = spec.enhancement
    model = protocols.ramsey_model(replace(spec, reference_phase=np.pi / 2))
    sigma = float(1.0 / np.sqrt(estimation.fisher_matrix(model, 0.2 / chi, m_shots)))
    return sigma, sigma * chi * float(np.sqrt(m_shots))


def _run_table1_scaling(cfg):
    """The Cramer-Rao bound on sigma(dphi) at each point of each scan
    (`_crlb_point`), and the log-log slope of that bound against N."""
    m_shots = cfg.params["m_shots"]
    files, slopes = {}, {}
    for specs in cfg.inputs:
        kind = specs[0].kind
        rows = [
            (spec.n_pulses, spec.n_delay, m_shots, spec.enhancement, *_crlb_point(spec, m_shots))
            for spec in specs
        ]
        slope = float(np.polyfit(np.log([r[0] for r in rows]), np.log([r[4] for r in rows]), 1)[0])
        files[f"scaling_{kind}"] = Table(["N", "N_d", "M", "chi", "crlb", "scaled_constant"], rows)
        files[f"scaling_{kind}.slope"] = {"kind": kind, "slope": slope}
        slopes[kind] = slope
    return Run(files, {"slopes": slopes})


def _point_spec(pt):
    """The `ProtocolSpec` of one ``points`` entry, whose truth must lie inside
    the fit window, |chi dphi| < pi / 4: beyond it the fits find its mirror
    pi / (2 chi) - dphi or stop at the window edge."""
    spec = protocols.ProtocolSpec(pt["kind"], pt["n"], pt["n_delay"], 0.0, pt["theta"])
    window = estimation.window_half_width(spec.enhancement)
    if abs(pt["dphi"]) >= window:
        raise ValueError(f"dphi {pt['dphi']!r} lies beyond the fit window +-pi / (4 chi) = +-{window:.6g}")
    return spec


def _run_crlb_saturation(cfg):
    """Estimator variance against the CRLB at each point: one
    `estimation.estimator_study` per point j, of the ``n_seeds`` seeds from
    seed + j n_seeds on.  The diagnostics are the studies' summed."""
    p = cfg.params
    rows, studies = [], []
    for j, (pt, spec) in enumerate(zip(p["points"], cfg.inputs)):
        start = cfg.seed + j * p["n_seeds"]
        ests, bound, diagnostics = estimation.estimator_study(
            spec, pt["dphi"], pt["m_shots"], range(start, start + p["n_seeds"])
        )
        var = float(np.var(ests, ddof=1))
        rows.append(
            (spec.kind, spec.n_pulses, spec.n_delay, pt["dphi"], pt["m_shots"], var, bound, var / bound)
        )
        studies.append(diagnostics)
    table = Table(["kind", "n", "n_delay", "dphi", "m_shots", "variance", "crlb", "ratio"], rows)
    diagnostics = {key: sum(study[key] for study in studies) for key in studies[0]}
    return Run({"crlb_saturation": table}, {"ratios": [r[7] for r in rows]}, diagnostics)


def _run_resolution(cfg):
    """Offset-frequency resolution f_rep / (N N_d) of each extrapolation, by
    arithmetic (`estimation.offset_resolution`).  The 1 / (N N_d) law it
    extrapolates is the Cramer-Rao bound's, which `table1_scaling` scans."""
    rows = [
        (case["rep_rate_hz"], case["n"], case["n_delay"],
         estimation.offset_resolution(case["rep_rate_hz"], case["n"], case["n_delay"]))
        for case in cfg.params["extrapolations"]
    ]
    table = Table(["rep_rate_hz", "n", "n_delay", "resolution_hz"], rows)
    return Run({"resolution": table}, {"resolution_hz": [r[3] for r in rows]})


def _raman_spec(p, delta_key):
    """The `LambdaSpec` of the pulse detuned by ``p[delta_key]``: a valid
    spec of at most `_MAX_RAMAN_CYCLES` carrier cycles."""
    omega_at = 2.0 * np.pi * p["transition_hz"]
    try:
        spec = raman.LambdaSpec(
            rabi=p["rabi"],
            duration=p["duration"],
            laser_freq=omega_at * (1.0 - p[delta_key]),
            excited_energy=omega_at,
        )
    except ValueError as e:
        raise ValueError(f"{delta_key}: {e}") from e
    if not spec.carrier_cycles <= _MAX_RAMAN_CYCLES:
        raise ValueError(
            f"duration * transition_hz * (1 - {delta_key}) is "
            f"{spec.carrier_cycles!r} carrier cycles, more than {_MAX_RAMAN_CYCLES}"
        )
    return spec


def _run_raman(cfg):
    p = cfg.params
    population, mapped = cfg.inputs
    # Raman regime: strongly detuned pulse must leave the excited state empty.
    t0 = time.perf_counter()
    _, pop_c = raman.integrate_lambda(population)
    t1 = time.perf_counter()
    # Phase fidelity: weakly detuned pulse maps the leg phase almost one-to-one.
    grid = np.linspace(0.0, 2.0 * np.pi, p["grid_points"])
    pm = raman.phase_map(mapped, grid)
    timings = {"integrate_lambda_s": t1 - t0, "phase_map_s": time.perf_counter() - t1}
    table = Table(["phi_l", "phi_s", "dphi_s_dphi_l"], list(zip(pm.phi_l, pm.phi_s, pm.dphi_s)))
    summary = {
        "excited_population": pop_c,
        "max_curve_deviation": pm.max_curve_deviation,
        "max_identity_deviation": pm.max_identity_deviation,
        "monotone": pm.monotone,
    }
    return Run({"raman_phase_map": table, "raman_summary": summary}, summary, timings=timings)


def _run_error_models(cfg):
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
    return Run({"error_models": Table(["quantity", "value"], rows)}, dict(rows))


def _refine_config(p):
    """The `RefineConfig` of every lock but its seed; a prior_scale so small
    that the bound rounds to 0 raises `ValueError`."""
    # 200 kHz-class offset as the prior bound; prior_scale < 1 models an
    # operator underestimating the offset, which must abort with a wrap error
    return estimation.RefineConfig(
        m_shots=p["m_shots"], max_stages=p["max_stages"],
        prior_bound=abs(comb.fiber_comb_preset().phase_step) * p["prior_scale"],
    )


def _run_refine(cfg):
    """One `estimation.refine_study` of ``n_seeds`` locks from the config's
    seed, each truth within the fiber comb's phase step."""
    truths, traces, diagnostics, timings = estimation.refine_study(
        cfg.inputs, abs(comb.fiber_comb_preset().phase_step), cfg.seed, cfg.params["n_seeds"]
    )
    rows = [
        (seed_i, true, len(tr.stages), tr.stages[-1].n, tr.final_residual, tr.final_crlb_sigma,
         abs(tr.final_residual) / tr.final_crlb_sigma, int(tr.locked))
        for seed_i, (true, tr) in enumerate(zip(truths, traces))
    ]
    trace_rows = [(s.n, s.dphi_hat, s.residual, s.crlb_sigma) for s in traces[0].stages]
    files = {
        "refine_fiber": Table(["seed", "true_dphi", "stages", "final_n", "residual", "final_crlb_sigma",
                               "residual_over_crlb", "locked"], rows),
        "refine_trace_seed0": Table(["n", "dphi_hat", "residual", "crlb_sigma"], trace_rows),
    }
    summary = {
        "beyond_3sigma": sum(r[6] > 3.0 for r in rows),
        "worst_residual_ratio": max(r[6] for r in rows),
        "backoffs": diagnostics["backoffs"],
    }
    return Run(files, summary, diagnostics, timings)


def _run_visibility(cfg):
    budget = cfg.inputs
    table = Table(["quantity", "value"], [("pulse_budget", float(budget))])
    return Run({"visibility_budget": table}, {"pulse_budget": budget})


#: What each kind builds of its params at load, before its runner starts:
#: the loaded config carries it as ``inputs``.  A `ValueError` of a builder
#: is a config error.  A builder reads only the params, not the seed, which
#: `run_scenario` may override after load.
_BUILDERS = {
    "table1_scaling": _scans,
    "crlb_saturation": lambda p: _entry_specs(p, "points", _point_spec),
    "raman_three_level": lambda p: (
        _raman_spec(p, "detuning_fraction_population"), _raman_spec(p, "detuning_fraction_map")
    ),
    "refine_fiber": _refine_config,
    # a budget that is not finite raises
    "visibility_budget": lambda p: raman.visibility_budget(
        gamma=1.0 / p["lifetime_s"], t_e=p["excited_window_s"], epsilon=p["epsilon"]
    ),
}

#: The runner of each kind: ``runner(cfg)``, reading what the kind's builder
#: made of the params from ``cfg.inputs``.
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

    Writes ``manifest.json`` after the data files, with the wall time of
    the runner and of writing its data files under ``timings`` and, for
    the runners that fit, the estimator's counts under ``diagnostics``.
    Deterministic data files for a fixed config + seed.
    """
    if fmt not in ("csv", "json"):
        raise ScenarioConfigError(f"unsupported output format {fmt!r}")
    if seed is not None and not _int_at_least(0)(seed):
        raise ScenarioConfigError(f"seed must be a non-negative integer, got {seed!r}")
    cfg = load_scenario_config(find_scenario(name_or_path))
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    out = Path(out_dir)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    run = _RUNNERS[cfg.kind](cfg)
    paths = _write_files(out, run.files, fmt)
    run_s = time.perf_counter() - t0
    import hashlib

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
        "timings": {"run_s": run_s, **run.timings},
    }
    if run.diagnostics is not None:
        manifest["diagnostics"] = run.diagnostics
    paths += _write_files(out, {"manifest": manifest}, fmt)
    return {"artifacts": [str(a) for a in paths], "summary": run.summary}
