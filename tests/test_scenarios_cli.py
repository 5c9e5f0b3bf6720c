import copy
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import combphase
from combphase import _su2, estimation, protocols, raman, scenarios
from combphase.cli import EXIT_NUMERIC, EXIT_SCHEMA, EXIT_WRAP, main
from combphase.errors import DegenerateFitError, ScenarioConfigError
from combphase.protocols import ProtocolSpec
from combphase.scenarios import (
    PARAMS,
    find_scenario,
    list_scenarios,
    load_scenario_config,
    run_scenario,
)

REPO = Path(__file__).resolve().parent.parent

#: Smallest params that still run each kind end to end.
TINY_PARAMS = {
    "rwa_validity": {"cycles": [2, 4]},
    "closed_forms": {"n_cases": 3, "n_max": 20},
    "permutation_optimality": {"sizes": [4], "trials": 1},
    "table1_scaling": {"scans": [{"kind": "1B", "n_values": [4, 8, 16]}], "m_shots": 200},
    "crlb_saturation": {"n_seeds": 3, "points": [{"kind": "1B", "n": 10, "dphi": 0.02, "m_shots": 1000}]},
    "resolution_extrapolation": {"extrapolations": [{"rep_rate_hz": 1.0e8, "n": 250, "n_delay": 250}]},
    "raman_three_level": {"grid_points": 5, "transition_hz": 20.0, "rabi": 4.0},
    "error_models": {},
    "refine_fiber": {"n_seeds": 1, "m_shots": 500, "max_stages": 2},
    "visibility_budget": {},
}


def _config(tmp_path, kind, params, name="tiny"):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(
        {"schema_version": 1, "name": name, "kind": kind, "params": params}
    ))
    return cfg


class FitRan(AssertionError):
    """Raised by the `no_fits` fixture when an ML fit starts."""


@pytest.fixture
def no_fits(monkeypatch):
    """Fail the test if any ML fit runs."""
    def fit(*args, **kwargs):
        raise FitRan("a fit ran")

    monkeypatch.setattr(estimation, "ml_estimate", fit)
    monkeypatch.setattr(estimation, "_fit_records", fit)


def test_bundled_catalogue_has_all_scenarios():
    infos = list_scenarios()
    assert len(infos) >= 6
    names = {i["name"] for i in infos}
    assert {
        "rwa_validity", "closed_forms", "permutation_optimality", "table1_scaling",
        "crlb_saturation", "resolution_extrapolation", "raman_three_level",
        "error_models", "refine_fiber", "visibility_budget",
    } <= names
    for info in infos:
        assert info["description"]


def test_catalogue_tag_filter():
    noise_only = list_scenarios(tag="noise")
    assert [i["name"] for i in noise_only] == ["error_models"]


def test_list_command_json(capsys):
    assert main(["list", "--json", "--tag", "raman"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {i["name"] for i in out} == {"raman_three_level", "visibility_budget"}
    assert out == list_scenarios(tag="raman")
    for info in out:
        assert list(info) == ["name", "kind", "description", "tags"]
        assert isinstance(info["tags"], list)


def test_empty_config_is_schema_error(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("{}\n")
    with pytest.raises(ScenarioConfigError):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_yaml_parse_error_is_config_error(tmp_path, monkeypatch):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("schema_version: 1\nname: broken\nkind: [unclosed\n")
    with pytest.raises(ScenarioConfigError, match="YAML"):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()
    # pyyaml without libyaml: the pure-Python loader
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ScenarioConfigError, match="YAML"):
        load_scenario_config(cfg)


def test_configs_parse_with_libyaml_where_pyyaml_has_it(monkeypatch):
    loaders = []
    load = yaml.load

    def spy(text, Loader):
        loaders.append(Loader)
        return load(text, Loader=Loader)

    monkeypatch.setattr(yaml, "load", spy)
    load_scenario_config(find_scenario("rwa_validity"))
    assert loaders == [yaml.CSafeLoader if hasattr(yaml, "CSafeLoader") else yaml.SafeLoader]


def test_undecodable_config_is_config_error(tmp_path):
    cfg = tmp_path / "undecodable.yaml"
    cfg.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(ScenarioConfigError, match="undecodable.yaml"):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


_VALID_TOP_LEVEL = {"schema_version": 1, "name": "x", "kind": "visibility_budget"}
_DROP = object()

#: One bad config per top-level rule: (changes to a valid config, text the error names).
BAD_TOP_LEVEL = {
    "schema_version missing": ({"schema_version": _DROP}, "schema_version"),
    "name missing": ({"name": _DROP}, "name"),
    "kind missing": ({"kind": _DROP}, "kind"),
    "unknown key": ({"extra_knob": 3}, "extra_knob"),
    "non-string key": ({7: "x"}, "top level: unknown keys 7"),
    "schema_version 2": ({"schema_version": 2}, "schema_version"),
    "schema_version true": ({"schema_version": True}, "schema_version"),
    "schema_version string": ({"schema_version": "1"}, "schema_version"),
    "empty name": ({"name": ""}, "name"),
    "non-string name": ({"name": 5}, "name"),
    "unknown kind": ({"kind": "nope"}, "kind"),
    "non-string kind": ({"kind": 3}, "kind"),
    "list kind": ({"kind": ["visibility_budget"]}, "kind"),
    "non-string description": ({"description": 5}, "description"),
    "tags not a list": ({"tags": "estimation"}, "tags"),
    "non-string tag": ({"tags": ["estimation", 1]}, "tags"),
    "negative seed": ({"seed": -1}, "seed"),
    "seed true": ({"seed": True}, "seed"),
    "string seed": ({"seed": "3"}, "seed"),
    "float seed": ({"seed": 3.0}, "seed"),
    "params not a mapping": ({"params": [1]}, "params"),
    "null params": ({"params": None}, "params"),
}


@pytest.mark.parametrize("change,names", BAD_TOP_LEVEL.values(), ids=BAD_TOP_LEVEL.keys())
def test_each_top_level_rule_is_a_config_error(tmp_path, change, names):
    raw = {k: v for k, v in {**_VALID_TOP_LEVEL, **change}.items() if v is not _DROP}
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(raw, sort_keys=False))
    with pytest.raises(ScenarioConfigError, match=names):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out").exists()


# yaml, subprocess and hashlib are imported where a config is loaded or a
# manifest written
@pytest.mark.parametrize("module", ["jsonschema", "scipy", "yaml", "subprocess", "hashlib"])
def test_import_leaves_module_out(module):
    src = str(Path(combphase.__file__).resolve().parents[1])
    code = f"import sys, combphase; sys.exit(any(m.partition('.')[0] == {module!r} for m in sys.modules))"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        "schema_version: 1\nname: x\nkind: visibility_budget\nextra_knob: 3\n"
    )
    with pytest.raises(ScenarioConfigError):
        load_scenario_config(cfg)


def test_unknown_scenario_name():
    with pytest.raises(ScenarioConfigError):
        find_scenario("does_not_exist")


def test_run_scenario_writes_manifest(tmp_path):
    result = run_scenario("visibility_budget", tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["scenario"] == "visibility_budget"
    assert manifest["schema_version"] == 1
    assert set(manifest) >= {"scenario", "schema_version", "seed", "git_rev", "started_at", "timings"}
    assert isinstance(manifest["timings"]["run_s"], float) and manifest["timings"]["run_s"] >= 0.0
    assert result["summary"]["pulse_budget"] == 184


def test_same_seed_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario("error_models", a, seed=5)
    run_scenario("error_models", b, seed=5)
    assert (a / "error_models.csv").read_bytes() == (b / "error_models.csv").read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario("permutation_optimality", a, seed=1)
    run_scenario("permutation_optimality", b, seed=2)
    assert (
        (a / "permutation_optimality.csv").read_bytes()
        != (b / "permutation_optimality.csv").read_bytes()
    )


def test_json_format_flag(tmp_path):
    run_scenario("visibility_budget", tmp_path, fmt="json")
    payload = json.loads((tmp_path / "visibility_budget.json").read_text())
    assert payload[0]["quantity"] == "pulse_budget"


def test_cli_runs_bundled_scenario(tmp_path, capsys):
    assert main(["run", "error_models", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "doppler_velocity_m_per_s" in out
    assert (tmp_path / "error_models.csv").exists()


def test_cli_refine_summary_counts_backoffs(tmp_path, capsys):
    # lock 14 at this seed pins once and recovers (see test_estimation)
    cfg = _config(tmp_path, "refine_fiber", {"n_seeds": 15, "m_shots": 5000})
    assert main(["run", str(cfg), "--seed", "1835504127", "--out", str(tmp_path)]) == 0
    summary, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert summary["backoffs"] == 1
    # the summary counts what criterion 9 tests, the locks beyond 3 sigma
    with (tmp_path / "refine_fiber.csv").open() as f:
        ratios = [float(row["residual_over_crlb"]) for row in csv.DictReader(f)]
    assert summary["beyond_3sigma"] == sum(r > 3.0 for r in ratios) == 0
    assert "all_locked" not in summary


#: tiny crlb_saturation params of one and of several studies, one per point:
#: the tiny points, three 1B points and two 2B points, each at chi dphi = 0.2
_TINY_STUDIES = {
    "crlb_saturation": TINY_PARAMS["crlb_saturation"],
    "three 1B points": {
        "n_seeds": 3,
        "points": [{"kind": "1B", "n": n, "dphi": 0.2 / n, "m_shots": 200} for n in (4, 8, 16)],
    },
    "two 2B points": {
        "n_seeds": 3,
        "points": [
            {"kind": "2B", "n": n, "n_delay": nd, "dphi": 0.2 / (n * nd), "m_shots": m}
            for n, nd, m in ((4, 2, 200), (8, 4, 300))
        ],
    },
}


@pytest.mark.parametrize("name", sorted(_TINY_STUDIES))
def test_study_runs_write_their_diagnostics_to_the_manifest(tmp_path, monkeypatch, name):
    studies = []
    study = estimation.estimator_study

    def spy(*args):
        result = study(*args)
        studies.append(result[2])
        return result

    monkeypatch.setattr(estimation, "estimator_study", spy)
    params = _TINY_STUDIES[name]
    n_points = len(params["points"])
    cfg = _config(tmp_path, "crlb_saturation", params)
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in "ab"]
    assert len(studies) == 2 * n_points
    keys = ("fits", "distinct_records", "nonconverged", "pinned", "score_evaluations")
    expected = {k: sum(d[k] for d in studies[:n_points]) for k in keys}
    assert manifests[0]["diagnostics"] == manifests[1]["diagnostics"] == expected
    assert expected["fits"] == n_points * params["n_seeds"]
    assert 0 < expected["distinct_records"] <= expected["fits"]
    assert expected["score_evaluations"] > 0
    for a in (tmp_path / "a").iterdir():
        if a.name != "manifest.json":
            assert a.read_bytes() == (tmp_path / "b" / a.name).read_bytes()


def test_refine_manifest_counts_every_fit_of_the_locks(tmp_path, monkeypatch):
    # lock 14 at this seed pins once and recovers (see test_estimation)
    fits = []
    fit = estimation.ml_estimate

    def spy(record, model, init, **kwargs):
        est = fit(record, model, init, **kwargs)
        key = (model.spec, tuple(record.counts1), tuple(record.counts2))
        fits.append((key, est, np.pi / (4.0 * model.spec.enhancement)))
        return est

    monkeypatch.setattr(estimation, "ml_estimate", spy)
    cfg = _config(tmp_path, "refine_fiber", {"n_seeds": 15, "m_shots": 5000})
    result = run_scenario(cfg, tmp_path, seed=1835504127)
    diagnostics = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diagnostics == {
        "fits": len(fits),
        "distinct_records": len({key for key, _, _ in fits}),
        "nonconverged": sum(not est.converged for _, est, _ in fits),
        "pinned": sum(abs(est.dphi_hat) >= 0.98 * window for _, est, window in fits),
        "backoffs": result["summary"]["backoffs"],
        # each distinct record's fit counts once, however often it is read
        "score_evaluations": sum({key: est.n_evaluations for key, est, _ in fits}.values()),
    }
    assert diagnostics["pinned"] == diagnostics["backoffs"] == 1
    assert diagnostics["score_evaluations"] > diagnostics["fits"]


def test_lockstep_run_equals_the_per_lock_run(tmp_path, monkeypatch):
    # the oracle is the same run with the lockstep prefill switched off;
    # lock 14 at this seed pins once and recovers (see test_estimation)
    traces, fit_rows = [], []
    refine, fit = estimation.iterative_refine, estimation._fit_records

    def spy(true_dphi, config, models):
        traces.append(refine(true_dphi, config, models))
        return traces[-1]

    def counted(model, counts, m_shots, dphi0=0.0):
        fit_rows.append(len(counts))
        return fit(model, counts, m_shots, dphi0)

    monkeypatch.setattr(estimation, "iterative_refine", spy)
    monkeypatch.setattr(estimation, "_fit_records", counted)
    cfg = _config(tmp_path, "refine_fiber", {"n_seeds": 15, "m_shots": 5000})
    run_scenario(cfg, tmp_path / "lockstep", seed=1835504127)
    lockstep, lockstep_fits = traces[:], fit_rows[:]
    traces.clear()
    fit_rows.clear()
    monkeypatch.setattr(estimation, "_prefit_locks", lambda locks, models: None)
    run_scenario(cfg, tmp_path / "alone", seed=1835504127)
    assert lockstep == traces and sum(t.backoffs for t in traces) == 1
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("lockstep", "alone")]
    assert manifests[0]["diagnostics"] == manifests[1]["diagnostics"]
    for a in (tmp_path / "alone").iterdir():
        if a.name != "manifest.json":
            assert a.read_bytes() == (tmp_path / "lockstep" / a.name).read_bytes()
    # alone, one fit per record; in lockstep, one per train length and step,
    # and the locks follow two N schedules (from 62, and from 14 after a back-off)
    fits = manifests[0]["diagnostics"]["fits"]
    assert len(fit_rows) == fits
    steps = max(len(t.stages) + t.backoffs for t in traces)
    assert len(lockstep_fits) <= steps * 2 < fits
    assert sum(lockstep_fits) == manifests[0]["diagnostics"]["distinct_records"]


def test_a_refine_run_evaluates_the_model_in_the_lockstep_only(tmp_path, monkeypatch):
    # each lock's own call reads the record and the fit the lockstep kept
    calls, inside = [], []
    refine, evaluate = estimation.iterative_refine, protocols.RamseyOutcomeModel.evaluate

    def spy(true_dphi, config, models):
        inside.append(True)
        try:
            return refine(true_dphi, config, models)
        finally:
            inside.pop()

    def counted(self, dphi):
        calls.append(bool(inside))
        return evaluate(self, dphi)

    monkeypatch.setattr(estimation, "iterative_refine", spy)
    monkeypatch.setattr(protocols.RamseyOutcomeModel, "evaluate", counted)
    cfg = _config(tmp_path, "refine_fiber", {"n_seeds": 15, "m_shots": 5000})
    run_scenario(cfg, tmp_path / "run", seed=1835504127)
    diagnostics = json.loads((tmp_path / "run" / "manifest.json").read_text())["diagnostics"]
    assert diagnostics["backoffs"] == 1
    assert calls and not any(calls)


def test_refine_manifest_times_the_lockstep_and_the_locks(tmp_path):
    cfg = _config(tmp_path, "refine_fiber", TINY_PARAMS["refine_fiber"])
    run_scenario(cfg, tmp_path / "refine")
    timings = json.loads((tmp_path / "refine" / "manifest.json").read_text())["timings"]
    assert list(timings) == ["run_s", "prefit_s", "locks_s"]
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    assert timings["prefit_s"] + timings["locks_s"] <= timings["run_s"]
    run_scenario("error_models", tmp_path / "other")
    assert list(json.loads((tmp_path / "other" / "manifest.json").read_text())["timings"]) == ["run_s"]



def test_raman_manifest_times_its_two_propagations(tmp_path, monkeypatch):
    cfg = _config(tmp_path, "raman_three_level", TINY_PARAMS["raman_three_level"])
    run_scenario(cfg, tmp_path / "raman")
    timings = json.loads((tmp_path / "raman" / "manifest.json").read_text())["timings"]
    assert list(timings) == ["run_s", "integrate_lambda_s", "phase_map_s"]
    assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())
    assert timings["integrate_lambda_s"] + timings["phase_map_s"] <= timings["run_s"]
    # a clock that reads 1000 s more at every call changes the timings only
    ticks = iter(range(1000))
    monkeypatch.setattr(scenarios.time, "perf_counter", lambda: 1000.0 * next(ticks))
    run_scenario(cfg, tmp_path / "slow")
    slow = json.loads((tmp_path / "slow" / "manifest.json").read_text())["timings"]
    assert slow["phase_map_s"] == 1000.0
    for name in ("raman_phase_map.csv", "raman_summary.json"):
        assert (tmp_path / "raman" / name).read_bytes() == (tmp_path / "slow" / name).read_bytes()


def test_a_prior_that_rounds_to_zero_exits_2(tmp_path):
    cfg = _config(tmp_path, "refine_fiber", {**TINY_PARAMS["refine_fiber"], "prior_scale": 1e-323})
    with pytest.raises(ScenarioConfigError, match="prior_bound"):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def test_refine_locks_share_models_within_one_run_only(tmp_path, monkeypatch):
    dicts = []
    refine = estimation.iterative_refine

    def spy(true_dphi, config, models):
        dicts.append(models)
        return refine(true_dphi, config, models)

    monkeypatch.setattr(estimation, "iterative_refine", spy)
    cfg = _config(tmp_path, "refine_fiber", {"n_seeds": 3, "m_shots": 500})
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    first, second = dicts[:3], dicts[3:]
    assert all(d is first[0] for d in first) and all(d is second[0] for d in second)
    assert first[0] is not second[0]
    assert first[0] and first[0].keys() == second[0].keys()
    # a model keeps its fringe grids, its fit memo and the lockstep's draws,
    # and no other kind of entry
    kinds = {k if k == "records" else k[0] for m in first[0].values() for k in m.cache}
    assert kinds == {"grid", "fit", "records"}


def test_cli_numeric_failure_exit_code(tmp_path):
    # a pulse area of 1e300 overflows the Magnus step
    cfg = tmp_path / "overflow.yaml"
    cfg.write_text(yaml.safe_dump({
        "schema_version": 1,
        "name": "overflowing_pulse",
        "kind": "rwa_validity",
        "params": {"cycles": [5], "theta": 1.0e300},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


def test_study_without_a_converged_fit_exits_3(tmp_path):
    # one shot per arm: at quadrature arm 1's likelihood is monotone across
    # the window and arm 2 is certain, so every fit stops unconverged at the
    # window edge; its variance and ratio would describe the edge, not the
    # estimator
    point = {"kind": "1B", "n": 10, "dphi": 0.02, "m_shots": 1}
    cfg = _config(tmp_path, "crlb_saturation", {"points": [point], "n_seeds": 20})
    with pytest.raises(DegenerateFitError, match="none of the 20 fits"):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(_TINY_STUDIES))
def test_study_whose_estimates_coincide_exits_3(tmp_path, name):
    # two shots and two seeds: at seed 0 some study draws two equal records,
    # so its estimates coincide and its spread of 0 would read a perfect
    # estimator (one shot cannot: at quadrature each one-shot fit stops
    # unconverged at the window edge)
    points = [{**pt, "m_shots": 2} for pt in _TINY_STUDIES[name]["points"]]
    cfg = _config(tmp_path, "crlb_saturation", {"n_seeds": 2, "points": points})
    with pytest.raises(DegenerateFitError, match="coincide"):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


def test_a_study_that_raises_leaves_no_data_file(tmp_path, monkeypatch):
    # the 1B point's study succeeds, then the 2B point's study raises
    study = estimation.estimator_study
    kinds = []

    def failing_2b(spec, *args):
        kinds.append(spec.kind)
        if spec.kind == "2B":
            raise DegenerateFitError("the 2B study fails")
        return study(spec, *args)

    monkeypatch.setattr(estimation, "estimator_study", failing_2b)
    cfg = _config(tmp_path, "crlb_saturation", {
        "n_seeds": 3,
        "points": [
            {"kind": "1B", "n": 4, "dphi": 0.05, "m_shots": 200},
            {"kind": "2B", "n": 4, "n_delay": 2, "dphi": 0.025, "m_shots": 200},
        ],
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert kinds == ["1B", "2B"]
    assert not out.exists()


def _csv_rows(path):
    """The rows of a CSV data file, each number as a float."""
    def value(x):
        try:
            return float(x)
        except ValueError:
            return x

    return [[value(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]


def test_each_study_kind_keeps_its_seed_layout(tmp_path):
    # crlb_saturation, the one kind that runs estimator studies: point j
    # takes the n_seeds seeds from seed + j n_seeds on
    seed, n_seeds = 5, 3
    points = [
        {"kind": "1B", "n": 10, "dphi": 0.02, "m_shots": 1000},
        {"kind": "2B", "n": 4, "n_delay": 2, "dphi": 0.01, "m_shots": 500},
        {"kind": "1B", "n": 4, "dphi": 0.05, "m_shots": 200},
    ]
    cfg = _config(tmp_path, "crlb_saturation", {"points": points, "n_seeds": n_seeds})
    run_scenario(cfg, tmp_path / "crlb", seed=seed)
    expected = []
    for pt, start in zip(points, (5, 8, 11)):
        spec = ProtocolSpec(pt["kind"], pt["n"], pt.get("n_delay", 0))
        seeds = range(start, start + n_seeds)
        estimates, bound, _ = estimation.estimator_study(spec, pt["dphi"], pt["m_shots"], seeds)
        var = float(np.var(estimates, ddof=1))
        expected.append([spec.kind, spec.n_pulses, spec.n_delay, pt["dphi"], pt["m_shots"], var, bound, var / bound])
    assert _csv_rows(tmp_path / "crlb" / "crlb_saturation.csv") == expected


def test_study_points_take_disjoint_seed_blocks(tmp_path, monkeypatch):
    # 1001 seeds a point: blocks that start 1000 seeds apart would overlap
    blocks = []
    study = estimation.estimator_study

    def spy(spec, dphi, m_shots, seeds):
        blocks.append(list(seeds))
        return study(spec, dphi, m_shots, seeds)

    monkeypatch.setattr(estimation, "estimator_study", spy)
    point = {"kind": "1B", "n": 4, "dphi": 0.05, "m_shots": 200}
    cfg = _config(tmp_path, "crlb_saturation", {"points": [point, point], "n_seeds": 1001})
    run_scenario(cfg, tmp_path / "out", seed=3)
    assert [len(set(b)) for b in blocks] == [1001, 1001]
    assert set(blocks[0]).isdisjoint(blocks[1])


#: the kinds that run no estimator study: table1_scaling takes the
#: Cramer-Rao bound from the model's information, and
#: resolution_extrapolation is arithmetic
_BOUND_KINDS = ["resolution_extrapolation", "table1_scaling"]


@pytest.mark.parametrize("kind", _BOUND_KINDS)
def test_bound_kinds_run_no_study_and_write_no_diagnostics(tmp_path, monkeypatch, no_fits, kind):
    def study(*args):
        raise FitRan("an estimator study ran")

    monkeypatch.setattr(estimation, "estimator_study", study)
    run_scenario(kind, tmp_path)
    assert "diagnostics" not in json.loads((tmp_path / "manifest.json").read_text())


@pytest.mark.parametrize("kind", _BOUND_KINDS)
def test_bound_kinds_write_the_same_files_at_any_seed(tmp_path, kind):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(kind, a, seed=1)
    run_scenario(kind, b, seed=100_000)
    names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
    assert names and names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("kind", _BOUND_KINDS)
def test_bound_kinds_take_no_seed_count(tmp_path, no_fits, kind):
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], "n_seeds": 3})
    with pytest.raises(ScenarioConfigError, match=f"params of kind {kind}: unknown keys n_seeds"):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value",
    [("reduced_points", [[8, 4], [16, 8], [32, 16]]), ("m_shots", 2000)],
    ids=["reduced_points", "m_shots"],
)
def test_resolution_takes_no_bound_keys(tmp_path, no_fits, key, value):
    # the bound at reduced N and N_d is a table1_scaling 2B scan's
    cfg = _config(tmp_path, "resolution_extrapolation", {**TINY_PARAMS["resolution_extrapolation"], key: value})
    with pytest.raises(ScenarioConfigError, match=f"params of kind resolution_extrapolation: unknown keys {key}"):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def test_a_run_loads_its_config_once(tmp_path, monkeypatch):
    loaded = []
    load = scenarios.load_scenario_config

    def spy(path):
        loaded.append(path)
        return load(path)

    monkeypatch.setattr(scenarios, "load_scenario_config", spy)
    run_scenario("visibility_budget", tmp_path)
    assert loaded == [find_scenario("visibility_budget")]


def test_cli_wrap_abort_exit_code(tmp_path):
    cfg = tmp_path / "underestimated.yaml"
    cfg.write_text(yaml.safe_dump({
        "schema_version": 1,
        "name": "underestimated_prior",
        "kind": "refine_fiber",
        "seed": 0,
        "params": {"n_seeds": 3, "m_shots": 200, "prior_scale": 0.01},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_WRAP


def _data_files(out):
    return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}


@pytest.mark.parametrize("seed", [7, 2**64 + 5, 2**128 + 1], ids=["7", "2**64+5", "2**128+1"])
@pytest.mark.parametrize("kind", ["crlb_saturation", "refine_fiber"])
def test_batched_streams_write_the_files_of_one_default_rng_per_seed(tmp_path, monkeypatch, kind, seed):
    # the oracle draws every record and every lock's truth from a fresh
    # numpy.random.default_rng(seed), the stream the batched seeding matches
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], "n_seeds": 3})
    run_scenario(cfg, tmp_path / "batched", seed=seed)
    oracle_seeds = []

    def default_rng_streams(seeds):
        for s in seeds:
            oracle_seeds.append(s)
            yield np.random.default_rng(s)

    monkeypatch.setattr(estimation, "_streams", default_rng_streams)
    run_scenario(cfg, tmp_path / "oracle", seed=seed)
    assert seed in oracle_seeds and max(oracle_seeds) > seed
    batched, oracle = _data_files(tmp_path / "batched"), _data_files(tmp_path / "oracle")
    assert batched and batched == oracle


def test_same_seed_gives_identical_refine_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "small_refine.yaml"
    cfg.write_text(yaml.safe_dump({
        "schema_version": 1,
        "name": "small_refine",
        "kind": "refine_fiber",
        "seed": 3,
        "params": {"n_seeds": 8, "m_shots": 500},
    }))
    run_scenario(cfg, a)
    run_scenario(cfg, b)
    for name in ("refine_fiber.csv", "refine_trace_seed0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [pytest.param([old], id=old) for old in ("pulse", "protocol", "raman", "estimate", "scan", "refine")]
    + [pytest.param(["run", "visibility_budget", "--threads", "4"], id="run-threads")],
)
def test_old_subcommands_removed(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_SCHEMA


def _plain(x) -> bool:
    """Whether ``x`` is built of Python's own bool, int, float, str, list and dict."""
    if type(x) is dict:
        return all(type(k) is str and _plain(v) for k, v in x.items())
    if type(x) is list:
        return all(_plain(v) for v in x)
    return type(x) in (bool, int, float, str)


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_every_kind_honours_json_format(tmp_path, kind):
    assert set(TINY_PARAMS) == set(PARAMS)
    cfg = _config(tmp_path, kind, TINY_PARAMS[kind])
    out = tmp_path / "out"
    result = run_scenario(cfg, out, fmt="json")
    assert not list(out.glob("*.csv"))
    # the CLI prints the summary with json.dumps, which rejects numpy scalars
    # such as np.bool_ and np.int64
    assert _plain(result["summary"])
    for artifact in result["artifacts"]:
        assert artifact.endswith(".json")
        json.loads(Path(artifact).read_text())
    # the CSV run writes the same files with the same values: each JSON
    # table's records are its CSV rows, and each JSON document is the same
    csv_paths = [Path(a) for a in run_scenario(cfg, tmp_path / "csv")["artifacts"][:-1]]
    json_paths = [Path(a) for a in result["artifacts"][:-1]]
    assert [p.name.rsplit(".", 1)[0] for p in csv_paths] == [p.stem for p in json_paths]
    for csv_path, json_path in zip(csv_paths, json_paths):
        if csv_path.suffix == ".json":
            assert csv_path.read_bytes() == json_path.read_bytes()
            continue
        header, *rows = csv.reader(csv_path.read_text().splitlines())
        records = json.loads(json_path.read_text())
        assert [list(r) for r in records] == [header] * len(rows)
        assert [[str(v) for v in r.values()] for r in records] == rows


def test_bundled_name_wins_over_same_named_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "visibility_budget").mkdir()
    assert find_scenario("visibility_budget").is_file()
    assert main(["run", "visibility_budget", "--out", "visibility_budget"]) == 0


def test_negative_seed_is_config_error(tmp_path):
    with pytest.raises(ScenarioConfigError):
        run_scenario("visibility_budget", tmp_path, seed=-1)
    assert main(["run", "visibility_budget", "--seed", "-1", "--out", str(tmp_path)]) == EXIT_SCHEMA


@pytest.mark.parametrize("seed", [2.7, True, "3"], ids=["float", "bool", "string"])
def test_non_integer_seed_is_config_error(tmp_path, seed):
    # the seed an override gives must pass the config's own seed rule, not
    # be truncated to 2, 1 or 3
    with pytest.raises(ScenarioConfigError, match="seed must be a non-negative integer"):
        run_scenario("visibility_budget", tmp_path / "out", seed=seed)
    assert not (tmp_path / "out").exists()


def test_numpy_integer_seed_runs_as_its_int(tmp_path):
    run_scenario("permutation_optimality", tmp_path / "numpy", seed=np.int64(3))
    run_scenario("permutation_optimality", tmp_path / "int", seed=3)
    manifest = json.loads((tmp_path / "numpy" / "manifest.json").read_text())
    assert manifest["seed"] == 3 and type(manifest["seed"]) is int
    name = "permutation_optimality.csv"
    assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


def test_unknown_param_rejected_before_fitting(tmp_path, no_fits):
    cfg = _config(tmp_path, "refine_fiber", {"n_seed": 2}, name="typo")
    with pytest.raises(ScenarioConfigError, match="n_seed"):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_SCHEMA
    assert not (tmp_path / "refine_fiber.csv").exists()


def test_missing_required_param_rejected(tmp_path):
    with pytest.raises(ScenarioConfigError, match="points"):
        load_scenario_config(_config(tmp_path, "crlb_saturation", {"n_seeds": 3}))


_VALID_SCAN = {"kind": "1B", "n_values": [4, 8, 16]}

#: Scans that pass every key's rule but not the rules across keys: (scans,
#: text the error names).
_BAD_SCANS = {
    "two sizes": ([{"kind": "1B", "n_values": [10, 20]}], "scans entry 0: .*three distinct chi"),
    "mismatched delays": (
        [{"kind": "2B", "n_values": [10, 20, 40], "n_delay_values": [4, 8]}], "scans entry 0: n_delay_values"
    ),
    "repeated chi (odd 1A)": (
        [{"kind": "1A", "n_values": [5, 6, 7]}], "scans entry 0: .*three distinct chi"
    ),
    "repeated chi": ([{"kind": "1B", "n_values": [10, 20, 10]}], "scans entry 0: .*three distinct chi"),
    "repeated N (2B)": (
        [{"kind": "2B", "n_values": [10, 10, 10], "n_delay_values": [2, 4, 8]}], "scans entry 0: .*three distinct N"
    ),
    "odd 1B size": ([{"kind": "1B", "n_values": [10, 20, 31]}], "scans entry 0: .*even"),
    "odd 2B size": (
        [{"kind": "2B", "n_values": [8, 7, 16], "n_delay_values": [4, 4, 8]}], "scans entry 0: .*even"
    ),
    "bad scan after a valid one": ([_VALID_SCAN, {"kind": "1B", "n_values": [10, 20]}], "scans entry 1"),
    "two scans of one kind": (
        [_VALID_SCAN, {"kind": "1B", "n_values": [32, 64, 128]}], "one scan per kind"
    ),
}


def test_scaling_scan_needs_three_sizes(tmp_path, no_fits):
    for name, (scans, _) in _BAD_SCANS.items():
        out = tmp_path / name.replace(" ", "_")
        cfg = _config(tmp_path, "table1_scaling", {"scans": scans})
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA, name
        assert not list(out.glob("scaling_*")), name


_POINT = {"kind": "1B", "n": 10, "dphi": 0.02}


@pytest.mark.parametrize(
    "kind,params,names",
    [
        pytest.param("crlb_saturation", {"points": [{**_POINT, "m_shot": 1000}]}, "m_shot", id="m_shot typo"),
        pytest.param("crlb_saturation", {"points": [{"kind": "1B", "n": 10}]}, "dphi", id="point without dphi"),
        pytest.param("crlb_saturation", {"points": [_POINT, {**_POINT, "kind": "3C"}]}, "3C", id="kind 3C"),
        pytest.param("crlb_saturation", {"points": [_POINT, {**_POINT, "n": 11}]}, "even", id="odd 1B size"),
        pytest.param("crlb_saturation", {"points": [_POINT, ["1B", 10]]}, "mapping", id="point not a mapping"),
        pytest.param("crlb_saturation", {"points": _POINT}, "list", id="points not a list"),
        pytest.param(
            "resolution_extrapolation",
            {"extrapolations": [{"rep_rate_hz": 1.0e8, "n": 250}]},
            "n_delay", id="extrapolation without n_delay",
        ),
        pytest.param(
            "table1_scaling",
            {"scans": [{"kind": "2B", "n_values": [8, 7, 16], "n_delay_values": [4, 4, 8]}]},
            "even", id="odd 2B size",
        ),
        pytest.param(
            "table1_scaling", {"scans": [{"kind": "1B", "n_value": [4, 8, 16]}]}, "n_value", id="scan typo",
        ),
        pytest.param("crlb_saturation", {"points": [{**_POINT, "m_shots": 0}]}, "m_shots", id="no shots"),
        pytest.param("crlb_saturation", {"points": [{**_POINT, "dphi": float("nan")}]}, "dphi", id="dphi nan"),
        pytest.param("crlb_saturation", {"points": [{**_POINT, "n": "ten"}]}, "entry 0: n must", id="n not a number"),
        pytest.param("crlb_saturation", {"points": [{**_POINT, "theta": "x"}]}, "theta", id="theta not a number"),
        pytest.param("crlb_saturation", {"points": [{**_POINT, "n_delay": "a"}]}, "n_delay", id="n_delay on 1B"),
    ],
)
def test_bad_entries_rejected_before_fitting(tmp_path, no_fits, kind, params, names):
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], **params})
    with pytest.raises(ScenarioConfigError, match=names):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    # a bad entry, such as an odd 1B size, fails at load and leaves no
    # output directory behind
    assert not out.exists() and not (tmp_path / "direct").exists()


#: (kind, changes to the tiny params, text the error names): configs that
#: pass every key's rule, but of which a kind's builder makes no valid
#: inputs: protocol specs, Raman pulses, a lock config or a pulse budget.
_BUILD_FAULTS = {
    "odd 1B point": ("crlb_saturation", {"points": [_POINT, {**_POINT, "n": 11}]}, "points entry 1: .*even"),
    # chi dphi = 0.9 lies beyond the fit window's pi / 4: the fits would
    # converge on the mirror pi / (2 chi) - dphi and the ratio describe it
    "truth beyond the fit window": (
        "crlb_saturation", {"points": [_POINT, {**_POINT, "dphi": 0.09}]}, "points entry 1: dphi 0.09 lies beyond"
    ),
    "truth below the fit window": (
        "crlb_saturation", {"points": [{**_POINT, "dphi": -0.09}]}, "points entry 0: dphi -0.09 lies beyond"
    ),
    "odd 2B reduced pair": (
        "table1_scaling",
        {"scans": [_VALID_SCAN, {"kind": "2B", "n_values": [8, 16, 31], "n_delay_values": [4, 8, 16]}]},
        "scans entry 1: .*even",
    ),
    **{
        f"scan {name}": ("table1_scaling", {"scans": scans}, names)
        for name, (scans, names) in _BAD_SCANS.items()
    },
    "Raman cycle cap": ("raman_three_level", {"transition_hz": 1100.0}, "1078.0 carrier cycles"),
    "prior_scale 1e-323": ("refine_fiber", {"prior_scale": 1e-323}, "prior_bound"),
    "non-finite visibility budget": (
        "visibility_budget", {"lifetime_s": 1.0e300, "excited_window_s": 1.0e-300}, "not finite"
    ),
}


@pytest.mark.parametrize("kind,change,names", _BUILD_FAULTS.values(), ids=_BUILD_FAULTS.keys())
def test_rules_across_keys_raise_at_load(tmp_path, no_fits, kind, change, names):
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], **change})
    with pytest.raises(ScenarioConfigError, match=f"^params of kind {kind}: .*{names}"):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


@pytest.mark.parametrize(
    "kind,key",
    [("crlb_saturation", "points"), ("table1_scaling", "scans"), ("resolution_extrapolation", "extrapolations")],
)
def test_empty_study_list_rejected_at_load(tmp_path, kind, key):
    cfg = _config(tmp_path, kind, {key: []})
    with pytest.raises(ScenarioConfigError, match=f"{key} must be a non-empty list of mappings"):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


@pytest.mark.parametrize(
    "case",
    [
        {"rep_rate_hz": 1.0e8, "n": 0, "n_delay": 5},
        {"rep_rate_hz": 1.0e8, "n": 250, "n_delay": -1},
        {"rep_rate_hz": 0.0, "n": 250, "n_delay": 250},
        {"rep_rate_hz": float("inf"), "n": 250, "n_delay": 250},
    ],
    ids=["n 0", "negative n_delay", "zero rate", "infinite rate"],
)
def test_extrapolation_values_checked_before_fitting(tmp_path, no_fits, case):
    params = {**TINY_PARAMS["resolution_extrapolation"], "extrapolations": [case]}
    cfg = _config(tmp_path, "resolution_extrapolation", params)
    with pytest.raises(ScenarioConfigError, match="extrapolations entry 0"):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not (out / "resolution.csv").exists()


#: (kind, param, bad value); an n_seeds case is named kind-value, an m_shots one kind-m_shots value;
#: table1_scaling and resolution_extrapolation take no n_seeds, and resolution_extrapolation no
#: m_shots, so there any such value is an unknown key
_BAD_COUNTS = (
    [(kind, "n_seeds", n) for kind in ("crlb_saturation", "table1_scaling", "resolution_extrapolation")
     for n in (0, 1, "many", 3.0, True)]
    + [("refine_fiber", "n_seeds", n) for n in (0, -1, "many", 1.0)]
    + [(kind, "m_shots", m) for kind in ("table1_scaling", "resolution_extrapolation") for m in (0, -5, 2.5, "many")]
)


@pytest.mark.parametrize(
    "kind,name,value",
    [pytest.param(k, n, v, id=f"{k}-{v}" if n == "n_seeds" else f"{k}-{n} {v}") for k, n, v in _BAD_COUNTS],
)
def test_seed_count_checked_before_fitting(tmp_path, no_fits, kind, name, value):
    # a crlb_saturation row is a ddof = 1 spread, so a study needs two seeds;
    # a lock run needs one, and a record one shot
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], name: value})
    with pytest.raises(ScenarioConfigError, match=name):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not list(out.glob("*"))


@pytest.mark.parametrize(
    "params,name",
    # growth was removed: a config that sets it, even to the fixed factor, is rejected
    [({"max_stages": 0}, "max_stages"), ({"growth": 4}, "growth"), ({"m_shots": 0}, "m_shots")],
)
def test_bad_refine_config_rejected_before_fitting(tmp_path, no_fits, params, name):
    cfg = _config(tmp_path, "refine_fiber", {**TINY_PARAMS["refine_fiber"], **params})
    with pytest.raises(ScenarioConfigError, match=name):
        load_scenario_config(cfg)
    with pytest.raises(ScenarioConfigError, match=name):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not (out / "refine_fiber.csv").exists()


#: (kind, changes to the tiny params, text the error names); unchecked, each
#: value reached the library and failed there with a traceback (exit 1).
_BAD_VALUES = {
    "prior_scale x": ("refine_fiber", {"prior_scale": "x"}, "prior_scale"),
    "n_max 2": ("closed_forms", {"n_max": 2}, "n_max"),
    "cycles [0]": ("rwa_validity", {"cycles": [0]}, "cycles"),
    "grid_points 0": ("raman_three_level", {"grid_points": 0}, "grid_points"),
    "sizes [3]": ("permutation_optimality", {"sizes": [3]}, "sizes"),
    "theta -1": ("rwa_validity", {"theta": -1}, "theta"),
    "lifetime_s 0": ("visibility_budget", {"lifetime_s": 0}, "lifetime_s"),
    "lifetime_s 10**400": ("visibility_budget", {"lifetime_s": 10**400}, "lifetime_s"),
    "epsilon 2": ("visibility_budget", {"epsilon": 2}, "epsilon"),
    "pair_gap_s x": ("error_models", {"pair_gap_s": "x"}, "pair_gap_s"),
    "rabi x": ("raman_three_level", {"rabi": "x"}, "rabi"),
    "duration 0": ("raman_three_level", {"duration": 0}, "duration"),
    "rep_rate_hz x": (
        "resolution_extrapolation",
        {"extrapolations": [{"rep_rate_hz": "x", "n": 250, "n_delay": 250}]},
        "extrapolations entry 0: rep_rate_hz",
    ),
    "n_values 5": ("table1_scaling", {"scans": [{"kind": "1B", "n_values": 5}]}, "scans entry 0: n_values"),
    "second point's m_shots x": (
        "crlb_saturation",
        {"points": [_POINT, {**_POINT, "m_shots": "x"}]},
        "points entry 1: m_shots",
    ),
    # the key was removed: a point's seeds follow from its place in the list
    "second point's seed_offset 7": (
        "crlb_saturation",
        {"points": [_POINT, {**_POINT, "seed_offset": 7}]},
        "points entry 1: unknown keys seed_offset",
    ),
    # the key was removed: the pulse's duration and its drive both scale
    # with the carrier, so the output depends on the cycle count alone
    "carrier_hz 7.3": ("rwa_validity", {"carrier_hz": 7.3}, "unknown keys carrier_hz"),
    # the key was removed: every pulse is propagated to one fixed bound
    "integration_tol 1e-8": ("rwa_validity", {"integration_tol": 1e-8}, "unknown keys integration_tol"),
    # the keys were removed: every pulse is a truncated gaussian, and every
    # lock grows its train by a factor of 4
    "envelope gaussian": ("rwa_validity", {"envelope": "gaussian"}, "unknown keys envelope"),
    "growth 4": ("refine_fiber", {"growth": 4}, "unknown keys growth"),
    # kinds that take no n_seeds: any value is an unknown key
    "table1 n_seeds 100001": ("table1_scaling", {"n_seeds": 100_001}, "n_seeds"),
    "resolution n_seeds 100001": ("resolution_extrapolation", {"n_seeds": 100_001}, "n_seeds"),
    # upper bounds on the work one config asks for, each one past its bound
    "crlb n_seeds 100001": ("crlb_saturation", {"n_seeds": 100_001}, "n_seeds"),
    "refine n_seeds 100001": ("refine_fiber", {"n_seeds": 100_001}, "n_seeds"),
    "cycles [10001]": ("rwa_validity", {"cycles": [2, 10_001]}, "cycles"),
    "n_max 1000001": ("closed_forms", {"n_max": 1_000_001}, "n_max"),
    "n_max 10**20": ("closed_forms", {"n_max": 10**20}, "n_max"),
    "n_cases 100001": ("closed_forms", {"n_cases": 100_001}, "n_cases"),
    # 21 is odd and broken anyway; 22 is the first even size past the bound
    "sizes [22]": ("permutation_optimality", {"sizes": [4, 22]}, "sizes"),
    "trials 1001": ("permutation_optimality", {"trials": 1001}, "trials"),
    "grid_points 201": ("raman_three_level", {"grid_points": 201}, "grid_points"),
    # past 2**53 shots a count is no longer exact in float64
    "crlb point m_shots 2**53+1": (
        "crlb_saturation", {"points": [{**_POINT, "m_shots": 2**53 + 1}]}, "points entry 0: m_shots"
    ),
    "table1 m_shots 2**53+1": ("table1_scaling", {"m_shots": 2**53 + 1}, "m_shots"),
    # resolution_extrapolation takes no m_shots: any value is an unknown key
    "resolution m_shots 2**53+1": ("resolution_extrapolation", {"m_shots": 2**53 + 1}, "m_shots"),
    "refine m_shots 2**53+1": ("refine_fiber", {"m_shots": 2**53 + 1}, "m_shots"),
    # past 2**20 pulses the train power's phase is no longer exact enough
    "scan n_values 2**20+2": (
        "table1_scaling", {"scans": [{"kind": "1B", "n_values": [2, 4, 2**20 + 2]}]}, "scans entry 0: n_pulses"
    ),
    "crlb point n 2**20+2": ("crlb_saturation", {"points": [{**_POINT, "n": 2**20 + 2}]}, "points entry 0: n_pulses"),
}


@pytest.mark.parametrize("kind,change,names", _BAD_VALUES.values(), ids=_BAD_VALUES.keys())
def test_bad_param_values_exit_2_at_load(tmp_path, kind, change, names):
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], **change})
    with pytest.raises(ScenarioConfigError, match=names):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not list(out.glob("*"))


def test_non_finite_visibility_budget_exits_2(tmp_path):
    # gamma * t_e underflows to 0, so the budget -ln(epsilon) / (gamma t_e) is inf
    cfg = _config(tmp_path, "visibility_budget", {"lifetime_s": 1.0e300, "excited_window_s": 1.0e-300})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def _console_cases():
    """(expected exit code, config) of each case of CI's *Console script*
    step, one a line of its ``CASES`` heredoc: name, code, then the config
    as a printf format, whose only escape is ``\\n``."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    lines = re.search(r"<<'CASES'\n(.*?)\n *CASES\n", ci, re.DOTALL).group(1).splitlines()
    cases = [line.split(maxsplit=2) for line in lines]
    assert len(cases) >= 14 and not any("%" in c or "\\" in c.replace("\\n", "") for _, _, c in cases)
    return [pytest.param(int(code), config.replace("\\n", "\n"), id=name) for name, code, config in cases]


@pytest.mark.parametrize("expected,config", _console_cases())
def test_ci_console_script_cases_exit_and_write_nothing(tmp_path, expected, config):
    cfg = tmp_path / "case.yaml"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == expected
    assert not out.exists()


def test_raman_propagator_failure_exits_3(tmp_path):
    # the commutators of the Magnus step overflow
    cfg = _config(tmp_path, "raman_three_level", {"rabi": 1.0e300})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


@pytest.mark.parametrize(
    "change,names",
    [
        pytest.param({"transition_hz": 1.0e300}, "carrier cycles", id="transition_hz 1e300"),
        pytest.param({"detuning_fraction_map": -1.0e300}, "carrier cycles", id="laser at 1e300 omega"),
        pytest.param({"transition_hz": 1100.0}, "1078.0 carrier cycles", id="map pulse past the cap"),
        pytest.param({"duration": 1.0e300}, "carrier cycles", id="duration 1e300"),
        pytest.param({"detuning_fraction_map": 1.0e-300}, "nonzero detuning", id="detuning underflows"),
    ],
)
def test_raman_pulse_is_checked_before_any_propagation(tmp_path, monkeypatch, change, names):
    def propagation(*args):
        raise AssertionError("a propagation started")

    monkeypatch.setattr(_su2, "magnus_generators", propagation)
    monkeypatch.setattr(raman, "magnus_generators", propagation)
    cfg = _config(tmp_path, "raman_three_level", change)
    with pytest.raises(ScenarioConfigError, match=names):
        run_scenario(cfg, tmp_path / "direct")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def test_raman_cycle_cap_admits_ten_times_the_bundled_pulse():
    params = {**load_scenario_config(find_scenario("raman_three_level")).params, "transition_hz": 1000.0}
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    assert spec.carrier_cycles == pytest.approx(980.0)


def test_entry_defaults_are_filled_at_load(tmp_path):
    points = [_POINT, {**_POINT, "m_shots": 7}]
    cfg = load_scenario_config(_config(tmp_path, "crlb_saturation", {"points": points}))
    first, second = cfg.params["points"]
    assert first == {**_POINT, "n_delay": 0, "m_shots": 10_000, "theta": np.pi / 2}
    assert second == {**first, "m_shots": 7}
    cfg = load_scenario_config(_config(tmp_path, "table1_scaling", {}))
    assert [scan["n_delay_values"] for scan in cfg.params["scans"]] == [[0, 0, 0], [10, 32, 100]]


def _mutation_paths(kind):
    """Where a mutation of the tiny params of ``kind`` may act: each param,
    each key of each entry the tiny params hold, and the first item of each
    of their lists of numbers."""
    paths = []
    for name, key in PARAMS[kind].items():
        paths.append((name,))
        value = TINY_PARAMS[kind].get(name)
        if key.entries and value:
            paths += [(name, i, k) for i in range(len(value)) for k in key.entries]
        elif isinstance(value, list):
            paths.append((name, 0))
    return paths


#: Replacement values: wrong types, and zero, negative and non-finite numbers.
_MUTANTS = ("x", True, None, [1], 0, -1, float("nan"), float("inf"))


@pytest.mark.parametrize("kind", sorted(PARAMS))
@settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_configs_exit_with_a_typed_code(no_fits, kind, data):
    # dropped keys fall back to defaults and numbers stay small, so no
    # mutation starts a long run; a fit stops at the no_fits sentinel
    params = copy.deepcopy(TINY_PARAMS[kind])
    *head, last = data.draw(st.sampled_from(_mutation_paths(kind)), label="path")
    parent = params
    for step in head:
        parent = parent[step]
    mutant = data.draw(st.sampled_from(("drop",) + _MUTANTS), label="mutant")
    if mutant != "drop":
        parent[last] = mutant
    elif isinstance(parent, list) or last in parent:
        del parent[last]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = _config(Path(tmp), kind, params), Path(tmp) / "out"
        try:
            code = main(["run", str(cfg), "--out", str(out)])
        except FitRan:
            return
        # a run that fails writes nothing, not even its output directory
        assert code == 0 or not out.exists()
    assert code in (0, EXIT_SCHEMA, EXIT_NUMERIC, EXIT_WRAP)


def test_closed_forms_match_the_outcome_model(tmp_path):
    # the tiny run's third case is a phase_ref train
    cfg = _config(tmp_path, "closed_forms", TINY_PARAMS["closed_forms"])
    result = run_scenario(cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "closed_forms.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["1B", "2B", "phase_ref"]
    assert result["summary"]["worst_fidelity_error"] < 1e-9


def test_bundled_closed_forms_fidelity_errors_are_not_negative(tmp_path):
    # 1 - fidelity, formed by subtraction, read -2.2e-16 at rounding noise
    result = run_scenario("closed_forms", tmp_path)
    errors = [float(r.split(",")[-1]) for r in (tmp_path / "closed_forms.csv").read_text().splitlines()[1:]]
    assert len(errors) == 200
    assert min(errors) >= 0.0
    assert max(errors) == result["summary"]["worst_fidelity_error"] < 1e-15


def test_bundled_and_benchmark_configs_load(monkeypatch):
    bundled = [find_scenario(i["name"]) for i in list_scenarios()]
    benchmark = sorted((REPO / "perfbench" / "configs").rglob("*.yaml"))
    assert len(bundled) == 10 and benchmark
    for path in bundled + benchmark:
        cfg = load_scenario_config(path)
        assert set(cfg.params) == set(PARAMS[cfg.kind])
        # pyyaml without libyaml parses with the pure-Python loader, to the same config
        with monkeypatch.context() as m:
            m.delattr(yaml, "CSafeLoader", raising=False)
            assert load_scenario_config(path) == cfg


def _keys(table, where=()):
    """(path, key) of every key in a key table and in its entry tables."""
    for name, key in table.items():
        yield where + (name,), key
        if key.entries:
            yield from _keys(key.entries, where + (name,))


def _documented_rules():
    """{(kind, param) or (param, entry key): rule cell} of the two params
    tables of docs/formats.md, a blank first cell taking the one above."""
    section = (REPO / "docs" / "formats.md").read_text().split("### Params")[1].split("\n#")[0]
    rules, first = {}, None
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.split("|")[1:-1]]
        if not line.startswith("|") or cells[1] in ("param", "entry key") or cells[1].startswith("-"):
            continue
        first = cells[0] or first
        rules[first, cells[1]] = cells[3]
    return rules


def test_params_table_is_documented():
    rules = _documented_rules()
    rows = set()
    for kind, table in PARAMS.items():
        for path, key in _keys(table):
            row = (kind,) + path if len(path) == 1 else path
            rows.add(row)
            assert rules.get(row, "").startswith(key.wanted), (row, rules.get(row), key.wanted)
    assert set(rules) == rows
