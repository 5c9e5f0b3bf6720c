import copy
import json
import os
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
from combphase import _su2, estimation, raman, scenarios
from combphase.cli import EXIT_NUMERIC, EXIT_SCHEMA, EXIT_WRAP, main
from combphase.errors import ScenarioConfigError
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
    "table1_scaling": {"scans": [{"kind": "1B", "n_values": [4, 8, 16]}], "m_shots": 200, "n_seeds": 3},
    "crlb_saturation": {"n_seeds": 3, "points": [{"kind": "1B", "n": 10, "dphi": 0.02, "m_shots": 1000}]},
    "resolution_extrapolation": {"reduced_points": [[4, 2], [8, 4]], "m_shots": 200, "n_seeds": 3},
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


def test_yaml_parse_error_is_config_error(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("schema_version: 1\nname: broken\nkind: [unclosed\n")
    with pytest.raises(ScenarioConfigError, match="YAML"):
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


@pytest.mark.parametrize("module", ["jsonschema", "scipy"])
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
    assert summary["all_locked"]


#: estimator studies each fitting kind's tiny config runs: one per point
_TINY_STUDIES = {"table1_scaling": 3, "crlb_saturation": 1, "resolution_extrapolation": 2}


@pytest.mark.parametrize("kind", sorted(_TINY_STUDIES))
def test_study_runs_write_their_diagnostics_to_the_manifest(tmp_path, monkeypatch, kind):
    studies = []
    study = estimation.estimator_study

    def spy(*args):
        result = study(*args)
        studies.append(result[2])
        return result

    monkeypatch.setattr(estimation, "estimator_study", spy)
    cfg = _config(tmp_path, kind, TINY_PARAMS[kind])
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in "ab"]
    assert len(studies) == 2 * _TINY_STUDIES[kind]
    keys = ("fits", "distinct_records", "nonconverged", "pinned", "score_evaluations")
    expected = {k: sum(d[k] for d in studies[: _TINY_STUDIES[kind]]) for k in keys}
    assert manifests[0]["diagnostics"] == manifests[1]["diagnostics"] == expected
    assert expected["fits"] == _TINY_STUDIES[kind] * TINY_PARAMS[kind]["n_seeds"]
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
        "score_evaluations": sum(est.n_evaluations for _, est, _ in fits),
    }
    assert diagnostics["pinned"] == diagnostics["backoffs"] == 1
    assert diagnostics["score_evaluations"] > diagnostics["fits"]


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
    # each stage samples at a new true residual, so a model keeps one sampling entry
    assert all(sum(k == "probs" or k[:1] == ("probs",) for k in m.cache) <= 1 for m in first[0].values())


def test_cli_numeric_failure_exit_code(tmp_path):
    cfg = tmp_path / "impossible.yaml"
    cfg.write_text(yaml.safe_dump({
        "schema_version": 1,
        "name": "impossible_tolerance",
        "kind": "rwa_validity",
        "params": {"cycles": [5], "integration_tol": 1e-16},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_NUMERIC


def test_study_without_a_converged_fit_exits_3(tmp_path):
    # every fit of this point stops one fringe-grid step from 0 unconverged,
    # so its variance would read 0 and its ratio a perfect estimator
    point = {"kind": "1A", "n": 7, "dphi": 0.013, "theta": 0.9}
    cfg = _config(tmp_path, "crlb_saturation", {"points": [point], "n_seeds": 20})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not list(out.glob("crlb_saturation*"))


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


@pytest.mark.parametrize("kind", sorted(PARAMS))
def test_every_kind_honours_json_format(tmp_path, kind):
    assert set(TINY_PARAMS) == set(PARAMS)
    out = tmp_path / "out"
    result = run_scenario(_config(tmp_path, kind, TINY_PARAMS[kind]), out, fmt="json")
    assert not list(out.glob("*.csv"))
    for artifact in result["artifacts"]:
        assert artifact.endswith(".json")
        json.loads(Path(artifact).read_text())


def test_bundled_name_wins_over_same_named_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "visibility_budget").mkdir()
    assert find_scenario("visibility_budget").is_file()
    assert main(["run", "visibility_budget", "--out", "visibility_budget"]) == 0


def test_negative_seed_is_config_error(tmp_path):
    with pytest.raises(ScenarioConfigError):
        run_scenario("visibility_budget", tmp_path, seed=-1)
    assert main(["run", "visibility_budget", "--seed", "-1", "--out", str(tmp_path)]) == EXIT_SCHEMA


def test_unknown_param_rejected_before_fitting(tmp_path, no_fits):
    cfg = _config(tmp_path, "refine_fiber", {"n_seed": 2}, name="typo")
    with pytest.raises(ScenarioConfigError, match="n_seed"):
        load_scenario_config(cfg)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == EXIT_SCHEMA
    assert not (tmp_path / "refine_fiber.csv").exists()


def test_missing_required_param_rejected(tmp_path):
    with pytest.raises(ScenarioConfigError, match="points"):
        load_scenario_config(_config(tmp_path, "crlb_saturation", {"n_seeds": 3}))


def test_scaling_scan_needs_three_sizes(tmp_path, no_fits):
    valid = {"kind": "1B", "n_values": [4, 8, 16]}
    bad_scans = {
        "two sizes": [{"kind": "1B", "n_values": [10, 20]}],
        "mismatched delays": [{"kind": "2B", "n_values": [10, 20, 40], "n_delay_values": [4, 8]}],
        "chi = 1 throughout (1A)": [{"kind": "1A", "n_values": [10, 20, 40]}],
        "repeated chi": [{"kind": "1B", "n_values": [10, 20, 10]}],
        "odd 1B size": [{"kind": "1B", "n_values": [10, 20, 31]}],
        "bad scan after a valid one": [valid, {"kind": "1B", "n_values": [10, 20]}],
        "two scans of one kind": [valid, {"kind": "1B", "n_values": [32, 64, 128]}],
    }
    for name, scans in bad_scans.items():
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
            "resolution_extrapolation", {"reduced_points": [[8, 4], [7, 4]]}, "even", id="odd 2B size",
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
    # a config that passes load, such as an odd 1B size, fails before any
    # file is written and leaves no output directory behind
    assert not out.exists() and not (tmp_path / "direct").exists()


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


#: (kind, param, bad value); an n_seeds case is named kind-value, an m_shots one kind-m_shots value
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
    # a study row is a ddof = 1 spread, so a study needs two seeds; a lock run
    # needs one, and a record one shot
    cfg = _config(tmp_path, kind, {**TINY_PARAMS[kind], name: value})
    with pytest.raises(ScenarioConfigError, match=name):
        load_scenario_config(cfg)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_SCHEMA
    assert not list(out.glob("*"))


@pytest.mark.parametrize(
    "params,name",
    [({"max_stages": 0}, "max_stages"), ({"growth": 1}, "growth"), ({"m_shots": 0}, "m_shots")],
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
    "envelope foo": ("rwa_validity", {"envelope": "foo"}, "envelope"),
    "integration_tol x": ("rwa_validity", {"integration_tol": "x"}, "integration_tol"),
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
    "second point's seed_offset x": (
        "crlb_saturation",
        {"points": [_POINT, {**_POINT, "seed_offset": "x"}]},
        "points entry 1: seed_offset",
    ),
    # upper bounds on the work one config asks for, each one past its bound
    "table1 n_seeds 100001": ("table1_scaling", {"n_seeds": 100_001}, "n_seeds"),
    "crlb n_seeds 100001": ("crlb_saturation", {"n_seeds": 100_001}, "n_seeds"),
    "resolution n_seeds 100001": ("resolution_extrapolation", {"n_seeds": 100_001}, "n_seeds"),
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
    "resolution m_shots 2**53+1": ("resolution_extrapolation", {"m_shots": 2**53 + 1}, "m_shots"),
    "refine m_shots 2**53+1": ("refine_fiber", {"m_shots": 2**53 + 1}, "m_shots"),
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
    assert not list(out.glob("*"))


def test_raman_propagator_failure_exits_3(tmp_path):
    # the commutators of the Magnus step overflow
    cfg = _config(tmp_path, "raman_three_level", {"rabi": 1.0e300})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert not list(out.glob("raman_*"))


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
    assert not list(out.glob("*"))


def test_raman_cycle_cap_admits_ten_times_the_bundled_pulse():
    params = {**load_scenario_config(find_scenario("raman_three_level")).params, "transition_hz": 1000.0}
    spec = scenarios._raman_spec(params, "detuning_fraction_map")
    assert spec.carrier_cycles == pytest.approx(980.0)


def test_entry_defaults_are_filled_at_load(tmp_path):
    points = [_POINT, {**_POINT, "seed_offset": 7}]
    cfg = load_scenario_config(_config(tmp_path, "crlb_saturation", {"points": points}))
    first, second = cfg.params["points"]
    assert first == {**_POINT, "n_delay": 0, "m_shots": 10_000, "theta": np.pi / 2, "seed_offset": 0}
    assert second["seed_offset"] == 7
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
        cfg = _config(Path(tmp), kind, params)
        try:
            code = main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
        except FitRan:
            return
    assert code in (0, EXIT_SCHEMA, EXIT_NUMERIC, EXIT_WRAP)


def test_closed_forms_match_the_outcome_model(tmp_path):
    # the tiny run's third case is a phase_ref train
    cfg = _config(tmp_path, "closed_forms", TINY_PARAMS["closed_forms"])
    result = run_scenario(cfg, tmp_path / "out")
    rows = (tmp_path / "out" / "closed_forms.csv").read_text().splitlines()
    assert [r.split(",")[1] for r in rows[1:]] == ["1B", "2B", "phase_ref"]
    assert result["summary"]["worst_fidelity_error"] < 1e-9


def test_bundled_and_benchmark_configs_load():
    bundled = [find_scenario(i["name"]) for i in list_scenarios()]
    benchmark = sorted((REPO / "perfbench" / "configs").rglob("*.yaml"))
    assert len(bundled) == 10 and benchmark
    for path in bundled + benchmark:
        cfg = load_scenario_config(path)
        assert set(cfg.params) == set(PARAMS[cfg.kind])


def _keys(table, where=()):
    """(path, key) of every key in a key table and in its entry tables."""
    for name, key in table.items():
        yield where + (name,), key
        if key.entries:
            yield from _keys(key.entries, where + (name,))


def test_params_table_is_documented():
    doc = (REPO / "docs" / "formats.md").read_text()
    for kind, table in PARAMS.items():
        for path, key in _keys(table):
            assert f"`{path[-1]}`" in doc, (kind, path)
            assert key.wanted in doc, (kind, path, key.wanted)
