"""Every public name and option is reached by something that checks the paper.

A name exported by ``combphase`` must be named in a file other than its own
module: another module of the package, a demo, the README, the acceptance
suite or the benchmark.  A name that only its own unit tests call is code
that no check of the paper reaches.  Likewise every defaulted parameter of
an exported function or dataclass must be set by some call in those files,
and every scenario config key by some bundled, benchmark or CI config.
"""
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import yaml

import combphase
from combphase.scenarios import PARAMS

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "combphase"

#: Spec and result types that reached functions build or return, so callers
#: need not name them.
EXEMPT = {
    "DephasingSpec",
    "ThermalSpec",
    "EstimationResult",
    "MeasurementRecord",
    "RefineTrace",
    "PhaseMapResult",
    "ScenarioConfig",
}


def _exports():
    """(module file, name) of each name ``combphase/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (PACKAGE / f"{node.module}.py", alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _readers():
    """The package modules, demos, README, acceptance suite and benchmark."""
    return [
        *PACKAGE.glob("*.py"),
        *(REPO / "demos").glob("*.py"),
        REPO / "README.md",
        REPO / "tests" / "test_acceptance.py",
        *(REPO / "perfbench").glob("*.py"),
    ]


def test_every_export_is_reached_outside_its_module():
    texts = {path: path.read_text() for path in _readers()}
    exports = _exports()
    assert exports
    unreached = [
        name
        for module, name in exports
        if name not in EXEMPT
        and not any(
            re.search(rf"\b{name}\b", text)
            for path, text in texts.items()
            if path not in (module, PACKAGE / "__init__.py")
        )
    ]
    assert not unreached, f"exported names that only their own tests reach: {unreached}"


def _calls(path):
    """Every ``ast.Call`` in a Python file, or in the README's python blocks."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return [node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)]


def test_every_option_is_set_outside_the_tests():
    calls = {}
    for path in _readers():
        for call in _calls(path):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(call)
    unset = []
    for _, name in _exports():
        obj = getattr(combphase, name)
        if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
            continue
        params = list(inspect.signature(obj).parameters.values())
        passed = set()
        for call in calls.get(name, []):
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                passed.update(p.name for p in params)  # *args or **kwargs may set any of them
            passed.update(p.name for p in params[: len(call.args)] if p.kind != p.KEYWORD_ONLY)
            passed.update(k.arg for k in call.keywords)
        unset += [f"{name}({p.name}=)" for p in params if p.default is not p.empty and p.name not in passed]
    assert not unset, f"options that only tests set: {unset}"


def _configs():
    """(kind, params) of every bundled, benchmark and CI config.  CI writes
    its configs with printf, from ``kind: <kind>\\nparams: {...}\\n`` strings."""
    paths = [*(PACKAGE / "scenarios").glob("*.yaml"), *(REPO / "perfbench" / "configs").rglob("*.yaml")]
    configs = [yaml.safe_load(path.read_text()) for path in paths]
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    configs += [
        {"kind": kind, "params": yaml.safe_load(params)}
        for kind, params in re.findall(r"kind: (\w+)\\nparams: (\{.*?\})\\n", ci)
    ]
    return [(c["kind"], c.get("params") or {}) for c in configs]


def test_every_config_key_is_set_outside_the_tests():
    # the option test above counts a runner that passes a key on, such as
    # ``tol=p["key"]``, as a setter, whether or not any config sets the key
    configs = _configs()
    assert len(configs) > 30
    unset = []
    for kind, table in PARAMS.items():
        params = [p for k, p in configs if k == kind]
        for name, key in table.items():
            if not any(name in p for p in params):
                unset.append(f"{kind}.{name}")
            for entry_key in key.entries or {}:
                if not any(entry_key in e for p in params for e in p.get(name, [])):
                    unset.append(f"{kind}.{name}.{entry_key}")
    assert not unset, f"config keys that only tests set: {unset}"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reaches(text: str) -> list:
    """(line, "module.name") of each underscore name of a package module
    that the source ``text`` imports or reads as an attribute.  Importing a
    public name from a private module, such as ``_su2``, is no reach."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    tree = ast.parse(text)
    bound, reaches = {}, []  # bound: local name of each package module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "combphase" and module in modules and alias.asname:
                    bound[alias.asname] = module
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:  # relative to the package: ``from .x`` or ``from .``
                module = node.module or ""
            elif package != "combphase":
                continue
            for alias in node.names:
                if not module and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reaches.append((node.lineno, f"{module or 'combphase'}.{alias.name}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            if _private(node.attr):
                reaches.append((node.lineno, f"{bound[node.value.id]}.{node.attr}"))
    return sorted(reaches)


def test_no_module_reaches_into_another_modules_private_names():
    # the detector finds a planted import and a planted read, and lets a
    # public name of a private module pass
    planted = (
        "from . import estimation, __version__\n"
        "from .pulses import _x, rwa_row\n"
        "from ._su2 import su2_matrix\n"
        "import combphase.raman as r\n"
        "estimation._streams([1]), r._y, estimation.iterative_refine\n"
    )
    assert _private_reaches(planted) == [(2, "pulses._x"), (5, "estimation._streams"), (5, "raman._y")]
    reaches = {path.name: _private_reaches(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert len(reaches) > 5
    assert not any(reaches.values()), {name: r for name, r in reaches.items() if r}
