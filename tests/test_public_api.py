"""Every public name and option is reached by something that checks the paper.

A name exported by ``combphase`` must be named in a file other than its own
module: another module of the package, a demo, the README, the acceptance
suite or the benchmark.  A name that only its own unit tests call is code
that no check of the paper reaches.  Likewise every defaulted parameter of
an exported function or dataclass must be set by some call in those files.
"""
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import combphase

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
