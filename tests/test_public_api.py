"""Every public name is reached by something that checks the paper.

A name exported by ``combphase`` must be named in a file other than its own
module: another module of the package, a demo, the README, the acceptance
suite or the benchmark.  A name that only its own unit tests call is code
that no check of the paper reaches.
"""
import ast
import re
from pathlib import Path

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


def test_every_export_is_reached_outside_its_module():
    readers = [
        *PACKAGE.glob("*.py"),
        *(REPO / "demos").glob("*.py"),
        REPO / "README.md",
        REPO / "tests" / "test_acceptance.py",
        *(REPO / "perfbench").glob("*.py"),
    ]
    texts = {path: path.read_text() for path in readers}
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
