"""The package metadata declares what the test suites import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SUITES = (ROOT / "tests", ROOT / "perfbench" / "tests")


def _top_level_imports(path: Path) -> set:
    """Root module names imported by the module-level statements of a file."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _local_modules() -> set:
    """Modules that this repository provides itself: the package under
    ``src`` and the helper modules next to the tests and the benchmark."""
    local = {p.name for p in (ROOT / "src").iterdir() if (p / "__init__.py").exists()}
    for folder in (*SUITES, ROOT / "perfbench"):
        local.update(p.stem for p in folder.glob("*.py"))
    return local


def _distribution(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")


def test_test_extra_declares_every_test_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        _distribution(r)
        for r in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    imported = set().union(*(_top_level_imports(p) for d in SUITES for p in d.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - _local_modules()
    assert third_party, "no third-party import found; the scan is broken"
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"
