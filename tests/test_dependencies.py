"""The library runs on the standard library alone, and its import stays
light: no ``dataclasses`` or ``typing``, whose imports cost more than the
whole package, and no ``fractions`` (with the ``decimal`` it loads): exact
values are integer (numerator, denominator) pairs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "blc").glob("*.py"))
HEAVY = ["dataclasses", "decimal", "fractions", "inspect", "typing"]
SUBMODULES = ["asymptotics", "counting", "enumeration", "terms", "typecheck"]


def _absolute_imports(path: Path) -> list[str]:
    """Top-level names of every absolute import in the module at path."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_only_the_standard_library(path):
    outside = [m for m in _absolute_imports(path) if m not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_neither_dataclasses_nor_typing(path):
    assert [m for m in _absolute_imports(path) if m in ("dataclasses", "typing")] == []


def test_importing_the_package_loads_every_submodule_and_nothing_heavy():
    # a fresh interpreter without site, so only blc's own imports count
    script = "import sys; sys.path.insert(0, sys.argv[1]); import blc; print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(done.stdout.split())
    assert [m for m in HEAVY if m in loaded] == []
    assert [m for m in SUBMODULES if f"blc.{m}" not in loaded] == []


def test_the_package_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


def test_the_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        config = tomllib.load(f)
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "blc.__version__"}
