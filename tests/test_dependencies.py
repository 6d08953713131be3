"""The library runs on the standard library alone, and its import stays
light: no ``dataclasses`` or ``typing``, whose imports cost more than the
whole package, and no ``fractions`` (with the ``decimal`` it loads): exact
values are integer (numerator, denominator) pairs.  ``import blc`` loads
no layer at all; each loads on first use, also under racing threads and
when unpickling."""

import ast
import pickle
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


def _fresh(statements: str, stdin: bytes = b"") -> str:
    """What statements print in a fresh interpreter, after ``import blc``.

    Without site, the only modules loaded are blc's and those it imports.
    """
    script = f"import sys; sys.path.insert(0, sys.argv[1]); import blc\n{statements}"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(ROOT / "src")],
        input=stdin,
        capture_output=True,
        timeout=60,
        check=True,
    )
    return done.stdout.decode()


def _loaded_after(statements: str) -> set[str]:
    """The blc submodules and HEAVY modules loaded once statements ran."""
    loaded = _fresh(f"{statements}\nprint(*sys.modules)").split()
    return {m for m in loaded if m.startswith("blc.") or m in HEAVY}


def test_importing_the_package_loads_no_submodule_and_nothing_heavy():
    assert _loaded_after("pass") == set()


def test_a_submodule_name_loads_that_submodule_alone():
    assert _loaded_after("blc.counting") == {"blc.counting"}


def test_an_export_loads_every_submodule_and_binds_every_export():
    bound = f"""
blc.count
for name in {SUBMODULES!r}:
    module = sys.modules["blc." + name]
    for key in module.__all__:
        assert vars(blc)[key] is getattr(module, key), key
"""
    layers = {f"blc.{m}" for m in SUBMODULES}
    assert _loaded_after(bound) == layers | {"blc._record"}


def test_a_dunder_probe_loads_nothing():
    assert _loaded_after("assert getattr(blc, '__wrapped__', None) is None") == set()


def test_an_unknown_name_raises_the_usual_attribute_error():
    probe = "try:\n    blc.nope\nexcept AttributeError as e:\n    print(e)"
    assert _fresh(probe) == "module 'blc' has no attribute 'nope'\n"


def test_racing_first_touches_each_get_the_modules_own_object():
    # eight threads, five exports and three submodules, switching every
    # microsecond so that their imports interleave
    race = """
import threading
sys.setswitchinterval(1e-6)
touches = {"count": "counting", "infer": "typecheck", "sample": "enumeration",
           "sigma": "asymptotics", "encode": "terms", "counting": None,
           "typecheck": None, "asymptotics": None}
start = threading.Barrier(len(touches))
got, errors = {}, []
def touch(name):
    start.wait(30)
    try:
        got[name] = getattr(blc, name)
    except Exception as e:
        errors.append(repr(e))
threads = [threading.Thread(target=touch, args=(name,)) for name in touches]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads)
assert errors == [], errors
for name, owner in touches.items():
    own = sys.modules["blc." + (owner or name)]
    assert got[name] is (getattr(own, name) if owner else own), name
print("ok")
"""
    assert _fresh(race) == "ok\n"


def test_a_deep_term_and_type_unpickle_after_a_bare_import():
    from blc.terms import Abs, Index
    from blc.typecheck import infer

    term = Index(1)
    for _ in range(5000):
        term = Abs(term)
    unpickle = """
import pickle
term, ty = pickle.loads(sys.stdin.buffer.read())
chain = blc.terms.Index(1)
for _ in range(5000):
    chain = blc.terms.Abs(chain)
print(term == chain, ty == blc.typecheck.infer(chain).type)
"""
    stdin = pickle.dumps((term, infer(term).type))
    assert _fresh(unpickle, stdin) == "True True\n"


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
