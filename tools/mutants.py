"""Mutation runner: each mutant is one exact edit to the source, and
tier-1 must fail on it, so "the tests would catch it" can be re-checked.

    python tools/mutants.py

Every edit is checked first: its old string must occur exactly once in
its file, or the run stops before any test runs.  Then the unmutated
tree, and each mutant in turn, is copied to a temporary directory and
tier-1 runs there with ``-x``, under the tests' own 120-s per-test
watchdog (``tests/conftest.py``).  One line per run: killed or survived,
the first failing (or interrupted) test, and the time taken.

Equivalent mutants change no output, so tier-1 passes them by design;
each is listed with its reason, and for them "survived" is the expected
verdict.  The exit status is 1 if a mutant gets the other verdict, or if
the unmutated tree fails.

A full run took 7 to 9.5 minutes on 2-core x86_64 with Python 3.11.7:
the unmutated tree and each equivalent mutant run all of tier-1 (20 to
40 s each), and the occurs-check mutant stalls until the watchdog fires.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    equivalent: str = ""  # why tier-1 cannot kill it; empty for a real fault


MUTANTS = [
    # typecheck: the census walk's leaf typing, inference's free slots and the occurs check
    Mutant("leaf function not unified", "src/blc/typecheck.py",
           "if unify(f, (a, want), trail):", "if True:"),
    Mutant("fresh cell per free slot at a leaf argument", "src/blc/typecheck.py",
           "else context[arg - depth - 2]", "else [None]"),
    Mutant("fresh cell per free slot at a leaf function", "src/blc/typecheck.py",
           "else context[fun - depth - 2]", "else [None]"),
    Mutant("fresh cell per free slot at a leaf body", "src/blc/typecheck.py",
           "if depth else context[0], cod, trail)", "if depth else [None], cod, trail)"),
    Mutant("leaf body's index 2 bound to its own binder", "src/blc/typecheck.py",
           "unify(dom if body == 2 else binders[-1] if depth else context[0], cod, trail)",
           "unify(dom if body <= 3 else binders[-1] if depth else context[0], cod, trail)"),
    Mutant("leaf body's index 1 bound to the outer binder", "src/blc/typecheck.py",
           "unify(dom if body == 2 else binders[-1] if depth else context[0], cod, trail)",
           "unify(binders[-1] if depth else dom if body == 2 else context[0], cod, trail)"),
    Mutant("inference keys a free slot by its index, not index - depth", "src/blc/typecheck.py",
           "context.setdefault(slot, want)", "context.setdefault(t.i, want)"),
    Mutant("inference makes a free slot's cell fresh, not its first expected type",
           "src/blc/typecheck.py",
           "context.setdefault(slot, want)", "context.setdefault(slot, [None])",
           equivalent="the first unify binds the expected type to the fresh cell, the same constraint"),
    Mutant("census drops the pending holes after a leaf argument", "src/blc/typecheck.py",
           "after = rest", "after = None"),
    Mutant("census counts nothing when a leaf function ends the chain", "src/blc/typecheck.py",
           "found += walk(after) if after else 1", "found += walk(after) if after else 0"),
    Mutant("inference takes a float free_count", "src/blc/typecheck.py",
           "    free_count = operator.index(free_count)\n", ""),
    Mutant("census takes a float size", "src/blc/typecheck.py",
           "    n = operator.index(n)\n", ""),
    Mutant("no occurs check", "src/blc/typecheck.py",
           "if u is y:\n                        return False",
           "if u is y:\n                        pass"),
    # enumeration: integer conversion, rank drawing, scan direction
    Mutant("unrank takes a float rank", "src/blc/enumeration.py",
           "    k = operator.index(k)\n", ""),
    Mutant("Sampler takes a float seed", "src/blc/enumeration.py",
           "seed = operator.index(seed)", "seed = seed"),
    Mutant("sample_typable takes a non-integer max_attempts", "src/blc/enumeration.py",
           "    max_attempts = operator.index(max_attempts)\n", ""),
    Mutant("rank_below accepts total", "src/blc/enumeration.py",
           "if value < total:", "if value <= total:"),
    Mutant("unrank scans application blocks one way", "src/blc/enumeration.py",
           "if 2 * h <= app_total:", "if True:",
           equivalent="the scan from the top is only a shortcut; from the bottom it finds the same block"),
    # counting: locks, the cone's depth and the packed pass's slot width
    Mutant("no lock in ensure", "src/blc/counting.py",
           "        with self._lock:\n            a = self._inf",
           "        if True:\n            a = self._inf"),
    Mutant("no lock in _fill_cone", "src/blc/counting.py",
           "        with self._lock:\n            inf = self._inf",
           "        if True:\n            inf = self._inf"),
    Mutant("_saturation_depth one short", "src/blc/counting.py",
           "return (n + 1 - m) // 3 if", "return (n - 2 - m) // 3 if"),
    Mutant("closed-census pruning with or", "src/blc/typecheck.py",
           "not (live[depth][fun] and live[depth][arg])",
           "not (live[depth][fun] or live[depth][arg])"),
    Mutant("packed slots 95% of last bits wide", "src/blc/counting.py",
           "w, w2, w3 = last + 2, 2 * last + 4, 3 * last + 6",
           "w = 95 * last // 100\n    w2, w3 = 2 * w, 3 * w"),
    Mutant("packed slots last bits wide", "src/blc/counting.py",
           "w, w2, w3 = last + 2, 2 * last + 4, 3 * last + 6",
           "w, w2, w3 = last, 2 * last, 3 * last",
           equivalent="still exact: count(m, s) < 2^s, so no read slot reaches 2^last"),
    # blc: the lazy layers
    Mutant("lazy layer read from sys.modules without the import lock", "src/blc/__init__.py",
           '    return __import__(f"{__name__}.{name}", fromlist=["__all__"])',
           '    loaded = __import__("sys").modules.get(f"{__name__}.{name}")\n'
           '    return loaded or __import__(f"{__name__}.{name}", fromlist=["__all__"])'),
    # asymptotics: exact roots and sigma's seeded bisection
    Mutant("bisection drops the exact-root return", "src/blc/asymptotics.py",
           "    if not _sign(q, num, d):\n        return num, d\n", ""),
    Mutant("bound_discriminant takes a float bound", "src/blc/asymptotics.py",
           "    m = operator.index(m)\n", ""),
    Mutant("sigma(0) bisected", "src/blc/asymptotics.py",
           "    if not m:\n        return 1.0", "    if False:\n        return 1.0"),
    Mutant("sigma seeds from a non-finite float", "src/blc/asymptotics.py",
           "if math.isfinite(z) else 0", "if True else 0"),
    Mutant("sigma bisects a missed cell", "src/blc/asymptotics.py",
           "a, b = 0, den  # the seed missed", "pass  # the seed missed"),
    Mutant("sigma always bisects all of [0, 1]", "src/blc/asymptotics.py",
           "if not _sign(p, a, den) < 0 < _sign(p, b, den):", "if True:"),
    Mutant("sigma seed one cell right", "src/blc/asymptotics.py",
           "    b = a + finest\n", "    a += finest\n    b = a + finest\n"),
    Mutant("sigma seed from four Newton steps", "src/blc/asymptotics.py",
           "for _ in range(8):", "for _ in range(4):"),
    Mutant("sigma seed from twelve Newton steps", "src/blc/asymptotics.py",
           "for _ in range(8):", "for _ in range(12):",
           equivalent="the steps have converged by the eighth, so more name the same cell"),
]


def _check() -> None:
    for mutant in MUTANTS:
        found = (ROOT / mutant.path).read_text().count(mutant.old)
        if found != 1:
            sys.exit(f"mutant {mutant.name!r}: its old string occurs {found} times in {mutant.path}")


def _tier1(mutant: Mutant | None) -> tuple[str, float]:
    """Run tier-1 with -x on a mutated copy of the tree: the first
    failing or interrupted test, or "" if it passed, and the time."""
    with tempfile.TemporaryDirectory(prefix="blc-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-out"))
        if mutant:
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-v", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - started
    tests = [line for line in proc.stdout.splitlines() if line.startswith("tests/") and "::" in line]
    for line in tests:
        if " FAILED" in line or " ERROR" in line:
            return line.split()[0], elapsed
    if proc.returncode == 0:
        return "", elapsed
    last = tests[-1].split()[0] if tests else "collection"
    return f"{last} (interrupted, exit {proc.returncode})", elapsed


def main() -> int:
    _check()
    failed, elapsed = _tier1(None)
    print(f"{'passed' if not failed else 'FAILED':<9} unmutated tree  {failed}  {elapsed:.1f} s", flush=True)
    if failed:
        return 1
    wrong = 0
    for mutant in MUTANTS:
        killer, elapsed = _tier1(mutant)
        verdict = "killed" if killer else "survived"
        expected = "survived" if mutant.equivalent else "killed"
        wrong += verdict != expected
        note = killer or (f"equivalent: {mutant.equivalent}" if mutant.equivalent else "")
        flag = "" if verdict == expected else "  UNEXPECTED"
        print(f"{verdict:<9} {mutant.name}  {note}  {elapsed:.1f} s{flag}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
