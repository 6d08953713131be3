"""Layer spans recorded from outside the library.

``Tracer.active()`` swaps the public functions at each ``blc`` module
boundary for timing wrappers, in every ``blc`` namespace that holds
them (so ``sample`` calling ``unrank``, ``count_typable`` calling
``enumeration.unrank`` and the CLI's imported names are all seen), and
restores the originals on exit.  Each wrapped call adds its duration,
minus the time of wrapped calls nested in it, to its name's self time.

Spans (id, parent id, op id, name, start, end) are kept in memory up
to ``SPAN_CAP`` and written out when the run ends.  Count-table
lookups and sampler draws happen thousands of times per operation, so
they are counted and timed but get no span of their own; every other
call is also counted under the name of the wrapped call it is nested
in (``calls_under``), which is how census terms are counted.  A fill that
finds the table already large enough is passed straight through.
Census work fanned out to pool processes is not seen by the wrappers,
so a census with ``jobs`` > 1 is timed under its own name,
``typecheck.census_pool``: its self time is the parent's wall time
waiting for the workers, and in-process census self time stays apart.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# (name, module, attribute, keeps spans)
TARGETS = (
    ("terms.encode", "blc.terms", "encode", True),
    ("terms.decode", "blc.terms", "decode", True),
    ("counting.fill", "blc.counting", "CountTable.ensure", True),
    ("counting.lookup", "blc.counting", "CountTable.count", False),
    ("enumeration.unrank", "blc.enumeration", "unrank", True),
    ("enumeration.rank", "blc.enumeration", "rank", True),
    ("enumeration.sample", "blc.enumeration", "sample", True),
    ("enumeration.sample_typable", "blc.enumeration", "sample_typable", True),
    ("enumeration.draw", "blc.enumeration", "Sampler.rank_below", False),
    ("typecheck.is_typable", "blc.typecheck", "is_typable", True),
    ("typecheck.infer", "blc.typecheck", "infer", True),
    ("typecheck.census", "blc.typecheck", "count_typable", True),
    ("asymptotics.sigma", "blc.asymptotics", "sigma", True),
    ("asymptotics.constants", "blc.asymptotics", "constants", True),
    ("asymptotics.convergence", "blc.asymptotics", "convergence_series", True),
    ("cli.main", "blc.cli", "main", True),
)


SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.calls_under: Counter[tuple[str, str]] = Counter()  # (parent name, name)
        self.returned: Counter[str] = Counter()
        self.max_n = 0
        self.op = "setup"
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [child seconds, span id, name] per open call
        self._next_id = 1
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, keep_spans: bool):
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, parent_name = (stack[-1][1], stack[-1][2]) if stack else (0, None)
            if keep_spans:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer.calls_under[parent_name, name] += 1
            else:
                span_id = parent
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                tracer.returned[name] += 1
                return result
            finally:
                end = perf()
                stack.pop()
                took = end - start
                tracer.self_s[name] += took - frame[0]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += took
                if keep_spans:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, parent, tracer.op, name, start, end))
                    else:
                        tracer.spans_dropped += 1

        return wrapper

    def _wrap_ensure(self, fn):
        timed = self._wrap("counting.fill", fn, True)
        tracer = self

        def ensure(table, n):
            if n <= table.max_n:
                return fn(table, n)
            try:
                return timed(table, n)
            finally:
                tracer.max_n = max(tracer.max_n, table.max_n)

        return ensure

    def _wrap_census(self, fn):
        inline = self._wrap("typecheck.census", fn, True)
        pooled = self._wrap("typecheck.census_pool", fn, True)

        def count_typable(n, closed=True, jobs=None, **kwargs):
            timed = pooled if jobs is not None and jobs > 1 else inline
            return timed(n, closed, jobs, **kwargs)

        return count_typable

    def _wrapper(self, name: str, fn, keep_spans: bool):
        if name == "counting.fill":
            return self._wrap_ensure(fn)
        if name == "typecheck.census":
            return self._wrap_census(fn)
        return self._wrap(name, fn, keep_spans)

    def install(self) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "blc" or k.startswith("blc.")]
        for name, module, attr, keep_spans in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[method]
                wrapped = self._wrapper(name, orig, keep_spans)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig, keep_spans)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
                        self._undo.append((ns, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{op},{name},{start:.9f},{end:.9f}\n")
