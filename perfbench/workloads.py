"""The three workloads: how their operations are generated, run and checked.

A workload is an endless stream of rounds.  Round r of seed s is built
from ``random.Random(f"{workload}/{s}/{r}")`` alone, so the operation
list is a pure function of the seed.  Every round holds the same mix
in the same order (the same size strata, bounds and operation kinds);
the seed picks the exact sizes inside each stratum, the sampler seeds
and the ranks drawn.  A time-bounded run therefore sees the same mix
whatever the seed, and a run cut mid-round is cut at the same place.

Checks compare every output with ``oracle``, which shares no code with
the library; ``check`` returns None for a correct output, otherwise a
one-line reason.  The oracle counts are built before the timed phase
and each output is checked as soon as its op returns, outside the
op's timer, so a run keeps no outputs and its memory does not grow
with the number of operations it completes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass

import oracle

INF = math.inf
WORKLOADS = ("counts", "sample", "typable")

# counts: one-shot queries on fresh tables; n is drawn in [base, base + WIDTH).
# A run holds only about nine rounds, so the strata are narrow: otherwise the
# seed's choice of n inside them (fill cost grows as n^3) moves the medians.
COUNT_STRATA = tuple(range(60, 300, 20))
COUNT_WIDTH = 5
COUNT_BOUNDS = (0, INF, 1, INF, 2, 0, INF, 3, 0, INF, 1, 5)  # rotated per round
COUNT_ORDER = (0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6)  # light and heavy alternate
ROW_BOUNDS = (0, 1, INF)
ROW_SIZES = (100, 140, 180)  # max_n drawn in [size, size + COUNT_WIDTH)
SIGMA_BOUNDS = range(1, 31)

# sample: uniform draws on the warmed shared table; n in [base, base + WIDTH).
SAMPLE_STRATA = tuple(range(50, 400, 50))
SAMPLE_WIDTH = 50
SAMPLE_BOUNDS = (0, INF)

# typable: censuses (n, bound, jobs) and typable draws with n in [base, base + WIDTH).
# 15 censuses and 20 draws make 35 ops a round, so the tenth of the ops beyond
# the p90 tail ends half-way through one census's share, not on the edge
# between two.  The pool censuses are mid-sized ones: a pool census's time
# hangs on the second core being free, and the heaviest set the tail.
CENSUS = tuple((n, 0, 2 if n in (19, 20) else 1) for n in range(13, 23)) + tuple(
    (n, INF, 2 if n == 17 else 1) for n in range(16, 21)
)
TYPABLE_STRATA = tuple(range(40, 130, 9))
TYPABLE_WIDTH = 9

# Size each workload's warm state fills the shared count table to.
WARM_N = {"counts": 0, "sample": 400, "typable": 130}

# The percentile op_tail_ms reads on each workload: the highest of 90, 99,
# ... that a 30-s run had at least ten samples beyond when the benchmark was
# set up (counts about 150 ops, typable about 700, sample about 9000).  It is fixed
# per workload, not picked per run from the op count, so a run that
# completes more ops reads the same percentile as one that completes fewer.
TAIL_PERCENTILE = {"counts": 90.0, "sample": 99.0, "typable": 90.0}


@dataclass(frozen=True, slots=True)
class Op:
    kind: str
    n: int = 0
    m: int | float = 0
    seed: int = 0
    jobs: int = 1


def _counts_round(rng: random.Random, r: int) -> list[Op]:
    counts = [
        Op("count", base + rng.randrange(COUNT_WIDTH), COUNT_BOUNDS[(i + r) % len(COUNT_BOUNDS)])
        for i, base in enumerate(COUNT_STRATA)
    ]
    ops = [counts[i] for i in COUNT_ORDER]
    ops.insert(4, Op("row", ROW_SIZES[r % len(ROW_SIZES)] + rng.randrange(COUNT_WIDTH)))
    ops.insert(9, Op("constants"))
    ops.append(Op("sigma"))
    return ops


def _sample_round(rng: random.Random, r: int) -> list[Op]:
    ops = [
        Op("draw", base + rng.randrange(SAMPLE_WIDTH), m, rng.getrandbits(32))
        for base in SAMPLE_STRATA
        for m in SAMPLE_BOUNDS
    ]
    # One stratum per round goes through the CLI: sample, then rank the
    # printed term, then unrank that rank.
    base = SAMPLE_STRATA[r % len(SAMPLE_STRATA)]
    m = SAMPLE_BOUNDS[r // len(SAMPLE_STRATA) % len(SAMPLE_BOUNDS)]
    n, seed = base + rng.randrange(SAMPLE_WIDTH), rng.getrandbits(32)
    ops += [Op(kind, n, m, seed) for kind in ("cli_sample", "cli_rank", "cli_unrank")]
    return ops


def _typable_round(rng: random.Random, r: int) -> list[Op]:
    draws = [
        Op("typable_draw", base + rng.randrange(TYPABLE_WIDTH), m, rng.getrandbits(32))
        for base in TYPABLE_STRATA
        for m in (0, INF)
    ]
    census = [Op("census", n, m, jobs=jobs) for n, m, jobs in CENSUS]
    ops = []
    for i, draw in enumerate(draws):
        ops.append(draw)
        if i < len(census):
            ops.append(census[i])
    return ops + census[len(draws):]


ROUNDS = {"counts": _counts_round, "sample": _sample_round, "typable": _typable_round}


def rounds(workload: str, seed: int):
    """The workload's operations for ``seed``, one round (a list) at a time, forever."""
    build = ROUNDS[workload]
    for r in itertools.count():
        yield build(random.Random(f"{workload}/{seed}/{r}"), r)


def generate(workload: str, seed: int):
    """The workload's operations for ``seed``, round after round, forever."""
    return itertools.chain.from_iterable(rounds(workload, seed))


def _bound_args(m) -> list[str]:
    return ["--all"] if m == INF else ["--free", str(m)]


class Executor:
    """Runs operations against ``blc``'s public API.

    Functions are looked up on their modules at call time, so a tracer
    that swaps them in is seen.  The CLI triple is a chain: ``cli_rank``
    ranks the term ``cli_sample`` printed, ``cli_unrank`` unranks that
    rank.
    """

    def __init__(self) -> None:
        import blc.asymptotics
        import blc.cli
        import blc.counting
        import blc.enumeration
        import blc.terms
        import blc.typecheck

        self.asymptotics = blc.asymptotics
        self.cli = blc.cli
        self.counting = blc.counting
        self.enumeration = blc.enumeration
        self.terms = blc.terms
        self.typecheck = blc.typecheck
        self._chain_bits = ""
        self._chain_rank = 0

    def __call__(self, op: Op):
        return getattr(self, "_" + op.kind)(op)

    def _count(self, op):
        return self.counting.count(op.m, op.n, table=self.counting.CountTable())

    def _row(self, op):
        points = self.asymptotics.convergence_series(
            ROW_BOUNDS, op.n, table=self.counting.CountTable()
        )
        return [(p.m, p.n, p.value) for p in points]

    def _constants(self, op):
        return self.asymptotics.constants()

    def _sigma(self, op):
        return [self.asymptotics.sigma(m) for m in SIGMA_BOUNDS]

    def _draw(self, op):
        term = self.enumeration.sample(op.m, op.n, self.enumeration.Sampler(op.seed))
        bits = self.terms.encode(term)
        return term, bits, self.enumeration.rank(op.m, term), self.terms.decode(bits)

    def _run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(argv)
        return code, out.getvalue().strip()

    def _cli_sample(self, op):
        code, self._chain_bits = self._run_cli(
            ["sample", "--size", str(op.n), *_bound_args(op.m), "--seed", str(op.seed)]
        )
        return code, self._chain_bits

    def _cli_rank(self, op):
        code, text = self._run_cli(["rank", "--term", self._chain_bits, *_bound_args(op.m)])
        self._chain_rank = int(text) if code == 0 else 0
        return code, text

    def _cli_unrank(self, op):
        code, text = self._run_cli(
            ["unrank", "--size", str(op.n), *_bound_args(op.m), "--index", str(self._chain_rank)]
        )
        return code, text, self._chain_bits

    def _census(self, op):
        return self.typecheck.count_typable(op.n, closed=op.m == 0, jobs=op.jobs)

    def _typable_draw(self, op):
        term = self.enumeration.sample_typable(op.m, op.n, self.enumeration.Sampler(op.seed))
        typing = self.typecheck.infer(term, self.terms.max_free_index(term))
        text = None if typing is None else self.typecheck.format_type(typing.type)
        return term, text


class Failed(str):
    """In place of a digest: the op raised, or its output was malformed."""


def digest(op: Op, out):
    """The part of an output the checks need."""
    if op.kind == "constants":
        return out.rho, out.growth, out.c, tuple(out.real_roots)
    if op.kind == "draw":
        term, bits, k, back = out
        problems = []
        if oracle.bits_of(term) != bits:
            problems.append("encode differs from the term's code")
        if oracle.bits_of(back) != bits:
            problems.append("decode(encode(t)) != t")
        if len(bits) != op.n:
            problems.append(f"size {len(bits)}")
        if oracle.max_free(term) > op.m:
            problems.append("free index above the bound")
        return Failed("; ".join(problems)) if problems else k
    if op.kind == "typable_draw":
        term, text = out
        return len(oracle.bits_of(term)), oracle.max_free(term), text
    return out


def check_needs(workload: str) -> list[tuple]:
    """The (m, n) counts the checks of a workload read from the oracle,
    at the largest size each bound reaches."""
    if workload == "counts":
        top = max(COUNT_STRATA) + COUNT_WIDTH - 1
        rows = max(ROW_SIZES) + COUNT_WIDTH - 1
        return [(m, top) for m in COUNT_BOUNDS] + [(m, rows) for m in ROW_BOUNDS]
    if workload == "sample":
        return [(m, max(SAMPLE_STRATA) + SAMPLE_WIDTH - 1) for m in SAMPLE_BOUNDS]
    return [(m, n) for n, m, _ in CENSUS]


def check(op: Op, got, counts: oracle.Counts) -> str | None:
    """None if ``got`` (the digest of op's output) is right, else why not."""
    if isinstance(got, Failed):
        return got
    kind = op.kind
    if kind == "count":
        want = counts.count(op.m, op.n)
        return None if got == want else f"count({op.m}, {op.n}) = {got}, want {want}"
    if kind == "row":
        want = [
            (m, n, oracle.scaled(c, n))
            for m in ROW_BOUNDS
            for n in range(2, op.n + 1)
            if (c := counts.count(m, n))
        ]
        if [(m, n) for m, n, _ in got] != [(m, n) for m, n, _ in want]:
            return f"convergence_series points differ at max_n {op.n}"
        for (m, n, value), (_, _, ref) in zip(got, want):
            if not math.isclose(value, ref, rel_tol=1e-9):
                return f"convergence value at m={m}, n={n}: {value}, want {ref}"
        return None
    if kind == "constants":
        rho, growth, c, roots = got
        if abs(rho - oracle.RHO) >= oracle.RHO_TOL or abs(growth - oracle.GROWTH) >= oracle.GROWTH_TOL:
            return f"rho {rho} / growth {growth} outside 1e-9"
        if abs(c - oracle.C) >= oracle.C_TOL:
            return f"c {c} outside 1e-6"
        if len(roots) != len(oracle.ROOTS) or any(
            abs(a - b) >= oracle.ROOT_TOL for a, b in zip(sorted(roots), oracle.ROOTS)
        ):
            return f"real roots {roots}"
        return None
    if kind == "sigma":
        if abs(got[0] - 1 / math.sqrt(3)) > 1e-12:
            return f"sigma(1) = {got[0]}, want 1/sqrt(3)"
        if any(a <= b for a, b in zip(got, got[1:])):
            return "sigma not strictly decreasing"
        if got[-1] <= oracle.RHO:
            return f"sigma(30) = {got[-1]} not above rho"
        return None
    if kind == "draw":
        want = oracle.drawn_rank(op.seed, counts.count(op.m, op.n))
        return None if got == want else f"rank(sample) = {got}, want drawn rank {want}"
    if kind == "cli_sample":
        code, bits = got
        if code != 0 or len(bits) != op.n or set(bits) - {"0", "1"}:
            return f"blc sample exit {code}, printed {bits[:40]!r}"
        return None
    if kind == "cli_rank":
        code, text = got
        want = oracle.drawn_rank(op.seed, counts.count(op.m, op.n))
        return None if code == 0 and text == str(want) else f"blc rank exit {code}: {text[:40]!r}, want {want}"
    if kind == "cli_unrank":
        code, text, sampled = got
        return None if code == 0 and text == sampled else f"blc unrank exit {code}: not the sampled term"
    if kind == "census":
        want = (oracle.TYPABLE_CLOSED if op.m == 0 else oracle.TYPABLE_ALL)[op.n]
        return None if got == want else f"count_typable({op.n}, m={op.m}) = {got}, want {want}"
    if kind == "typable_draw":
        size, free, text = got
        if size != op.n or free > op.m:
            return f"sample_typable gave size {size}, free index {free}"
        return None if text else "infer(sample_typable(...)) is None"
    return f"unknown op kind {kind}"


def known_answers(executor: Executor) -> list[str]:
    """Known-answer checks on fresh tables, touching every layer once.

    Returns the failures (empty when all pass).
    """
    ex = executor
    counting, enumeration, terms, typecheck = ex.counting, ex.enumeration, ex.terms, ex.typecheck
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for (m, n), want in oracle.KNOWN_COUNTS.items():
        got = counting.count(m, n, table=counting.CountTable())
        expect(got == want, f"cold count({m}, {n}) = {got}, want {want}")
    table = counting.CountTable()
    term = enumeration.unrank(0, 10, 3, table=table)
    bits = terms.encode(term)
    expect(enumeration.rank(0, term, table=table) == 3, "rank(unrank(0, 10, 3)) != 3")
    expect(oracle.bits_of(terms.decode(bits)) == bits, "decode(encode(t)) != t")
    drawn = enumeration.sample(0, 30, enumeration.Sampler(42), table=table)
    expect(
        enumeration.rank(0, drawn, table=table) == oracle.drawn_rank(42, oracle.Counts().count(0, 30)),
        "sample(0, 30, Sampler(42)) is not the drawn rank",
    )
    typable = enumeration.sample_typable(0, 20, enumeration.Sampler(7), table=table)
    expect(typecheck.infer(typable) is not None, "sample_typable returned an untypable term")
    expect(
        typecheck.count_typable(14, closed=True, table=table) == oracle.TYPABLE_CLOSED[14],
        "count_typable(14) differs from the golden column",
    )
    typing = typecheck.infer(terms.decode("0000110"))
    expect(typing is not None and typecheck.format_type(typing.type) == "a -> b -> a", "type of \\\\2")
    code, text = ex._run_cli(["count", "--size", "19", "--free", "0"])
    expect(code == 0 and text == "431", f"blc count --size 19 --free 0 printed {text!r}")
    counts = oracle.Counts()
    counts.need([(m, 40) for m in ROW_BOUNDS])
    for op, got in (
        (Op("constants"), digest(Op("constants"), ex._constants(None))),
        (Op("row", 40), ex._row(Op("row", 40))),
    ):
        reason = check(op, got, counts)
        if reason:
            failures.append(reason)
    expect(abs(ex.asymptotics.sigma(1) - 1 / math.sqrt(3)) < 1e-12, "sigma(1) != 1/sqrt(3)")
    return failures
