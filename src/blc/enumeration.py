"""Rank/unrank bijection over size classes, and uniform sampling.

For a size ``n`` and free-index bound ``m`` the terms of that class are
totally ordered: abstractions come first (ordered by their bodies),
then applications (by size of the function part, then function rank,
then argument rank), and last, when n - 1 <= m admits it, the lone
variable ``Index(n - 1)``.  ``unrank(m, n, k)`` maps the 1-based rank k
to the k-th term, ``rank`` inverts it exactly, and a ``Sampler`` draws
uniform terms by drawing uniform ranks.

Ranks are plain Python ints, so classes with astronomically many terms
(sizes in the hundreds) work unchanged.  Neither direction recurses:
``unrank`` runs a work stack that places the term's nodes in preorder,
and one fold in ``terms`` builds the term from that list; ``rank``
lists the term's nodes in preorder and folds the list backwards into
(size, rank) pairs.  Block masses fall off towards both ends of an
application block run, so ``unrank`` scans the blocks from whichever
end its residual rank is nearer, and ``rank`` sums whichever side of a
term's block is shorter; the rank order is the same either way.  ``sample_typable`` runs the same unrank loop with typing on: each
node is typed as it is placed, and a draw is dropped at its first
failed unification.
"""

from __future__ import annotations

import math
import operator
import random

from . import counting
from .terms import Abs, App, FreeIndexExceeded, Index, Term, _build, max_free_index, size
from .typecheck import split_arrow, unify

__all__ = [
    "NoTerms",
    "OutOfRange",
    "AttemptsExhausted",
    "unrank",
    "rank",
    "Sampler",
    "sample",
    "sample_typable",
]


class NoTerms(ValueError):
    """The requested size class is empty."""


class OutOfRange(ValueError):
    """A rank outside 1..count(m, n) was requested."""


class AttemptsExhausted(RuntimeError):
    """The typable-term sieve hit its attempt limit."""


def _bound_label(m: int | float) -> str:
    return "unbounded" if m == math.inf else f"free indices <= {m}"


def _number_text(x: int) -> str:
    """x in decimal, or by its sign and bit length past 14,000 bits
    (about 4,200 digits, under Python's 4,300-digit int/str cap)."""
    if x.bit_length() <= 14000:
        return str(x)
    return f"<a {'negative ' if x < 0 else ''}{x.bit_length()}-bit number>"


def _unrank(cone: list[list[int]], m: int | float, n: int, k: int, typed: bool) -> Term | None:
    """The k-th term of the non-empty (m, n) class, for k in range.

    ``cone`` is ``CountTable.cone(m, n)``: every class visited below is
    (m + d, s) with s <= n - 2d, counted by ``cone[d][s]``.  With
    ``typed`` the loop also types each node as it places it, and returns
    None at the first failed unification, when the term has no simple
    type.  The nodes are placed in preorder, and the term is built from
    them only once every node is placed, so a failed draw builds none.
    """
    nodes: list = []  # the term in preorder, as ``terms._build`` takes it
    # Typed mode: binder types, outermost first (the binders of an item
    # at depth d are the first d), free slots' types, and a trail that
    # is never undone, since a draw that fails is dropped whole.
    binders: list = []
    context: dict[int, object] = {}
    trail: list = []
    work: list[tuple] = [(0, n, k, [None] if typed else None)]
    while work:
        d, n, k, want = work.pop()
        if typed:
            del binders[d:]
        # Items pop in preorder, function part before argument.
        while True:
            # Abstractions occupy ranks 1..count(m+d+1, n-2), applications
            # the block after them, and the variable (present exactly
            # when m + d >= n - 1) the final rank.
            saturated = m + d >= n - 1
            row = cone[d]
            total = row[n]
            if saturated and k == total:
                if typed:
                    if n - 1 <= d:
                        var = binders[d - n + 1]
                    else:  # a free slot's variable is want itself at first use
                        var = context.setdefault(n - 1 - d, want)
                    if not unify(var, want, trail):
                        return None
                nodes.append(Index(n - 1))
                break
            base = n - 2
            body_total = cone[d + 1][base]
            if k <= body_total:
                nodes.append(Abs)
                if typed:
                    dom, want = split_arrow(want, trail)
                    binders.append(dom)
                d, n = d + 1, base
                continue
            # Application blocks by function size 2..base-2; scan from
            # the nearer end of the block run.
            h = k - body_total
            app_total = total - body_total - saturated
            if 2 * h <= app_total:
                fun, step = 2, 1
            else:  # count the rank from the top, then turn it back
                fun, step, h = base - 2, -1, app_total - h + 1
            while True:
                arg_total = row[base - fun]
                block = row[fun] * arg_total
                if h <= block:
                    break
                h -= block
                fun += step
            if step < 0:
                h = block - h + 1
            fun_rank, arg_rank = divmod(h - 1, arg_total)
            nodes.append(App)
            a = [None] if typed else None
            work.append((d, base - fun, arg_rank + 1, a))
            if typed:
                want = (a, want)
            n, k = fun, fun_rank + 1
    return _build(nodes)


def _cone(m: int | float, n: int, table: counting.CountTable | None) -> tuple[list, int]:
    """The cone of the (m, n) class and its size; raises ``NoTerms`` if empty."""
    cone = (table or counting.shared_table()).cone(m, n)
    total = cone[0][n]
    if total == 0:
        raise NoTerms(f"no terms of size {n} ({_bound_label(m)})")
    return cone, total


def unrank(m: int | float, n: int, k: int, *, table: counting.CountTable | None = None) -> Term:
    """The k-th term (1-based) of the size-n class at free-index bound m.

    Raises ``TypeError`` for a k that is not an integer, ``NoTerms``
    when the class is empty and ``OutOfRange`` when it is not but k
    falls outside it.
    """
    k = operator.index(k)
    cone, total = _cone(m, n, table)
    if not 1 <= k <= total:
        raise OutOfRange(
            f"rank {_number_text(k)} outside 1..{_number_text(total)}"
            f" for size {n} ({_bound_label(m)})"
        )
    return _unrank(cone, m, n, k, False)


def rank(m: int | float, term: Term, *, table: counting.CountTable | None = None) -> int:
    """Position of ``term`` in its size class at bound m; inverse of unrank.

    Raises ``ValueError`` for a bound that is not a nonnegative int or
    math.inf, and ``FreeIndexExceeded`` if the term has a free index
    above m.
    """
    counting.check_bound(m)
    free = max_free_index(term)
    if free > m:
        raise FreeIndexExceeded(f"term has free index {free}, above the bound {m}")
    cone = (table or counting.shared_table()).cone(m, size(term))
    # The nodes in preorder, each with its depth (its enclosing binders).
    nodes: list[tuple[Term, int]] = []
    stack = [(term, 0)]
    while stack:
        item = stack.pop()
        nodes.append(item)
        node, d = item
        tp = type(node)
        if tp is Abs:
            stack.append((node.body, d + 1))
        elif tp is App:
            stack.append((node.arg, d))
            stack.append((node.fun, d))
    # Each finished subterm as a (size, rank) pair, the leftmost on top.
    done: list[tuple[int, int]] = []
    for node, d in reversed(nodes):
        tp = type(node)
        if tp is Index:
            # The variable is the last rank of its own class, which is
            # saturated because the index lies within the bound.
            done.append((node.i + 1, cone[d][node.i + 1]))
        elif tp is Abs:
            n, k = done[-1]
            done[-1] = (n + 2, k)
        else:
            fun_size, fun_rank = done.pop()
            arg_size, arg_rank = done[-1]
            base = fun_size + arg_size
            n = base + 2
            saturated = m + d >= n - 1
            row = cone[d]
            body_total = cone[d + 1][base]
            h = (fun_rank - 1) * row[arg_size] + arg_rank
            # Sum the blocks before this one, or those after it, whichever
            # run is shorter.
            if 2 * fun_size <= base:
                for j in range(2, fun_size):
                    h += row[j] * row[base - j]
            else:
                h += row[n] - body_total - saturated - row[fun_size] * row[arg_size]
                for j in range(fun_size + 1, base - 1):
                    h -= row[j] * row[base - j]
            done[-1] = (n, body_total + h)
    return done[0][1]


class Sampler:
    """Deterministic uniform sampler over size classes.

    Uses the Mersenne Twister (MT19937 via ``random.Random``), whose
    output for a given seed is stable across platforms and Python
    versions.  A rank is drawn by rejection on the power-of-two
    envelope: take bit_length(total - 1) random bits and retry until
    the value falls below the class size, so every rank is exactly
    equally likely.  For parallel work, give worker i an independent
    stream with ``Sampler(seed ^ i)``.
    """

    generator = "mt19937"

    def __init__(self, seed: int):
        seed = operator.index(seed)  # a float would seed from its hash
        if seed < 0:  # random.Random seeds from abs(seed): -s would replay s
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._rng = random.Random(seed)

    def rank_below(self, total: int) -> int:
        """Uniform integer in 1..total."""
        if total < 1:
            raise ValueError(f"need a positive total, got {total}")
        bits = (total - 1).bit_length()
        getrandbits = self._rng.getrandbits
        while True:
            value = getrandbits(bits)
            if value < total:
                return value + 1


def sample(
    m: int | float,
    n: int,
    state: Sampler,
    *,
    table: counting.CountTable | None = None,
) -> Term:
    """One uniform term from the (m, n) class."""
    cone, total = _cone(m, n, table)
    return _unrank(cone, m, n, state.rank_below(total), False)


def sample_typable(
    m: int | float,
    n: int,
    state: Sampler,
    max_attempts: int = 10000,
    *,
    table: counting.CountTable | None = None,
) -> Term:
    """Uniform term from the typable fraction of the (m, n) class.

    Rejection-samples uniform ranks, so the result is uniform over
    exactly the typable terms.  Each draw is typed while it is unranked
    and dropped at its first failed unification, which accepts exactly
    the ranks that typing the finished term would accept, and draws the
    same ranks in the same order.  Raises ``ValueError`` if
    ``max_attempts`` < 1, and ``AttemptsExhausted`` after
    ``max_attempts`` failed draws (typable terms get scarce as n grows,
    so the limit matters).
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    cone, total = _cone(m, n, table)
    for _ in range(max_attempts):
        term = _unrank(cone, m, n, state.rank_below(total), True)
        if term is not None:
            return term
    raise AttemptsExhausted(
        f"no typable term of size {n} ({_bound_label(m)}) in {max_attempts} draws"
    )
