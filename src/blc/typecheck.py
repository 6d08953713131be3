"""Simple-type inference for de Bruijn terms, plus typability censuses.

Types are type variables and arrows.  One engine does all the typing:
a cell unifier (``resolve``/``unify``/``split_arrow``) whose cells are
the nodes of a union-find, with an occurs check on every binding.
Arrows are never merged, so no cycle can form.  Inference walks a
finished term once in preorder, giving each subterm an expected type:
an abstraction splits its type into an arrow, an application gives its
function ``a -> expected`` and its argument ``a``, and an index unifies
its binder's type with the expected one.  A term is typable iff every
unification succeeds, and the resulting type is principal: every other
valid typing of the term is a substitution instance of it.

Free index i under d binders types against context slot i - d, made
at first use, so ``is_typable(t, max_free_index(t))`` asks whether any
context at all types the term.  Closed terms use free_count 0.

The same rules, on the same unifier, drive ``count_typable``, which
types each term of a size class while one depth-first walk builds it
and undoes its bindings from a trail when it backtracks, and the typed
unrank of ``enumeration.sample_typable``, which types each draw while
it builds it and drops the draw at its first clash.  The census walk
places index 1 and 2 leaves when their parent opens, out of preorder:
a most general unifier does not depend on the order of the equations.
"""

from __future__ import annotations

from . import counting
from ._record import Record, setfield
from .terms import Abs, App, FreeIndexExceeded, Term, max_free_index

__all__ = [
    "TVar",
    "Arrow",
    "SimpleType",
    "Typing",
    "is_typable",
    "infer",
    "format_type",
    "count_typable",
]


class TVar(Record):
    __slots__ = __match_args__ = ("id",)

    def __init__(self, id: int):
        setfield(self, "id", id)


class Arrow(Record):
    """``domain -> codomain``."""

    __slots__ = __match_args__ = ("domain", "codomain")

    def __init__(self, domain: SimpleType, codomain: SimpleType):
        setfield(self, "domain", domain)
        setfield(self, "codomain", codomain)


SimpleType = TVar | Arrow


class Typing(Record):
    """Principal result of inference: the term's type and the types the
    context assigns to free indices 1..free_count, in that order."""

    __slots__ = __match_args__ = ("type", "context")


def _walk(term: Term, free_count: int):
    """Type ``term`` in a context of ``free_count`` fresh slots.

    One preorder pass by the rules above, over work items (subterm,
    expected type, depth).  Returns None for an untypable term, else
    ``(root, context, annotations)``: the root's cell, each used slot's
    first expected type by slot, and a cell per subterm in preorder.
    """
    if free_count < 0:
        raise ValueError(f"free_count must be >= 0, got {free_count}")
    free = max_free_index(term)
    if free > free_count:
        raise FreeIndexExceeded(f"free index {free} but only {free_count} context slots")
    root: list = [None]
    context: dict[int, object] = {}
    binders: list = []  # domain of each enclosing abstraction, outermost first
    annotations: list = []
    trail: list = []  # never undone: a failed term is dropped whole
    work: list[tuple] = [(term, root, 0)]
    while work:
        t, want, depth = work.pop()
        del binders[depth:]
        annotations.append(want)
        tp = type(t)
        if tp is Abs:
            dom, cod = split_arrow(want, trail)
            binders.append(dom)
            work.append((t.body, cod, depth + 1))
        elif tp is App:
            a = [None]
            work.append((t.arg, a, depth))
            work.append((t.fun, (a, want), depth))
        else:
            slot = t.i - depth  # <= 0 for a bound index
            var = binders[-t.i] if slot <= 0 else context.setdefault(slot, want)
            if not unify(var, want, trail):
                return None
    return root, context, annotations


def _read_back(cells) -> list[SimpleType]:
    """The ``TVar``/``Arrow`` tree of each cell, sharing one numbering.

    Variables are numbered 0, 1, ... in first-use order over the cells
    in turn, each read domain before codomain.  The memo is keyed on
    the resolved object, so shared structure is built once.
    """
    built: dict[int, SimpleType] = {}
    out: list[SimpleType] = []
    variables = 0
    for cell in cells:
        stack = [resolve(cell)]
        while stack:
            t = stack[-1]
            if id(t) in built:
                stack.pop()
            elif type(t) is list:  # an unbound variable
                built[id(t)] = TVar(variables)
                variables += 1
                stack.pop()
            else:
                dom, cod = resolve(t[0]), resolve(t[1])
                missing = [u for u in (cod, dom) if id(u) not in built]
                if missing:
                    stack += missing
                else:
                    built[id(t)] = Arrow(built[id(dom)], built[id(cod)])
                    stack.pop()
        out.append(built[id(resolve(cell))])
    return out


def is_typable(term: Term, free_count: int = 0) -> bool:
    return _walk(term, free_count) is not None


def infer(term: Term, free_count: int = 0) -> Typing | None:
    """Principal typing of ``term``, or None if it has no simple type.

    Type variables are numbered 0, 1, ... in first-use order: the type
    first, then the context slots, each read domain before codomain.
    Raises ``ValueError`` for a negative ``free_count`` and
    ``FreeIndexExceeded`` for a free index above it.
    """
    walked = _walk(term, free_count)
    if walked is None:
        return None
    root, context, _ = walked
    ty, *ctx = _read_back([root, *(context.get(i, [None]) for i in range(1, free_count + 1))])
    return Typing(ty, tuple(ctx))


def _var_name(k: int) -> str:
    # a, b, ..., z, a1, b1, ...
    letter = chr(ord("a") + k % 26)
    round_ = k // 26
    return letter if round_ == 0 else f"{letter}{round_}"


def format_type(ty: SimpleType) -> str:
    """Canonical text for a type: variables renamed a, b, c, ... in
    first-use order (left to right), arrows right-associative, parens
    only around arrow domains.  Alpha-equivalent types format equal."""
    names: dict[int, str] = {}
    out: list[str] = []
    stack: list = [(ty, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, wrap = item
        if type(node) is TVar:
            name = names.get(node.id)
            if name is None:
                name = _var_name(len(names))
                names[node.id] = name
            out.append(name)
            continue
        if wrap:
            out.append("(")
            stack.append(")")
        stack.append((node.codomain, False))
        stack.append(" -> ")
        stack.append((node.domain, type(node.domain) is Arrow))
    return "".join(out)


# The cell unifier shared by inference, the census walk and the typed
# unrank of ``enumeration.sample_typable``.  A type is a cell: ``[None]``
# is an unbound variable, ``[t]`` a variable bound to t, and a tuple
# ``(domain, codomain)`` an arrow.  Bindings are the union-find's links;
# ``resolve`` follows them without compressing, and every binding passes
# an occurs check.  Arrows are never merged, only their components
# unified, so no cycle can form and no acyclicity pass is needed.


def resolve(t):
    """The arrow or unbound variable that ``t`` stands for."""
    while type(t) is list and t[0] is not None:
        t = t[0]
    return t


def split_arrow(want, trail: list) -> tuple:
    """The (domain, codomain) of the arrow ``want`` stands for.

    An unbound ``want`` is bound, on the trail, to an arrow of two fresh
    variables, which needs no occurs check.
    """
    t = resolve(want)
    if type(t) is tuple:
        return t
    t[0] = ([None], [None])
    trail.append(t)
    return t[0]


def unify(x, y, trail: list) -> bool:
    """Unify two cells, appending each binding to ``trail``; False on a clash.

    On failure the bindings made so far stay in place (and on the trail).
    Iterative: pairs of arrow components wait on a stack, codomains
    below domains.  Of two unbound variables ``y`` is bound: the walks
    pass (binder or context slot, expected type), so the fresh expected
    cell takes the link, and chains of variable links, which ``resolve``
    would walk again on every use, do not form.
    """
    todo: list = []
    while True:
        # resolve, inlined: this loop runs for every index a walk places
        while type(x) is list and x[0] is not None:
            x = x[0]
        while type(y) is list and y[0] is not None:
            y = y[0]
        if x is not y:
            if type(y) is not list:
                if type(x) is not list:
                    todo += (x[1], y[1])
                    x, y = x[0], y[0]
                    continue
                x, y = y, x
            if type(x) is tuple:  # bind the unbound y to x unless y occurs in x
                occurs = list(x)
                while occurs:
                    u = occurs.pop()
                    while type(u) is list and u[0] is not None:
                        u = u[0]
                    if u is y:
                        return False
                    if type(u) is tuple:
                        occurs += u
            y[0] = x
            trail.append(y)
        if not todo:
            return True
        y = todo.pop()
        x = todo.pop()


def _typed_walk(n: int, live: list[list[int]] | None) -> int:
    """Number of typable terms of size ``n``, by one depth-first walk.

    The walk builds terms from a stack of holes, each a (size, expected
    type, binder types) triple, and types every node by the rules of
    inference as it places it; an application tries each split of the
    size between its function and argument.  Only indices can fail, and
    a failure cuts off every completion of the prefix at once.

    A hole of size 2 or 3 has one filler, index 1 or 2, so it is never
    pushed: its parent places it when it opens it.  A leaf argument's
    binder cell is the function's domain as it is, a leaf function
    unifies its binder with ``domain -> expected`` and a leaf body its
    binder with the codomain, all before the other child is built.  So
    the walk is not strictly preorder, but it is exact: it still reaches
    each term once with all of its constraints, and whether a set of
    equations has a unifier does not depend on the order in which they
    are unified.

    ``live`` is None for the all-terms column, where a free index takes
    its context slot's type, one fresh cell per slot shared by all its
    uses.  For the closed column ``live`` is ``CountTable.cone(0, n)``:
    ``live[d][s]`` counts the terms of size s with free indices in
    1..d, and holes of empty classes are never opened.

    Types are the cells of ``unify``; every binding goes on a trail, so
    backtracking can unbind it.
    """
    trail: list[list] = []
    # Not made at first use as in _walk: undo would leave a dead branch's slots behind.
    context = [[None] for _ in range(n)]  # free index i at depth d: context[i - d - 1]
    holes: list[tuple] = [(n, [None], ())]

    def undo(mark: int) -> None:
        while len(trail) > mark:
            trail.pop()[0] = None

    def walk() -> int:
        hole = holes.pop()
        size, want, binders = hole
        depth = len(binders)
        mark = len(trail)
        found = 0
        i = size - 1  # the one index of this size
        if i <= depth or live is None:
            if unify(binders[-i] if i <= depth else context[i - depth - 1], want, trail):
                found += walk() if holes else 1
            undo(mark)
        body = size - 2
        if body >= 2 and (live is None or live[depth + 1][body]):
            dom, cod = split_arrow(want, trail)
            if body > 3:
                holes.append((body, cod, binders + (dom,)))
                found += walk()
                holes.pop()
            elif unify(dom if body == 2 else binders[-1] if depth else context[0], cod, trail):
                found += walk() if holes else 1
            undo(mark)
        for fun in range(2, size - 3):
            arg = size - 2 - fun
            if live is not None and not (live[depth][fun] and live[depth][arg]):
                continue
            if arg > 3:
                a = [None]
                holes.append((arg, a, binders))
            else:  # index 1 or 2: its binder's cell, or its free slot's
                a = binders[1 - arg] if arg <= depth + 1 else context[arg - depth - 2]
            if fun > 3:
                holes.append((fun, (a, want), binders))
                found += walk()
                holes.pop()
            else:
                f = binders[1 - fun] if fun <= depth + 1 else context[fun - depth - 2]
                if unify(f, (a, want), trail):
                    found += walk() if holes else 1
                undo(mark)
            if arg > 3:
                holes.pop()
        holes.append(hole)
        return found

    return walk()


def count_typable(
    n: int,
    closed: bool = True,
    jobs: int | None = None,
    *,
    table: counting.CountTable | None = None,
) -> int:
    """How many terms of size ``n`` have a simple type.

    ``closed=True`` counts closed terms only; ``closed=False`` counts
    all terms, where an open term counts as typable when some context
    for its free indices types it.  The census is one depth-first walk
    over the size class that types each term while it builds it, so an
    untypable prefix is cut off once for all its completions.  It types
    an index 1 or 2 leaf as soon as its parent is placed, out of
    preorder, and is still exact: whether the equations have a unifier
    does not depend on the order they are solved in.  Its cost grows
    about 1.8 times per size.  The closed column reads ``table``
    (default: the shared one) to skip empty subterm classes.  ``jobs``
    is accepted but advisory: the walk runs in the calling thread.
    """
    if n < 2:
        return 0
    if not closed:
        return _typed_walk(n, None)
    live = (table or counting.shared_table()).cone(0, n)
    return _typed_walk(n, live) if live[0][n] else 0
