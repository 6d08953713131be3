"""Simple-type inference for de Bruijn terms, plus typability censuses.

Types are type variables and arrows.  Inference is constraint-based:
every subterm gets a node in a union-find forest, abstraction and
application impose arrow constraints, and first-order unification with
an occurs check solves them.  A term is typable iff unification
succeeds, and the resulting type is principal: every other valid typing
of the term is a substitution instance of it.

Free indices type against a context of fresh variables, one slot per
index 1..free_count, so ``is_typable(t, max_free_index(t))`` asks
whether any context at all types the term.  Closed terms use
free_count 0.

``count_typable`` shares only the type language with inference: it
counts a whole size class by one depth-first walk that types each term
while it builds it, with a union-find that backtracking can undo.  That
cell unifier (``resolve``/``bind``/``unify``) lives at module level and
is shared with ``enumeration.sample_typable``, whose typed unrank types
each draw while it builds it and drops the draw at its first clash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import counting
from .terms import Abs, App, FreeIndexExceeded, Index, Term

__all__ = [
    "TVar",
    "Arrow",
    "SimpleType",
    "Typing",
    "is_typable",
    "infer",
    "infer_annotated",
    "format_type",
    "count_typable",
]


@dataclass(frozen=True, slots=True)
class TVar:
    id: int


@dataclass(frozen=True, slots=True)
class Arrow:
    domain: "SimpleType"
    codomain: "SimpleType"


SimpleType = Union[TVar, Arrow]


@dataclass(frozen=True)
class Typing:
    """Principal result of inference: the term's type and the types the
    context assigns to free indices 1..free_count, in that order."""

    type: SimpleType
    context: tuple[SimpleType, ...]


def _solve(term: Term, free_count: int):
    """Generate and solve the typing constraints of ``term``.

    Returns ``(parent, kids, ctx, node_ids, root)`` on success or None
    on a unification failure.  ``parent``/``kids`` are the union-find
    forest (kids[v] is None for a variable node, else a (domain,
    codomain) pair), ``ctx`` lists the context nodes, ``node_ids`` one
    node per subterm in preorder, ``root`` the whole term's node.
    """
    parent: list[int] = []
    kids: list[Optional[tuple[int, int]]] = []

    def fresh(pair: Optional[tuple[int, int]] = None) -> int:
        v = len(parent)
        parent.append(v)
        kids.append(pair)
        return v

    def occurs(v: int, w: int) -> bool:
        # Does variable v occur in the structure rooted at w?  The
        # visited set matters: arrow merges can leave transient cycles
        # (rejected at the end of _solve), and this must still halt.
        todo = [w]
        visited = set()
        while todo:
            u = _find(parent, todo.pop())
            if u == v:
                return True
            if u in visited:
                continue
            visited.add(u)
            pair = kids[u]
            if pair is not None:
                todo.append(pair[0])
                todo.append(pair[1])
        return False

    def unify(a: int, b: int) -> bool:
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = _find(parent, x), _find(parent, y)
            if x == y:
                continue
            kx, ky = kids[x], kids[y]
            if kx is None:
                if occurs(x, y):
                    return False
                parent[x] = y
            elif ky is None:
                if occurs(y, x):
                    return False
                parent[y] = x
            else:
                # Arrow against arrow: union first so shared structure
                # is solved once, then recurse on the components.  This
                # can create a cycle that no variable binding sees (the
                # occurs checks above only guard var binds), so the
                # caller must run the acyclicity pass afterwards.
                parent[x] = y
                queue.append((kx[0], ky[0]))
                queue.append((kx[1], ky[1]))
        return True

    def acyclic() -> bool:
        # A cycle through the solved forest is an infinite type; with
        # arrows as the only constructor it is also the only way for a
        # constraint set to be unsatisfiable that unify cannot notice.
        color: dict[int, int] = {}  # 1 on the current path, 2 finished
        for v0 in range(len(parent)):
            if color.get(_find(parent, v0), 0) == 2:
                continue
            stack: list[tuple[int, bool]] = [(_find(parent, v0), False)]
            while stack:
                v, leaving = stack.pop()
                if leaving:
                    color[v] = 2
                    continue
                c = color.get(v, 0)
                if c == 2:
                    continue
                if c == 1:
                    return False
                color[v] = 1
                stack.append((v, True))
                pair = kids[v]
                if pair is not None:
                    stack.append((_find(parent, pair[0]), False))
                    stack.append((_find(parent, pair[1]), False))
        return True

    ctx = [fresh() for _ in range(free_count)]
    node_ids: list[int] = []
    binders: list[int] = []  # domain node of each enclosing binder
    results: list[int] = []  # finished subterm nodes
    work: list = [term]
    while work:
        item = work.pop()
        tp = type(item)
        if tp is tuple:
            if item[0] == 0:  # leave an abstraction
                _, dom, pos = item
                body = results.pop()
                arrow = fresh((dom, body))
                node_ids[pos] = arrow
                binders.pop()
                results.append(arrow)
            else:  # leave an application
                _, pos = item
                arg = results.pop()
                fun = results.pop()
                res = fresh()
                wanted = fresh((arg, res))
                if not unify(fun, wanted):
                    return None
                node_ids[pos] = res
                results.append(res)
        elif tp is Index:
            depth = len(binders)
            if item.i <= depth:
                node = binders[depth - item.i]
            else:
                slot = item.i - depth
                if slot > free_count:
                    raise FreeIndexExceeded(
                        f"free index {slot} but only {free_count} context slots"
                    )
                node = ctx[slot - 1]
            node_ids.append(node)
            results.append(node)
        elif tp is Abs:
            dom = fresh()
            binders.append(dom)
            pos = len(node_ids)
            node_ids.append(-1)  # patched on leave
            work.append((0, dom, pos))
            work.append(item.body)
        else:
            pos = len(node_ids)
            node_ids.append(-1)
            work.append((1, pos))
            work.append(item.arg)
            work.append(item.fun)
    if not acyclic():
        return None
    return parent, kids, ctx, node_ids, results[0]


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _resolve(roots, parent, kids) -> dict[int, SimpleType]:
    """Build SimpleType trees for the representatives of ``roots``.

    Iterative post-order over the solved forest; safe for types as deep
    as the term that produced them.
    """
    built: dict[int, SimpleType] = {}
    for r in roots:
        stack = [_find(parent, r)]
        while stack:
            v = stack[-1]
            if v in built:
                stack.pop()
                continue
            pair = kids[v]
            if pair is None:
                built[v] = TVar(v)
                stack.pop()
                continue
            dom, cod = _find(parent, pair[0]), _find(parent, pair[1])
            missing = [w for w in (dom, cod) if w not in built]
            if missing:
                stack.extend(missing)
                continue
            built[v] = Arrow(built[dom], built[cod])
            stack.pop()
    return built


def is_typable(term: Term, free_count: int = 0) -> bool:
    return _solve(term, free_count) is not None


def infer(term: Term, free_count: int = 0) -> Optional[Typing]:
    """Principal typing of ``term``, or None if it has no simple type."""
    solved = _solve(term, free_count)
    if solved is None:
        return None
    parent, kids, ctx, _, root = solved
    built = _resolve([root, *ctx], parent, kids)
    return Typing(
        built[_find(parent, root)],
        tuple(built[_find(parent, c)] for c in ctx),
    )


def infer_annotated(
    term: Term, free_count: int = 0
) -> Optional[tuple[Typing, tuple[SimpleType, ...]]]:
    """Like ``infer`` but also returns one type per subterm, in preorder.

    The annotations let an external checker replay the typing rules
    against each node without trusting the solver.
    """
    solved = _solve(term, free_count)
    if solved is None:
        return None
    parent, kids, ctx, node_ids, root = solved
    built = _resolve([root, *ctx, *node_ids], parent, kids)
    typing = Typing(
        built[_find(parent, root)],
        tuple(built[_find(parent, c)] for c in ctx),
    )
    return typing, tuple(built[_find(parent, v)] for v in node_ids)


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


# The cell unifier shared by the census walk and the typed unrank of
# ``enumeration.sample_typable``.  A type is a cell: ``[None]`` is an
# unbound variable, ``[t]`` a variable bound to t, and a tuple
# ``(domain, codomain)`` an arrow.  Bindings are the union-find's links;
# ``resolve`` follows them without compressing, and every binding passes
# an occurs check.  Arrows are never merged, only their components
# unified, so no cycle can form and no acyclicity pass is needed.


def resolve(t):
    """The arrow or unbound variable that ``t`` stands for."""
    while type(t) is list and t[0] is not None:
        t = t[0]
    return t


def bind(var: list, t, trail: list) -> bool:
    """Bind the unbound ``var`` to the resolved ``t``, unless var occurs in t."""
    if type(t) is tuple:
        todo = list(t)
        while todo:
            u = todo.pop()
            while type(u) is list and u[0] is not None:
                u = u[0]
            if u is var:
                return False
            if type(u) is tuple:
                todo += u
    var[0] = t
    trail.append(var)
    return True


def unify(x, y, trail: list) -> bool:
    """Unify two cells, appending each binding to ``trail``; False on a clash.

    On failure the bindings made so far stay in place (and on the trail).
    Iterative: pairs of arrow components wait on a stack, codomains
    below domains.
    """
    todo: list = []
    while True:
        # resolve, inlined: this loop runs for every index a walk places
        while type(x) is list and x[0] is not None:
            x = x[0]
        while type(y) is list and y[0] is not None:
            y = y[0]
        if x is not y:
            if type(x) is list:
                if not bind(x, y, trail):
                    return False
            elif type(y) is list:
                if not bind(y, x, trail):
                    return False
            else:
                todo += (x[1], y[1])
                x, y = x[0], y[0]
                continue
        if not todo:
            return True
        y = todo.pop()
        x = todo.pop()


def _typed_walk(n: int, live: list[list[bool]] | None) -> int:
    """Number of typable terms of size ``n``, by one depth-first walk.

    The walk builds terms in preorder from a stack of holes, each a
    (size, expected type, binder types) triple, and types every node as
    it places it: an abstraction unifies the expected type with a fresh
    ``a -> b`` and opens a body hole of type ``b`` under binder ``a``,
    an application splits the size between a function hole of type
    ``a -> expected`` and an argument hole of type ``a``, and an index
    unifies its binder's type with the expected one.  Only indices can
    fail, and a failure cuts off every completion of the prefix at once.

    ``live`` is None for the all-terms column, where a free index takes
    its context slot's type: a fresh variable created at the slot's
    first use and dropped when the walk backs out of it.  For the closed
    column ``live[d][s]`` says whether any term of size s has its free
    indices in 1..d, and holes of empty classes are never opened.

    Types are the cells of ``unify``; every binding goes on a trail, so
    backtracking can unbind it.
    """
    trail: list[list] = []
    context: dict[int, object] = {}
    holes: list[tuple] = [(n, [None], ())]

    def undo(mark: int) -> None:
        while len(trail) > mark:
            trail.pop()[0] = None

    def walk() -> int:
        if not holes:
            return 1
        hole = holes.pop()
        size, want, binders = hole
        depth = len(binders)
        mark = len(trail)
        found = 0
        i = size - 1  # the one index of this size
        if i <= depth:
            if unify(binders[-i], want, trail):
                found += walk()
            undo(mark)
        elif live is None:  # a free index: unify with its context slot
            slot = i - depth
            if slot in context:
                if unify(context[slot], want, trail):
                    found += walk()
                undo(mark)
            else:  # first use: the slot's fresh variable takes want
                context[slot] = want
                found += walk()
                del context[slot]
        body = size - 2
        if body >= 2 and (live is None or live[depth + 1][body]):
            t = resolve(want)
            if type(t) is tuple:
                dom, cod = t
            else:
                dom, cod = [None], [None]
                bind(t, (dom, cod), trail)
            holes.append((body, cod, binders + (dom,)))
            found += walk()
            holes.pop()
            undo(mark)
        for fun in range(2, size - 3):
            arg = size - 2 - fun
            if live is not None and not (live[depth][fun] and live[depth][arg]):
                continue
            a = [None]
            holes.append((arg, a, binders))
            holes.append((fun, (a, want), binders))
            found += walk()
            del holes[-2:]
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
    untypable prefix is cut off once for all its completions; it is
    exact, and its cost grows about 1.8 times per size.  The closed
    column reads ``table`` (default: the shared one) to skip empty
    subterm classes.  ``jobs`` is accepted but advisory: the walk runs
    in the calling thread.
    """
    if n < 2:
        return 0
    if not closed:
        return _typed_walk(n, None)
    tbl = table or counting.shared_table()
    live = [[tbl.count(d, s) > 0 for s in range(n + 1)] for d in range(n // 2 + 2)]
    return _typed_walk(n, live) if live[0][n] else 0
