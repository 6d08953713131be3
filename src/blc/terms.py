"""De Bruijn lambda terms and their self-delimiting binary code.

A term is an immutable tree built from three node kinds: ``Index(i)``
is a variable (de Bruijn index, counted from 1), ``Abs(body)`` an
abstraction, ``App(fun, arg)`` an application.  The binary code is the
prefix code

    Index(i)       ->  1^i 0
    Abs(body)      ->  00 <body>
    App(fun, arg)  ->  01 <fun> <arg>

and the size of a term is the bit length of its code: an index costs
i + 1 bits, an abstraction or application adds 2.  The smallest term is
``Index(1)`` at size 2; no term has size 0 or 1.

Bit strings are plain Python ``str`` over the characters '0' and '1'.
Every traversal here is iterative, ``==``, ``hash``, ``repr`` and
pickling included, so terms nested thousands of levels deep are handled
without touching the interpreter recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import index as _as_int

from ._record import Record, setfield

__all__ = [
    "Index",
    "Abs",
    "App",
    "Term",
    "DecodeError",
    "Truncated",
    "TrailingBits",
    "ParseError",
    "FreeIndexExceeded",
    "size",
    "encode",
    "decode",
    "max_free_index",
    "render",
    "parse_text",
]


class Index(Record):
    """Variable occurrence; ``i`` counts enclosing binders starting at 1."""

    __slots__ = __match_args__ = ("i",)

    def __init__(self, i: int):
        i = _as_int(i)  # TypeError for a non-integer; True is stored as 1
        if i < 1:
            raise ValueError(f"de Bruijn indices start at 1, got {i}")
        setfield(self, "i", i)


class Abs(Record):
    __slots__ = __match_args__ = ("body",)

    def __init__(self, body: Term):
        setfield(self, "body", body)


class App(Record):
    __slots__ = __match_args__ = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        setfield(self, "fun", fun)
        setfield(self, "arg", arg)


Term = Index | Abs | App


class DecodeError(ValueError):
    """The input is not the code of any term."""


class Truncated(DecodeError):
    """The input ran out in the middle of a term."""


class TrailingBits(DecodeError):
    """A complete term was decoded but input bits remain."""


class ParseError(ValueError):
    """Text input does not parse as a term."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FreeIndexExceeded(ValueError):
    """A term refers to a free index above the permitted bound."""


def size(term: Term) -> int:
    """Bit length of ``encode(term)``, computed without building the code."""
    n = 0
    stack = [term]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Index:
            n += node.i + 1
        elif tp is Abs:
            n += 2
            stack.append(node.body)
        else:
            n += 2
            stack.append(node.fun)
            stack.append(node.arg)
    return n


def encode(term: Term) -> str:
    """Binary code of ``term`` as a '0'/'1' string."""
    parts: list[str] = []
    stack = [term]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is Index:
            parts.append("1" * node.i + "0")
        elif tp is Abs:
            parts.append("00")
            stack.append(node.body)
        else:
            parts.append("01")
            stack.append(node.arg)
            stack.append(node.fun)
    return "".join(parts)


def _build(preorder: list) -> Term:
    """The term whose nodes, in preorder, are ``preorder``: ``Index``
    leaves, and the classes ``Abs`` and ``App`` for inner nodes."""
    stack: list = []  # finished subterms, the leftmost on top
    for node in reversed(preorder):
        if node is Abs:
            stack[-1] = Abs(stack[-1])
        elif node is App:
            fun = stack.pop()
            stack[-1] = App(fun, stack[-1])
        else:
            stack.append(node)
    return stack[0]


def decode(bits: str) -> Term:
    """Parse a binary code back into a term.

    Raises ``Truncated`` if the input stops mid-term, ``TrailingBits``
    if a complete term leaves input behind, and ``ValueError`` on
    characters other than '0' and '1'.  ``decode(encode(t)) == t`` for
    every term, and ``encode(decode(b)) == b`` whenever decode accepts.
    """
    if bits.count("0") + bits.count("1") != len(bits):
        raise ValueError("bit string may contain only '0' and '1'")
    n = len(bits)
    pos = 0
    todo = 1  # subterms opened but not finished
    nodes: list = []
    try:  # an IndexError means the input ended before the term did
        while todo:
            if bits[pos] == "1":
                run = bits.find("0", pos)
                if run < 0:
                    raise Truncated("index run of 1s is missing its terminating 0")
                nodes.append(Index(run - pos))
                pos = run + 1
                todo -= 1
            elif bits[pos + 1] == "0":
                nodes.append(Abs)
                pos += 2
            else:
                nodes.append(App)
                pos += 2
                todo += 1
    except IndexError:
        raise Truncated(f"input ended inside a term (after {n} bits)") from None
    if pos != n:
        raise TrailingBits(f"term complete after {pos} bits, {n - pos} left over")
    return _build(nodes)


def max_free_index(term: Term) -> int:
    """Largest free index in ``term`` (0 when the term is closed).

    An occurrence ``Index(i)`` under d enclosing binders is free iff
    i > d, and then refers to free slot i - d.
    """
    best = 0
    stack = [(term, 0)]
    while stack:
        node, depth = stack.pop()
        tp = type(node)
        if tp is Index:
            free = node.i - depth
            if free > best:
                best = free
        elif tp is Abs:
            stack.append((node.body, depth + 1))
        else:
            stack.append((node.fun, depth))
            stack.append((node.arg, depth))
    return best


def render(term: Term) -> str:
    """Text form: ``\\`` binds an abstraction, ``(f a)`` an application,
    indices print as decimal numbers.  Inverse of ``parse_text``."""
    parts: list[str] = []
    stack: list = [term]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is str:
            parts.append(node)
        elif tp is Index:
            parts.append(str(node.i))
        elif tp is Abs:
            parts.append("\\")
            stack.append(node.body)
        else:
            parts.append("(")
            stack.append(")")
            stack.append(node.arg)
            stack.append(" ")
            stack.append(node.fun)
    return "".join(parts)


def _tokens(text: str) -> Iterator[tuple[str, int]]:
    pos, n = 0, len(text)
    while pos < n:
        c = text[pos]
        if c.isspace():
            pos += 1
        elif c in "\\()":
            yield c, pos
            pos += 1
        elif c in "0123456789":
            start = pos
            while pos < n and text[pos] in "0123456789":
                pos += 1
            yield text[start:pos], start
        else:
            raise ParseError(f"unexpected character {c!r}", pos)


def parse_text(text: str) -> Term:
    """Parse the text form produced by ``render``.

    Grammar: term ::= INDEX | '\\' term | '(' term term ')' with INDEX a
    decimal integer >= 1; whitespace between tokens is ignored.  Raises
    ``ParseError`` (with a position) on anything else.
    """
    toks = list(_tokens(text))
    k = 0
    nodes: list = []
    apps: list[bool] = []  # per open application: is its function part done?
    while True:
        if k >= len(toks):
            raise ParseError("unexpected end of input", len(text))
        tok, pos = toks[k]
        k += 1
        if tok == "\\":
            nodes.append(Abs)
            continue
        if tok == "(":
            nodes.append(App)
            apps.append(False)
            continue
        if tok == ")":
            raise ParseError("unexpected ')'", pos)
        idx = int(tok)
        if idx < 1:
            raise ParseError("de Bruijn indices start at 1", pos)
        nodes.append(Index(idx))
        # The finished subterm closes every application whose argument it ends.
        while apps and apps[-1]:
            if k >= len(toks):
                raise ParseError("expected ')'", len(text))
            ctok, cpos = toks[k]
            if ctok != ")":
                raise ParseError("expected ')'", cpos)
            k += 1
            apps.pop()
        if not apps:
            if k != len(toks):
                raise ParseError("trailing input after a complete term", toks[k][1])
            return _build(nodes)
        apps[-1] = True
