"""Reference values and independent recomputations for the output checks.

Nothing here calls into ``blc`` except to recognise its term node
classes: the counts come from this file's own series and recurrence
code, the codec check from its own encoder, and the expected sampler
ranks from its own draw on the documented MT19937 envelope.
"""

from __future__ import annotations

import math
import random
from operator import mul

INF = math.inf

# Known single values quoted in the project README.
KNOWN_COUNTS = {(0, 19): 431, (INF, 16): 745}

# Typable-term census by size 0..22, closed and unrestricted columns.
TYPABLE_CLOSED = [
    0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 5, 4, 9, 13, 23, 29, 67, 94, 179, 285,
    503, 795, 1503,
]
TYPABLE_ALL = [
    0, 0, 1, 1, 2, 2, 3, 5, 8, 13, 22, 36, 58, 103, 177, 307, 535, 949,
    1645, 2936, 5207, 9330, 16613,
]

# Constant targets and the tolerances the acceptance criteria state.
RHO = 0.509308127
GROWTH = 1.963447954
C = 1.021874073
ROOTS = (-3.668100004, -0.623845142, 0.509308127, 1.0)
RHO_TOL = GROWTH_TOL = 1e-9
C_TOL = ROOT_TOL = 1e-6

# rho to double precision, for rescaling counts in the convergence check.
RHO_DOUBLE = 0.5093081270242374


def unbounded_counts(max_n: int) -> list[int]:
    """Coefficients 0..max_n of G(z) = z^2/(1-z) + z^2 G + z^2 G^2."""
    g = [0] * (max_n + 1)
    for n in range(2, max_n + 1):
        b = n - 2
        g[n] = 1 + g[b] + sum(map(mul, g[: b + 1], g[b::-1]))
    return g


class Counts:
    """Exact count(m, n) from the recurrence, filled bound by bound.

    Row m is stored densely from size 0, with no aliasing between rows.
    ``need`` says which (m, n) will be asked for: it builds the rows of
    the larger bounds those depend on from the top down, keeping only the
    one just above the row being filled, so memory stays linear in the
    sizes asked for.
    """

    def __init__(self) -> None:
        self._inf: list[int] = [0]
        self._rows: dict[int, list[int]] = {}

    def need(self, pairs) -> None:
        finite: dict[int, int] = {}
        top = 0
        for m, n in pairs:
            top = max(top, n)
            if m != INF and m < n - 1:
                finite[m] = max(finite.get(m, 0), n)
        if top >= len(self._inf):
            self._inf = unbounded_counts(top)
        if not finite:
            return
        # Row m at size n reads row m + 1 at size n - 2.
        length: dict[int, int] = {}
        carry = 0
        for m in range(min(finite), max(finite) + top // 2 + 2):
            carry = max(finite.get(m, 0), carry - 2)
            if carry > m + 1:
                length[m] = carry
        above: list[int] = []
        for m in sorted(length, reverse=True):
            row = self._row(m, length[m], above)
            if m in finite:
                self._rows[m] = row
            above = row

    def _row(self, m: int, length: int, above: list[int]) -> list[int]:
        """Row m through ``length``, given row m + 1 as far as it is needed."""
        g = self._inf
        row = [0] * (length + 1)
        for n in range(2, length + 1):
            b = n - 2
            if m >= n - 1:
                row[n] = g[n]
                continue
            body = g[b] if m + 1 >= b - 1 else above[b]
            row[n] = body + sum(map(mul, row[: b + 1], row[b::-1]))
        return row

    def count(self, m, n: int) -> int:
        if m == INF or m >= n - 1:
            if n >= len(self._inf):
                self._inf = unbounded_counts(n)
            return self._inf[n]
        row = self._rows.get(m)
        if row is None or len(row) <= n:
            self.need([(m, n)])
            row = self._rows[m]
        return row[n]


def bits_of(term) -> str:
    """The binary code of a term: 1^i 0, 00 body, 01 fun arg."""
    out: list[str] = []
    stack = [term]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        if name == "Index":
            out.append("1" * node.i + "0")
        elif name == "Abs":
            out.append("00")
            stack.append(node.body)
        else:
            out.append("01")
            stack.append(node.arg)
            stack.append(node.fun)
    return "".join(out)


def max_free(term) -> int:
    """Largest free de Bruijn index of a term (0 when closed)."""
    best = 0
    stack = [(term, 0)]
    while stack:
        node, depth = stack.pop()
        name = type(node).__name__
        if name == "Index":
            best = max(best, node.i - depth)
        elif name == "Abs":
            stack.append((node.body, depth + 1))
        else:
            stack.append((node.fun, depth))
            stack.append((node.arg, depth))
    return best


def drawn_rank(seed: int, total: int) -> int:
    """The rank a fresh ``Sampler(seed)`` draws from 1..total: take
    bit_length(total - 1) bits of MT19937 until the value is below total."""
    rng = random.Random(seed)
    bits = (total - 1).bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < total:
            return value + 1


def scaled(count: int, n: int) -> float:
    """count * rho^n * n^1.5, the convergence series value."""
    return math.exp(math.log(count) + n * math.log(RHO_DOUBLE) + 1.5 * math.log(n))
