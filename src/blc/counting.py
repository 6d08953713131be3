"""Exact counts of lambda terms by size and free-index bound.

``count(m, n)`` is the number of terms of size ``n`` all of whose free
indices lie in 1..m; ``count(math.inf, n)`` drops the bound and counts
every term of size ``n``.  Values are exact integers from the
recurrence

    count(m, 0)     = count(m, 1) = 0
    count(m, n + 2) = [m >= n + 1]
                    + count(m + 1, n)
                    + sum_{k=0}^{n} count(m, k) * count(m, n - k)

where the bracket contributes 1 for the variable of size n + 2 (always
present in the unbounded case), the middle term counts abstractions and
the convolution counts applications.  Every row is 0 at sizes 0 and 1,
so the convolution runs over k = 2..n - 2, and its k <-> n - k symmetry
halves the products.

An index worth i + 1 bits cannot exceed n - 1 inside a term of size n,
so ``count(m, n) == count(math.inf, n)`` for every m >= n - 1.  The
unbounded counts are the coefficients of one algebraic series,
G = z^2 / (1 - z) + z^2 G + z^2 G^2, so they also satisfy a linear
recurrence of order 6 (``CountTable.ensure``), and that row costs about
7 big-integer steps per size.  A bounded count ``count(m, n)`` with
m < n - 1 reads row m + 1 two sizes lower, row m + 2 four sizes lower,
and so on, until the bound reaches the size and the row equals the
unbounded one: a cone of about n^3 / 27 products for m = 0, against the
n^3 / 6 of filling every bounded row through n.  The table fills only
that cone, and ``CountTable.cone`` hands its rows to the walks that read
it: ``unrank``, ``rank`` and the closed census.  A long fill packs four
row entries per integer, which count <= 2^size keeps apart, and so makes
a quarter of the products, plus a fixed few per column (``_packed_pass``).
"""

from __future__ import annotations

import math
import threading
from operator import mul

__all__ = ["CountTable", "count", "count_row", "verify_functional_equation"]


# First size and fewest columns of ``_extend_row``'s packed pass (measured).
_PACKED_FROM = 8
_PACKED_MIN_COLUMNS = 16


def _extend_row(row: list[int], above: list[int], last: int) -> None:
    """Append row[c] = above[c - 2] + sum_{i=2}^{c-4} row[i] * row[c - 2 - i],
    halved by symmetry, for c = len(row)..last; ``above`` is the body's row.

    No term has size 0 or 1, so column c reads row entries below c - 3,
    and columns c..c + 3 can share one product (``_packed_pass``).  Its
    packs cost O(len(row)), so it needs 16 or more columns: on 2-core
    x86_64 it took 1.6-1.7, 1.0-1.1, 0.70-0.83 and 0.54-0.63 times the
    direct time to add 4, 8, 16 and 32 columns to rows of 120-300 entries,
    and 0.93-1.05 times to add 16 to rows of 8-64.  It starts at size 8:
    fresh fills at n = 60-140 took 0.76-0.94 times as long as from size 64,
    and at most 0.03 ms longer below n = 60.
    """
    split = max(len(row), _PACKED_FROM)
    if last + 1 - split < _PACKED_MIN_COLUMNS:
        split = last + 1
    for col in range(len(row), split):
        b = col - 2
        half = sum(map(mul, row[2 : (b + 1) // 2], row[b - 2 : b // 2 : -1]))
        row.append(above[b] + 2 * half + (row[b // 2] ** 2 if b % 2 == 0 else 0))
    if split <= last:
        _packed_pass(row, above, split, last)


def _packed_pass(row: list[int], above: list[int], first: int, last: int) -> None:
    """``_extend_row`` for columns first..last, four per big-integer product.

    For columns c..c + 3, with ``packs[i]`` holding row[i..i + 3] in slots
    of w = last + 2 bits, b = c - 2 and h = (b + 1) // 2, slot t of
    sum_{i=2}^{h-1} row[i] * packs[b - i] is the part i < h of column
    c + t's half sum.  The rest of it doubled, plus the middle square, is
    r0^2, 2 r0 r1, 2 r0 r2 + r1^2 and 2 (r0 r3 + r1 r2) for t = 0..3 if b
    is even, and 0 then the first three if b is odd, with r = row[h..h + 3]
    (filled: h + 3 < c).  A read slot is exact: distinct codes of size s
    are distinct s-bit strings, so row[s] <= 2^s, and a slot is at most the
    entry it builds, below 2^last < 2^w; only slots past ``last`` can
    carry, into slots that are never read either.
    """
    w, w2, w3 = last + 2, 2 * last + 4, 3 * last + 6
    mask = (1 << w) - 1
    packs = [
        row[i] | row[i + 1] << w | row[i + 2] << w2 | row[i + 3] << w3
        for i in range(first - 3)
    ]
    # A last group cut short reads zeros past above[last - 2].
    above = above[: last - 1] + [0, 0, 0]
    for c in range(first, last + 1, 4):
        b = c - 2
        h = (b + 1) // 2
        acc = sum(map(mul, row[2:h], packs[b - 2 : b - h : -1]))
        r0, r1, r2, r3 = row[h : h + 4]
        e = r0 * r0, 2 * r0 * r1, 2 * r0 * r2 + r1 * r1
        e0, e1, e2, e3 = (0, *e) if b % 2 else (*e, 2 * (r0 * r3 + r1 * r2))
        v0 = above[b] + 2 * (acc & mask) + e0
        v1 = above[b + 1] + 2 * (acc >> w & mask) + e1
        v2 = above[b + 2] + 2 * (acc >> w2 & mask) + e2
        v3 = above[b + 3] + 2 * (acc >> w3) + e3
        row += (v0, v1, v2, v3)[: last + 1 - c]
        p0 = packs[-1] >> w | v0 << w3
        p1 = p0 >> w | v1 << w3
        p2 = p1 >> w | v2 << w3
        packs += (p0, p1, p2, p2 >> w | v3 << w3)


def _saturation_depth(m: int | float, n: int) -> int:
    """First d >= 0 with m + d >= n - 2d - 1: from there on, the classes
    (m + d, s) with s <= n - 2d all equal the unbounded ones."""
    return (n + 1 - m) // 3 if m < n - 1 else 0


def check_bound(m: int | float) -> None:
    """Raise ValueError unless ``m`` is a nonnegative int or math.inf."""
    if m != math.inf and not (isinstance(m, int) and m >= 0):
        raise ValueError(f"free-index bound must be a nonnegative int or math.inf, got {m!r}")


class CountTable:
    """Memo table for the counting recurrence, filled on demand.

    ``_inf`` is the unbounded row and ``_rows[m]`` the row of finite
    bound m, both dense from size 0; a row's length is how far it is
    filled.  ``ensure(n)`` fills only the unbounded row, in O(n) steps;
    ``count(m, n)`` fills the bounded rows it reads, which for
    m < n - 1 is the cone of rows m, m + 1, ... through sizes n,
    n - 2, ..., about n^3 / 27 products at m = 0.  Fills of 16 or more
    columns from size 8 on take four columns per big-integer product, in
    slots that count(m, s) <= 2^s keeps apart (``_packed_pass``).

    A fill holds the table's lock and appends an entry, to the unbounded
    row or a bounded one, only once it is computed; rows only grow.  So
    a fill cut short by an exception leaves every published entry
    correct, two threads never fill the same entry, and a lookup of an
    entry already filled takes no lock.
    """

    def __init__(self, max_n: int = 0):
        self._inf: list[int] = [0]
        self._rows: list[list[int]] = []
        self._lock = threading.Lock()
        if max_n > 0:
            self.ensure(max_n)

    @property
    def max_n(self) -> int:
        """Largest size the unbounded row is filled through."""
        return len(self._inf) - 1

    def ensure(self, n: int) -> None:
        """Fill the unbounded row through size ``n`` (no-op if already there).

        From a(0..5) = 0, 0, 1, 1, 2, 2 on, the row follows

            (n + 2) a(n) = 2 (n + 1) a(n - 1) + (n - 2) a(n - 2)
                         - 4 (n - 2) a(n - 3) + (5n - 18) a(n - 4)
                         - 2 (n - 4) a(n - 5) - (n - 6) a(n - 6),   n >= 6,

        six products of a big integer by a small one and one exact
        division per size.  Proof: clearing denominators in
        G = z^2 / (1 - z) + z^2 G + z^2 G^2 gives

            2 z^2 (1 - z) G = (1 - z)(1 - z^2) - sqrt(R),

        with R the sextic ``asymptotics.SINGULARITY_POLY``.  Write the
        recurrence as sum_{i=0}^{6} p_i(n) a(n - i) = 0 with
        p_i(n) = alpha_i n + beta_i (p_0 = n + 2, p_1 = -2(n + 1), ...)
        and a(k) = 0 for k < 0.  Its left side is the z^n coefficient of

            sum_i z^i (alpha_i z G' + (alpha_i i + beta_i) G),

        and substituting the closed form, with sqrt(R)' = R' / (2 sqrt(R)),
        turns that series into the polynomial z^2 (4 - 3z - z^3).  Its
        degree is 5, so the recurrence holds for every n >= 6.
        """
        if n <= self.max_n:
            return
        with self._lock:
            a = self._inf
            a.extend((0, 0, 1, 1, 2, 2)[len(a) : n + 1])
            for k in range(len(a), n + 1):
                a.append(
                    (
                        2 * (k + 1) * a[k - 1]
                        + (k - 2) * a[k - 2]
                        - 4 * (k - 2) * a[k - 3]
                        + (5 * k - 18) * a[k - 4]
                        - 2 * (k - 4) * a[k - 5]
                        - (k - 6) * a[k - 6]
                    )
                    // (k + 2)
                )

    def _fill_cone(self, m: int, n: int) -> None:
        """Fill rows m, m + 1, ... through the sizes ``count(m, n)`` reads."""
        self.ensure(n)
        with self._lock:
            inf = self._inf
            rows = self._rows
            # Row j is read through size n - 2(j - m); from row top on,
            # that size is at most j + 1 and the row equals the unbounded one.
            top = m + _saturation_depth(m, n)
            while len(rows) < top:
                rows.append([])
            for j in range(top - 1, m - 1, -1):
                row = rows[j]
                last = n - 2 * (j - m)
                row.extend(inf[len(row) : j + 2])
                # From column j + 2 on no variable fits.  Row j + 1 starts
                # as the unbounded row, and the top row reads its body
                # only at sizes <= top + 1, where row top saturates.
                _extend_row(row, rows[j + 1] if j + 1 < top else inf, last)

    def count(self, m: int | float, n: int) -> int:
        """Exact count for free-index bound ``m`` (math.inf allowed)."""
        if n < 0:
            raise ValueError(f"size must be >= 0, got {n}")
        check_bound(m)
        if m >= n - 1:
            if n >= len(self._inf):
                self.ensure(n)
            return self._inf[n]
        rows = self._rows
        if m >= len(rows) or n >= len(rows[m]):
            self._fill_cone(m, n)
        return rows[m][n]

    def cone(self, m: int | float, n: int) -> list[list[int]]:
        """The rows that ``count(m, n)`` reads, by depth d = 0..n // 2.

        ``cone(m, n)[d][s] == count(m + d, s)`` for every s <= n - 2d; from
        the first d where m + d >= n - 2d - 1 on, the entry is the
        unbounded row.  The entries are the table's own rows: do not
        modify them.  They may be read with no lock, since rows only grow
        and a fill appends an entry only once it is computed.
        """
        self.count(m, n)
        top = _saturation_depth(m, n)
        bounded = self._rows[m : m + top] if top else []
        return bounded + [self._inf] * (n // 2 + 1 - top)

    def count_row(self, m: int | float, max_n: int) -> list[int]:
        """Counts for sizes 0..max_n at bound ``m``, from one fill at max_n
        rather than one column per size."""
        check_bound(m)
        return self.cone(m, max_n)[0][: max_n + 1] if max_n >= 0 else []


_shared = CountTable()


def shared_table() -> CountTable:
    """The module-wide table reused across calls that pass no table."""
    return _shared


def count(m: int | float, n: int, *, table: CountTable | None = None) -> int:
    return (table or _shared).count(m, n)


def count_row(m: int | float, max_n: int, *, table: CountTable | None = None) -> list[int]:
    return (table or _shared).count_row(m, max_n)


def verify_functional_equation(max_n: int, *, table: CountTable | None = None) -> bool:
    """Check that the unbounded counts solve, as truncated power series,

        G(z) = z^2 / (1 - z) + z^2 G(z) + z^2 G(z)^2.

    The three right-hand terms are the variables (one per size >= 2),
    the abstractions and the applications.  The series arithmetic here
    is written out directly and shares nothing with the table's fill,
    which builds the unbounded row from the linear recurrence in
    ``CountTable.ensure``, so it is an independent check of every
    coefficient up to ``max_n``.  Returns True iff they all agree.
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    g = (table or _shared).count_row(math.inf, max_n)
    for n in range(max_n + 1):
        if n >= 2:
            square = sum(g[k] * g[n - 2 - k] for k in range(n - 1))
            rhs = 1 + g[n - 2] + square
        else:
            rhs = 0
        if g[n] != rhs:
            return False
    return True
