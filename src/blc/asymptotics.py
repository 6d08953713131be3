"""Singularity analysis of the term-counting sequences.

The generating function of the unbounded counts satisfies a quadratic
equation; clearing denominators puts an explicit sextic under its
square root.  The smallest positive root rho of that sextic is the
dominant singularity, 1/rho the exponential growth rate of the counts,
and the square-root expansion at rho fixes the subexponential constant
chain reported by ``constants``.  The terms whose every index, bound or
free, is at most m have their own discriminant (``bound_discriminant``),
whose smallest positive root ``sigma(m)`` decreases to rho as m grows;
bounding only the free indices, as ``count(m, n)`` does, keeps rho.

Root isolation is exact and in integers only: a Sturm chain of primitive
integer polynomials (``sigma`` needs none: one sign change), halving
until each cell holds one root, then sign bisection, at points sharing
one denominator.  The constant chain and the scaled counts are evaluated
in integers too, every exact value held as a (numerator, denominator)
pair, square roots by ``math.isqrt`` to 2**-160 or finer, and each value
is rounded to float once by int true division, which rounds correctly.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from functools import lru_cache

from . import counting
from ._record import Record

__all__ = [
    "SINGULARITY_POLY",
    "DISCRIMINANT_LIMIT",
    "bound_discriminant",
    "real_roots",
    "sigma",
    "AsymptoticReport",
    "constants",
    "ConvergencePoint",
    "convergence_series",
]


# Polynomials are int tuples, p[k] multiplying z^k.  The sextic whose
# smallest positive root is the dominant singularity:
# z^6 + 2 z^5 - 5 z^4 + 4 z^3 - z^2 - 2 z + 1.
SINGULARITY_POLY = (1, -2, -1, 4, -5, 2, 1)

# Limit of bound_discriminant(m) as m grows: 4 z^4 - (1 - z)^3 (1 + z)^2.
# Dividing SINGULARITY_POLY by (z - 1) gives the same quintic; the tests
# check both identities by exact expansion.
DISCRIMINANT_LIMIT = (-1, 1, 2, -2, 3, 1)


def bound_discriminant(m: int) -> tuple[int, ...]:
    """(z - 1) times the discriminant of G = z^2 (1 - z^m) / (1 - z) +
    z^2 G + z^2 G^2, which counts the terms whose every index, bound or
    free, is at most m: 4 z^4 (1 - z^m) - (1 - z)^3 (1 + z)^2, which is
    DISCRIMINANT_LIMIT less 4 z^(m+4).  An int tuple, low degree first."""
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"bound must be >= 0, got {m}")
    cs = list(DISCRIMINANT_LIMIT) + [0] * (m - 1)  # of degree max(5, m + 4)
    cs[m + 4] -= 4
    return tuple(cs)


# ---------------------------------------------------------------------------
# Exact root isolation in integer arithmetic.

_TOLERANCE = 1e-12  # how far a root real_roots returns may be from the true one


def _derivative(cs) -> list[int]:
    return [k * c for k, c in enumerate(cs) if k]


def _primitive(cs: list[int]) -> list[int]:
    """cs without trailing zeros, divided by the gcd of its entries."""
    while cs and not cs[-1]:
        cs = cs[:-1]
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the remainder of a by b.  Scaling the dividend
    by |lc(b)| before each step keeps it a positive multiple of the
    remainder over the rationals."""
    scale, sign, d = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b) - 1
    rem = list(a)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem.pop() * sign
        if c:
            rem = [scale * r for r in rem]
            for i in range(d):
                rem[top - d + i] -= c * b[i]
    return _primitive(rem)


def _divide(a: list[int], g: list[int]) -> list[int]:
    """a / g, for a primitive g that divides a over the rationals; by
    Gauss's lemma the quotient has integer coefficients."""
    rem = list(a)
    quot = [0] * (len(a) - len(g) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem[shift + len(g) - 1] // g[-1]
        for i, gi in enumerate(g):
            rem[shift + i] -= c * gi
    return quot


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of the squarefree part of p.  The chain of p itself,
    each member a positive multiple of the one over the rationals, ends
    in g = gcd(p, p'); dividing every member by g leaves a chain whose
    first member p / g has the roots of p, every one simple."""
    chain = [p]
    deriv = _primitive(_derivative(p))
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        rem = _pseudo_remainder(chain[-2], chain[-1])
        if not rem:
            g = chain[-1]
            return [_divide(cs, g) for cs in chain]
        chain.append([-c for c in rem])
    return chain


def _scale(lo, hi, eps) -> tuple[int, int, int, int]:
    """[lo, hi] on one integer scale: lo = x_lo / den, hi = x_hi / den,
    for ends and a positive tolerance eps given as (numerator,
    denominator) pairs with positive denominators.  Halving [lo, hi]
    until its cells are no wider than eps ends at cells ``finest`` wide,
    and every point that halving visits, midpoints of the last cells
    included, is an integer over den."""
    (a, a_den), (b, b_den), (e, e_den) = lo, hi, eps
    width = b * a_den - a * b_den  # (hi - lo) * a_den * b_den
    if width < 0:
        raise ValueError("need lo <= hi")
    cells = -(-width * e_den // (a_den * b_den * e))  # ceil((hi - lo) / eps)
    halvings = max(cells - 1, 0).bit_length()
    den = math.lcm(a_den, b_den) << (halvings + 1)
    x_lo, x_hi = a * (den // a_den), b * (den // b_den)
    return x_lo, x_hi, den, (x_hi - x_lo) >> halvings


def _horner(cs: list[int], x: int, den: int) -> int:
    """The integer den**degree * cs(x / den), by homogeneous Horner
    evaluation."""
    acc, w = cs[-1], 1
    for c in cs[-2::-1]:
        w *= den
        acc = acc * x + c * w
    return acc


def _sign(cs: list[int], x: int, den: int) -> int:
    """Sign of the polynomial cs at x / den."""
    acc = _horner(cs, x, den)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[list[int]], x: int, den: int) -> tuple[int, int]:
    """Sign variations of a Sturm chain at x / den, and the sign of its
    first member there."""
    signs = [_sign(cs, x, den) for cs in chain]
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:])), signs[0]


def _simplest_between(a: int, b: int, den: int) -> tuple[int, int]:
    """The rational with the smallest denominator in the open interval
    (a / den, b / den), as (numerator, denominator): continued-fraction
    terms are shared by both ends until an integer fits strictly
    between them."""
    if a < 0 < b:
        return 0, 1
    if b <= 0:
        num, d = _simplest_between(-b, -a, den)
        return -num, d
    p, q, r, s = a, den, b, den  # the interval is (p / q, r / s); s == 0 is +inf
    h_prev, h, k_prev, k = 0, 1, 1, 0  # the last two convergents
    while True:
        whole = p // q
        if (whole + 1) * s < r:
            whole += 1
            return whole * h + h_prev, whole * k + k_prev
        h_prev, h, k_prev, k = h, whole * h + h_prev, k, whole * k + k_prev
        p, q, r, s = s, r - whole * s, q, p - whole * q


def _bisect(q: list[int], a: int, b: int, den: int, finest: int, sign_a: int) -> tuple[int, int]:
    """The one root of q in (a / den, b / den), where q has sign sign_a
    just right of a / den, as (numerator, denominator): the point it sits
    on if bisection visits it, else the simplest rational of its cell
    that is ``finest`` wide if that is a root, else the midpoint of that
    cell."""
    while b - a > finest:
        x = (a + b) // 2
        s = _sign(q, x, den)
        if not s:
            return x, den
        if s == sign_a:
            a = x
        else:
            b = x
    num, d = _simplest_between(a, b, den)
    if not _sign(q, num, d):
        return num, d
    return (a + b) // 2, den


def real_roots(p: Iterable[int], lo, hi) -> list[float]:
    """All distinct real roots in [lo, hi] of the integer polynomial p,
    its coefficients low degree first, ascending, each within 1e-12 of
    the true value.

    Cells (x, y] of [lo, hi] are halved until a Sturm count shows one
    root in each, which is then bisected on the sign of p.  A root is
    exact when a point the halving visits hits it, or when it is the
    rational with the smallest denominator in the first halving cell no
    wider than 1e-12 that holds it; else it is that cell's midpoint
    (whatever route led there).  Roots closer than that may share one
    midpoint.
    """
    cs = _primitive(list(p))  # a positive multiple: the same signs and roots
    if not cs:
        raise ValueError("the zero polynomial vanishes everywhere")
    for name, x in (("lo", lo), ("hi", hi)):
        if x != x or abs(x) == math.inf:
            raise ValueError(f"{name} must be finite, got {x}")
    ratios = lo.as_integer_ratio(), hi.as_integer_ratio(), _TOLERANCE.as_integer_ratio()
    x_lo, x_hi, den, finest = _scale(*ratios)
    chain = _sturm_chain(cs)
    v_lo, s_lo = _variations(chain, x_lo, den)
    roots = [] if s_lo else [(x_lo, den)]
    cells = [(x_lo, x_hi, v_lo, *_variations(chain, x_hi, den))]
    while cells:  # depth first, left half first: roots come out ascending
        a, b, v_a, v_b, s_b = cells.pop()
        inside = v_a - v_b
        if inside == 1:
            roots.append(_bisect(chain[0], a, b, den, finest, -s_b) if s_b else (b, den))
        elif inside and b - a <= finest:
            roots += [((a + b) // 2, den)] * inside
        elif inside:
            x = (a + b) // 2
            v, s = _variations(chain, x, den)
            cells += [(x, b, v, v_b, s_b), (a, x, v_a, v, s)]
    return [num / d for num, d in roots]


def _sigma_seed(m: int) -> float:
    """Newton's estimate of sigma(m), m >= 1, from 0.58, right of it; g is convex."""
    z = 0.58
    for _ in range(8):
        s = (1 - z**m) / (1 - z)  # 1 + z + ... + z^(m-1)
        ds = (s - m * z ** (m - 1)) / (1 - z)
        g = 4 * z**4 * s - (1 - z * z) ** 2
        z -= g / (16 * z**3 * s + 4 * z**4 * ds + 4 * z * (1 - z * z))
    return z


def sigma(m: int) -> float:
    """Smallest root in (0, 1] of ``bound_discriminant(m)``, to 1e-12.

    sigma(0) == 1 exactly, sigma(1) == 1/sqrt(3), and the sequence
    decreases toward rho as m grows.  For m >= 1 the polynomial is
    (1 - z) g(z), g(z) = 4 z^4 (1 + z + ... + z^(m-1)) - (1 - z^2)^2,
    and g rises strictly on [0, 1] from -1 to 4m, so bisecting [0, 1] on
    signs ends in real_roots' last cell and returns real_roots' float.
    """
    p = bound_discriminant(m)
    if not m:
        return 1.0  # p = -(1 - z)^3 (1 + z)^2, negative on [0, 1)
    _, _, den, finest = _scale((0, 1), (1, 1), _TOLERANCE.as_integer_ratio())
    z = _sigma_seed(m)
    a = int(z * den) // finest * finest if math.isfinite(z) else 0
    b = a + finest
    if not _sign(p, a, den) < 0 < _sign(p, b, den):
        a, b = 0, den  # the seed missed: bisect all of [0, 1]
    num, d = _bisect(p, a, b, den, finest, -1)
    return num / d


# ---------------------------------------------------------------------------
# The constant chain.


@lru_cache(maxsize=None)
def _rho_exact() -> tuple[int, int]:
    """The dominant singularity within 2**-140, as (numerator,
    denominator)."""
    x_lo, x_hi, den, finest = _scale((2, 5), (3, 5), (1, 2**140))
    assert _sign(SINGULARITY_POLY, x_lo, den) > 0 > _sign(SINGULARITY_POLY, x_hi, den)
    return _bisect(SINGULARITY_POLY, x_lo, x_hi, den, finest, 1)


# pi to 63 digits, within 1e-62 (about 2**-206), as (numerator, denominator)
_PI = (314159265358979323846264338327950288419716939937510582097494459, 10**62)


class AsymptoticReport(Record):
    """Constant chain of the unbounded counting sequence.

    rho is the dominant singularity, growth = 1/rho the exponential
    growth rate, q_at_rho the scale factor of the square-root expansion
    at rho, c_tilde the coefficient it induces, and c = c_tilde divided
    by Gamma(-1/2) the constant with count(inf, n) ~ c * growth^n *
    n^(-3/2).  real_roots lists every real root of SINGULARITY_POLY on
    [-4, 2], to 1e-12; note records a known numerical discrepancy.
    """

    __slots__ = __match_args__ = (
        "rho", "growth", "q_at_rho", "c_tilde", "c", "real_roots", "note"
    )


_C_TILDE_NOTE = (
    "c = c_tilde / Gamma(-1/2) with Gamma(-1/2) = -2*sqrt(pi) ~ -3.5449077. "
    "c_tilde here evaluates to about -3.6224493, roughly 4*pi times the "
    "-0.288265354 sometimes quoted for this coefficient; the quoted value is "
    "inconsistent with the chain above, while c itself is confirmed by the "
    "exact counts (count(inf, 600) * rho**600 * 600**1.5 agrees with c to "
    "about 0.2%)."
)


def constants() -> AsymptoticReport:
    """Compute the growth constants from scratch.

    The singularity is isolated by exact bisection as rho = r / d within
    2**-140, the chain is then evaluated exactly in integers over powers
    of d, square roots rounded down to multiples of 2**-200, and each
    value rounded to float once:

        q_at_rho = -SINGULARITY_POLY'(rho) / (1 - rho)
        c_tilde  = -sqrt(rho * q_at_rho / (1 - rho)) / (2 rho^2)
        c        = c_tilde / Gamma(-1/2),   Gamma(-1/2) = -2 sqrt(pi)

    q_at_rho is the limit of SINGULARITY_POLY(z) / ((rho - z)(1 - z))
    at z = rho; the division by (1 - z) removes the simple factor the
    sextic carries at z = 1, and the same value is DISCRIMINANT_LIMIT's
    derivative at rho.
    """
    roots = real_roots(SINGULARITY_POLY, -4, 2)
    r, d = _rho_exact()
    # SINGULARITY_POLY'(rho) * d**5, and 1 - rho = (d - r) / d
    slope = _horner(_derivative(SINGULARITY_POLY), r, d)
    q_num, q_den = -slope, d**4 * (d - r)
    # sqrt(rho * q_at_rho / (1 - rho)) and sqrt(pi), each times 2**200
    root = math.isqrt((r * q_num << 400) // (q_den * (d - r)))
    root_pi = math.isqrt((_PI[0] << 400) // _PI[1])
    return AsymptoticReport(
        rho=r / d,
        growth=d / r,
        q_at_rho=q_num / q_den,
        c_tilde=-root * d * d / ((r * r) << 201),
        c=root * d * d / (4 * r * r * root_pi),
        real_roots=tuple(roots),
        note=_C_TILDE_NOTE,
    )


class ConvergencePoint(Record):
    """One scaled count: value = count(m, n) * rho^n * n^(3/2)."""

    __slots__ = __match_args__ = ("m", "n", "value")


def convergence_series(
    m_values: Iterable[int | float],
    max_n: int,
    *,
    table: counting.CountTable | None = None,
) -> list[ConvergencePoint]:
    """Scaled counts for each bound in ``m_values`` and n = 2..max_n.

    The product count * rho^n * n^1.5 is formed as an integer over
    2**(320 + n), from (2 rho)^n and sqrt(n) in 160-bit fixed point (the
    raw counts leave double range long before n = 600), and divided
    into a float once.  Sizes with a zero count are skipped.  Points
    are ordered by bound (finite bounds ascending, the unbounded bound
    last), then by size.  The unbounded sequence tends to the constant
    c of ``constants``; every finite bound's sequence lies below it.
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    tbl = table or counting.shared_table()
    bounds = sorted(set(m_values), key=lambda m: (m == math.inf, m))
    r, d = _rho_exact()
    two_rho = (r << 161) // d
    points: list[ConvergencePoint] = []
    for m in bounds:
        row = tbl.count_row(m, max_n)
        power = two_rho  # (2 rho)^n never shrinks, so a truncation costs 2**-160 of it
        for n in range(2, max_n + 1):
            power = power * two_rho >> 160
            s = row[n]
            if s:
                scaled = s * power * n * math.isqrt(n << 320)
                points.append(ConvergencePoint(m, n, scaled / (1 << (320 + n))))
    return points
