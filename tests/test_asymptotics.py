import math
import subprocess
import sys
from fractions import Fraction

import pytest

from blc import asymptotics
from blc.asymptotics import (
    DISCRIMINANT_LIMIT,
    SINGULARITY_POLY,
    ConvergencePoint,
    _derivative,
    _rho_exact,
    _simplest_between,
    bound_discriminant,
    constants,
    convergence_series,
    real_roots,
    sigma,
)
from blc.counting import CountTable

# Frozen independently at high precision (140-bit bisection of the
# sextic); the literature's rounded values agree with the prefixes.
RHO = 0.50930812702423735719
GROWTH = 1.9634479540759639412
ROOTS_ON_MINUS4_2 = (-3.6681000043307677, -0.6238451419857256, RHO, 1.0)
C = 1.021874073

# Exact outputs of the root isolation, recorded from the earlier
# rational-arithmetic implementation; the integer one must return the
# very same floats (and the very same exact value for rho), except that the
# sextic's rational root z = 1, which no halving point hits, now comes
# back exact instead of as 0.9999999999998863.
SIGMA_0_TO_30 = (
    1.0, 0.5773502691895374, 0.5361465868031701, 0.5214089433425215,
    0.5150840087167126, 0.5121460363311598, 0.5107246377451702,
    0.5100214198123467, 0.509669101892996, 0.5094913194702713,
    0.5094012433978605, 0.509355499911635, 0.5093322398538476,
    0.5093204038253134, 0.5093143785729808, 0.5093113106772762,
    0.5093097483991187, 0.5093089527804295, 0.50930854758235,
    0.5093083412161832, 0.5093082361131565, 0.5093081825839363,
    0.5093081553209231, 0.509308141436577, 0.5093081343643462,
    0.5093081307627472, 0.5093081289282964, 0.5093081279942453,
    0.5093081275176701, 0.5093081272757445, 0.5093081271520532,
)
SEXTIC_ROOTS = (-3.6681000043307677, -0.6238451419857256, 0.5093081270239281, 1.0)
RHO_EXACT = Fraction(
    1774679807548185304911177778806557284324847, 3484491437270409865864955980101306485309440
)


def _poly(cs):
    """The coefficient sequence cs as a tuple without trailing zeros, so
    that equal polynomials compare equal."""
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _product(*factors):
    """Exact product of coefficient sequences (``c[k]`` multiplies z^k),
    as a tuple."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return _poly(out)


def _at(p, x):
    """p(x) by Horner's rule, exact for an int or Fraction x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _difference(a, b):
    """Coefficients of a - b, for coefficient sequences of any lengths."""
    width = max(len(a), len(b))
    a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return _poly(x - y for x, y in zip(a, b))


class TestIntPolynomial:
    """Integer polynomials are int sequences, ``p[k]`` multiplying z^k."""

    def test_normalizes_trailing_zeros(self):
        # real_roots takes a list or a tuple; trailing zeros and a
        # constant factor change no root
        roots = real_roots((2, -3, 1), 0, 3)  # (z - 1)(z - 2)
        assert roots[0] == 1.0 and abs(roots[1] - 2.0) < 1e-12
        for p in ([2, -3, 1], (2, -3, 1, 0, 0), [-4, 6, -2, 0]):
            assert real_roots(p, 0, 3) == roots

    def test_derivative(self):
        assert _derivative((7, 0, 5, 2)) == [0, 10, 6]  # of 2z^3 + 5z^2 + 7
        assert _derivative((3,)) == []

    def test_arithmetic(self):
        # the expansion helpers the identities below are checked with
        assert _product((1, 1), (-1, 1)) == (-1, 0, 1)
        assert _product((1, 1), (1, 1), (1, 1)) == (1, 3, 3, 1)
        assert _product((0, 2), (3,)) == (0, 6)
        assert _product((1, -1), ()) == ()
        assert _product() == (1,)
        assert _difference((0, 2), (0, 0, 1)) == (0, 2, -1)
        assert _difference((1, 1), (1, 1)) == ()
        p = (1, -2, 3)  # 3z^2 - 2z + 1
        assert [_at(p, 0), _at(p, 2), _at(p, Fraction(1, 2))] == [1, 9, Fraction(3, 4)]
        assert _at((), 5) == 0


def test_singularity_poly_factors_through_the_limit_discriminant():
    assert _product((-1, 1), DISCRIMINANT_LIMIT) == SINGULARITY_POLY


def test_counts_square_to_the_sextic():
    # 2 z^2 (1 - z) G = (1 - z)(1 - z^2) - sqrt(R) with R = SINGULARITY_POLY,
    # so H = (1 - z)(1 - z^2) - 2 z^2 (1 - z) G squares to R.  The check
    # squares the counts themselves, so it shares nothing with the
    # linear recurrence that fills the row.
    top = 300
    g = CountTable().count_row(math.inf, top)
    h = [0] * (top + 1)
    h[:4] = [1, -1, -1, 1]
    for k in range(2, top + 1):
        h[k] -= 2 * (g[k - 2] - (g[k - 3] if k >= 3 else 0))
    square = _product(h, h)[: top + 1]
    assert square == SINGULARITY_POLY + (0,) * (top + 1 - len(SINGULARITY_POLY))


# (1 - z)^3 (1 + z)^2, the tail shared by every discriminant
_TAIL = _product((1, -1), (1, -1), (1, -1), (1, 1), (1, 1))


def test_limit_discriminant_matches_its_closed_form():
    assert _difference((0, 0, 0, 0, 4), _TAIL) == DISCRIMINANT_LIMIT


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 10, 30])
def test_bound_discriminant_is_the_limit_minus_one_monomial(m):
    # the closed form 4 z^4 (1 - z^m) - (1 - z)^3 (1 + z)^2, expanded
    # here, not through the limit polynomial the function starts from
    one_minus_zm = _difference((1,), [0] * m + [1])
    closed_form = _difference(_product((0, 0, 0, 0, 4), one_minus_zm), _TAIL)
    assert bound_discriminant(m) == closed_form
    assert closed_form == _difference(DISCRIMINANT_LIMIT, [0] * (m + 4) + [4])


def test_bound_discriminant_vanishes_at_one():
    for m in range(12):
        assert sum(bound_discriminant(m)) == 0  # the value at z = 1
    assert bound_discriminant(0) == (-1, 1, 2, -2, -1, 1)


def test_bound_discriminant_rejects_negative():
    with pytest.raises(ValueError):
        bound_discriminant(-1)


def test_bound_discriminant_and_sigma_reject_a_bound_that_is_not_an_integer():
    for f in (bound_discriminant, sigma):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            f(2.0)


def test_real_roots_of_the_sextic():
    roots = real_roots(SINGULARITY_POLY, -4, 2)
    assert len(roots) == 4
    for found, expected in zip(roots, ROOTS_ON_MINUS4_2):
        assert abs(found - expected) < 1e-9
    # sub-intervals: the roots inside each, rho to the tolerance
    (rho,) = real_roots(SINGULARITY_POLY, 0, Fraction(99, 100))
    assert abs(rho - RHO) < 1e-12
    assert real_roots(SINGULARITY_POLY, 1, 4) == [1.0]  # nothing beyond the left end
    (rho, one) = real_roots(SINGULARITY_POLY, Fraction(1, 2), 1)
    assert abs(rho - RHO) < 1e-12 and one == 1.0
    assert real_roots(SINGULARITY_POLY, Fraction(3, 5), 1) == [1.0]  # the endpoint root
    assert real_roots((1, 0, 1), -10, 10) == []  # z^2 + 1


def test_real_roots_endpoint_cases():
    # root exactly at the right endpoint
    assert real_roots(bound_discriminant(0), 0, 1) == [1.0]
    # root exactly at the left endpoint
    p = (2, -3, 1)  # (z - 1)(z - 2)
    roots = real_roots(p, 1, 3)
    assert len(roots) == 2
    assert roots[0] == 1.0 and abs(roots[1] - 2.0) < 1e-12
    # degenerate interval
    assert real_roots(p, 2, 2) == [2.0]
    assert real_roots(p, Fraction(3, 2), Fraction(3, 2)) == []


def test_real_roots_sees_even_multiplicity():
    # (z - 1)^2 never changes sign; only the squarefree reduction can
    # expose the root to a sign scan
    assert real_roots((1, -2, 1), 0, 2) == [1.0]


def test_real_roots_rejects_zero_polynomial():
    for zero in ((), [0], (0, 0)):  # trailing zeros are dropped first
        with pytest.raises(ValueError, match="^the zero polynomial vanishes everywhere$"):
            real_roots(zero, 0, 1)


def test_real_roots_rejects_infinite_and_nan_arguments():
    p = (-1, 2)
    inf, nan = math.inf, math.nan
    for args, name, shown in (
        ((-inf, 1), "lo", "-inf"),
        ((nan, 1), "lo", "nan"),
        ((0, inf), "hi", "inf"),
        ((0, nan), "hi", "nan"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            real_roots(p, *args)


def test_real_roots_rejects_an_empty_interval():
    p = (-1, 2)
    for lo, hi in ((1, 0), (0.5, 0.25), (Fraction(2, 3), Fraction(1, 3))):
        with pytest.raises(ValueError, match="^need lo <= hi$"):
            real_roots(p, lo, hi)


def _from_roots(*roots):
    """The integer polynomial whose roots are exactly ``roots``."""
    return _product(*[(-r.numerator, r.denominator) for r in map(Fraction, roots)])


def test_exact_outputs_are_unchanged():
    assert tuple(sigma(m) for m in range(31)) == SIGMA_0_TO_30
    assert tuple(real_roots(SINGULARITY_POLY, -4, 2)) == SEXTIC_ROOTS
    assert constants().real_roots == SEXTIC_ROOTS
    assert Fraction(*_rho_exact()) == RHO_EXACT
    assert abs(RHO_EXACT - Fraction(RHO)) < 1e-16
    for m in range(31):
        assert real_roots(bound_discriminant(m), 0, 1)[0] == SIGMA_0_TO_30[m]


def test_sigma_is_the_first_of_the_two_roots_real_roots_finds():
    # real_roots, with its Sturm chain, is the oracle for the seeded
    # bisection, bit for bit; in [0, 1] the polynomial has sigma and 1 only
    for m in range(151):
        roots = real_roots(bound_discriminant(m), 0, 1)
        assert roots == ([sigma(m), 1.0] if m else [1.0]), m


_CELL = 2**-40  # the width of real_roots' last cells on [0, 1]


@pytest.mark.parametrize(
    "seed",
    [lambda m: math.nan, lambda m: math.inf, lambda m: 0.0, lambda m: 0.99,
     lambda m: SIGMA_0_TO_30[m] - _CELL, lambda m: SIGMA_0_TO_30[m] + _CELL],
    ids=["nan", "inf", "zero", "0.99", "one-cell-left", "one-cell-right"],
)
def test_sigma_bisects_all_of_the_interval_when_the_seed_misses(monkeypatch, seed):
    asked = []
    monkeypatch.setattr(asymptotics, "_sigma_seed", lambda m: asked.append(m) or seed(m))
    assert tuple(sigma(m) for m in range(31)) == SIGMA_0_TO_30
    assert asked == list(range(1, 31))


def test_the_sigma_seed_lands_in_the_cell_that_is_bisected(monkeypatch):
    # a miss would still give the right float, through the fallback, at
    # a bisection of the whole interval
    widths = []
    bisect = asymptotics._bisect
    monkeypatch.setattr(
        asymptotics, "_bisect", lambda q, a, b, *rest: widths.append(b - a) or bisect(q, a, b, *rest)
    )
    for m in [*range(1, 301), 2000]:
        sigma(m)
    assert widths == [2] * 301  # one cell of 2 / 2**41


def test_sigma_at_a_large_bound_shares_rho_s_cell():
    value = sigma(2000)
    # sigma(2000) - rho is far below the grid, so both lie in one last
    # cell of real_roots' grid, and sigma returns its midpoint, which is
    # 4.2e-13 below rho: rho sits in the cell's upper half
    low = int(RHO_EXACT * 2**41) // 2 * 2
    assert value == (low + 1) / 2**41
    assert abs(value - RHO) < 1e-12 and value < sigma(30)


def test_real_roots_separates_roots_closer_than_a_scan_grid():
    # 2**-30 apart: no sign scan on a grid of up to 2**21 points sees both
    near = Fraction(1, 3) + Fraction(1, 2**30)
    p = _from_roots(Fraction(1, 3), near)
    roots = real_roots(p, 0, 1)
    assert len(roots) == 2
    assert abs(Fraction(roots[0]) - Fraction(1, 3)) <= 1e-12
    assert abs(Fraction(roots[1]) - near) <= 1e-12
    assert real_roots(p, 0, Fraction(1, 3)) == [1 / 3]
    assert real_roots(p, Fraction(1, 3), near) == [1 / 3, float(near)]  # both ends
    # 2**-45 apart, both fall in one final 2**-40 cell of [0, 1] and
    # share its midpoint, which is within the tolerance of each
    closer = Fraction(1, 3) + Fraction(1, 2**45)
    shared = real_roots(_from_roots(Fraction(1, 3), closer), 0, 1)
    assert len(shared) == 2 and shared[0] == shared[1]
    for root in (Fraction(1, 3), closer):
        assert abs(Fraction(shared[0]) - root) <= 2**-41


def test_real_roots_returns_a_visited_dyadic_root_exactly():
    # 3/8 and 5 / 2**35 are points that halving [0, 1] visits before its
    # cells reach the tolerance; 1/2 + 2**-45 is not, and comes back as
    # the midpoint of the 2**-40 cell holding it
    p = _from_roots(Fraction(5, 2**35), Fraction(3, 8), Fraction(1, 2) + Fraction(1, 2**45))
    roots = real_roots(p, 0, 1)
    assert roots[:2] == [5 / 2**35, 0.375]
    assert roots[2] == 0.5 + 2**-41
    # on sub-intervals: two roots up to 3/8, one beyond it
    (low, end) = real_roots(p, 0, Fraction(3, 8))
    assert abs(low - 5 / 2**35) <= 1e-12 and end == 0.375
    (start, high) = real_roots(p, Fraction(3, 8), 1)
    assert start == 0.375 and abs(high - 0.5) <= 1e-12


def test_real_roots_on_non_dyadic_endpoints():
    p = _from_roots(Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    # both ends are roots; the midpoint 1/2 is the first point visited
    assert real_roots(p, Fraction(1, 3), Fraction(2, 3)) == [1 / 3, 0.5, 2 / 3]
    # neither end is a root, and no root is a visited point
    roots = real_roots(p, Fraction(1, 7), Fraction(5, 7))
    assert len(roots) == 3
    for found, exact in zip(roots, (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))):
        assert abs(Fraction(found) - exact) <= 1e-12
    assert real_roots(p, Fraction(1, 7), Fraction(1, 3)) == [1 / 3]


def test_rational_roots_come_back_exact():
    # 1/3, 1/2 and 2/3 are not halving points of [1/7, 5/7] but are the
    # simplest rationals of their final cells
    p = _from_roots(Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    assert real_roots(p, Fraction(1, 7), Fraction(5, 7)) == [1 / 3, 0.5, 2 / 3]
    assert real_roots(_from_roots(Fraction(-22, 7)), -4, 2) == [-22 / 7]
    assert real_roots(SINGULARITY_POLY, 0, 2)[-1] == 1.0
    # an irrational root is still found to the tolerance
    (root,) = real_roots((-2, 0, 1), 1, 2)
    assert abs(root - math.sqrt(2)) <= 1e-12


def test_simplest_between_has_the_smallest_denominator():
    for den in range(1, 13):
        for a in range(-30, 30):
            for b in range(a + 1, a + 14):
                lo, hi = Fraction(a, den), Fraction(b, den)
                num, d = _simplest_between(a, b, den)
                assert lo < Fraction(num, d) < hi
                smallest = next(q for q in range(1, d + 1) if math.floor(lo * q) + 1 < hi * q)
                assert d == smallest


def test_import_leaves_mpmath_and_process_pools_unloaded():
    # the constant chain and the scaled counts need no mpmath, not even
    # when they run; no module of the package uses a process pool at all
    code = (
        "import math, sys, blc, blc.cli; "
        "from blc.asymptotics import constants, convergence_series; "
        "constants(); convergence_series([0, math.inf], 50); "
        "code = blc.cli.main(['asymptotics']); "
        "print([m for m in ('mpmath', 'concurrent.futures') if m in sys.modules], code, "
        "file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[] 0\n"


def test_sigma_golden_values():
    assert sigma(0) == 1.0
    assert abs(sigma(1) - 1 / math.sqrt(3)) < 1e-9


def test_sigma_decreases_to_rho():
    values = [sigma(m) for m in range(1, 31)]
    for earlier, later in zip(values, values[1:]):
        assert earlier > later
    for value in values:
        assert value > RHO
    assert values[-1] - RHO < 1e-3


def _index_bounded_counts(m: int, n: int) -> list[int]:
    """Counts by size 0..n of the terms whose every index, bound or free,
    is at most m, by direct convolution: an index 1..m (sizes 2..m + 1),
    an abstraction or an application, each node adding 2."""
    g = [0] * (n + 1)
    for s in range(2, n + 1):
        g[s] = (s <= m + 1) + g[s - 2] + sum(g[k] * g[s - 2 - k] for k in range(2, s - 3))
    return g


@pytest.mark.parametrize("m", range(1, 7))
def test_sigma_is_the_singularity_of_the_index_bounded_class(m):
    # g(n) ~ C sigma^-n n^-3/2, so this two-step ratio tends to
    # 1/sigma(m); two steps because at m = 1 only even sizes occur
    n = 600
    g = _index_bounded_counts(m, n)
    growth = (g[n] / g[n - 2] * (n / (n - 2)) ** 1.5) ** 0.5
    assert abs(growth * sigma(m) - 1) < 1e-4


class TestConstants:
    def test_chain_values(self):
        report = constants()
        assert abs(report.rho - RHO) < 1e-12
        assert abs(report.growth - GROWTH) < 1e-12
        assert abs(report.growth - 1.963447954) < 1e-9
        assert abs(report.c - C) < 1e-9
        assert abs(report.c_tilde - (-3.6224492712960124)) < 1e-9
        assert abs(report.q_at_rho - 3.4026344905097745) < 1e-9
        assert report.rho * report.growth == pytest.approx(1.0, abs=1e-15)

    def test_reported_roots(self):
        report = constants()
        assert len(report.real_roots) == 4
        for found, expected in zip(report.real_roots, ROOTS_ON_MINUS4_2):
            assert abs(found - expected) < 1e-6

    def test_q_at_rho_two_routes_agree(self):
        # the limit -SINGULARITY_POLY'(rho)/(1 - rho) equals the
        # derivative of the deflated quintic at rho
        rho = Fraction(*_rho_exact())
        lhopital = -_at(_derivative(SINGULARITY_POLY), rho) / (1 - rho)
        deflated = _at(_derivative(DISCRIMINANT_LIMIT), rho)
        assert abs(lhopital - deflated) < Fraction(1, 2**90)

    def test_counts_confirm_c_through_the_next_term(self):
        # count(inf, n) rho^n n^(3/2) = C (1 + c1 / n + O(1/n^2)), from the
        # singular part -B(z) sqrt(R(z)) of G, with B(z) = 1 / (2 z^2 (1 - z))
        # and R = SINGULARITY_POLY (Flajolet and Sedgewick, Analytic
        # Combinatorics, 2009, Thm. VI.1): c1 = 3/8 - 3/2 (b1/b0 + r2/(2 r1)),
        # b0 = B(rho), b1 = -rho B'(rho), r1 = -rho R'(rho), r2 = rho^2 R''(rho)/2
        rho = Fraction(*_rho_exact())
        slope = _derivative(SINGULARITY_POLY)
        b_ratio = 2 - rho / (1 - rho)  # B'/B = -2/z + 1/(1 - z)
        r_ratio = -rho * _at(_derivative(slope), rho) / (4 * _at(slope, rho))
        c1 = Fraction(3, 8) - Fraction(3, 2) * (b_ratio + r_ratio)
        assert round(float(c1), 10) == -1.2926109401
        # n times the gap below measured 4.590-4.593 at n = 600..20,000, so
        # the bound 5/n pins C to about 1e-8 at n = 20,000
        c = constants().c
        r, d = _rho_exact()
        two_rho = (2 * r << 256) // d  # in 256-bit fixed point
        table = CountTable()
        for n in (2000, 20000):
            power = 1 << 256
            for _ in range(n):
                power = power * two_rho >> 256
            scaled = table.count(math.inf, n) * power * n * math.isqrt(n << 512)
            value = scaled / (1 << (n + 512))
            assert abs(n * (value / c - 1) - c1) <= 5 / n

    def test_note_documents_the_radical_discrepancy(self):
        report = constants()
        assert "-0.288265354" in report.note
        assert "4*pi" in report.note
        assert "Gamma(-1/2)" in report.note


class TestConvergence:
    def test_small_sizes_match_float_arithmetic(self):
        table = CountTable(40)
        points = convergence_series([0, math.inf], 40, table=table)
        for pt in points:
            count = table.count(pt.m, pt.n)
            direct = count * RHO**pt.n * pt.n**1.5
            assert pt.value == pytest.approx(direct, rel=1e-9)

    def test_zero_counts_are_skipped(self):
        points = convergence_series([0], 12)
        sizes = [pt.n for pt in points]
        assert sizes == [4, 6, 7, 8, 9, 10, 11, 12]

    def test_ordering_and_m_normalization(self):
        points = convergence_series([math.inf, 3, 0], 10)
        bounds = [pt.m for pt in points]
        assert bounds == sorted(bounds, key=lambda m: (m == math.inf, m))
        assert bounds[0] == 0 and bounds[-1] == math.inf

    def test_bounded_rows_sit_below_the_unbounded_row(self):
        points = convergence_series([0, 2, math.inf], 30)
        by_key = {(pt.m, pt.n): pt.value for pt in points}
        for (m, n), value in by_key.items():
            if m != math.inf:
                assert value <= by_key[(math.inf, n)] + 1e-12

    def test_values_match_exact_fractions(self, big_table):
        # value**2 against count**2 * rho**(2n) * n**3, all exact: no
        # fixed point, no square root
        rho = Fraction(*_rho_exact())
        points = convergence_series([0, math.inf], 600, table=big_table)
        by_key = {(pt.m, pt.n): pt.value for pt in points}
        for m in (0, math.inf):
            for n in (2, 50, 300, 600):
                s = big_table.count(m, n)
                if not s:
                    assert (m, n) not in by_key
                    continue
                exact = s * s * rho ** (2 * n) * n**3
                assert abs(Fraction(by_key[(m, n)]) ** 2 - exact) <= exact / 2**50, (m, n)

    def test_unbounded_row_approaches_c(self, big_table):
        points = convergence_series([math.inf], 300, table=big_table)
        assert abs(points[-1].value - C) < 0.01

    def test_validates_max_n(self):
        with pytest.raises(ValueError):
            convergence_series([0], 1)
