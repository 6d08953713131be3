import hashlib
import math
import random
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from blc import counting
from blc.counting import CountTable, count, count_row, verify_functional_equation

# Exact counts of closed terms by size, 0..19 (OEIS A114852 prefix).
CLOSED_PREFIX = [
    0, 0, 0, 0, 1, 0, 1, 1, 2, 1, 6, 5, 13, 14, 37, 44, 101, 134, 298, 431,
]

# Exact counts of all terms by size, 0..19 (OEIS A114851 prefix).
ALL_PREFIX = [
    0, 0, 1, 1, 2, 2, 4, 5, 10, 14, 27, 41, 78, 126, 237, 399, 745, 1292,
    2404, 4259,
]


def test_closed_counts_golden():
    assert count_row(0, 19) == CLOSED_PREFIX


def test_all_counts_golden():
    assert count_row(math.inf, 19) == ALL_PREFIX


def test_counts_regression_past_the_documented_prefix():
    # pinned from this implementation, cross-checked by the brute-force
    # oracle at low sizes and the functional equation at every size
    assert count_row(0, 25)[20:] == [883, 1361, 2736, 4405, 8574, 14334]
    assert count_row(math.inf, 25)[20:] == [7915, 14242, 26477, 48197, 89721, 164766]


def test_brute_force_oracle(codes_by_size):
    for n in range(13):
        codes = codes_by_size[n]
        assert count(math.inf, n) == len(codes)
        for m in range(4):
            assert count(m, n) == sum(1 for _, free in codes if free <= m)


def test_clamp_example():
    # no index above n - 1 fits in a term of size n, so large bounds all
    # count the same class
    assert count_row(5, 4) == [0, 0, 1, 1, 2]


def test_saturation():
    table = CountTable(40)
    for n in range(41):
        reference = table.count(math.inf, n)
        for m in range(max(0, n - 1), n + 3):
            assert table.count(m, n) == reference
        if n >= 3:
            assert table.count(n - 2, n) < reference or reference == 0


def test_monotone_in_bound():
    table = CountTable(30)
    for n in range(31):
        row = [table.count(m, n) for m in range(n + 1)]
        assert row == sorted(row)
        assert all(v <= table.count(math.inf, n) for v in row)


def test_bounded_by_all_bit_strings():
    for n in range(40):
        assert count(math.inf, n) <= 2**n


def test_unbounded_row_is_pinned():
    # sha256 of the row through size 3000 as a self-convolution fill
    # builds it, a method that shares nothing with the linear recurrence
    row = CountTable(3000)._inf
    digest = hashlib.sha256(",".join(map(str, row)).encode()).hexdigest()
    assert digest == "ae4870f48b3c269e19f5b99747226fb02bbe8281716b3e2cdbac391a44d9f474"


def test_bounded_cone_is_pinned():
    # sha256 of the bounded rows of a fresh cone(0, 450), as filled one
    # direct convolution per entry, before the packed pass existed
    table = CountTable()
    bounded = [row for row in table.cone(0, 450) if row is not table._inf]
    assert len(bounded) == 150
    text = "\n".join(",".join(map(str, row)) for row in bounded)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "ad94a7d18a739a31f429ea7f3196c7e71e4a8cfc3bde50d2718c58aa11f890c4"


@pytest.mark.parametrize("start", range(9))
def test_uneven_ensure_steps_match_a_one_shot_fill(start):
    # Starts 0..8 put the row's end before, inside and past the six seed
    # values the recurrence starts from.
    table = CountTable(start)
    reached = start
    for step in (0, 1, 2, 5, 13, 4, 40, 200):
        table.ensure(start + step)
        reached = max(reached, start + step)
        assert table.max_n == reached
    assert table._inf == CountTable(start + 200)._inf


def test_growth_ratio_settles():
    table = CountTable(220)
    hi = table.count(math.inf, 220)
    lo = table.count(math.inf, 219)
    assert 1.9 < hi / lo < 2.0


def test_fill_order_does_not_matter():
    eager = CountTable(36)
    lazy = CountTable()
    for n in (36, 3, 17, 36, 24):
        for m in (0, 1, 5, math.inf):
            assert lazy.count(m, n) == eager.count(m, n)


def test_count_row_fills_once_and_leaves_the_state_of_stepping_up():
    # one fill at the top size takes the packed pass, and stepping n up
    # by one the direct one; both leave the same rows
    for m in (0, 1, math.inf):
        at_once, stepped = CountTable(), CountTable()
        row = at_once.count_row(m, 120)
        assert row == [stepped.count(m, n) for n in range(121)]
        assert (at_once._inf, at_once._rows) == (stepped._inf, stepped._rows)
    assert count_row(0, -1) == []


def test_shared_and_private_tables_agree():
    private = CountTable()
    assert private.count(2, 21) == count(2, 21)


def test_count_validates_arguments():
    with pytest.raises(ValueError):
        count(0, -1)
    with pytest.raises(ValueError):
        count(-1, 5)
    with pytest.raises(ValueError):
        count(2.5, 5)
    for m, max_n in ((-1, -1), (2.5, -1), ("x", -3)):
        with pytest.raises(ValueError):
            count_row(m, max_n)


def test_functional_equation_holds():
    assert verify_functional_equation(2)
    assert verify_functional_equation(19)
    assert verify_functional_equation(150)
    assert verify_functional_equation(600)


def test_functional_equation_detects_corruption():
    table = CountTable(30)
    assert verify_functional_equation(30, table=table)
    table._inf[17] += 1  # sabotage one coefficient
    assert not verify_functional_equation(30, table=table)


def test_functional_equation_needs_room():
    with pytest.raises(ValueError):
        verify_functional_equation(1)


# Bounds and largest size of the cone-fill and concurrency checks.
CONE_BOUNDS = (0, 1, 2, 3, 5, 11, math.inf)
CONE_TOP = 300


@pytest.fixture(scope="module")
def reference():
    """count(m, n) for the bounds in CONE_BOUNDS and n <= CONE_TOP, straight
    from the recurrence, one row at a time and without the table's
    shortcuts.

    Row j is computed through size CONE_TOP - 2 * max(0, j - 11), all that
    rows 0..11 read.  Rows are added upwards until that size drops below
    2, where a row is all zero, so no row is borrowed from the unbounded
    one.
    """
    top_bound = 11

    def reach(j):
        return CONE_TOP - 2 * max(0, j - top_bound)

    j = top_bound
    while reach(j) >= 2:
        j += 1
    above = [0] * (reach(j) + 1)
    rows = {}
    for j in range(j - 1, -1, -1):
        row = [0, 0]
        for n in range(2, reach(j) + 1):
            variable = 1 if j >= n - 1 else 0
            apps = sum(row[k] * row[n - 2 - k] for k in range(n - 1))
            row.append(variable + above[n - 2] + apps)
        rows[j] = above = row
    unbounded = [0, 0]
    for n in range(2, CONE_TOP + 1):
        apps = sum(unbounded[k] * unbounded[n - 2 - k] for k in range(n - 1))
        unbounded.append(1 + unbounded[n - 2] + apps)
    rows[math.inf] = unbounded
    return rows


PACKED_FROM = counting._PACKED_FROM
PACKED_MIN = counting._PACKED_MIN_COLUMNS
# (size of the first fill, 0 for none; size of the second): every row of
# a filled cone extended by 1..9 columns and by the crossover -1, 0, +1,
# then fresh fills whose closed row gets crossover -1, 0, +1 columns from
# PACKED_FROM on, and fresh fills at 78..80, where every bound row packs
# (the crossover when packing started at size 64).
EXTENSIONS = (
    [
        (150, 150 + extra)
        for extra in (*range(1, 10), PACKED_MIN - 1, PACKED_MIN, PACKED_MIN + 1)
    ]
    + [(0, PACKED_FROM + PACKED_MIN - 1 + d) for d in (-1, 0, 1)]
    + [(0, n) for n in (78, 79, 80)]
)


def spy_on_packed_pass(monkeypatch):
    """Record (parity of the first group's base, columns in the last
    group) for every packed pass that ``_extend_row`` runs."""
    groups = []
    packed_pass = counting._packed_pass

    def spy(row, above, first, last):
        groups.append(((first - 2) % 2, (last - first) % 4 + 1))
        packed_pass(row, above, first, last)

    monkeypatch.setattr(counting, "_packed_pass", spy)
    return groups


@pytest.mark.parametrize("first, second", EXTENSIONS)
def test_row_extensions_on_both_sides_of_the_crossover(reference, monkeypatch, first, second):
    packed = spy_on_packed_pass(monkeypatch)
    for m in CONE_BOUNDS:
        if first:
            wide = second - first >= PACKED_MIN
        else:
            # a fresh row m starts as the unbounded row through size m + 1
            wide = second + 1 - max(PACKED_FROM, m + 2) >= PACKED_MIN
        table = CountTable()
        if first:
            table.count(m, first)
        packed.clear()
        assert table.count(m, second) == reference[m][second], m
        assert bool(packed) == (wide and m != math.inf), m
        for j, row in enumerate(table._rows):
            assert row == reference[j][: len(row)], (m, j)


# (size of the first fill, 0 for none; size of the second; parity of the
# base b = c - 2 of the closed row's first packed group; columns in its
# last group).  A fresh closed row packs from PACKED_FROM, an even base;
# the rows of a cone filled at 150 have odd lengths, so its extensions
# start at an odd base.
PACKED_GROUPS = [(0, 80 + d, 0, d + 1) for d in range(4)] + [
    (150, 166 + d, 1, tail) for d, tail in enumerate((4, 1, 2, 3))
]


@pytest.mark.parametrize("first, second, parity, tail", PACKED_GROUPS)
def test_packed_groups_of_either_parity_and_any_length(
    reference, monkeypatch, first, second, parity, tail
):
    groups = spy_on_packed_pass(monkeypatch)
    for m in CONE_BOUNDS:
        table = CountTable()
        if first:
            table.count(m, first)
        groups.clear()
        assert table.count(m, second) == reference[m][second], m
        for j, row in enumerate(table._rows):
            assert row == reference[j][: len(row)], (m, j)
        # the cone fills its bound row last
        if m == 0:
            assert groups[-1] == (parity, tail)


def test_cone_fill_matches_the_recurrence_in_any_order(reference):
    rng = random.Random(20141018)
    for _ in range(3):
        table = CountTable()
        queries = [(m, n) for m in CONE_BOUNDS for n in rng.sample(range(CONE_TOP + 1), 8)]
        rng.shuffle(queries)
        # Later queries extend rows that earlier ones left partly filled.
        for m, n in queries:
            assert table.count(m, n) == reference[m][n], (m, n)
        for j, row in enumerate(table._rows):
            assert row == reference[j][: len(row)], j
        assert table._inf == reference[math.inf][: len(table._inf)]


@pytest.mark.parametrize("warm", ["fresh", "larger bounded count", "ensure"])
def test_cone_rows_are_the_counts_they_serve(reference, warm):
    for m in (0, 1, 2, 5, math.inf):
        for n in range(61):
            table = CountTable()
            if warm == "larger bounded count":
                table.count(0, n + 8)
            elif warm == "ensure":
                table.ensure(100)
            cone = table.cone(m, n)
            assert len(cone) == n // 2 + 1, (m, n)
            for d, row in enumerate(cone):
                want = reference[m + d][: n - 2 * d + 1]
                assert row[: n - 2 * d + 1] == want, (m, n, d)
                # the unbounded row stands in exactly where the class saturates
                assert (row is table._inf) == (m + d >= n - 2 * d - 1), (m, n, d)


def test_cone_fills_no_more_than_count():
    for m in (0, 1, 2, 5, math.inf):
        for n in range(61):
            by_cone, by_count = CountTable(), CountTable()
            by_cone.cone(m, n)
            by_count.count(m, n)
            assert by_cone.max_n <= by_count.max_n, (m, n)
            bounded = [sum(map(len, t._rows)) for t in (by_cone, by_count)]
            assert bounded[0] <= bounded[1], (m, n)


def test_unbounded_count_fills_no_bounded_row():
    table = CountTable()
    assert table.count(math.inf, 2000) > 0
    assert table.max_n == 2000
    assert table._rows == []


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_interrupted_fill_leaves_the_table_consistent(reference):
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    sizes = (0, 1, 2, 150, 298, 299, CONE_TOP)
    bounds = (0, 1, math.inf)
    fresh = CountTable()
    want = [fresh.count(m, n) for m in bounds for n in sizes]
    previous = signal.signal(signal.SIGALRM, interrupt)
    cut = 0
    try:
        # The delays cut the closed cone at different points; the
        # unbounded row fills too fast here to be cut (see the next test).
        for delay in (0.0005, 0.002, 0.02, 0.08):
            table = CountTable()
            signal.setitimer(signal.ITIMER_REAL, delay)
            try:
                table.count(0, CONE_TOP)
            except Interrupted:
                cut += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            # A cut fill publishes only finished entries and claims no
            # size it did not finish.
            for j, row in enumerate(table._rows):
                assert row == reference[j][: len(row)], (delay, j)
            filled = table.max_n
            assert filled <= CONE_TOP
            assert table.count_row(math.inf, filled) == fresh.count_row(math.inf, filled)
            assert [table.count(m, n) for m in bounds for n in sizes] == want
            assert table.max_n == fresh.max_n
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert cut


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_interrupted_unbounded_fill_claims_no_size_it_did_not_finish():
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    big = 10000
    fresh = CountTable()
    sizes = (0, 5, 6, CONE_TOP, 2000, big)
    want = [fresh.count(math.inf, n) for n in sizes]
    previous = signal.signal(signal.SIGALRM, interrupt)
    cut = 0
    try:
        for delay in (0.001, 0.003, 0.008):
            table = CountTable(CONE_TOP)
            signal.setitimer(signal.ITIMER_REAL, delay)
            try:
                table.count(math.inf, big)
            except Interrupted:
                cut += 1
                # The row grows entry by entry, and keeps what it finished.
                assert CONE_TOP <= table.max_n <= big
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert table._inf == fresh._inf[: table.max_n + 1]
            assert [table.count(math.inf, n) for n in sizes] == want
            assert table._inf == fresh._inf
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert cut


def test_threads_share_a_fresh_table():
    queries = [(0, CONE_TOP), (math.inf, CONE_TOP + 2), (1, CONE_TOP - 2)]
    fresh = CountTable()
    want = [fresh.count(m, n) for m, n in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            table = CountTable()
            start = threading.Barrier(len(queries))

            def query(m, n):
                start.wait(timeout=30)
                return table.count(m, n)

            with ThreadPoolExecutor(len(queries)) as pool:
                futures = [pool.submit(query, m, n) for m, n in queries]
                assert [f.result(timeout=120) for f in futures] == want
            assert table._inf == fresh._inf
            assert table._rows == fresh._rows
    finally:
        sys.setswitchinterval(interval)


def test_stepping_the_unbounded_row_up_costs_about_one_fill():
    # Each extension appends to the row in place, so stepping n up one
    # size at a time costs about what one fill to the top does.
    top = 20000
    fill = stepped = math.inf
    for _ in range(2):
        start = time.perf_counter()
        CountTable(top)
        fill = min(fill, time.perf_counter() - start)
        table = CountTable()
        row = table._inf
        start = time.perf_counter()
        for n in range(top + 1):
            table.count(math.inf, n)
        stepped = min(stepped, time.perf_counter() - start)
        assert table._inf is row and table.max_n == top
    assert stepped <= 3 * fill, (stepped, fill)


def test_threads_read_the_unbounded_row_while_it_grows():
    low, top = CONE_TOP, 20000
    want = CountTable(low)._inf
    table = CountTable(low)
    row = table._inf
    cone = table.cone(math.inf, low)
    done = threading.Event()
    start = threading.Barrier(3)

    def step():
        start.wait(timeout=30)
        try:
            for n in range(low, top + 1):
                table.count(math.inf, n)
        finally:
            done.set()

    def read():
        start.wait(timeout=30)
        bad = []
        while True:
            stop = done.is_set()
            for k in range(low + 1):
                if table.count(math.inf, k) != want[k]:
                    bad.append(("count", k))
            for d, r in enumerate(cone):
                if r[: low - 2 * d + 1] != want[: low - 2 * d + 1]:
                    bad.append(("cone", d))
            if stop:
                return bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            readers = [pool.submit(read) for _ in range(2)]
            stepper = pool.submit(step)
            stepper.result(timeout=120)
            assert [f.result(timeout=120) for f in readers] == [[], []]
    finally:
        sys.setswitchinterval(interval)
    assert table._inf is row
    assert table._inf == CountTable(top)._inf
