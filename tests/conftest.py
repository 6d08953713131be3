import _thread
import threading

import pytest
from hypothesis import strategies as st

from blc.counting import CountTable
from blc.terms import Abs, App, DecodeError, Index, decode, max_free_index


def all_valid_codes(n: int) -> list[tuple[str, int]]:
    """Brute force over every bit string of length n: the ones that
    decode, paired with the largest free index of their term.

    This is the independent oracle the counting, unranking and census
    tests compare against; it shares no logic with the recurrence.
    """
    if n == 0:
        return []
    out = []
    for v in range(1 << n):
        bits = format(v, f"0{n}b")
        try:
            term = decode(bits)
        except DecodeError:
            continue
        out.append((bits, max_free_index(term)))
    return out


# Seconds one test may run before the watchdog interrupts it, so a stalled
# test fails the run instead of hanging it; the slowest test takes about 5 s.
# A timer thread rather than SIGALRM, which tests in test_counting.py use.
TEST_TIME_LIMIT = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    timer = threading.Timer(TEST_TIME_LIMIT, _thread.interrupt_main)
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()


@pytest.fixture(scope="session")
def codes_by_size():
    """all_valid_codes for every size up to 14, computed once."""
    return {n: all_valid_codes(n) for n in range(15)}


@pytest.fixture(scope="session")
def big_table():
    """A counting table filled to size 600, shared across the session."""
    return CountTable(600)


# Random terms for property tests; indices are capped so open terms stay
# plausible rather than degenerate.
term_strategy = st.recursive(
    st.integers(min_value=1, max_value=6).map(Index),
    lambda children: st.one_of(
        children.map(Abs),
        st.tuples(children, children).map(lambda pair: App(*pair)),
    ),
    max_leaves=40,
)
