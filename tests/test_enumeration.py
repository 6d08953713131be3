import hashlib
import math
import random
import threading

import pytest

from blc.counting import CountTable, count
from blc.enumeration import (
    AttemptsExhausted,
    NoTerms,
    OutOfRange,
    Sampler,
    _unrank,
    rank,
    sample,
    sample_typable,
    unrank,
)
from blc.terms import (
    Abs,
    App,
    FreeIndexExceeded,
    Index,
    decode,
    encode,
    max_free_index,
    render,
    size,
)
from blc.typecheck import is_typable

SWEEP_SIZES = range(15)
SWEEP_BOUNDS = (0, 1, 2, 3, math.inf)


def test_unrank_golden_small():
    assert unrank(0, 4, 1) == Abs(Index(1))
    assert unrank(1, 2, 1) == Index(1)
    assert unrank(math.inf, 2, 1) == Index(1)


def test_enumeration_order_closed_size_ten():
    # abstractions first (by body), then applications (by function
    # size, then function, then argument); no closed variable exists
    listing = [render(unrank(0, 10, k)) for k in range(1, 7)]
    assert listing == ["\\\\\\\\1", "\\\\\\3", "\\\\(1 1)", "\\(1 \\1)", "\\(\\1 1)", "(\\1 \\1)"]


def test_variable_ranks_last():
    n = 7
    total = count(math.inf, n)
    assert unrank(math.inf, n, total) == Index(n - 1)
    for k in range(1, total):
        assert unrank(math.inf, n, k) != Index(n - 1)


def test_empty_class_raises_no_terms():
    with pytest.raises(NoTerms):
        unrank(0, 5, 1)
    with pytest.raises(NoTerms):  # emptiness wins over any rank bound
        unrank(0, 5, 0)
    with pytest.raises(NoTerms):
        unrank(0, 0, 1)


def test_rank_out_of_range():
    for bad in (0, -3, 2, 10):
        with pytest.raises(OutOfRange):
            unrank(0, 4, bad)


def test_unrank_rejects_a_rank_that_is_not_an_integer():
    # refused, not truncated: 10**40 + 12345 has no exact float, and 2.5
    # lies between two ranks
    for m, n, k in ((math.inf, 200, float(10**40 + 12345)), (0, 10, 2.5)):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            unrank(m, n, k)


def test_out_of_range_names_numbers_past_14000_bits_by_bit_length():
    # their decimal text would pass Python's 4,300-digit int/str cap
    at_60 = "outside 1..821184564281143 for size 60 (unbounded)"
    cases = [
        ((math.inf, 60, 10**5000), f"rank <a 16610-bit number> {at_60}"),
        ((math.inf, 60, -(10**5000)), f"rank <a negative 16610-bit number> {at_60}"),
        ((math.inf, 60, 2**14000), f"rank <a 14001-bit number> {at_60}"),
        ((math.inf, 60, 2**14000 - 1), f"rank {2**14000 - 1} {at_60}"),
        ((math.inf, 17200, 0), "rank 0 outside 1..<a 16722-bit number> for size 17200 (unbounded)"),
    ]
    for args, want in cases:
        with pytest.raises(OutOfRange) as info:
            unrank(*args)
        assert str(info.value) == want


def test_sweep_is_a_bijection(codes_by_size):
    table = CountTable(16)
    for m in SWEEP_BOUNDS:
        for n in SWEEP_SIZES:
            total = table.count(m, n)
            terms = [unrank(m, n, k, table=table) for k in range(1, total + 1)]
            codes = {encode(t) for t in terms}
            assert len(codes) == total  # pairwise distinct
            for t in terms:
                assert size(t) == n
                assert max_free_index(t) <= m
            # exactly the brute-force class, not merely that many terms
            expected = {bits for bits, free in codes_by_size[n] if free <= m}
            assert codes == expected


def test_rank_inverts_unrank():
    table = CountTable(16)
    for m in SWEEP_BOUNDS:
        for n in SWEEP_SIZES:
            total = table.count(m, n)
            for k in range(1, total + 1):
                assert rank(m, unrank(m, n, k, table=table), table=table) == k


def test_rank_golden_instance():
    assert rank(0, unrank(0, 19, 257)) == 257


def test_unrank_inverts_rank_on_handmade_terms():
    terms = [
        Abs(Index(1)),
        Abs(Abs(App(Index(2), Index(1)))),
        App(Abs(Index(1)), Abs(Abs(Index(1)))),
        Index(4),
        Abs(App(Index(2), Abs(Index(1)))),
    ]
    for term in terms:
        m = max_free_index(term)
        k = rank(m, term)
        assert unrank(m, size(term), k) == term


def test_rank_rejects_oversized_free_indices():
    # refused before the cone is filled: a fresh table stays empty
    table = CountTable()
    with pytest.raises(FreeIndexExceeded):
        rank(0, Index(1), table=table)
    assert table.max_n == 0
    with pytest.raises(FreeIndexExceeded):
        rank(1, Abs(App(Index(1), Index(3))), table=table)
    assert table.max_n == 0


def test_saturated_bounds_enumerate_identically():
    for n in (8, 9):
        total = count(math.inf, n)
        assert count(n - 1, n) == total
        for k in range(1, total + 1):
            assert unrank(math.inf, n, k) == unrank(n - 1, n, k)


def test_sampler_is_deterministic():
    a = Sampler(42)
    b = Sampler(42)
    draws_a = [encode(sample(0, 30, a)) for _ in range(20)]
    draws_b = [encode(sample(0, 30, b)) for _ in range(20)]
    assert draws_a == draws_b


def test_sampler_streams_split_by_xor():
    seed = 1234
    streams = [Sampler(seed ^ i) for i in range(3)]
    draws = [[encode(sample(0, 30, s)) for _ in range(10)] for s in streams]
    assert draws[0] != draws[1] and draws[1] != draws[2]


def test_sampler_rejects_a_negative_seed():
    # random.Random seeds from abs(seed), so -7 would replay seed 7's stream
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -7$"):
        Sampler(-7)


def test_sampler_takes_an_integer_seed():
    # random.Random would seed from the float's hash
    with pytest.raises(TypeError):
        Sampler(2.5)


def test_rank_below_covers_range_uniformly():
    s = Sampler(5)
    seen = [s.rank_below(7) for _ in range(2000)]
    assert set(seen) == set(range(1, 8))
    assert min(seen) >= 1 and max(seen) <= 7


def test_rank_below_handles_degenerate_total():
    s = Sampler(0)
    assert all(s.rank_below(1) == 1 for _ in range(5))
    with pytest.raises(ValueError):
        s.rank_below(0)


def test_sample_draws_lie_in_the_class():
    s = Sampler(9)
    for _ in range(50):
        t = sample(2, 17, s)
        assert size(t) == 17
        assert max_free_index(t) <= 2


def test_sample_empty_class():
    with pytest.raises(NoTerms):
        sample(0, 5, Sampler(0))


def test_sample_chi_square_uniform():
    # closed size 10: six terms, 6000 draws; threshold is the 0.999
    # quantile of chi-square with 5 degrees of freedom
    s = Sampler(0)
    counts: dict[str, int] = {}
    for _ in range(6000):
        t = sample(0, 10, s)
        counts[encode(t)] = counts.get(encode(t), 0) + 1
    assert len(counts) == 6
    expected = 6000 / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.515


def test_sample_typable_only_returns_typable():
    s = Sampler(3)
    for _ in range(20):
        t = sample_typable(0, 20, s)
        assert size(t) == 20
        assert is_typable(t)


def test_sample_typable_gives_up():
    # seed 0's first closed size-22 draw is untypable, so one attempt
    # cannot succeed
    with pytest.raises(AttemptsExhausted):
        sample_typable(0, 22, Sampler(0), max_attempts=1)


def test_sample_typable_empty_class():
    with pytest.raises(NoTerms):
        sample_typable(0, 5, Sampler(0))


def test_sample_typable_rejects_non_positive_attempts():
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"max_attempts must be >= 1, got {bad}"):
            sample_typable(0, 30, Sampler(0), max_attempts=bad)


def test_sample_typable_takes_an_integer_max_attempts():
    # True is one attempt, and says so; 0.5 would read as below 1
    with pytest.raises(AttemptsExhausted, match=r"in 1 draws$"):
        sample_typable(0, 40, Sampler(1), True)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        sample_typable(0, 40, Sampler(1), 0.5)


def test_rank_validates_its_bound_up_front():
    for bad in (-1, 2.5):
        with pytest.raises(ValueError, match="free-index bound") as info:
            rank(bad, Abs(Index(1)))
        assert not isinstance(info.value, FreeIndexExceeded)
        assert info.match(f"got {bad}$")


# Recorded before unrank typed its draws: the first sample_typable draw
# of Sampler(seed) for seeds 0..9, as binary codes.
TYPABLE_GOLDENS = {
    (0, 40): [
        "0000000001000010011100101001001111010110",
        "0001000001000000010100001010111000100010",
        "0100000110000001011000001001000010100010",
        "0001001001100000011100110000000011101110",
        "0000010011001010100011000100000001101010",
        "0001000001010000100110000100101000111010",
        "0001100100000000010001111000001110111010",
        "0000000001011110000010000001110010011010",
        "0000010001010011100011010010001111011010",
        "0000010101010001001000111000110110110110",
    ],
    (math.inf, 40): [
        "0000011111111001001110010111011101111110",
        "0001001111000000001010111101011001001010",
        "0101111100001100001011110000000111010110",
        "0100000000011101110000100111100111000110",
        "0100111100100010111111111011010011110110",
        "0101111110000101110010010101001001000110",
        "0101111100110010111100010011111011100010",
        "0110010001111111100111001100010010010110",
        "0111001000101100111010000110111110001110",
        "0001000011100000011110000101001010111110",
    ],
    (0, 80): [
        "00000001000101101100000000011001010001000000011000100000100001000011100010000010",
        "00000001010000100001000100011001000011111100100111111000000000001111110110001010",
        "00000001100101000000011110110010100000000100100011011011101000011001001001101110",
        "00000110000100010000100001010011111101100001010100010100001101110101110100010110",
        "00000000000100000001010001010000100000010010001011101100101000000101101000001110",
        "00000101000011100001000110000100011110000110001000100110110000100100101001010110",
        "00010001000010110000101000010000100000111100011000001000010111100010011100110110",
        "00000000010110000101010101011110001001110111110110001011001001011001111100011110",
        "00000001000000010100000000010010001100111100110110010111100110001001001101110110",
        "00000101000011100001010010100001101110010100000000010110000111000101100000111010",
    ],
    (math.inf, 80): [
        "01000000000101011110000001100101010000101100100110111111110111001001010111100010",
        "01010111010010001010001100010100100100101011100010001010001001011111111110100010",
        "01010101001110011000000101110101010010010011110000111000111111100000010010111110",
        "00000101000010100101010101000000100111001100010100010010011111001001111101100010",
        "01010101010000000000100101010011111110111011101000000010000100101101111110001110",
        "00000001010001111111110111001100010010101001001000100001010100110011110000010110",
        "01110011100001000100111001000001100101010011001111010110110000000010011110100010",
        "01010000011000111001000010000110000000000000010010010001110111111111000101111110",
        "01011100100010001011100000100010010110111001111111010111001010001111110110101110",
        "01000101000111001101111011011100100000101010011101010000001111000011000100000110",
    ],
    (0, 120): [
        "000000011001000101000111110011011000010000000100001010010100100100000100111101111100100011011000001011100100101000000010",
        "000100000001010000111101100101000001111000000101100010001110010001010000111100000110101000000110110000001110000000000010",
        "000001010100010100000101111110110110101000101000010000100101000001001010110010100100010010100100001000101110100010111010",
        "000000010010000001000101011100100010000100100001101000001001011110001101111000000100010101101100010000011000111111101110",
        "000000010011110000100010101010000101100000111110000100010000010101000011011011110100001101101010010000100000000100110110",
        "000000000001010001001001000100000000010111110111000001000111000011100001000010000110010001001000001110011000001011011110",
        "000001010100000000011001111011010010001001110010010010101000001100000000101000011000110101100111100001111011110100010110",
        "000100000110000000010100010010010001001010001110011110010001100101110100010011001110000001001001111011001000010000011010",
        "000101000100000000111010000000000111001000111100111000000100001100000011011000010001000100110001111100111110011011101010",
        "000100010100001001100000010000010001100001100110001111100001001000000000100100001111110001110100000010001101100100100010",
    ],
    (math.inf, 120): [
        "010100101100001001000010101100101010000010000100100000000000001000111011111100100000100110110111101000110111011011101110",
        "010101011011011011000011001000110010000001001100000010111111110111001010000100001100100000101110111011101111011011111110",
        "000100010101010000000001111111100000011000101011011001110010111100100000000011001000001001100011000111111000101111011110",
        "000101110011001010000011111000011000001001010000001100101000000101101001111111110010011101111110110010000100100111101110",
        "010001000001011001000010010100011011000000101001011100010010010010011101011001001110111100110010111100100011111011010110",
        "010110111100101111001100000001110010001000000000000110000101111001110010111111111100000101001111100100000000000010101110",
        "010111001100101111110000000010010111000011001011111010000100001110001000010101111111100001001110000101110101011110111110",
        "010101010101000011001010000001000101001000000010011000011100100000111100110110000001000011000101000110001001000010110110",
        "000101001100001111001011111010111001100101010101000001000001001000001011010111101010000100010000001110010000100000110110",
        "010101010011000100111001011110100001010011101111001000111001010100101000010010010100001101001001000000010001011011011110",
    ],
}


def test_sample_typable_goldens():
    for (m, n), codes in TYPABLE_GOLDENS.items():
        drawn = [encode(sample_typable(m, n, Sampler(seed))) for seed in range(10)]
        assert drawn == codes, (m, n)


def test_unrank_lists_and_seeded_samples_are_unchanged(big_table):
    # sha256 of every unrank list for n = 2..17 at m = 0, 1, 2, inf, and of
    # seeded draws with their ranks up to n = 600, recorded before the
    # two-ended block scan
    digest = hashlib.sha256()
    for m in (0, 1, 2, math.inf):
        for n in range(2, 18):
            for k in range(1, big_table.count(m, n) + 1):
                digest.update(encode(unrank(m, n, k, table=big_table)).encode() + b"\n")
    assert digest.hexdigest() == "8a951f5c7db557193e036ca6d7d8b3d3b64519e7dea1630bb1407a3d58bcb321"
    digest = hashlib.sha256()
    for m in (0, 1, 2, math.inf):
        state = Sampler(2024)
        for n in (50, 100, 200, 300, 400, 600):
            for _ in range(5):
                t = sample(m, n, state, table=big_table)
                k = rank(m, t, table=big_table)
                digest.update(encode(t).encode() + b" " + str(k).encode() + b"\n")
    assert digest.hexdigest() == "c3e1967818f934e45d1332d5631dfb1176d2ab5a8e7eb0b7f6d020351c4f979f"


def test_typed_unrank_matches_typing_the_finished_term(codes_by_size):
    table = CountTable()
    for m in (0, 1, math.inf):
        for n in range(2, 15):
            typable = set()
            for k in range(1, table.count(m, n) + 1):
                term = unrank(m, n, k, table=table)
                typed = _unrank(table.cone(m, n), m, n, k, True)
                if is_typable(term, max_free_index(term)):
                    assert typed == term, (m, n, k)
                    typable.add(encode(term))
                else:
                    assert typed is None, (m, n, k)
            # the brute-force class, typed term by term
            expected = {
                bits
                for bits, free in codes_by_size[n]
                if free <= m and is_typable(decode(bits), free)
            }
            assert typable == expected, (m, n)


def test_rank_inverts_unrank_on_random_ranks_to_600(big_table):
    rng = random.Random(600)
    for m in (0, 1, 2, math.inf):
        for n in (37, 120, 301, 600):
            total = big_table.count(m, n)
            for k in [1, total, *(rng.randrange(1, total + 1) for _ in range(20))]:
                term = unrank(m, n, k, table=big_table)
                assert size(term) == n and max_free_index(term) <= m
                assert rank(m, term, table=big_table) == k


def test_threads_unrank_on_a_fresh_table():
    # unrank reads the table's rows directly once its class is counted;
    # two threads filling a fresh table as they go must still agree with
    # a serial run
    rng = random.Random(17)
    serial_table = CountTable()
    jobs = []
    for _ in range(40):
        m, n = rng.choice((0, 1, 3, math.inf)), rng.randrange(60, 260)
        jobs.append((m, n, rng.randrange(1, serial_table.count(m, n) + 1)))
    expected = [unrank(m, n, k, table=serial_table) for m, n, k in jobs]
    shared = CountTable()
    start = threading.Barrier(2)
    results: dict[int, list] = {}

    def worker(ident, order):
        start.wait()
        results[ident] = [(i, unrank(*jobs[i], table=shared)) for i in order]

    threads = [
        threading.Thread(target=worker, args=(0, range(len(jobs)))),
        threading.Thread(target=worker, args=(1, range(len(jobs) - 1, -1, -1))),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ident in (0, 1):
        assert len(results[ident]) == len(jobs)
        for i, term in results[ident]:
            assert term == expected[i]
