import copy
import pickle

import pytest
from hypothesis import given

from blc.terms import (
    Abs,
    App,
    Index,
    ParseError,
    TrailingBits,
    Truncated,
    decode,
    encode,
    max_free_index,
    parse_text,
    render,
    size,
)

from conftest import term_strategy

IDENTITY = Abs(Index(1))
K = Abs(Abs(Index(2)))
SELF_APPLY = Abs(App(Index(1), Index(1)))


@pytest.mark.parametrize(
    "term,bits",
    [
        (Index(1), "10"),
        (Index(4), "11110"),
        (IDENTITY, "0010"),
        (K, "0000110"),
        (SELF_APPLY, "00011010"),
        (App(IDENTITY, IDENTITY), "0100100010"),
        (Abs(Abs(App(Index(2), Index(1)))), "00000111010"),
    ],
)
def test_encode_golden(term, bits):
    assert encode(term) == bits
    assert size(term) == len(bits)
    assert decode(bits) == term


def test_size_splits_by_node_kind():
    # index i costs i + 1, each abstraction or application adds 2
    assert size(Index(9)) == 10
    assert size(Abs(Index(9))) == 12
    assert size(App(Index(9), Index(1))) == 14
    assert size(Index(10**9)) == 10**9 + 1  # added up, never built


def test_no_terms_below_size_two():
    assert size(Index(1)) == 2  # the smallest term there is


RUN_UNENDED = "index run of 1s is missing its terminating 0"

# (input, error text); each test's ids are its inputs alone
TRUNCATED = [
    ("", "input ended inside a term (after 0 bits)"),
    ("1", RUN_UNENDED),
    ("0", "input ended inside a term (after 1 bits)"),
    ("00", "input ended inside a term (after 2 bits)"),
    ("01", "input ended inside a term (after 2 bits)"),
    ("001", RUN_UNENDED),
    ("0111", RUN_UNENDED),
    ("010010", "input ended inside a term (after 6 bits)"),
]
TRAILING = [
    ("100", "term complete after 2 bits, 1 left over"),
    ("00101", "term complete after 4 bits, 1 left over"),
    ("0010" + "0010", "term complete after 4 bits, 4 left over"),
]


@pytest.mark.parametrize("bad,message", TRUNCATED, ids=[bad for bad, _ in TRUNCATED])
def test_decode_truncated(bad, message):
    with pytest.raises(Truncated) as err:
        decode(bad)
    assert str(err.value) == message


@pytest.mark.parametrize("bad,message", TRAILING, ids=[bad for bad, _ in TRAILING])
def test_decode_trailing(bad, message):
    with pytest.raises(TrailingBits) as err:
        decode(bad)
    assert str(err.value) == message


def test_decode_rejects_other_characters():
    with pytest.raises(ValueError) as err:
        decode("0a10")
    assert str(err.value) == "bit string may contain only '0' and '1'"


def test_index_starts_at_one():
    with pytest.raises(ValueError):
        Index(0)


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", None])
def test_index_rejects_a_non_integer_when_built(bad):
    with pytest.raises(TypeError):
        Index(bad)


def test_index_stores_a_bool_as_an_int():
    index = Index(True)
    assert type(index.i) is int and index.i == 1
    assert repr(index) == "Index(i=1)"
    assert index == Index(1) and encode(index) == "10"


@pytest.mark.parametrize(
    "term,expected",
    [
        (Index(3), 3),
        (IDENTITY, 0),
        (Abs(Index(2)), 1),
        (Abs(Abs(App(Index(1), Index(3)))), 1),
        (App(Index(2), Abs(Index(4))), 3),
    ],
)
def test_max_free_index(term, expected):
    assert max_free_index(term) == expected


def test_max_free_index_agrees_with_set_of_free_indices():
    # independent recursive computation of the whole free-index set
    def free(term, depth=0):
        if type(term) is Index:
            return {term.i - depth} if term.i > depth else set()
        if type(term) is Abs:
            return free(term.body, depth + 1)
        return free(term.fun, depth) | free(term.arg, depth)

    samples = [
        IDENTITY,
        K,
        Index(5),
        Abs(App(Index(3), Abs(Index(1)))),
        App(Abs(Index(2)), App(Index(1), Index(4))),
    ]
    for term in samples:
        indices = free(term)
        assert max_free_index(term) == (max(indices) if indices else 0)


@pytest.mark.parametrize(
    "term,text",
    [
        (IDENTITY, "\\1"),
        (App(Index(1), Index(2)), "(1 2)"),
        (SELF_APPLY, "\\(1 1)"),
        (Abs(Abs(App(App(Index(2), Index(1)), Index(3)))), "\\\\((2 1) 3)"),
    ],
)
def test_render_golden(term, text):
    assert render(term) == text
    assert parse_text(text) == term


def test_parse_ignores_whitespace():
    assert parse_text(" ( 1   2 ) ") == App(Index(1), Index(2))
    assert parse_text("\\ \\ 2") == K


# (input, error text, position)
PARSE_ERRORS = [
    ("", "unexpected end of input", 0),
    ("()", "unexpected ')'", 1),
    ("(1 2", "expected ')'", 4),
    ("1 2", "trailing input after a complete term", 2),
    ("\\", "unexpected end of input", 1),
    ("(1 2))", "trailing input after a complete term", 5),
    ("0", "de Bruijn indices start at 1", 0),
    ("x", "unexpected character 'x'", 0),
    ("(1)", "unexpected ')'", 2),
    ("\\0", "de Bruijn indices start at 1", 1),
    # INDEX is ASCII decimal: other Unicode digits are not part of it
    ("\u00b2", "unexpected character '\u00b2'", 0),
    ("1\u00b2", "unexpected character '\u00b2'", 1),
    ("\\\u0661", "unexpected character '\u0661'", 1),
]


@pytest.mark.parametrize(
    "bad,message,position", PARSE_ERRORS, ids=[bad for bad, *_ in PARSE_ERRORS]
)
def test_parse_errors(bad, message, position):
    with pytest.raises(ParseError) as err:
        parse_text(bad)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_text("(1 x)")
    assert err.value.position == 3


def test_parse_error_names_the_missing_paren():
    with pytest.raises(ParseError, match=r"^expected '\)' \(at position 5\)$") as err:
        parse_text("(1 1 1)")
    assert err.value.position == 5


def test_codec_bijection_exhaustive(codes_by_size):
    # every string that decodes must re-encode to itself
    for n in range(13):
        for bits, _ in codes_by_size[n]:
            assert encode(decode(bits)) == bits


def test_deeply_nested_terms_are_fine():
    term = Index(1)
    for _ in range(5000):
        term = Abs(term)
    bits = encode(term)
    assert size(term) == 2 + 2 * 5000
    assert decode(bits) == term
    assert max_free_index(term) == 0
    assert parse_text(render(term)) == term


def test_repr_of_deep_terms():
    chain = Index(1)
    spine = Index(1)
    for _ in range(5000):
        chain = Abs(chain)
        spine = App(spine, Index(1))
    assert repr(chain) == "Abs(body=" * 5000 + "Index(i=1)" + ")" * 5000
    assert repr(spine) == "App(fun=" * 5000 + "Index(i=1)" + ", arg=Index(i=1))" * 5000


def test_pickle_and_deepcopy_of_deep_terms():
    chain = Index(1)
    spine = Index(1)
    for _ in range(5000):
        chain = Abs(chain)
        spine = App(spine, Index(1))
    for term in (chain, spine):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(term, protocol)) == term
        assert copy.deepcopy(term) == term


@given(term_strategy)
def test_codec_round_trip(term):
    bits = encode(term)
    assert len(bits) == size(term)
    assert decode(bits) == term


@given(term_strategy)
def test_text_round_trip(term):
    assert parse_text(render(term)) == term
