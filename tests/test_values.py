"""The package's immutable value classes: text, equality, hashing,
keyword construction, pattern matching, immutability and round trips
through pickle and copy."""

import copy
import math
import pickle

import pytest

from blc.asymptotics import AsymptoticReport, ConvergencePoint
from blc.terms import Abs, App, Index
from blc.typecheck import Arrow, TVar, Typing

K_TYPE = Arrow(TVar(0), Arrow(TVar(1), TVar(0)))
REPORT_FIELDS = dict(
    rho=0.5, growth=2.0, q_at_rho=1.5, c_tilde=-1.25, c=0.25, real_roots=(-1.0, 0.5), note="n"
)

# (value, its repr, the fields by keyword, an unequal value of the same class)
CASES = {
    "Index": (Index(3), "Index(i=3)", dict(i=3), Index(4)),
    "Abs": (Abs(Index(1)), "Abs(body=Index(i=1))", dict(body=Index(1)), Abs(Index(2))),
    "App": (
        App(Abs(Index(1)), Index(2)),
        "App(fun=Abs(body=Index(i=1)), arg=Index(i=2))",
        dict(fun=Abs(Index(1)), arg=Index(2)),
        App(Index(2), Abs(Index(1))),
    ),
    "TVar": (TVar(0), "TVar(id=0)", dict(id=0), TVar(1)),
    "Arrow": (
        K_TYPE,
        "Arrow(domain=TVar(id=0), codomain=Arrow(domain=TVar(id=1), codomain=TVar(id=0)))",
        dict(domain=TVar(0), codomain=Arrow(TVar(1), TVar(0))),
        Arrow(TVar(0), Arrow(TVar(1), TVar(1))),
    ),
    "Typing": (
        Typing(Arrow(TVar(0), TVar(0)), (TVar(1),)),
        "Typing(type=Arrow(domain=TVar(id=0), codomain=TVar(id=0)), context=(TVar(id=1),))",
        dict(type=Arrow(TVar(0), TVar(0)), context=(TVar(1),)),
        Typing(Arrow(TVar(0), TVar(0)), ()),
    ),
    "AsymptoticReport": (
        AsymptoticReport(0.5, 2.0, 1.5, -1.25, 0.25, (-1.0, 0.5), "n"),
        "AsymptoticReport(rho=0.5, growth=2.0, q_at_rho=1.5, c_tilde=-1.25, c=0.25, "
        "real_roots=(-1.0, 0.5), note='n')",
        REPORT_FIELDS,
        AsymptoticReport(**{**REPORT_FIELDS, "note": "m"}),
    ),
    "ConvergencePoint": (
        ConvergencePoint(math.inf, 2, 0.5),
        "ConvergencePoint(m=inf, n=2, value=0.5)",
        dict(m=math.inf, n=2, value=0.5),
        ConvergencePoint(0, 2, 0.5),
    ),
}

parametrized = pytest.mark.parametrize("name", list(CASES))


def _fields(value) -> tuple:
    """The fields of ``value``, read through its positional class pattern."""
    match value:
        case Index(i):
            return (i,)
        case Abs(body):
            return (body,)
        case App(fun, arg):
            return (fun, arg)
        case TVar(id_):
            return (id_,)
        case Arrow(domain, codomain):
            return (domain, codomain)
        case Typing(type_, context):
            return (type_, context)
        case AsymptoticReport(rho, growth, q_at_rho, c_tilde, c, real_roots, note):
            return (rho, growth, q_at_rho, c_tilde, c, real_roots, note)
        case ConvergencePoint(m, n, value_):
            return (m, n, value_)
    raise AssertionError(f"no pattern matched {value!r}")


@parametrized
def test_repr_golden(name):
    value, text, _, _ = CASES[name]
    assert repr(value) == text


@parametrized
def test_keyword_construction_equals_positional(name):
    value, _, fields, _ = CASES[name]
    cls = type(value)
    by_keyword = cls(**fields)
    assert type(by_keyword) is cls
    assert by_keyword == value and hash(by_keyword) == hash(value)
    assert cls(*fields.values()) == value


@pytest.mark.parametrize("name", ["Typing", "AsymptoticReport", "ConvergencePoint"])
def test_generic_construction_rejects_bad_fields(name):
    value, _, fields, _ = CASES[name]
    cls, names, values = type(value), list(fields), list(fields.values())
    first, last = names[0], names[-1]
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == value
    for args, kwargs, message in [
        (values[:-1], {}, f"missing field '{last}'"),
        ([], {k: v for k, v in fields.items() if k != first}, f"missing field '{first}'"),
        ([*values, None], {}, f"takes {len(names)} fields, got {len(names) + 1}"),
        (values, {"extra": None}, "unknown field 'extra'"),
        (values, {first: values[0]}, f"field '{first}' twice"),
        (values[:-1], {last: values[-1], first: values[0]}, f"field '{first}' twice"),
    ]:
        with pytest.raises(TypeError, match=message):
            cls(*args, **kwargs)


@parametrized
def test_equality_and_hash(name):
    value, _, fields, other = CASES[name]
    equal = type(value)(**fields)
    assert equal is not value
    assert value == equal and not value != equal
    assert hash(value) == hash(equal)
    assert value != other and not value == other
    assert len({value, equal, other}) == 2
    assert value != fields and value != None  # noqa: E711


@parametrized
def test_match_reads_the_fields_in_order(name):
    value, _, fields, _ = CASES[name]
    assert type(value).__match_args__ == tuple(fields)
    assert _fields(value) == tuple(fields.values())


@parametrized
def test_fields_are_read_only(name):
    value, _, fields, _ = CASES[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert _fields(value) == tuple(fields.values())


@parametrized
def test_no_other_attribute_can_be_set(name):
    value = CASES[name][0]
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra") and not hasattr(value, "__dict__")


@parametrized
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    value, text, _, _ = CASES[name]
    back = pickle.loads(pickle.dumps(value, protocol))
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == text


@parametrized
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copy_round_trip(name, copier):
    value, text, _, _ = CASES[name]
    back = copier(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value) and repr(back) == text
