import copy
import hashlib
import math
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from blc.counting import CountTable, count
from blc.enumeration import Sampler, sample_typable, unrank
from blc.terms import Abs, App, FreeIndexExceeded, Index, decode, max_free_index, parse_text
from blc.typecheck import (
    Arrow,
    TVar,
    Typing,
    _read_back,
    _walk,
    count_typable,
    format_type,
    infer,
    is_typable,
    resolve,
    unify,
)


def infer_annotated(term, free_count=0):
    """``infer``'s typing and one type per subterm, in preorder, sharing
    its variables, numbered on after the context's; None if untypable.
    The replay checker below checks the rules against these types
    without trusting the solver."""
    walked = _walk(term, free_count)
    if walked is None:
        return None
    root, context, annotations = walked
    slots = [context.get(i, [None]) for i in range(1, free_count + 1)]
    ty, *types = _read_back([root, *slots, *annotations])
    return Typing(ty, tuple(types[:free_count])), tuple(types[free_count:])


IDENTITY = Abs(Index(1))
K = Abs(Abs(Index(2)))
SELF_APPLY = Abs(App(Index(1), Index(1)))
# (\a.\b. a b) has type (a -> b) -> a -> b
APPLICATOR = Abs(Abs(App(Index(2), Index(1))))
# \f.\g.\x. (f x) (g x)
S_COMBINATOR = parse_text("\\\\\\((3 1) (2 1))")

# Closed typable counts by size, 0..28, and the same for all terms.
TYPABLE_CLOSED = [
    0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 5, 4, 9, 13, 23, 29, 67, 94, 179, 285,
    503, 795, 1503, 2469, 4457, 7624, 13475, 23027, 41437,
]
TYPABLE_ALL = [
    0, 0, 1, 1, 2, 2, 3, 5, 8, 13, 22, 36, 58, 103, 177, 307, 535, 949,
    1645, 2936, 5207, 9330, 16613, 29921, 53588, 96808, 174443, 316267,
    572092,
]


@pytest.mark.parametrize(
    "term,expected",
    [
        (IDENTITY, "a -> a"),
        (K, "a -> b -> a"),
        (APPLICATOR, "(a -> b) -> a -> b"),
        (S_COMBINATOR, "(a -> b -> c) -> (a -> b) -> a -> c"),
        (Abs(Abs(Index(1))), "a -> b -> b"),
    ],
)
def test_infer_golden(term, expected):
    typing = infer(term)
    assert typing is not None
    assert typing.context == ()
    assert format_type(typing.type) == expected


@pytest.mark.parametrize(
    "term",
    [
        SELF_APPLY,
        App(Abs(Abs(App(App(Index(2), Index(1)), Index(1)))), IDENTITY),
        Abs(App(App(Index(1), IDENTITY), App(Index(1), K))),
    ],
)
def test_untypable_golden(term):
    assert infer(term, max_free_index(term)) is None
    assert not is_typable(term, max_free_index(term))


def test_infinite_type_through_arrow_merging():
    # \f.\z. ((\a.\b. a) (f z)) (f (\y. f)): forces f's type to contain
    # itself.  A unifier that merges two arrows can close that cycle
    # without any variable binding seeing it; the cell unifier never
    # merges arrows, so the occurs check in unify catches the cycle
    trap = Abs(
        Abs(
            App(
                App(K, App(Index(2), Index(1))),
                App(Index(2), Abs(Index(3))),
            )
        )
    )
    assert max_free_index(trap) == 0
    assert not is_typable(trap)
    assert infer(trap) is None


def test_open_terms_type_against_a_context():
    typing = infer(Index(1), 1)
    assert typing is not None
    assert typing.type == typing.context[0]
    assert format_type(typing.type) == "a"

    typing = infer(App(Index(1), Index(2)), 2)
    assert typing is not None
    fun_ty, arg_ty = typing.context
    assert fun_ty == Arrow(arg_ty, typing.type)


def test_free_index_above_count_raises():
    with pytest.raises(FreeIndexExceeded):
        infer(Index(2), 1)
    with pytest.raises(FreeIndexExceeded):
        is_typable(Index(1))


def test_free_index_above_count_raises_after_a_clash_too():
    # the clash in the self-application comes before index 3 is reached
    term = App(SELF_APPLY, Index(3))
    for call in (is_typable, infer, infer_annotated):
        with pytest.raises(FreeIndexExceeded):
            call(term, 1)
        assert call(term, 3) in (False, None)


def test_negative_free_count_is_rejected():
    for call in (is_typable, infer, infer_annotated):
        for term in (IDENTITY, Index(1)):
            with pytest.raises(ValueError, match="free_count must be >= 0"):
                call(term, -1)


def test_free_count_must_be_an_integer():
    # 1.5 passes the bound checks, so only the conversion refuses it
    for call in (is_typable, infer, infer_annotated):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            call(Index(1), 1.5)
    assert is_typable(Index(1), True)


def test_type_variables_are_numbered_in_first_use_order():
    assert infer(K).type == Arrow(TVar(0), Arrow(TVar(1), TVar(0)))
    # domain before codomain
    assert infer(Abs(K)).type == Arrow(TVar(0), Arrow(TVar(1), Arrow(TVar(2), TVar(1))))
    typing = infer(App(Index(1), Index(2)), 2)
    assert typing.context == (Arrow(TVar(1), TVar(0)), TVar(1))
    assert typing.type == TVar(0)
    # annotations number on after the type and the context: (\x. 2) \y. y
    typing, annotations = infer_annotated(App(Abs(Index(2)), IDENTITY), 1)
    assert typing == Typing(TVar(0), (TVar(0),))
    identity = Arrow(TVar(1), TVar(1))
    assert annotations == (TVar(0), Arrow(identity, TVar(0)), TVar(0), identity, TVar(1))


def test_a_walk_makes_a_cell_only_for_each_slot_it_uses():
    # one slot used, so one cell, whatever the slot's number
    root, context, _ = _walk(Index(10**6), 10**6)
    assert len(context) == 1
    assert format_type(_read_back([root])[0]) == "a"


def test_unused_context_slots_get_fresh_variables_in_slot_order():
    assert infer(Index(2), 3) == Typing(TVar(0), (TVar(1), TVar(0), TVar(2)))


def test_inference_is_stable_across_runs():
    for term in (IDENTITY, K, APPLICATOR, S_COMBINATOR):
        first = infer(term)
        second = infer(term)
        assert format_type(first.type) == format_type(second.type)


@pytest.mark.parametrize(
    "ty,expected",
    [
        (TVar(3), "a"),
        (Arrow(TVar(5), TVar(5)), "a -> a"),
        (Arrow(TVar(9), TVar(2)), "a -> b"),
        (Arrow(Arrow(TVar(1), TVar(2)), TVar(3)), "(a -> b) -> c"),
        (Arrow(TVar(1), Arrow(TVar(2), TVar(3))), "a -> b -> c"),
        (
            Arrow(Arrow(Arrow(TVar(1), TVar(2)), TVar(3)), TVar(1)),
            "((a -> b) -> c) -> a",
        ),
    ],
)
def test_format_type(ty, expected):
    assert format_type(ty) == expected


def test_format_type_names_run_past_z():
    ty = TVar(0)
    for i in range(1, 30):
        ty = Arrow(ty, TVar(i))
    text = format_type(ty)
    assert "a1" in text and "d1" in text


def _replay(term, annotations, ctx, binders, pos):
    """Re-derive the typing rules at each node; returns the next preorder
    position.  Independent of the solver: no unification, just equality
    of the finished types."""
    ty = annotations[pos]
    if isinstance(term, Index):
        if term.i <= len(binders):
            assert ty == binders[-term.i]
        else:
            assert ty == ctx[term.i - len(binders) - 1]
        return pos + 1
    if isinstance(term, Abs):
        assert isinstance(ty, Arrow)
        end = _replay(term.body, annotations, ctx, binders + [ty.domain], pos + 1)
        assert ty.codomain == annotations[pos + 1]
        return end
    mid = _replay(term.fun, annotations, ctx, binders, pos + 1)
    end = _replay(term.arg, annotations, ctx, binders, mid)
    assert annotations[pos + 1] == Arrow(annotations[mid], ty)
    return end


def check_soundness(term, free_count):
    result = infer_annotated(term, free_count)
    if result is None:
        return False
    typing, annotations = result
    assert annotations[0] == typing.type
    end = _replay(term, annotations, list(typing.context), [], 0)
    assert end == len(annotations)
    return True


def test_soundness_replay_handmade():
    for term in (IDENTITY, K, APPLICATOR, S_COMBINATOR, Abs(K), App(K, IDENTITY)):
        assert check_soundness(term, 0)
    assert check_soundness(Index(3), 3)
    assert check_soundness(App(Index(1), Index(2)), 2)


def test_soundness_replay_exhaustive(codes_by_size):
    # every typable term up to size 12, in any context
    for n in range(13):
        for bits, free in codes_by_size[n]:
            term = decode(bits)
            typable = check_soundness(term, free)
            assert typable == is_typable(term, free)


def _chain(types):
    # One arrow through all the types, so format_type names a variable the
    # same wherever it recurs: the text pins which types share variables.
    types = list(types)
    out = types.pop()
    while types:
        out = Arrow(types.pop(), out)
    return out


def _typing_line(term, free_count):
    typing = infer(term, free_count)
    annotated = infer_annotated(term, free_count)
    assert is_typable(term, free_count) == (typing is not None)
    if typing is None:
        assert annotated is None
        return b"-\n"
    again, annotations = annotated
    assert again == typing
    whole = _chain(typing.context + (typing.type,))
    every = _chain(typing.context + (typing.type,) + annotations)
    return f"{format_type(whole)} | {format_type(every)}\n".encode()


def test_typings_and_annotations_are_unchanged(codes_by_size):
    # sha256 of the context-then-type and of context, type and every
    # annotation, of each term for n = 2..14 in its own context, and of
    # seeded typable draws; recorded before infer moved to the shared
    # cell unifier
    digest = hashlib.sha256()
    for n in range(2, 15):
        for bits, free in codes_by_size[n]:
            digest.update(_typing_line(decode(bits), free))
    assert digest.hexdigest() == "1f37140516f9b01a8862250231c649ff76a7612950f992c6b9244fa3db174701"
    digest = hashlib.sha256()
    for m in (0, math.inf):
        state = Sampler(2024)
        for n in (40, 80, 120):
            for _ in range(5):
                term = sample_typable(m, n, state)
                digest.update(_typing_line(term, max_free_index(term)))
    assert digest.hexdigest() == "7370b5bb0c1ec166407da046f767e2b47af59067badb061b96f810928d0f1ff7"


def _abstraction_chain(depth):
    term = Index(1)
    for _ in range(depth):
        term = Abs(term)
    return term


def _open_spine(apps):
    # ((1 2) 2) ... 2: index 1 takes apps arguments of index 2's type
    term = Index(1)
    for _ in range(apps):
        term = App(term, Index(2))
    return term


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    assert time.perf_counter() - start < 1.0, call.__name__
    return result


def test_deep_terms_type_in_linear_time():
    # far deeper than the recursion limit; a quadratic solver (say, one
    # that resolves ever longer chains of variable links) takes seconds
    depth = 20000
    typing = _timed(infer, _abstraction_chain(depth))
    assert typing.context == ()
    ty, arrows = typing.type, 0
    while type(ty) is Arrow:
        ty, arrows = ty.codomain, arrows + 1
    assert arrows == depth

    spine = _open_spine(5000)
    typing = _timed(infer, spine, 2)
    fun_ty, arg_ty = typing.context
    for _ in range(5000):
        assert fun_ty.domain == arg_ty
        fun_ty = fun_ty.codomain
    assert fun_ty == typing.type
    typing, annotations = _timed(infer_annotated, spine, 2)
    assert len(annotations) == 10001 and annotations[0] == typing.type
    assert _timed(is_typable, spine, 2)


def test_deep_types_compare_hash_and_print():
    # the principal type of the 5,000-deep \...\1 is a0 -> ... -> a4999 -> a4999
    depth = 5000
    ty = infer(_abstraction_chain(depth)).type
    again = infer(_abstraction_chain(depth)).type
    built = TVar(depth - 1)
    for i in reversed(range(depth)):
        built = Arrow(TVar(i), built)
    assert ty == again == built and not ty != built
    assert hash(ty) == hash(again) == hash(built)
    assert len({ty, again, built}) == 1
    # exact, variable ids included: neither a renaming nor one changed leaf is equal
    renamed = TVar(depth)
    for i in reversed(range(depth)):
        renamed = Arrow(TVar(i + 1), renamed)
    changed = Arrow(TVar(depth - 2), TVar(depth - 2))
    for i in reversed(range(depth - 1)):
        changed = Arrow(TVar(i), changed)
    assert ty != renamed and ty != changed and ty != TVar(0)
    assert repr(ty) == (
        "".join(f"Arrow(domain=TVar(id={i}), codomain=" for i in range(depth))
        + f"TVar(id={depth - 1})"
        + ")" * depth
    )
    assert repr(Typing(ty, ())).startswith("Typing(type=Arrow(domain=TVar(id=0), codomain=")
    # shallow types keep the equalities and text they had
    k_type = Arrow(TVar(0), Arrow(TVar(1), TVar(0)))
    assert infer(K).type == k_type and infer(K) == Typing(k_type, ())
    assert infer(K).type != Arrow(TVar(0), Arrow(TVar(1), TVar(1)))
    assert hash(infer(K)) == hash(Typing(k_type, ()))
    assert repr(Arrow(TVar(0), TVar(1))) == "Arrow(domain=TVar(id=0), codomain=TVar(id=1))"


def test_deep_types_pickle_and_deepcopy():
    # the 5,000-deep principal type, alone and held in both fields of a Typing
    depth = 5000
    ty = infer(_abstraction_chain(depth)).type
    for value in (ty, Typing(ty, (ty, TVar(depth)))):
        copies = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in [*copies, copy.deepcopy(value)]:
            assert type(back) is type(value) and back is not value
            assert back == value and hash(back) == hash(value)


def test_census_golden_prefix():
    for n in range(15):
        assert count_typable(n) == TYPABLE_CLOSED[n]
    for n in range(13):
        assert count_typable(n, closed=False) == TYPABLE_ALL[n]


def test_census_against_brute_force(codes_by_size):
    for n in range(15):
        closed = sum(
            1 for bits, free in codes_by_size[n] if free == 0 and is_typable(decode(bits))
        )
        anyctx = sum(
            1
            for bits, free in codes_by_size[n]
            if is_typable(decode(bits), free)
        )
        assert count_typable(n) == closed
        assert count_typable(n, closed=False) == anyctx


def test_census_against_typing_each_unranked_term():
    # The walk places index 1 and 2 leaves out of preorder; inference
    # types each finished term in preorder, so the two orders must agree.
    for n in range(19):
        for m, closed in ((0, True), (math.inf, False)):
            terms = (unrank(m, n, k) for k in range(1, count(m, n) + 1))
            typable = sum(1 for t in terms if is_typable(t, max_free_index(t)))
            assert count_typable(n, closed=closed) == typable, (n, m)


def test_census_parallel_matches_serial():
    # jobs is advisory: the walk runs in the calling thread either way
    assert count_typable(13, jobs=2) == TYPABLE_CLOSED[13]
    assert count_typable(12, closed=False, jobs=2) == TYPABLE_ALL[12]


def test_census_bounds():
    for n in (10, 14):
        assert count_typable(n) <= count(0, n)
        assert count_typable(n, closed=False) <= count(math.inf, n)


def test_census_size_must_be_an_integer():
    # refused up front: 1.5 would count 0, and 14.0 fail deep in the walk
    for n in (1.5, 14.0):
        for closed in (True, False):
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
                count_typable(n, closed)


def test_census_trivial_sizes():
    assert count_typable(0) == 0
    assert count_typable(1) == 0
    assert count_typable(0, closed=False) == 0


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs interval timers")
def test_interrupted_census_runs_again_exactly():
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    cut = 0
    try:
        # The first delay can land in the closed column's cone fill, the
        # others land inside the walks.
        for delay, closed in ((0.0005, True), (0.01, True), (0.05, False)):
            table = CountTable()
            signal.setitimer(signal.ITIMER_REAL, delay)
            try:
                count_typable(24, closed=closed, table=table)
            except Interrupted:
                cut += 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert count_typable(24, closed=True, table=table) == TYPABLE_CLOSED[24]
            assert count_typable(22, closed=False, table=table) == TYPABLE_ALL[22]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert cut


def test_threads_census_both_columns_at_once():
    table = CountTable()
    start = threading.Barrier(2)

    def census(n, closed):
        start.wait(timeout=30)
        return count_typable(n, closed=closed, table=table)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            closed = pool.submit(census, 23, True)
            anyctx = pool.submit(census, 21, False)
            assert closed.result(timeout=120) == TYPABLE_CLOSED[23]
            assert anyctx.result(timeout=120) == TYPABLE_ALL[21]
    finally:
        sys.setswitchinterval(interval)


def test_alternating_columns_on_one_table():
    # no state survives a walk: each call agrees with the goldens
    # whichever column ran before it on the same table
    table = CountTable()
    for n in range(2, 19):
        first = n % 2 == 0
        for closed in (first, not first):
            want = TYPABLE_CLOSED if closed else TYPABLE_ALL
            assert count_typable(n, closed=closed, table=table) == want[n]


def test_unify_binds_the_right_hand_variable():
    # walks pass (binder or slot, expected): the fresh expected cell must
    # take the link, or chains of links form (see the open spine above)
    slot, want = [None], [None]
    trail: list = []
    assert unify(slot, want, trail)
    assert want[0] is slot and slot[0] is None and trail == [want]


def test_shared_unify_handles_deep_arrow_chains():
    # a1 -> a2 -> ... -> a5000 -> x against b1 -> ... -> b5000 -> y, built
    # inside out; a recursive unify would exceed the recursion limit
    depth = 5000
    assert depth > sys.getrecursionlimit() // 2

    def chain(leaf):
        cells = [[None] for _ in range(depth)]
        t = leaf
        for cell in reversed(cells):
            t = (cell, t)
        return cells, t

    x, y = [None], [None]
    left_cells, left = chain(x)
    right_cells, right = chain(y)
    trail: list = []
    assert unify(left, right, trail)
    assert len(trail) == depth + 1
    assert resolve(x) is resolve(y)
    assert all(resolve(a) is resolve(b) for a, b in zip(left_cells, right_cells))
    # the occurs check walks the whole chain too: x cannot take a type
    # that contains x 5000 arrows down
    assert not unify(resolve(x), left, [])
