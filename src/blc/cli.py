"""Command line interface.

One executable, nine subcommands:

    count          exact count of one size class
    table          CSV of counts over a size range
    unrank         the k-th term of a size class
    rank           position of a given term in its class
    sample         uniform (optionally typable-only) terms
    typecheck      principal simple type of a term
    count-typable  census of simply typable terms at one size
    asymptotics    growth-constant report as JSON
    convergence    CSV of scaled counts approaching the growth constant

Results go to stdout; diagnostics, and run metadata in plain mode, go
to stderr.  Exit codes: 0 success, 1 stdout closed early (say, piped
into ``head``), 2 usage or malformed input, 3 empty class / rank out of
range / free index above bound, 4 resource limit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading

from . import __version__, counting
from .asymptotics import constants, convergence_series
from .enumeration import (
    AttemptsExhausted,
    NoTerms,
    OutOfRange,
    Sampler,
    rank,
    sample,
    sample_typable,
    unrank,
)
from .terms import (
    FreeIndexExceeded,
    decode,
    encode,
    max_free_index,
    parse_text,
    render,
    size,
)
from .typecheck import _read_back, _walk, count_typable, format_type


class UsageError(Exception):
    """Bad arguments or malformed input; exits with code 2."""


def _bound(args) -> int | float:
    if args.all:
        return math.inf
    if args.free < 0:
        raise UsageError(f"--free must be >= 0, got {args.free}")
    return args.free


def _bound_text(m: int | float) -> str:
    return "inf" if m == math.inf else str(m)


def _parse_bounds(arg: str) -> list[int | float]:
    out: list[int | float] = []
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "inf":
            out.append(math.inf)
        else:
            try:
                value = int(token)
            except ValueError:
                raise UsageError(f"bad bound {token!r}: use integers or 'inf'") from None
            if value < 0:
                raise UsageError(f"bounds must be >= 0, got {value}")
            out.append(value)
    if not out:
        raise UsageError("no free-index bounds given")
    return sorted(set(out), key=lambda m: (m == math.inf, m))


def _check_guard(n: int, args) -> None:
    if n < 0:
        raise UsageError(f"size must be >= 0, got {n}")
    if n > args.max_n:
        raise UsageError(
            f"size {n} is above the --max-n guard ({args.max_n}); "
            "raise it explicitly if you mean it"
        )


def _read_term(args):
    try:
        if args.term is not None:
            return decode(args.term)
        return parse_text(args.text)
    except ValueError as exc:
        raise UsageError(f"bad term input: {exc}") from None


def _term_text(args, term) -> str:
    return encode(term) if args.term_format == "binary" else render(term)


def _emit(args, payload: dict, plain_lines: list[str], meta_extra: dict | None = None) -> None:
    md = {"version": __version__, **(meta_extra or {})}
    if args.format == "json":
        print(json.dumps({"metadata": md, **payload}))
        return
    if meta_extra:
        print(" ".join(f"{k}={v}" for k, v in md.items()), file=sys.stderr)
    for line in plain_lines:
        print(line)


def _add_bound_options(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--free", type=int, metavar="M", help="allow free indices 1..M (0 = closed terms)"
    )
    group.add_argument("--all", action="store_true", help="no bound on free indices")


def _add_term_input(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--term", metavar="BITS", help="term as its binary code")
    group.add_argument("--text", metavar="TERM", help="term in text form, e.g. '\\(1 1)'")


def _add_term_format(sp) -> None:
    sp.add_argument(
        "--term-format",
        choices=("binary", "text"),
        default="binary",
        help="how to print terms (default binary)",
    )


def _add_format_option(sp) -> None:
    sp.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format (default plain)"
    )


def _add_guard_option(
    sp,
    default: int = 2000,
    cost: str = "an --all count of size n costs about 7n big-int steps, "
    "a bounded one about n^3/27 products",
) -> None:
    sp.add_argument(
        "--max-n",
        type=int,
        default=default,
        metavar="N",
        help=f"refuse sizes above N; {cost} (default {default})",
    )


def _cmd_count(args) -> None:
    _check_guard(args.size, args)
    m = _bound(args)
    value = counting.count(m, args.size)
    _emit(args, {"n": args.size, "m": _bound_text(m), "count": value}, [str(value)])


def _cmd_table(args) -> None:
    if args.max_n < 0:
        raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
    bounds = _parse_bounds(args.m)
    print("n,m,count")
    for m in bounds:
        label = _bound_text(m)
        for n, value in enumerate(counting.count_row(m, args.max_n)):
            print(f"{n},{label},{value}")


def _cmd_unrank(args) -> None:
    _check_guard(args.size, args)
    text = _term_text(args, unrank(_bound(args), args.size, args.index))
    _emit(args, {"term": text, "term_format": args.term_format}, [text])


def _cmd_rank(args) -> None:
    term = _read_term(args)
    _check_guard(size(term), args)
    value = rank(_bound(args), term)
    _emit(args, {"rank": value}, [str(value)])


def _cmd_sample(args) -> None:
    _check_guard(args.size, args)
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.typable and args.max_attempts < 1:
        raise UsageError(f"--max-attempts must be >= 1, got {args.max_attempts}")
    m = _bound(args)
    state = Sampler(args.seed)
    terms = []
    for _ in range(args.count):
        if args.typable:
            terms.append(sample_typable(m, args.size, state, args.max_attempts))
        else:
            terms.append(sample(m, args.size, state))
    texts = [_term_text(args, t) for t in terms]
    meta = {"generator": Sampler.generator, "seed": args.seed}
    _emit(args, {"terms": texts, "term_format": args.term_format}, texts, meta_extra=meta)


def _cmd_typecheck(args) -> None:
    term = _read_term(args)
    walked = _walk(term, max_free_index(term))
    if walked is None:
        _emit(args, {"typable": False, "type": None}, ["untypable"])
    else:  # only the type is printed, so only the root is read back
        text = format_type(_read_back([walked[0]])[0])
        _emit(args, {"typable": True, "type": text}, [text])


def _cmd_count_typable(args) -> None:
    _check_guard(args.size, args)
    value = count_typable(args.size, closed=args.closed)
    _emit(
        args,
        {"n": args.size, "closed": args.closed, "count": value},
        [str(value)],
    )


def _cmd_asymptotics(args) -> None:
    r = constants()
    print(json.dumps({name: getattr(r, name) for name in r.__match_args__}))


def _cmd_convergence(args) -> None:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be >= 2, got {args.max_n}")
    bounds = _parse_bounds(args.m)
    print("m,n,value")
    for pt in convergence_series(bounds, args.max_n):
        print(f"{_bound_text(pt.m)},{pt.n},{pt.value:.12g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blc",
        description="Count, enumerate, uniformly sample and type binary lambda terms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("count", help="exact number of terms in one size class")
    sp.add_argument("--size", type=int, required=True, metavar="N", help="term size in bits")
    _add_bound_options(sp)
    _add_guard_option(sp)
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("table", help="CSV of counts for sizes 0..N")
    sp.add_argument("--max-n", type=int, required=True, metavar="N", help="largest size")
    sp.add_argument(
        "--m",
        default="inf",
        metavar="LIST",
        help="comma-separated free-index bounds, e.g. 0,1,2,inf (default inf)",
    )
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("unrank", help="the k-th term of a size class")
    sp.add_argument("--size", type=int, required=True, metavar="N")
    _add_bound_options(sp)
    sp.add_argument("--index", type=int, required=True, metavar="K", help="1-based rank")
    _add_term_format(sp)
    _add_guard_option(sp)
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_unrank)

    sp = sub.add_parser("rank", help="position of a term in its size class")
    _add_term_input(sp)
    _add_bound_options(sp)
    _add_guard_option(sp)
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_rank)

    sp = sub.add_parser("sample", help="draw uniform terms from a size class")
    sp.add_argument("--size", type=int, required=True, metavar="N")
    _add_bound_options(sp)
    sp.add_argument("--count", type=int, default=1, metavar="K", help="how many draws (default 1)")
    sp.add_argument("--seed", type=int, default=0, metavar="S", help="generator seed (default 0)")
    sp.add_argument("--typable", action="store_true", help="keep only simply typable terms")
    sp.add_argument(
        "--max-attempts",
        type=int,
        default=10000,
        metavar="K",
        help="give up after K rejected draws per term with --typable (default 10000)",
    )
    _add_term_format(sp)
    _add_guard_option(sp)
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("typecheck", help="principal simple type of a term")
    _add_term_input(sp)
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_typecheck)

    sp = sub.add_parser("count-typable", help="census of simply typable terms at one size")
    sp.add_argument("--size", type=int, required=True, metavar="N")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--closed", action="store_true", help="closed terms only")
    group.add_argument("--all", action="store_true", help="all terms, typable in some context")
    _add_guard_option(
        sp,
        default=32,
        cost="the census is exhaustive, and its cost grows about 1.8x per size",
    )
    _add_format_option(sp)
    sp.set_defaults(func=_cmd_count_typable)

    sp = sub.add_parser("asymptotics", help="growth-constant report as JSON")
    sp.set_defaults(func=_cmd_asymptotics)

    sp = sub.add_parser("convergence", help="CSV of count(m,n) * rho^n * n^1.5")
    sp.add_argument("--max-n", type=int, required=True, metavar="N", help="largest size")
    sp.add_argument(
        "--m",
        default="inf",
        metavar="LIST",
        help="comma-separated free-index bounds, e.g. 0,1,inf (default inf)",
    )
    sp.set_defaults(func=_cmd_convergence)

    return parser


# main's parser, built on its first call and reused: argparse keeps no
# state between parse_args calls and looks up sys.stdout/sys.stderr only
# when it prints, so in-process callers pay for their command, not for
# rebuilding about fifty arguments.  Kept private, so no caller can
# mutate the shared instance; build_parser still returns a fresh one.
_parser = functools.cache(build_parser)


class _NoDigitLimit:
    """Lifts Python's cap on int <-> decimal text (4,300 digits by
    default; the unbounded counts pass it near size 14,700) while any
    ``main`` runs, and puts back the caller's cap when the last returns.
    The cap is process-wide, so other threads see it lifted meanwhile.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            if not self._users:
                self._saved = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(0)
            self._users += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._users -= 1
            if not self._users:
                sys.set_int_max_str_digits(self._saved)


_no_digit_limit = _NoDigitLimit()


def main(argv: list[str] | None = None) -> int:
    with _no_digit_limit:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        try:
            args.func(args)
            sys.stdout.flush()  # so a closed pipe raises here, not at exit
            return 0
        except BrokenPipeError:
            # the reader has gone: discard the rest, so the flush at exit cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (NoTerms, OutOfRange, FreeIndexExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except AttemptsExhausted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except (MemoryError, RecursionError):
            print("error: resource limit hit", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
