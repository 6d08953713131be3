import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import pytest

from blc import __version__, cli
from blc.cli import main
from blc.counting import count
from blc.enumeration import rank, unrank
from blc.terms import (
    ParseError,
    TrailingBits,
    Truncated,
    decode,
    encode,
    max_free_index,
    parse_text,
    size,
)
from blc.typecheck import is_typable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count_closed(capsys):
    code, out, err = run_cli(capsys, "count", "--size", "19", "--free", "0")
    assert code == 0
    assert out == "431\n"


def test_count_unbounded(capsys):
    code, out, _ = run_cli(capsys, "count", "--size", "16", "--all")
    assert code == 0
    assert out == "745\n"


def test_count_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "count", "--size", "19", "--free", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 431
    assert payload["n"] == 19
    assert payload["m"] == "0"
    assert payload["metadata"]["version"]


def test_count_rejects_negative_bound(capsys):
    code, _, err = run_cli(capsys, "count", "--size", "10", "--free", "-1")
    assert code == 2
    assert "error" in err


def test_size_guard(capsys):
    code, _, err = run_cli(capsys, "count", "--size", "2500", "--free", "0")
    assert code == 2
    assert "--max-n" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "19", "--m", "0,inf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,count"
    assert len(lines) == 1 + 2 * 20
    assert "19,0,431" in lines
    assert "16,inf,745" in lines


def test_table_bad_bound_list(capsys):
    code, _, err = run_cli(capsys, "table", "--max-n", "10", "--m", "0,spam")
    assert code == 2
    assert "spam" in err


def test_table_bound_list_skips_empty_tokens(capsys):
    expected = run_cli(capsys, "table", "--max-n", "3", "--m", "0,inf")
    assert run_cli(capsys, "table", "--max-n", "3", "--m", "0,,inf") == expected
    assert expected[0] == 0
    assert expected[1].splitlines()[-1] == "3,inf,1"


USAGE_ERRORS = [
    (("table", "--max-n", "3", "--m", "0,-1"), "bounds must be >= 0, got -1"),
    (("table", "--max-n", "3", "--m", ","), "no free-index bounds given"),
    (("table", "--max-n", "-1"), "--max-n must be >= 0, got -1"),
    (("sample", "--size", "30", "--free", "0", "--count", "0"), "--count must be >= 1, got 0"),
    (("sample", "--size", "30", "--free", "0", "--seed", "-7"), "--seed must be >= 0, got -7"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(a) for a, _ in USAGE_ERRORS])
def test_usage_errors_exit_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_resource_limit_exits_4(capsys, monkeypatch, exc):
    def exhausted(m, n):
        raise exc

    monkeypatch.setattr(cli.counting, "count", exhausted)
    assert run_cli(capsys, "count", "--size", "10", "--all") == (
        4, "", "error: resource limit hit\n"
    )


def test_main_lets_a_bug_propagate_and_puts_back_the_digit_cap(monkeypatch):
    def broken(m, n):
        raise KeyError(n)

    monkeypatch.setattr(cli.counting, "count", broken)
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        with pytest.raises(KeyError):
            main(["count", "--size", "10", "--all"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(cap)


def test_unrank_binary(capsys):
    code, out, _ = run_cli(capsys, "unrank", "--size", "4", "--free", "0", "--index", "1")
    assert code == 0
    assert out == "0010\n"


def test_unrank_text(capsys):
    code, out, _ = run_cli(
        capsys, "unrank", "--size", "10", "--free", "0", "--index", "3", "--term-format", "text"
    )
    assert code == 0
    assert out == "\\\\(1 1)\n"


def test_unrank_out_of_range(capsys):
    code, _, err = run_cli(capsys, "unrank", "--size", "4", "--free", "0", "--index", "2")
    assert code == 3
    assert "1..1" in err


def test_unrank_empty_class(capsys):
    code, _, err = run_cli(capsys, "unrank", "--size", "5", "--free", "0", "--index", "1")
    assert code == 3
    assert "no terms" in err


def test_rank_round_trip(capsys):
    code, out, _ = run_cli(capsys, "unrank", "--size", "19", "--free", "0", "--index", "257")
    bits = out.strip()
    code, out, _ = run_cli(capsys, "rank", "--term", bits, "--free", "0")
    assert code == 0
    assert out == "257\n"


def test_rank_accepts_text_input(capsys):
    code, out, _ = run_cli(capsys, "rank", "--text", "\\1", "--free", "0")
    assert code == 0
    assert out == "1\n"


def test_rank_free_index_above_bound(capsys):
    code, _, err = run_cli(capsys, "rank", "--term", "110", "--free", "0")
    assert code == 3
    assert "free index" in err


# One input per error class that term input raises, all ValueErrors.
MALFORMED_TERMS = [
    ("--term", "10x01", ValueError),
    ("--term", "0", Truncated),
    ("--term", "00101", TrailingBits),
    ("--text", "(1", ParseError),
]


@pytest.mark.parametrize(
    "flag, value, error", MALFORMED_TERMS, ids=[e.__name__ for _, _, e in MALFORMED_TERMS]
)
def test_rank_malformed_term(capsys, flag, value, error):
    with pytest.raises(error):
        decode(value) if flag == "--term" else parse_text(value)
    code, out, err = run_cli(capsys, "rank", flag, value, "--free", "0")
    assert code == 2
    assert "bad term input" in err
    assert out == ""
    assert err.startswith("error: bad term input: ") and err.count("\n") == 1


def test_sample_is_reproducible(capsys):
    args = ("sample", "--size", "25", "--free", "0", "--count", "4", "--seed", "42")
    code_a, out_a, err_a = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert len(out_a.strip().splitlines()) == 4
    assert "generator=mt19937" in err_a
    assert "seed=42" in err_a


def test_sample_json_metadata(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--size", "20", "--all", "--count", "3", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["generator"] == "mt19937"
    assert payload["metadata"]["seed"] == 7
    assert len(payload["terms"]) == 3
    for bits in payload["terms"]:
        assert size(decode(bits)) == 20


def test_sample_typable_filter(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--size", "15", "--free", "0", "--count", "5", "--seed", "1", "--typable"
    )
    assert code == 0
    for bits in out.strip().splitlines():
        term = decode(bits)
        assert is_typable(term, max_free_index(term))


def test_sample_typable_output_is_unchanged(capsys):
    # recorded before sample_typable typed its draws during unrank
    code, out, _ = run_cli(
        capsys, "sample", "--size", "60", "--free", "0", "--typable", "--count", "5", "--seed", "42"
    )
    assert code == 0
    assert out == (
        "000000010001010101001000111000100011001000100001010110000010\n"
        "000100100000010000000011001010101000000000000001101010110110\n"
        "000000010100010000010101001010110000000000010100000000010110\n"
        "000000010001101100001000001000010100001010010111100111110110\n"
        "000000011110011110010011001111000011001000110000111000101110\n"
    )


def test_sample_rejects_non_positive_max_attempts(capsys):
    for bad in ("0", "-5"):
        code, out, err = run_cli(
            capsys, "sample", "--size", "30", "--free", "0", "--typable", "--max-attempts", bad
        )
        assert code == 2
        assert out == ""
        assert f"--max-attempts must be >= 1, got {bad}" in err


def test_rank_guard_refuses_a_huge_index_cheaply(capsys):
    # size() adds up the code's length without building it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rank", "--text", "1000000000", "--all")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: size 1000000001 is above the --max-n guard (2000); "
        "raise it explicitly if you mean it\n"
    )


def test_sample_empty_class(capsys):
    code, _, err = run_cli(capsys, "sample", "--size", "5", "--free", "0")
    assert code == 3
    assert "no terms" in err


def test_typecheck_typable(capsys):
    code, out, _ = run_cli(capsys, "typecheck", "--term", "0010")
    assert code == 0
    assert out == "a -> a\n"


def test_typecheck_untypable(capsys):
    code, out, _ = run_cli(capsys, "typecheck", "--text", "\\(1 1)")
    assert code == 0
    assert out == "untypable\n"


def test_typecheck_json(capsys):
    code, out, _ = run_cli(capsys, "typecheck", "--term", "0000110", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["typable"] is True
    assert payload["type"] == "a -> b -> a"

    code, out, _ = run_cli(capsys, "typecheck", "--text", "\\(1 1)", "--format", "json")
    payload = json.loads(out)
    assert payload["typable"] is False
    assert payload["type"] is None


def test_typecheck_json_golden(capsys):
    for text, line in [
        (
            "\\\\\\((3 1) (2 1))",
            '"typable": true, "type": "(a -> b -> c) -> (a -> b) -> a -> c"}',
        ),
        ("\\\\2", '"typable": true, "type": "a -> b -> a"}'),
        ("\\(1 1)", '"typable": false, "type": null}'),
    ]:
        code, out, _ = run_cli(capsys, "typecheck", "--text", text, "--format", "json")
        assert code == 0
        assert out == f'{{"metadata": {{"version": "{__version__}"}}, {line}\n'


def test_typecheck_deep_abstraction_chain(capsys):
    code, out, _ = run_cli(capsys, "typecheck", "--text", "\\" * 20000 + "1")
    assert code == 0
    assert out.count(" -> ") == 20000 and out.endswith("\n")


def test_typecheck_costs_follow_the_input_not_its_largest_free_index(capsys):
    # index 10**9 types in one context cell, so this answers at once
    code, out, _ = run_cli(capsys, "typecheck", "--text", "1000000000")
    assert (code, out) == (0, "a\n")
    code, out, _ = run_cli(capsys, "typecheck", "--text", "1000000000", "--format", "json")
    assert code == 0
    assert out == f'{{"metadata": {{"version": "{__version__}"}}, "typable": true, "type": "a"}}\n'


def test_typecheck_malformed(capsys):
    code, _, err = run_cli(capsys, "typecheck", "--term", "0010x")
    assert code == 2
    assert "bad term input" in err


def test_count_typable_closed(capsys):
    code, out, _ = run_cli(capsys, "count-typable", "--size", "10", "--closed")
    assert code == 0
    assert out == "5\n"


def test_count_typable_all(capsys):
    code, out, _ = run_cli(capsys, "count-typable", "--size", "10", "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 22
    assert payload["closed"] is False


def test_count_typable_has_its_own_guard(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count-typable", "--size", "40", "--all")
    assert code == 2
    assert out == ""
    assert "--max-n guard (32)" in err
    assert time.perf_counter() - start < 1.0
    # the guard is --max-n itself: below the size it refuses, at the size it runs
    code, out, err = run_cli(capsys, "count-typable", "--size", "12", "--all", "--max-n", "11")
    assert code == 2
    assert out == "" and "--max-n guard (11)" in err
    code, out, _ = run_cli(capsys, "count-typable", "--size", "12", "--all", "--max-n", "12")
    assert code == 0
    assert out == "58\n"  # the golden all-terms column at n = 12


def test_asymptotics_json(capsys):
    code, out, _ = run_cli(capsys, "asymptotics")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["rho"] - 0.509308127) < 1e-9
    assert abs(payload["growth"] - 1.963447954) < 1e-9
    assert abs(payload["c"] - 1.021874073) < 1e-9
    assert len(payload["real_roots"]) == 4
    assert "-0.288265354" in payload["note"]


def test_asymptotics_output_is_unchanged(capsys):
    # sha256 of the whole stdout: every float of the chain, bit for bit
    code, out, _ = run_cli(capsys, "asymptotics")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "49f1d962fb878e8ba5739c57373769a99f1991ac3a98c15d78cc1bfdd3e49e0f"


def test_convergence_output_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--max-n", "300", "--m", "0,1,2,5,inf")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "68ccaa57860af8e0bf0cea61dde0149c6c7a14c6b4676dede06df45e9b78f7e2"


def test_convergence_csv(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--max-n", "20", "--m", "0,inf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,value"
    closed_rows = [ln for ln in lines[1:] if ln.startswith("0,")]
    unbounded_rows = [ln for ln in lines[1:] if ln.startswith("inf,")]
    assert len(closed_rows) == 16  # closed sizes with a nonzero count
    assert len(unbounded_rows) == 19
    assert closed_rows[0].startswith("0,4,")
    value = float(unbounded_rows[-1].split(",")[2])
    assert 0.9 < value < 1.1


def test_convergence_validates_max_n(capsys):
    code, _, err = run_cli(capsys, "convergence", "--max-n", "1")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("blc ")


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blc", "count", "--size", "19", "--free", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "431\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # about 150 KB of CSV, more than a pipe holds, so the writer is still
    # writing when the reader closes its end after the first line
    argv = [sys.executable, "-m", "blc", "table", "--max-n", "1000", "--m", "inf"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"n,m,count\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    # in-process, each call writing to a pipe whose reader has gone
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "w") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            assert main(["table", "--max-n", "400", "--m", "inf"]) == 1
    assert sorted(os.listdir("/proc/self/fd")) == before


# One argv that succeeds and one that argparse rejects, per subcommand.
SHARED_PARSER_CASES = [
    (["count", "--size", "19", "--free", "0"], ["count", "--size", "19"]),
    (["table", "--max-n", "6", "--m", "0,inf"], ["table", "--max-n", "6", "--format", "json"]),
    (
        ["unrank", "--size", "10", "--free", "0", "--index", "3", "--term-format", "text"],
        ["unrank", "--size", "10", "--free", "0", "--index", "3", "--term-format", "hex"],
    ),
    (["rank", "--text", "\\(1 1)", "--free", "0"], ["rank", "--text", "\\1", "--term", "0010"]),
    (
        ["sample", "--size", "30", "--all", "--count", "2", "--seed", "5", "--format", "json"],
        ["sample", "--size", "thirty", "--all"],
    ),
    (["typecheck", "--text", "\\\\(2 1)"], ["typecheck"]),
    (
        ["count-typable", "--size", "10", "--closed"],
        ["count-typable", "--size", "10", "--closed", "--all"],
    ),
    (["asymptotics"], ["asymptotics", "extra"]),
    (["convergence", "--max-n", "8", "--m", "0"], ["convergence", "--m", "0"]),
]


@pytest.mark.parametrize("ok_argv, bad_argv", SHARED_PARSER_CASES, ids=lambda a: a[0])
def test_shared_parser_repeats_each_subcommand_exactly(capsys, ok_argv, bad_argv):
    for argv, want_code in ((ok_argv, 0), (bad_argv, 2)):
        first = run_cli(capsys, *argv)
        assert first[0] == want_code
        assert (first[1] if want_code == 0 else first[2]) != ""
        assert run_cli(capsys, *argv) == first


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["sample", "--help"], ["rank", "--all", "--term", "0010", "--free", "1"]],
    ids=["version", "sample-help", "usage-error"],
)
def test_shared_parser_text_matches_a_fresh_process(capsys, monkeypatch, argv):
    # help and usage text wrap to COLUMNS, so pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    run_cli(capsys, "count", "--size", "4", "--free", "0")  # the shared parser exists
    code, out, err = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "blc", *argv], capture_output=True, text=True)
    assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert code in (0, 2) and out + err != ""


def test_shared_parser_is_safe_across_threads():
    argvs = [
        ["sample", "--size", "40", "--free", "1", "--count", "3", "--typable", "--format", "json"],
        ["rank", "--text", "\\\\(2 1)", "--all", "--max-n", "50"],
    ]
    parser = cli._parser()
    serial = [vars(parser.parse_args(argv)) for argv in argvs]
    results: list = [None, None]

    def parse_many(k: int) -> None:
        results[k] = [vars(parser.parse_args(argvs[k])) for _ in range(200)]

    threads = [threading.Thread(target=parse_many, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(2):
        assert results[k] == [serial[k]] * 200


def test_import_leaves_cli_and_argparse_unloaded():
    # the parser is built lazily by main; importing the package (which
    # the benchmark's set-up times) must not pull the CLI in
    code = "import sys, blc; print([m for m in ('blc.cli', 'argparse') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Python caps int <-> decimal text at 4,300 digits by default; the
# unbounded counts pass the cap near size 14,700.


def digits(value):
    # Decimal converts with no cap, so the expected text needs no lifting
    return str(decimal.Decimal(value))


def test_counts_and_ranks_past_the_digit_cap(capsys):
    cap = sys.get_int_max_str_digits()
    value = count(math.inf, 15000)
    assert len(digits(value)) > cap
    args = ("count", "--size", "15000", "--all", "--max-n", "15000")
    assert run_cli(capsys, *args) == (0, digits(value) + "\n", "")
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out, parse_int=decimal.Decimal)["count"] == decimal.Decimal(value)
    last = encode(unrank(math.inf, 15000, value))
    args = ("rank", "--term", last, "--all", "--max-n", "15000")
    assert run_cli(capsys, *args) == (0, digits(value) + "\n", "")
    assert sys.get_int_max_str_digits() == cap


def test_table_prints_counts_past_the_digit_cap(capsys):
    code, out, err = run_cli(capsys, "table", "--max-n", "15000", "--m", "inf")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 15002
    for n in (0, 2, 14000, 14999, 15000):
        assert lines[n + 1] == f"{n},inf,{digits(count(math.inf, n))}"


def test_index_past_the_digit_cap_is_parsed(capsys):
    index = 10**4999 + 12345
    text = digits(index)
    # an out-of-range rank past 14,000 bits is named by its bit length
    code, out, err = run_cli(capsys, "unrank", "--size", "60", "--all", "--index", text)
    assert (code, out) == (3, "")
    assert err == (
        "error: rank <a 16607-bit number> outside 1..821184564281143 for size 60 (unbounded)\n"
    )
    args = ("unrank", "--size", "17200", "--all", "--index", text, "--max-n", "17200")
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert rank(math.inf, decode(out.strip())) == index


def test_main_puts_back_the_callers_digit_cap(capsys):
    cap = sys.get_int_max_str_digits()
    argvs = [
        ["count", "--size", "19", "--free", "0"],
        ["count", "--size", "-1", "--free", "0"],
        ["unrank", "--size", "40", "--all", "--index", "x"],
    ]
    interval = sys.getswitchinterval()
    try:
        sys.set_int_max_str_digits(5000)
        for argv in argvs:
            main(argv)
            assert sys.get_int_max_str_digits() == 5000, argv
        # Overlapping calls from several threads restore the cap once, when
        # the last of them returns.
        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=lambda k=k: [main(argvs[k % 3]) for _ in range(50)])
            for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.setswitchinterval(interval)
        sys.set_int_max_str_digits(cap)
    capsys.readouterr()
