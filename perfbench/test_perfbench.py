"""Tests of the benchmark itself: its checks, its generator, a smoke run.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import tracing
import workloads
from workloads import INF, Op

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def counts():
    return oracle.Counts()


def test_oracle_matches_known_values(counts):
    for (m, n), want in oracle.KNOWN_COUNTS.items():
        assert counts.count(m, n) == want
    assert [counts.count(0, n) for n in range(12)] == [0, 0, 0, 0, 1, 0, 1, 1, 2, 1, 6, 5]


def test_oracle_rows_agree_with_library(counts):
    from blc.counting import CountTable

    table = CountTable(90)
    counts.need([(m, 90) for m in (0, 1, 3, 7)])
    for m in (0, 1, 3, 7, INF):
        assert [counts.count(m, n) for n in range(91)] == table.count_row(m, 90)


def test_check_flags_wrong_count(counts):
    op = Op("count", 40, 0)
    right = counts.count(0, 40)
    assert workloads.check(op, right, counts) is None
    assert "want" in workloads.check(op, right + 1, counts)


def test_check_flags_wrong_rank(counts):
    executor = workloads.Executor()
    op = Op("draw", 60, 0, seed=12345)
    k = workloads.digest(op, executor(op))
    assert workloads.check(op, k, counts) is None
    assert "rank" in workloads.check(op, k + 1, counts)


def test_check_flags_wrong_cli_rank(counts):
    executor = workloads.Executor()
    ops = [Op(kind, 50, INF, 99) for kind in ("cli_sample", "cli_rank", "cli_unrank")]
    outputs = [workloads.digest(op, executor(op)) for op in ops]
    assert all(workloads.check(op, got, counts) is None for op, got in zip(ops, outputs))
    code, text = outputs[1]
    assert workloads.check(ops[1], (code, str(int(text) + 1)), counts) is not None


def test_check_flags_wrong_census(counts):
    op = Op("census", 16, 0)
    assert workloads.check(op, 67, counts) is None
    assert workloads.check(op, 66, counts) is not None
    assert workloads.check(Op("census", 16, INF), 67, counts) is not None


def test_check_flags_bad_constants_and_series(counts):
    good = (0.5093081270242374, 1.9634479540759639, 1.0218740728976852, oracle.ROOTS)
    assert workloads.check(Op("constants"), good, counts) is None
    assert workloads.check(Op("constants"), (0.5093, *good[1:]), counts) is not None
    row = workloads.Executor()(Op("row", 30))
    assert workloads.check(Op("row", 30), row, counts) is None
    m, n, value = row[5]
    row[5] = (m, n, value * (1 + 1e-6))
    assert workloads.check(Op("row", 30), row, counts) is not None


def test_tracer_counts_census_terms_and_keeps_pool_apart(counts):
    from blc.counting import CountTable
    from blc.typecheck import count_typable

    import blc.typecheck

    tracer = tracing.Tracer()
    with tracer.active():
        assert blc.typecheck.count_typable(12, closed=True, table=CountTable()) == oracle.TYPABLE_CLOSED[12]
        assert blc.typecheck.count_typable(12, closed=True, jobs=2) == oracle.TYPABLE_CLOSED[12]
    assert blc.typecheck.count_typable is count_typable
    assert tracer.calls_under["typecheck.census", "typecheck.is_typable"] == counts.count(0, 12)
    assert tracer.calls["typecheck.census"] == tracer.calls["typecheck.census_pool"] == 1
    assert tracer.self_s["typecheck.census_pool"] > 0


def test_known_answers_pass():
    assert workloads.known_answers(workloads.Executor()) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_a_function_of_the_seed(workload):
    first = list(itertools.islice(workloads.generate(workload, 7), 300))
    again = list(itertools.islice(workloads.generate(workload, 7), 300))
    other = list(itertools.islice(workloads.generate(workload, 8), 300))
    assert first == again
    assert first != other
    # Same mix whatever the seed: only sizes within strata and seeds differ.
    assert [op.kind for op in first] == [op.kind for op in other]


def test_tail_reads_the_given_percentile():
    assert run.tail([float(i) for i in range(100)], 90.0) == (89.0, 10)
    assert run.tail([float(i) for i in range(1000)][::-1], 99.0) == (989.0, 10)
    assert run.tail([float(i) for i in range(999)], 99.0) == (989.0, 9)
    assert run.tail([float(i) for i in range(5)], 99.0) == (4.0, 0)


def test_by_round_drops_the_cut_round_unless_it_is_the_only_one():
    assert run.by_round([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 1, 1, 2]) == [[1.0, 2.0], [3.0, 4.0]]
    assert run.by_round([1.0, 2.0], [4, 4]) == [[1.0, 2.0]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload so a whole run takes about a second."""
    monkeypatch.setattr(workloads, "COUNT_STRATA", (20, 30))
    monkeypatch.setattr(workloads, "COUNT_ORDER", (1, 0))
    monkeypatch.setattr(workloads, "ROW_SIZES", (30,))
    monkeypatch.setattr(workloads, "SIGMA_BOUNDS", range(1, 4))
    monkeypatch.setattr(workloads, "SAMPLE_STRATA", (20, 40))
    monkeypatch.setattr(workloads, "CENSUS", ((8, 0, 1), (9, INF, 2)))
    monkeypatch.setattr(workloads, "TYPABLE_STRATA", (20, 30))
    monkeypatch.setattr(workloads, "WARM_N", {"counts": 0, "sample": 90, "typable": 40})
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    argv = [sys.executable, "perfbench/run.py", "--workload", "counts", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
