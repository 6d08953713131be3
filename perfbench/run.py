"""Benchmark of the ``blc`` library: one seeded workload per run.

    python3 perfbench/run.py --workload counts|sample|typable --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
A run times set-up in fresh interpreters, builds the workload's warm
state, runs operations for S seconds (one process, closed loop: each
operation starts when the previous one ends), checking every output as
it returns, then a fixed set of known answers.  The last line of stdout is the JSON
result; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The environment,
the tail percentile used and any failures are written, with the spans
of a traced run, to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 7
SETUP_TIMEOUT_S = 60


def time_setup(warm_n: int) -> dict:
    """One set-up in a fresh interpreter: its import_s and setup_s."""
    child = Path(__file__).resolve().parent / "setup_child.py"
    done = subprocess.run(
        [sys.executable, str(child), str(SRC), str(warm_n)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_pass(
    workload: str, seed: int, seconds: float, execute, counts, tracer=None, pauses=()
):
    """Run the op stream for ``seconds``, checking each output against
    ``counts`` outside the op's timer; returns the latencies, the round
    of each op and the failures, one line each.

    The time is split into len(pauses) + 1 equal slices, and each pause
    (a callable) runs untimed between two of them.
    """
    latencies = array("d")
    round_of = array("l")
    failures: list[str] = []
    perf = time.perf_counter
    stream = enumerate(
        (r, op) for r, ops in enumerate(workloads.rounds(workload, seed)) for op in ops
    )
    for k in range(len(pauses) + 1):
        if k:
            pauses[k - 1]()
        deadline = perf() + seconds / (len(pauses) + 1)
        for i, (r, op) in stream:
            if tracer is not None:
                tracer.op = i
            start = perf()
            try:
                out = execute(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                out = workloads.Failed(f"{type(exc).__name__}: {exc}")
            end = perf()
            latencies.append(end - start)
            round_of.append(r)
            try:
                if not isinstance(out, workloads.Failed):
                    out = workloads.digest(op, out)
                reason = workloads.check(op, out, counts)
            except Exception as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
            if reason:
                failures.append(f"{op}: {reason}")
            if end >= deadline:
                break
    return latencies, round_of, failures


def by_round(latencies, round_of) -> list[list[float]]:
    """The latencies of each complete round (the last round of a run is
    cut short, so it is left out unless it is the only one)."""
    groups: dict[int, list[float]] = {}
    for took, r in zip(latencies, round_of):
        groups.setdefault(r, []).append(took)
    rounds = list(groups.values())
    return rounds[:-1] or rounds


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """The latency at ``percentile``: (value, samples beyond it)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = int(n * (100.0 - percentile) / 100.0 + 1e-9)
    return ordered[n - 1 - beyond], beyond


def rate(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(ROOT),
        "src_sha256": source_digest(),
        "setup_reps": SETUP_REPS,
    }


def layer_metrics(tracer, import_s: float, overhead_pct: float) -> dict:
    s, calls, under = tracer.self_s, tracer.calls, tracer.calls_under
    returned = tracer.returned["enumeration.sample"] + tracer.returned["enumeration.sample_typable"]
    draws = calls["enumeration.draw"]
    return {
        "counting.fill_s": (s["counting.fill"], "s"),
        "counting.max_n": (tracer.max_n, "count"),
        "counting.lookup_s": (s["counting.lookup"], "s"),
        "counting.lookups": (calls["counting.lookup"], "count"),
        "enumeration.unrank_s": (s["enumeration.unrank"], "s"),
        "enumeration.rank_s": (s["enumeration.rank"], "s"),
        "enumeration.draws": (draws, "count"),
        "enumeration.accept_ratio": (returned / draws if draws else 0.0, "ratio"),
        "typecheck.is_typable_s": (s["typecheck.is_typable"], "s"),
        "typecheck.census_self_s": (s["typecheck.census"], "s"),
        "typecheck.census_pool_s": (s["typecheck.census_pool"], "s"),
        "typecheck.census_terms": (under["typecheck.census", "typecheck.is_typable"], "count"),
        "typecheck.infer_s": (s["typecheck.infer"], "s"),
        "terms.encode_s": (s["terms.encode"], "s"),
        "terms.decode_s": (s["terms.decode"], "s"),
        "asymptotics.sigma_s": (s["asymptotics.sigma"], "s"),
        "asymptotics.constants_s": (s["asymptotics.constants"], "s"),
        "asymptotics.convergence_self_s": (s["asymptotics.convergence"], "s"),
        "cli.main_self_s": (s["cli.main"], "s"),
        "setup.import_s": (import_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark one seeded blc workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blc" / "__init__.py").is_file():
        print(f"error: no blc package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    sys.path.insert(0, str(SRC))
    warm_n = workloads.WARM_N[args.workload]
    setup_samples: list[dict] = []

    def set_up() -> None:
        setup_samples.append(time_setup(warm_n))

    import blc.counting

    executor = workloads.Executor()
    counts = oracle.Counts()
    counts.need(workloads.check_needs(args.workload))

    def warm() -> None:
        if warm_n:
            blc.counting.shared_table().ensure(warm_n)

    details: dict = {}
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        # The set-ups run between slices of the timed phase, so that both
        # measurements span the run rather than one stretch of it.
        warm()
        latencies, round_of, failures = timed_pass(
            args.workload, args.seed, args.seconds, executor, counts, pauses=[set_up] * SETUP_REPS
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(latencies)
        kat_failures = workloads.known_answers(executor)
    else:
        # Untraced for the first half, then the same ops again traced.
        for _ in range(SETUP_REPS):
            set_up()
        with tracer.active():
            warm()
        half = args.seconds / 2
        plain, _, failures = timed_pass(args.workload, args.seed, half, executor, counts)
        with tracer.active():
            latencies, _, traced_failures = timed_pass(
                args.workload, args.seed, half, executor, counts, tracer
            )
            tracer.op = "known-answers"
            kat_failures = workloads.known_answers(executor)
        attempted = len(plain) + len(latencies)
        failures += traced_failures
        common = min(len(plain), len(latencies))
        overhead_pct = 100.0 * (1 - rate(latencies[:common]) / rate(plain[:common]))
        details["trace"] = {
            "untraced_ops_per_s": rate(plain[:common]),
            "traced_ops_per_s": rate(latencies[:common]),
            "ops_compared": common,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
        }

    import_s = statistics.median(s["import_s"] for s in setup_samples)
    setup_s = statistics.median(s["setup_s"] for s in setup_samples)
    details["setup_samples"] = setup_samples
    failed = len(failures)
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    tail_value, beyond = tail(latencies, tail_pct)
    env = environment(args)
    env["op_samples"] = len(latencies)
    env["op_tail_percentile"] = tail_pct
    env["op_tail_samples_beyond"] = beyond

    if tracer is None:
        # Every round holds the same mix, so the median of per-round rates
        # is steady against stretches where the machine runs slow.
        rounds = by_round(latencies, round_of)
        env["complete_rounds"] = len(rounds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(rate(g) for g in rounds), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = layer_metrics(tracer, import_s, overhead_pct)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    details.update(
        environment=env,
        metrics={k: v for k, (v, _) in metrics.items()},
        error_rate=failed / attempted,
        failures=failures[:20],
        known_answer_failures=kat_failures,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(f"  error_rate {failed}/{attempted}; known-answer failures {len(kat_failures)}")
    for line in (failures[:5] + kat_failures)[:10]:
        print(f"  FAIL {line}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0 and not kat_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
