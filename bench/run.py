"""Benchmark of the asympoly package: one workload per process, or all.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py                      # every workload, every metric

A single-workload run imports the package from ``src/`` next to this
directory, sets up (import, input generation, warm-up), then drives the
workload's operations in a closed loop on one thread, each operation
starting when the previous one has returned: whole rounds of every
operation, at least two, starting rounds until ``--seconds`` have passed
on the wall clock.  An untraced run repeats the set-up between rounds,
spread over the run, and reports the median.  Times are CPU time of this
process (user plus system), so waits for a CPU on a shared host do not
count; wall times are kept in the record file.  Every operation's
outcome is checked.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Details go to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

from tracing import EXACT_COUNTERS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run, spread evenly over it; setup_s is their
#: median.  A shared host's speed can change in phases of seconds, and
#: set-ups made back to back would all land in one phase.
SETUP_REPS = 7
#: Whole rounds measured at least, so every config is rerun and compared.
MIN_ROUNDS = 2
#: p90 needs this many samples to have ten beyond it.
P90_MIN_SAMPLES = 100

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "traced.op_ms_p50": "ms",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name == "cli.bytes_written":
        return "B/op"
    return "count/op"


def fresh_import() -> SimpleNamespace:
    """Import the package from SRC, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "asympoly" or n.startswith("asympoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("asympoly")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"asympoly imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{n: importlib.import_module(f"asympoly.{n}") for n in ("bihari", "catalog", "cli", "seqcore")}
    )


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources and fixtures, path and content."""
    h = hashlib.sha256()
    pkg = SRC / "asympoly"
    for path in sorted(pkg.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def measure(
    ops: list, seconds: float, tracer: Tracer | None, set_up: Callable[[], object] | None
) -> tuple[list[int], list[int], list[str], int]:
    """Closed loop over whole rounds.

    Returns the CPU and wall latencies (ns), the failures and the rounds.
    Garbage left by one operation is collected before the next starts,
    outside the timed call, so no operation pays for its predecessor.
    ``set_up``, when given, is called between rounds up to SETUP_REPS - 1
    times, evenly over the run; what it builds is discarded.
    """
    counters = tracer.counters if tracer is not None else Counter()
    wall, cpu = time.perf_counter_ns, time.process_time_ns
    latencies: list[int] = []
    wall_latencies: list[int] = []
    failures: list[str] = []
    rounds = 0
    setup_every = int(seconds * 1e9 / SETUP_REPS)
    next_setup = wall() + setup_every
    deadline = wall() + int(seconds * 1e9)
    while rounds < MIN_ROUNDS or wall() < deadline:
        for op in ops:
            if tracer is not None:
                tracer.op = len(latencies)
            error = None
            start_wall, start = wall(), cpu()
            try:
                result = op()
            except Exception as exc:  # counted as a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            latencies.append(cpu() - start)
            wall_latencies.append(wall() - start_wall)
            if error is None:
                try:
                    error = op.check(result, counters)
                except Exception as exc:  # an unreadable outcome is a wrong one
                    error = f"check raised {type(exc).__name__}: {exc}"
            op.cleanup()
            if error is not None:
                failures.append(f"{op.label}: {error}")
            gc.collect()
        rounds += 1
        if set_up is not None and wall() >= next_setup and wall() < deadline:
            set_up()
            gc.collect()
            next_setup += setup_every
    return latencies, wall_latencies, failures, rounds


def sustained_ops_per_s(lat_ms: list[float], ops_per_round: int) -> float:
    """Operations per second when each takes its 90th-percentile time.

    On a shared host the CPU can run in fast and slow phases, lasting
    seconds to minutes, and the share of slow phases differs from run to
    run.  A plain mean follows that share; each operation's 90th
    percentile over its rounds tracks the slow-phase cost and moves less.
    """
    per_op = (lat_ms[i::ops_per_round] for i in range(ops_per_round))
    total_ms = sum(statistics.quantiles(v, n=10, method="inclusive")[8] for v in per_op)
    return ops_per_round / (total_ms / 1e3)


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "asympoly" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        setup_times: list[float] = []

        def set_up() -> list:
            start = time.process_time()
            ops = build(fresh_import(), ROOT, seed, work_dir)
            for op in ops:
                op.warm_up()
            setup_times.append(time.process_time() - start)
            return ops

        ops = set_up()
        tracer = None
        if trace:
            # A later fresh import would bypass the wrappers, so a traced
            # run sets up once.
            tracer = Tracer()
            tracer.install()
            for op in ops:
                op.instrument(tracer)
        gc.collect()
        latencies, wall_latencies, failures, rounds = measure(
            ops, seconds, tracer, None if trace else set_up)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(latencies)
    lat_ms = [v / 1e6 for v in latencies]
    p50 = statistics.median(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": sustained_ops_per_s(lat_ms, len(ops)),
            "op_ms_p90": p90,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        values = layer_metrics(tracer, attempted)
        values["traced.op_ms_p50"] = p50
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}

    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        "setup_s_reps": setup_times,
        # Printed but not in BENCHMARK.json: see "Noise and bounds" in README.md.
        "op_ms_p50": p50,
        "latencies_ms": {op.label: lat_ms[i::len(ops)] for i, op in enumerate(ops)},
        "wall_latencies_ms": {
            op.label: [v / 1e6 for v in wall_latencies[i::len(ops)]] for i, op in enumerate(ops)
        },
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")

    env = record["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} commit={env['git_commit']} "
          f"src_sha256={env['src_sha256'][:16]}")
    print(f"{workload}: seed {seed}, {rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {len(failures)} failed, error_rate {record['error_rate']:g}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    shown = dict(metrics)
    if tracer is None:
        shown["op_ms_p50"] = {"value": p50, "unit": _unit("op_ms_p50")}
    for name, m in shown.items():
        note = ""
        if name in ("op_ms_p50", "traced.op_ms_p50"):
            note = f"  (n={attempted})"
            if name == "op_ms_p50":
                note += " not gated"
        elif name == "op_ms_p90":
            note = f"  (n={attempted})"
            if attempted < P90_MIN_SAMPLES:
                note += " fewer than 10 samples above: read as the slowest operations"
        elif name == "setup_s":
            note = f"  (median of {len(setup_times)} set-ups)"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process: untraced, then traced twice."""
    merged: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{workload}: run with --trace {trace} printed no result (exit {proc.returncode})")
                return 1
            print("\n".join(lines[:-1]))
            results.append(json.loads(lines[-1]))
        plain, traced, again = results
        attempted += plain["attempted"]
        failed += plain["failed"]
        correct = correct and all(r["correct"] for r in results)
        record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
        plain["metrics"]["op_ms_p50"] = {"value": record["op_ms_p50"], "unit": _unit("op_ms_p50")}
        overhead = traced["metrics"]["traced.op_ms_p50"]["value"] / record["op_ms_p50"]
        mismatched = [k for k in EXACT_COUNTERS
                      if traced["metrics"][k]["value"] != again["metrics"][k]["value"]]
        print(f"{workload}: tracing overhead (traced op_ms_p50 / untraced) {overhead:.3f}")
        print(f"{workload}: exact counters repeat across two traced runs: "
              f"{'yes' if not mismatched else 'NO, ' + ', '.join(mismatched)}")
        correct = correct and not mismatched
        for name, m in {**plain["metrics"], **traced["metrics"]}.items():
            merged[f"{workload}.{name}"] = m
        merged[f"{workload}.tracing_overhead"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
