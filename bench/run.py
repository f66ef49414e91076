"""wallkit benchmark: closed-loop workloads through ``wallkit.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload grid-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller sends the next operation only after the previous one returns; no
threads.  The workload's operations are shuffled by the seed and repeated in
whole passes, as many as bring the run closest to ``--seconds`` of wall time
but at least 100 operations, so every run measures whole passes over the
same inputs.

Times are read from the process CPU clock (``time.process_time``): the loop
is single-threaded and does no I/O, so on an idle machine CPU time equals
wall time, while on a shared virtual machine the wall clock also counts the
time the host gives the CPU to others.  End-to-end times are then scaled to
a reference machine speed measured between operations (see
``calibration.py``).  The run record keeps the unscaled figures.

The first pass's outputs are checked with the benchmark's own arithmetic;
later passes must reproduce them byte for byte.  An operation fails when
``cli.main`` returns nonzero, raises, writes to stderr or fails a check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead replays
the inputs through the library layers with a span around each call (see
``workloads.py``) and prints per-layer metrics, per pass over the inputs.
The spans are written to ``.bench_out/``.  The last line of standard output
is always one JSON object with the keys correct, attempted, failed and
metrics.

The library is bound only through ``wallkit.__all__`` and
``wallkit.cli.main``; a layer whose function is missing is reported as
absent and its metrics read 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
from calibration import Calibration
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100           # so that at least ten samples lie beyond p90
SETUP_REPS = 7
WARMUP_OPS = 3

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layer metric prefix -> public name in wallkit.__all__.
LAYERS = {
    "curves.exists_pencil": "exists_pencil",
    "curves.curve_square": "curve_square",
    "walls.primitive_dual_divisor": "primitive_dual_divisor",
    "walls.saturated_span": "saturated_span",
    "walls.enumerate_witnesses": "enumerate_witnesses",
    "walls.box_witnesses": "box_witnesses",
    "binforms.class_id": "class_id",
    "binforms.rank2_isometric": "rank2_isometric",
    "catalog.generate_catalog": "generate_catalog",
    "catalog.export_catalog": "export_catalog",
}

PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.records": "count",
    "cli.main.bytes": "bytes",
    "cli.main.nonzero_exit": "count",
    "curves.exists_pencil.calls": "count",
    "curves.exists_pencil.busy_s": "s",
    "curves.curve_square.calls": "count",
    "curves.curve_square.busy_s": "s",
    "walls.primitive_dual_divisor.calls": "count",
    "walls.primitive_dual_divisor.busy_s": "s",
    "walls.saturated_span.calls": "count",
    "walls.saturated_span.busy_s": "s",
    "walls.enumerate_witnesses.calls": "count",
    "walls.enumerate_witnesses.busy_s": "s",
    "walls.enumerate_witnesses.qv_sum": "count",
    "walls.enumerate_witnesses.ns_per_qv": "ns",
    "walls.enumerate_witnesses.witnesses": "count",
    "walls.box_witnesses.calls": "count",
    "walls.box_witnesses.busy_s": "s",
    "binforms.class_id.calls": "count",
    "binforms.class_id.busy_s": "s",
    "binforms.class_id.failed": "count",
    "binforms.rank2_isometric.calls": "count",
    "binforms.rank2_isometric.busy_s": "s",
    "catalog.generate_catalog.calls": "count",
    "catalog.generate_catalog.busy_s": "s",
    "catalog.generate_catalog.entries": "count",
    "catalog.generate_catalog.wall_ratio": "ratio",
    "catalog.export_catalog.busy_s": "s",
    "catalog.export_catalog.bytes": "bytes",
    "json.dumps.calls": "count",
    "json.dumps.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The program under test cannot be loaded from this checkout."""


class Library:
    """The stable surface of wallkit: ``__all__`` plus ``cli.main``."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules
                     if m == "wallkit" or m.startswith("wallkit.")]:
            del sys.modules[name]
        wallkit = importlib.import_module("wallkit")
        if not Path(wallkit.__file__).resolve().is_relative_to(SRC):
            raise SetupError(f"wallkit imported from {wallkit.__file__}, "
                             f"not from {SRC}")
        self.names = {n: getattr(wallkit, n) for n in wallkit.__all__
                      if hasattr(wallkit, n)}
        self.main = importlib.import_module("wallkit.cli").main

    def get(self, name: str):
        return self.names.get(name)


def call(main, argv) -> tuple[int | None, str, str]:
    """One operation: ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:           # argparse rejects bad argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def setup(workload, seed: int, smoke: bool):
    """Import wallkit afresh, generate the inputs and warm up."""
    start = time.process_time()
    lib = Library()
    ops = workload.ops(smoke)
    for op in sorted(ops, key=lambda o: (o.size, o.index))[:WARMUP_OPS]:
        call(lib.main, op.argv)
    order = list(ops)
    random.Random(seed).shuffle(order)
    return time.process_time() - start, lib, order


def check_outputs(workload, ops, first) -> dict[int, list[str]]:
    """Problems per op index for the first pass's (rc, out, err)."""
    bad = {}
    for op in ops:
        rc, out, err = first[op.index]
        problems = [f"exit code {rc}"] if rc != 0 else []
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        try:
            problems += workload.check(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
        if problems:
            bad[op.index] = problems
    return bad


def run_passes(ops, seconds: float, min_ops: int, each_op, between):
    """Whole passes over ops until another pass would end farther from
    ``seconds`` of wall time than stopping now, and at least enough passes
    for min_ops operations.  ``between`` runs after every pass but the
    last, outside the measured time.  Returns (passes, wall seconds, CPU
    seconds)."""
    wall = cpu = 0.0
    passes, min_passes = 0, max(1, -(-min_ops // len(ops)))
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            each_op(passes, op)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        passes += 1
        if passes >= min_passes and wall + wall / passes / 2 >= seconds:
            return passes, wall, cpu
        between()


def measure(workload, lib, ops, seconds, min_ops, between, cal):
    """Untraced closed loop; returns (start, CPU seconds) per operation,
    (passes, wall, CPU) seconds, first-pass outputs and the ops whose repeat
    changed output.  Calibration runs between operations."""
    latencies: list[tuple[float, float]] = []
    first: dict[int, tuple] = {}
    changed: list[int] = []
    main = lib.main

    def each_op(pass_no, op):
        t0 = time.process_time()
        result = call(main, op.argv)
        latencies.append((t0, time.process_time() - t0))
        cal.maybe_sample()
        if pass_no == 0:
            first[op.index] = result
        elif result != first[op.index]:
            changed.append(op.index)

    cal.sample()
    timing = run_passes(ops, seconds, min_ops, each_op, between)
    cal.sample()
    return latencies, timing, first, changed


def traced(workload, lib, ops, seconds, between):
    """Traced replay; returns per-pass layer metrics, passes, first outputs."""
    tr, null = tracer.Tracer(), tracer.NullTracer()
    first: dict[int, tuple] = {}
    replay_ns = [0, 0]          # untraced, traced
    op_id = 0

    def each_op(pass_no, op):
        nonlocal op_id
        op_id += 1
        # Alternate which replay runs first so neither always runs warm.
        null_first = op_id % 2 == 1
        if null_first:
            untraced_replay(op)
        with tr.op(op_id):
            rc, out, err = tr.call("cli.main", call, lib.main, op.argv)
            t0 = time.process_time_ns()
            workload.replay(op, lib, tr)
            replay_ns[1] += time.process_time_ns() - t0
        if not null_first:
            untraced_replay(op)
        tr.count("cli.main.records", out.count("\n"))
        tr.count("cli.main.bytes", len(out))
        tr.count("cli.main.nonzero_exit", rc != 0)
        if pass_no == 0:
            first[op.index] = (rc, out, err)

    def untraced_replay(op):
        t0 = time.process_time_ns()
        workload.replay(op, lib, null)
        replay_ns[0] += time.process_time_ns() - t0

    passes, _, _ = run_passes(ops, seconds, 1, each_op, between)
    calls, busy = tr.totals()
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            value = calls.get(layer, 0)
        elif field == "busy_s":
            value = busy.get(layer, 0) / 1e9
        else:
            value = tr.counters.get(name, 0)
        metrics[name] = value / passes
    qv_sum = tr.counters["walls.enumerate_witnesses.qv_sum"]
    metrics["walls.enumerate_witnesses.ns_per_qv"] = (
        busy.get("walls.enumerate_witnesses", 0) / qv_sum if qv_sum else 0.0)
    entries = tr.counters["catalog.generate_catalog.entries"]
    metrics["catalog.generate_catalog.wall_ratio"] = (
        tr.counters["catalog.generate_catalog.walls"] / entries if entries else 0.0)
    metrics["trace.overhead_ratio"] = (
        replay_ns[1] / replay_ns[0] if replay_ns[0] else 0.0)
    return metrics, passes, first, tr


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wallkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
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
    return None


def output_digest(ops, first) -> str:
    """sha256 of the emitted JSON lines in unshuffled input order."""
    h = hashlib.sha256()
    for op in sorted(ops, key=lambda o: o.index):
        h.update(first[op.index][1].encode())
    return h.hexdigest()


def record_digest(key: dict, digest: str) -> bool:
    """Append to the digest ledger; False when the same code and seed
    produced a different digest before."""
    OUT_DIR.mkdir(exist_ok=True)
    ledger = OUT_DIR / "digests.jsonl"
    ok = True
    if ledger.is_file():
        for line in ledger.read_text().splitlines():
            entry = json.loads(line)
            if entry["key"] == key and entry["digest"] != digest:
                ok = False
    with open(ledger, "a", encoding="utf-8") as out:
        out.write(json.dumps({"key": key, "digest": digest}) + "\n")
    return ok


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    cal = Calibration()
    setup_times: list[tuple[float, float]] = []     # (start, CPU seconds)

    def setup_again():
        # Set-ups are spread over the run (one between passes) because
        # back-to-back ones all see the same short-lived machine speed.
        cal.sample()
        start = time.process_time()
        result = setup(workload, args.seed, args.smoke)
        setup_times.append((start, result[0]))
        cal.sample()
        return result

    try:
        _, lib, ops = setup_again()
    except (SetupError, ImportError) as exc:
        print(f"error: cannot load wallkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    min_ops = 1 if args.smoke else MIN_OPS
    absent = sorted(layer for layer, name in LAYERS.items()
                    if lib.get(name) is None)

    if args.trace:
        metrics, passes, first, tr = traced(workload, lib, ops, args.seconds,
                                            setup_again)
        attempted = passes * len(ops)
        changed: list[int] = []
    else:
        timed, (passes, wall_s, cpu_s), first, changed = measure(
            workload, lib, ops, args.seconds, min_ops, setup_again, cal)
        attempted = len(timed)
    while len(setup_times) < (2 if args.smoke else SETUP_REPS):
        setup_again()

    bad = check_outputs(workload, ops, first)
    failed = passes * len(bad) + sum(i not in bad for i in changed)
    for index, problems in list(bad.items())[:5]:
        print(f"check failed for op {index}: {'; '.join(problems[:3])}",
              file=sys.stderr)
    if changed:
        print(f"{len(changed)} repeated operations changed their output",
              file=sys.stderr)
    digest = output_digest(ops, first)
    source = source_digest()
    inputs = hashlib.sha256(json.dumps(
        [op.argv for op in sorted(ops, key=lambda o: o.index)]).encode()).hexdigest()
    digest_ok = record_digest({"workload": workload.name, "seed": args.seed,
                               "inputs": inputs, "source": source}, digest)
    if not digest_ok:
        print("output digest differs from an earlier run of the same code "
              "on the same seed", file=sys.stderr)

    run = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": passes,
        "ops_per_pass": len(ops), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "output_sha256": digest,
        "digest_consistent": digest_ok, "inputs_sha256": inputs,
        "source_sha256": source,
        "commit": commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "absent_layers": absent,
    }
    print(f"{workload.name}: seed {args.seed}, {passes} passes of "
          f"{len(ops)} ops, {attempted} attempted, {failed} failed")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tr.write(str(spans))
        run["spans_file"] = str(spans.relative_to(ROOT))
        units = PER_LAYER_UNITS
        for name in units:
            layer = name.rpartition(".")[0]
            note = " (absent)" if layer in absent else ""
            print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}{note}")
    else:
        n = len(timed)
        raw = [took for _, took in timed]
        latencies = [took * cal.scale(at) for at, took in timed]
        p90 = statistics.quantiles(latencies, n=10)[-1]
        metrics = {
            "throughput_ops_s": n / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(took * cal.scale(at)
                                         for at, took in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {
            "throughput_ops_s": f"n={n} ops",
            "latency_p50_ms": f"n={n}",
            "latency_p90_ms": f"n={n}, {sum(x > p90 for x in latencies)} beyond",
            "setup_s": f"median of n={len(setup_times)} set-ups",
            "peak_rss_mb": "n=1, ru_maxrss of this process",
        }
        run.update(samples=samples, unscaled={
            "throughput_ops_s_cpu": n / sum(raw),
            "latency_p50_ms_cpu": statistics.median(raw) * 1e3,
            "latency_p90_ms_cpu": statistics.quantiles(raw, n=10)[-1] * 1e3,
            "setup_s_cpu": statistics.median(took for _, took in setup_times),
            # Timed phase including the calibration runs.
            "timed_cpu_s": cpu_s, "timed_wall_s": wall_s,
            "kernel_s_median": statistics.median(cal.took),
            "kernel_runs": len(cal.took),
        })
        units = END_TO_END_UNITS
        for name in units:
            print(f"  {name:18s} {metrics[name]:12.6g} {units[name]:4s} {samples[name]}")
        print(f"  {'failed_ratio':18s} {failed / attempted:12.6g} {'ratio':4s} "
              f"{failed}/{attempted} ops")
    print(json.dumps({"run": run}))
    print(json.dumps({
        "correct": not bad and not changed and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and no 100-operation minimum")
    args = parser.parse_args(argv)
    if not (SRC / "wallkit" / "__init__.py").is_file():
        print(f"error: no wallkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
