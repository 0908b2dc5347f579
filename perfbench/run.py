#!/usr/bin/env python3
"""End-to-end benchmark of the repro query system.

Run one workload::

    python3 perfbench/run.py --workload flights_adhoc --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that spends the first half of ``--seconds`` untraced and the second
half with span wrappers around the program's entry points, and prints
per-layer metrics.  The report lines go first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every answer was correct.

Steadiness report (repeats a workload with different seeds and prints every
metric's median and quartiles)::

    python3 perfbench/run.py --steadiness 10 --workload synthetic_sparse --seconds 20

``--scale`` shrinks every dataset (used by the smoke tests).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SRC,
    Record,
    end_to_end_metrics,
    per_layer_metrics,
    result_object,
    vm_hwm_mb,
)
from stats import quartiles, spread  # noqa: E402

WORKLOADS = ("flights_adhoc", "synthetic_sparse", "flights_live", "dashboard_service")
SETUP_REPEATS = 9
DETAIL_PREFIX = "perfbench-detail "


def run_inproc(name: str, seed: int, seconds: float, trace: bool, scale: float, rec: Record):
    from inproc import WORKLOADS as CLASSES, closed_loop
    from tracing import Instrumentation, Tracer, per_op_layers

    workload = CLASSES[name](seed, scale, rec)
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            rec.setup.append(workload.setup())
        rec.latencies.clear()  # set-up answers count in setup_s only
        if not trace:
            closed_loop(workload, seconds)
            return rec.completed / rec.busy_s, vm_hwm_mb(), None
        started = closed_loop(workload, seconds / 2)
        untraced_op_s = rec.busy_s / max(rec.completed, 1)
        completed, busy = rec.completed, rec.busy_s
        tracer = Tracer()
        with Instrumentation(tracer):
            closed_loop(workload, seconds / 2, tracer, first_op=started)
        traced_op_s = (rec.busy_s - busy) / max(rec.completed - completed, 1)
        ops = per_op_layers(tracer.spans)
        extra = {"trace.overhead_fraction": traced_op_s / untraced_op_s - 1.0}
        return rec.completed / rec.busy_s, vm_hwm_mb(), (ops, extra)
    finally:
        workload.close()


def pin_to_one_cpu() -> None:
    """Run this process, and the server it starts, on one CPU.

    Unpinned on a two-vCPU VM, thread hand-offs across the two CPUs (client
    to server, event loop to pool thread, stream worker to consumer) cost
    milliseconds, by an amount that changes from minute to minute: with one
    service client a cache hit's p90 read 9-10 ms instead of 2.7, a
    stream's first bar came at ~43 ms instead of ~5, and the miss p90 of
    the service varied 19-36% across ten runs, more than any bound allows
    (pinned: 10%).  The benchmark therefore does not measure that cross-CPU
    cost.  The program's Python work holds the interpreter lock, so it runs
    on one core at a time either way.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(args) -> int:
    pin_to_one_cpu()
    rec = Record()
    if args.workload == "dashboard_service":
        import service

        ops_per_s, peak, traced = service.run(args.seed, args.seconds, bool(args.trace), args.scale, rec)
    else:
        ops_per_s, peak, traced = run_inproc(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, rec
        )
    if args.trace:
        ops, extra = traced
        metrics = per_layer_metrics(ops, rec, extra)
        units = PER_LAYER
        detail = {}
    else:
        metrics, detail, counts, short = end_to_end_metrics(rec, peak, ops_per_s)
        units = END_TO_END
        detail = dict(detail, samples=counts)
        if short:
            print(f"warning: fewer than 10 samples beyond {', '.join(short)}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    for name, value in detail.items():
        if name == "samples":
            print(f"  samples per op type: {value}")
        else:
            unit = "ms" if name.endswith("_ms") else "ratio"
            print(f"  {name:28s} {value:14.4f} {unit}")
    print(f"  misordered {rec.misordered}/{rec.guaranteed} answers (delta {rec.delta})")
    for error in rec.errors:
        print(f"  FAILED: {error}")
    print(DETAIL_PREFIX + json.dumps(dict(metrics, **{k: v for k, v in detail.items() if k != "samples"})))
    print(json.dumps(result_object(rec, metrics, units)))
    sys.stdout.flush()
    return 0 if rec.correct else 1


def steadiness(args) -> int:
    """Repeat a workload with seeds seed, seed+1, ...; print each metric's
    quartiles and spread (inter-quartile distance over the median)."""
    values: dict[str, list[float]] = {}
    for i in range(args.steadiness):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed + i), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", str(args.scale),
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(out.stdout + out.stderr, file=sys.stderr)
            print(f"run {i} failed with exit code {out.returncode}", file=sys.stderr)
            return 1
        detail = next(line for line in lines if line.startswith(DETAIL_PREFIX))
        for name, value in json.loads(detail[len(DETAIL_PREFIX):]).items():
            values.setdefault(name, []).append(float(value))
        print(f"run {i}: seed {args.seed + i} ok", file=sys.stderr)
    report = {}
    print(f"steadiness: {args.workload}, {args.steadiness} runs of {args.seconds}s")
    print(f"  {'metric':28s} {'Q1':>12s} {'median':>12s} {'Q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, q2, q3 = quartiles(vals)
        report[name] = {"q1": q1, "median": q2, "q3": q3, "spread": spread(vals), "values": vals}
        print(f"  {name:28s} {q1:12.4f} {q2:12.4f} {q3:12.4f} {report[name]['spread']:8.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size factor (1 = the benchmark's sizes)")
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="repeat the workload RUNS times and report spreads")
    parser.add_argument("--out", help="steadiness report JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.seed %= 2**63  # numpy seeds must be non-negative
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
