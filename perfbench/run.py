"""SpotLight's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 26 --trace 0

Every metric is printed by name with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` measures every end-to-end metric, on every workload;
``--trace 1`` is a separate run of the same seeded inputs
that records spans (written to ``perfbench/out/``) and reports every
per-layer metric.  Names and units come from ``BENCHMARK.json``.
Scratch files live under ``perfbench/out/`` and are removed at exit;
every ``serve`` process started is killed on any exit path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("hot_read", "live_ingest", "study")


#: Every workload runs on one vCPU, the last.  On the 2-vCPU VM this
#: benchmark was built on, the first vCPU takes the network and timer
#: interrupts.  hot_read's closed loop spread over both vCPUs swung
#: from 1.5k to 8.7k req/s between 2-s slices as cross-vCPU wake-ups
#: got cheap or dear; on the last vCPU the same loop held 2.9k-6.0k,
#: and its throughput over 28-s windows spread 0.09 (as against 0.42)
#: over the same minutes.  The study, one thread, spread 0.07 over
#: eight alternating pairs of repetitions on the last vCPU, against
#: 0.17 on the first and 0.31 left to the scheduler.


def pin_to_one_cpu() -> int:
    """Pin this process, and so every thread and ``serve`` it starts
    from now on, to the last CPU it may use; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _terminate(signum, _frame) -> None:
    # Turn SIGTERM/SIGHUP into SystemExit so every ``finally`` (and the
    # children registry) runs and no server outlives the benchmark.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no program to measure under {ROOT} (need src/repro "
              f"and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(src), str(ROOT)]
    cpu = pin_to_one_cpu()
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _terminate)

    from perfbench.serving import Children
    from perfbench.tracing import Tracer
    from perfbench.workloads import RUNNERS, Context

    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        with Children() as children:
            ctx = Context(
                src=src, out=out, workload=args.workload, seed=args.seed,
                seconds=args.seconds, children=children, tracer=tracer,
            )
            metrics, tally = RUNNERS[args.workload](ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        wanted = spec["per_layer"]
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(trace_file, {"workload": args.workload, "metrics": metrics})
        print(f"trace: {len(tracer.spans)} spans -> {trace_file.relative_to(ROOT)}")
        for name, seconds in sorted(tracer.self_times().items()):
            print(f"self time  {name:<24} {seconds:12.6f} s")
    else:
        wanted = spec["end_to_end"]
    print(f"pinned to cpu {cpu}")
    report = {}
    correct = tally.failed == 0
    for metric in wanted:
        # Per-layer metrics of a layer the workload bypasses read 0.
        value = float(metrics.get(metric["name"], 0.0))
        if not math.isfinite(value) or (not args.trace and value <= 0):
            correct = False
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<32} {value:14.6f} {metric['unit']}")
    reported = {metric["name"] for metric in wanted}
    for name, value in sorted(metrics.items()):
        if name.startswith("samples."):  # how many samples each figure rests on
            print(f"{name:<32} {value:14d}")
        elif name not in reported:  # shown for reading, held to no bound
            print(f"({name:<30} {value:14.6f})")
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
