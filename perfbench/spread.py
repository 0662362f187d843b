"""Run-to-run spread of the end-to-end metrics, and the host it was
measured on.

Runs ``perfbench/run.py`` ``--runs`` times per workload, each with a
different seed, and reports for each metric its median and the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median —
the figure a metric's ``bound`` in ``BENCHMARK.json`` is judged
against.  With ``--record`` the result, with the host's fingerprint
(nproc, CPU model, Python, numpy), is written to ``--output``
(default ``perfbench/baseline.json``) under ``sets[--set]``; other
sets already in the file are kept::

    python3 perfbench/spread.py --runs 10 --record --set 1
    python3 perfbench/spread.py --runs 10 --first-seed 101 --record --set 2
    python3 perfbench/spread.py --compare 1 2
    python3 perfbench/spread.py --workloads live_ingest --runs 5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def host_fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def compare(path: Path, first: str, second: str) -> int:
    """Print each metric's median and spread in two recorded sets, and
    how far the second median moved from the first.  Exits 1 when a
    spread is wider than its bound or the second median is worse than
    the first by more than the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = json.loads(path.read_text())["sets"]
    within = True
    print("| Workload | Metric | Median 1 | Spread 1 | Median 2 | Spread 2 "
          "| 2 vs 1 | Bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload, one in sets[first].items():
        two = sets[second][workload]
        for name in (n for n in one if n in better):
            a, b = one[name], two[name]
            shift = b["median"] / a["median"] - 1.0
            worse = shift if better[name] == "lower" else -shift
            ok = worse <= a["bound"] and (
                name == "setup_s" or max(a["spread"], b["spread"]) <= a["bound"]
            )
            within &= ok
            print(f"| `{workload}` | `{name}` | {a['median']:.4g} | "
                  f"{a['spread']:.3f} | {b['median']:.4g} | {b['spread']:.3f} | "
                  f"{shift:+.1%} | {a['bound']}{'' if ok else ' **out**'} |")
    return 0 if within else 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", action="store_true",
                        help="write the result to --output")
    parser.add_argument("--set", default="1",
                        help="name the recorded set is kept under")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "perfbench" / "baseline.json")
    parser.add_argument("--compare", nargs=2, metavar=("SET", "SET"),
                        help="compare two sets recorded in --output; run nothing")
    args = parser.parse_args()
    if args.compare:
        return compare(args.output, *args.compare)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"host": host_fingerprint(), "run_seconds": args.seconds,
                    "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for run in range(args.runs):
            seed = args.first_seed + run
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            walls.append(time.perf_counter() - started)
            if proc.returncode:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
        summary = {
            name: {
                "median": statistics.median(vals),
                "spread": spread(vals),
                "bound": bounds[name],
                "values": vals,
            }
            for name, vals in values.items()
        }
        summary["wall_s"] = {"median": statistics.median(walls), "max": max(walls)}
        summary["measured_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        report["workloads"][workload] = summary
        for name, entry in summary.items():
            if name in values:
                flag = "" if entry["spread"] < entry["bound"] / 3 else "  <-- wide"
                print(f"  {name:<16} median {entry['median']:12.4f}  spread "
                      f"{entry['spread']:.3f} (bound {entry['bound']}){flag}")
        print(f"  wall per run: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    if args.record:
        # Other sets, and workloads of this set not re-run, keep their
        # earlier record.
        path = args.output
        earlier = json.loads(path.read_text()) if path.exists() else {}
        sets = earlier.get("sets", {})
        sets[args.set] = {**sets.get(args.set, {}), **report.pop("workloads")}
        report = {**earlier, **report, "sets": sets}
        path.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
