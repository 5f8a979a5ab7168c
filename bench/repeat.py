"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workload nd-sparse ...] [--trace 1] [--out FILE]

Each run is a separate ``run.py`` process, one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For every workload and metric the
summary gives the values, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
marked against the metric's bound, next to the environment: Python version,
nproc, commit, ``src/omegalie`` line count and the op count of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import src_lines  # noqa: E402

METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) \S+")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_once(workload, seed, seconds, trace):
    """The run's JSON result, with "printed" mapping every metric line of
    its output (recorded or printed only) to its value."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["printed"] = {m[1]: float(m[2]) for m in map(METRIC_LINE.match, lines) if m}
    return result


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    row = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        row["bound"] = bound
        row["within_third_of_bound"] = spread < bound / 3
    return row


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="range like 1-10")
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary = {
        "environment": {"python": platform.python_version(),
                        "nproc": len(os.sched_getaffinity(0)),
                        "commit": commit(), "src_lines": src_lines()},
        "run_seconds": bench["run_seconds"], "trace": args.trace, "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workload:
        results = [run_once(workload, s, bench["run_seconds"], args.trace) for s in args.seeds]
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "correct": all(r["correct"] for r in results), "metrics": {}}
        for name in results[0]["printed"]:
            values = [r["printed"][name] for r in results]
            entry["metrics"][name] = summarise(values, bounds.get(name))
            row = entry["metrics"][name]
            print(f"{workload:<15} {name:<48} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f}"
                  + (f"  bound {row['bound']}" if "bound" in row else ""), flush=True)
        summary["workloads"][workload] = entry
    text = json.dumps(summary, indent=2)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
