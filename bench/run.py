"""The omegalie benchmark: three CLI-pipeline workloads on seeded inputs.

    python3 bench/run.py --workload classify-orbit --seed 1 --seconds 30 --trace 0

Load is one closed-loop client in one process with no threads: each
operation is a call of ``omegalie.io_cli.run`` (two for orbit-validate) and
the next starts when it returns.  Set-up imports the package from ``src/``
and builds the workload's inputs from ``--seed``; it is repeated and its
median reported, so work moved into set-up shows.  Every distinct input is
run once untimed and its output checked (see ``workloads.py``); the timed
loop then cycles through the inputs for ``--seconds`` and counts any output
that differs from the checked one as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of
untraced and traced passes over all inputs for ``--seconds``, alternating
which goes first, and prints the per-layer metrics from the spans in
``spans.py``; a traced output that is not byte-identical to the untraced one
counts as failed.  Every metric is printed with its unit; the last line of
stdout is one JSON object (correct, attempted, failed, metrics) whose
metrics are those ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5

OP_TIMES = ("io_cli.parse", "io_cli.serialize", "classify3d.classify",
            "classify3d.orbit_sample", "decomp3d.decompose", "algebra_core.residual",
            "algebra_core.transport", "decomp_nd.check_deformability")
CALL_COUNTS = ("algebra_core.residual", "algebra_core.transport", "tensor_core.invert",
               "tensor_core.det", "tensor_core.matmul", "tensor_core.congruence_diagonalize",
               "tensor_core.levi_civita")


def load_package():
    """Import ``omegalie`` afresh from the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "omegalie" or n.startswith("omegalie.")]:
        del sys.modules[name]
    return importlib.import_module("omegalie")


def set_up(workload, seed, repeats):
    """Import plus input generation, ``repeats`` times: (package, ops, median s)."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        ol = load_package()
        ops = workloads.WORKLOADS[workload](ol, random.Random(seed))
        times.append(perf_counter() - t0)
    return ol, ops, statistics.median(times)


def verify(ops, cli):
    """Run every op once, untimed: its outputs, and the problems of each
    op whose output fails its checks."""
    expected, problems = [], {}
    for k, op in enumerate(ops):
        outputs, _ = op.execute(cli)
        expected.append(outputs)
        found = op.check(outputs)
        if found:
            problems[k] = found
    return expected, problems


def measure(ops, cli, expected, problems, seconds):
    """Closed loop over the ops for ``seconds`` (at least one op):
    per-op latencies, failed count, wall seconds."""
    latencies, failed = [], 0
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        outputs, elapsed = ops[k].execute(cli)
        latencies.append(elapsed)
        failed += k in problems or outputs != expected[k]
        k = (k + 1) % len(ops)
        now = perf_counter()
        if now >= deadline:
            return latencies, failed, now - start


def measure_traced(ol, ops, expected, problems, seconds):
    """Pairs of one untraced and one traced pass over all ops, alternating
    which runs first, for ``seconds`` (at least one pair):
    tracer, pairs, untraced s, traced s, failed."""
    tracer = Tracer()
    cli = ol.io_cli
    times = {False: 0.0, True: 0.0}
    pairs, failed = 0, 0

    def one_pass(traced):
        nonlocal failed
        for k, op in enumerate(ops):
            outputs, elapsed = op.execute(cli)
            times[traced] += elapsed
            failed += k in problems or outputs != expected[k]

    start = perf_counter()
    while pairs == 0 or perf_counter() - start < seconds:
        for traced in (pairs % 2 == 1, pairs % 2 == 0):
            if traced:
                with tracer.installed(ol):
                    one_pass(True)
            else:
                one_pass(False)
        pairs += 1
    return tracer, pairs, times[False], times[True], failed


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (SRC / "omegalie").rglob("*.py"))


def end_to_end(latencies, wall, setup_s):
    ordered = sorted(latencies)
    return {
        "throughput_ops_s": (len(latencies) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_p95_ms": (nearest_rank(ordered, 0.95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, n_ops, untraced_s, traced_s):
    metrics = {}
    for layer in LAYERS:
        own = tracer.layer_self(layer)
        metrics[f"{layer}.self_ms_per_op"] = (own / n_ops * 1e3, "ms/op")
        metrics[f"{layer}.share"] = (own / traced_s, "ratio")
    for name in OP_TIMES:
        metrics[f"{name}.ms_per_op"] = (tracer.inclusive(name) / n_ops * 1e3, "ms/op")
    for name in CALL_COUNTS:
        metrics[f"{name}.calls_per_op"] = (tracer.calls(name) / n_ops, "calls/op")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["src.lines"] = (src_lines(), "lines")
    return metrics


def listed_metrics(trace):
    """Names of the metrics ``BENCHMARK.json`` records for this mode; the
    others are printed for reading only."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "omegalie" / "__init__.py").is_file():
        print(f"error: no omegalie package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    ol, ops, setup_s = set_up(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    expected, problems = verify(ops, ol.io_cli)
    for k, found in sorted(problems.items()):
        print(f"wrong output for input {k}: {'; '.join(found)}")

    if args.trace:
        tracer, pairs, untraced_s, traced_s, failed = measure_traced(
            ol, ops, expected, problems, args.seconds)
        attempted = 2 * pairs * len(ops)
        metrics = per_layer(tracer, pairs * len(ops), untraced_s, traced_s)
        counts = f"{pairs} untraced and {pairs} traced passes over {len(ops)} inputs"
    else:
        latencies, failed, wall = measure(ops, ol.io_cli, expected, problems, args.seconds)
        attempted = len(latencies)
        metrics = end_to_end(latencies, wall, setup_s)
        beyond = attempted - math.ceil(0.95 * attempted)
        counts = (f"{attempted} timed ops cycling over {len(ops)} checked inputs; "
                  f"{beyond} samples beyond p95")
        if beyond < 10:
            counts += " (fewer than 10: p95 is not resolved)"

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  "
          f"src/omegalie lines {src_lines()}")
    print(counts)
    listed = listed_metrics(args.trace)
    for name, (value, unit) in metrics.items():
        note = "" if name in listed else "  (printed only)"
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} ratio "
          f"({failed} failed of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
