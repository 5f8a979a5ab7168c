"""Time the benchmark's operations in two source trees, input by input.

    python3 tools/op_times.py OLD_SRC NEW_SRC --workload W [--seed 1] [--rounds 20]

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each tree runs in one worker
subprocess of its own for the whole run.  The worker imports the tree's
package, builds the workload's operations with ``bench/workloads.py``
(imported, not modified) for the seed, runs each once untimed and checks
its output, then waits for rounds: in a round it times every operation
once, as ``bench/run.py`` does (``op.execute`` on ``omegalie.io_cli``).

Rounds alternate between the trees, and so does which tree goes first in
each pair of rounds, so that a drift of the host's speed reaches both.
Each input keeps its best time over the rounds.  Prints, per table row
(per dim, document kind and command for nd-sparse), the number of inputs,
the mean of their best times in each tree, the ratio new / old and the
nearest-rank p95 of their best times in each tree; then the same over all
inputs.  Exits 1 when an output of either tree fails its workload check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from cli_diff import package_dir

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("classify-orbit", "orbit-validate", "nd-sparse")


def group(op):
    # the table row of a dim-3 operation, the (dim, kind, command) of an nd-sparse one
    return op.row if hasattr(op, "row") else f"dim {op.dim} {op.kind} {op.command}"


def worker(src, seed, workload):
    """Serve rounds on stdin: first the groups and the failed checks, then
    one line of per-input seconds for each line read."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    ol = importlib.import_module("omegalie")
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](ol, random.Random(seed))
    cli = ol.io_cli
    failed = sum(bool(op.check(op.execute(cli)[0])) for op in ops)
    print(json.dumps({"groups": [group(op) for op in ops], "failed": failed}), flush=True)
    for _ in sys.stdin:
        print(json.dumps([op.execute(cli)[1] for op in ops]), flush=True)


class Tree:
    """One worker process and the best time of each of its inputs."""

    def __init__(self, src, seed, workload):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src), str(seed), workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        head = self.reply()
        self.groups, self.failed = head["groups"], head["failed"]
        self.best = [math.inf] * len(self.groups)

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: the worker {self.proc.args[3]} stopped")
        return json.loads(line)

    def round(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.best = [min(x, y) for x, y in zip(self.best, self.reply())]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def p95(values):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(Path(argv[1]), int(argv[2]), argv[3])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per tree")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    old, new = (Tree(package_dir(src), args.seed, args.workload) for src in (args.old, args.new))
    try:
        for k in range(args.rounds):
            for tree in ((old, new) if k % 2 == 0 else (new, old)):
                tree.round()
    finally:
        old.close()
        new.close()

    rows = {}  # group -> input indices, in first-seen order
    for k, name in enumerate(old.groups):
        rows.setdefault(name, []).append(k)
    width = max(10, *map(len, rows))
    print(f"{'row':{width}s} {'inputs':>6s} {'old us':>9s} {'new us':>9s} {'new/old':>8s}"
          f" {'old p95':>9s} {'new p95':>9s}   (best of {args.rounds} rounds per input)")
    for name, ks in [*rows.items(), ("all", range(len(old.groups)))]:
        o, n = ([tree.best[k] * 1e6 for k in ks] for tree in (old, new))
        mo, mn = sum(o) / len(o), sum(n) / len(n)
        print(f"{name:{width}s} {len(o):6d} {mo:9.1f} {mn:9.1f} {mn / mo:8.3f}"
              f" {p95(o):9.1f} {p95(n):9.1f}")
    for name, tree in (("old", old), ("new", new)):
        if tree.failed:
            print(f"{tree.failed} outputs of the {name} tree fail their workload check")
    return 1 if old.failed or new.failed else 0


if __name__ == "__main__":
    sys.exit(main())
