"""Count the Fraction operations of the benchmark's calls in two source trees.

    python3 tools/fraction_ops.py OLD_SRC NEW_SRC [--seed 1] [--workload classify-orbit]
    python3 tools/fraction_ops.py OLD_SRC NEW_SRC --workload nd-sparse

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each tree runs in one
subprocess of its own.  That process imports the tree's package and builds
the workload's inputs with ``bench/workloads.py`` (imported, not modified)
for the seed.  It then wraps every arithmetic, comparison and bool method of
``fractions.Fraction`` with a counter that counts only while a measured call
runs:

* ``classify-orbit``: one ``classify`` call on each parsed input;
* ``orbit-validate``: the ``orbit-sample`` call and the ``validate --json``
  call of each pipeline, both through ``omegalie.io_cli.run`` as the
  benchmark makes them (the edit of a bumped document in between is not
  counted);
* ``nd-sparse``: each ``validate --json`` or ``deformability --json`` call
  through ``omegalie.io_cli.run``, grouped by dim, document kind and command.

Constructions get a column of their own: a ``Fraction(...)`` call made
outside a counted operation, so the integer paths, which build one Fraction
per result instead of combining Fractions, show what they moved there.
Reading a numerator or denominator is not counted.

Prints, per table row (per dim, kind and command for nd-sparse), the mean
operation and construction counts per measured unit (a ``classify`` call,
an orbit-sample | validate pipeline, or an nd-sparse call) in each tree,
then the totals over all inputs.
"""

from __future__ import annotations

import argparse
import collections
import functools
import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cli_diff import package_dir

ROOT = Path(__file__).resolve().parents[1]
COUNTED = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
           "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
           "__pos__", "__neg__", "__abs__",
           "__eq__", "__lt__", "__gt__", "__le__", "__ge__", "__bool__")
WORKLOADS = ("classify-orbit", "orbit-validate", "nd-sparse")


def count_tree(src, seed, workload):
    """{table row: [[operations, constructions] of each measured unit]} for one tree."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    ol = importlib.import_module("omegalie")
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[workload](ol, random.Random(seed))
    state = {"on": False, "depth": 0, "ops": 0, "new": 0}

    def counted(method):
        @functools.wraps(method)
        def wrapper(*args):
            if not state["on"]:
                return method(*args)
            state["ops"] += state["depth"] == 0
            state["depth"] += 1
            try:
                return method(*args)
            finally:
                state["depth"] -= 1
        return wrapper

    def measured(call):
        state["on"] = True
        try:
            return call()
        finally:
            state["on"] = False

    original_new = Fraction.__new__

    def new(cls, *args, **kwargs):
        if state["on"] and state["depth"] == 0:
            state["new"] += 1
        return original_new(cls, *args, **kwargs)

    def classify_unit(spec):
        measured(lambda: ol.classify(spec))

    def pipeline_unit(op):
        first, _ = measured(lambda: workloads.call(ol.io_cli, op.argv))
        doc = workloads.bump_omega(first[1])[0] if op.bump else first[1]
        measured(lambda: workloads.call(ol.io_cli, ["validate", "--json"], doc))

    def nd_unit(op):
        measured(lambda: workloads.call(ol.io_cli, [op.command, "--json"], op.doc))

    if workload == "classify-orbit":
        units = [(op.row, functools.partial(classify_unit, ol.parse(op.doc))) for op in ops]
    elif workload == "nd-sparse":
        units = [(f"dim {op.dim} {op.kind} {op.command}", functools.partial(nd_unit, op))
                 for op in ops]
    else:
        units = [(op.row, functools.partial(pipeline_unit, op)) for op in ops]
    for name in COUNTED:
        if name in vars(Fraction):
            setattr(Fraction, name, counted(vars(Fraction)[name]))
    Fraction.__new__ = staticmethod(new)
    counts = collections.defaultdict(list)
    for row, unit in units:
        state["ops"] = state["new"] = 0
        unit()
        counts[row].append([state["ops"], state["new"]])
    return counts


def collect(src, seed, workload):
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src), str(seed), workload],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        json.dump(count_tree(Path(argv[1]), int(argv[2]), argv[3]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--workload", choices=WORKLOADS, default=WORKLOADS[0])
    args = parser.parse_args(argv)
    old = collect(package_dir(args.old), args.seed, args.workload)
    new = collect(package_dir(args.new), args.seed, args.workload)
    width = max(10, *map(len, old))
    print(f"{'row':{width}s} {'units':>5s}" + "".join(
        f" {name:>8s}" for name in ("old ops", "new ops", "old new", "new new")))
    for row in old:  # both trees see the same inputs
        (o_ops, o_new), (n_ops, n_new) = (map(sum, zip(*tree[row])) for tree in (old, new))
        k = len(old[row])
        print(f"{row:{width}s} {k:5d}"
              + "".join(f" {x / k:8.1f}" for x in (o_ops, n_ops, o_new, n_new)))
    units = sum(map(len, old.values()))
    for what, col in (("operations", 0), ("constructions", 1)):
        total_old = sum(c[col] for v in old.values() for c in v)
        total_new = sum(c[col] for v in new.values() for c in v)
        ratio = f"{total_new / total_old:.3f}" if total_old else "n/a"
        print(f"{what} over {units} {args.workload} units: old {total_old}, new {total_new}"
              f" ({ratio} of old)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
