"""Count the Fraction operations that ``classify`` makes in two source trees.

    python3 tools/fraction_ops.py OLD_SRC NEW_SRC [--seed 1]

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each tree runs in one
subprocess of its own.  That process imports the tree's package, builds the
classify-orbit inputs of ``bench/workloads.py`` (imported, not modified) for
the seed and parses them.  It then wraps every arithmetic, comparison and
bool method of ``fractions.Fraction`` with a counter that counts only while
a ``classify`` call runs, and classifies each input once.  Constructing a
Fraction and reading its numerator or denominator are not counted.

Prints, per table row, the mean count per ``classify`` call in each tree,
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


def count_tree(src, seed):
    """{table row: [Fraction operations of each classify call]} for one tree."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    ol = importlib.import_module("omegalie")
    workloads = importlib.import_module("workloads")
    inputs = [(op.row, ol.parse(op.doc))
              for op in workloads.classify_orbit(ol, random.Random(seed))]
    state = {"on": False, "count": 0}

    def counted(method):
        @functools.wraps(method)
        def wrapper(*args):
            if state["on"]:
                state["count"] += 1
            return method(*args)
        return wrapper

    for name in COUNTED:
        if name in vars(Fraction):
            setattr(Fraction, name, counted(vars(Fraction)[name]))
    counts = collections.defaultdict(list)
    for row, spec in inputs:
        state["on"], state["count"] = True, 0
        try:
            ol.classify(spec)
        finally:
            state["on"] = False
        counts[row].append(state["count"])
    return counts


def collect(src, seed):
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src), str(seed)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        json.dump(count_tree(Path(argv[1]), int(argv[2])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--seed", type=int, default=1, help="classify-orbit input seed")
    args = parser.parse_args(argv)
    old = collect(package_dir(args.old), args.seed)
    new = collect(package_dir(args.new), args.seed)
    print(f"{'row':10s} {'calls':>5s} {'old/call':>9s} {'new/call':>9s}")
    for row in old:  # both trees see the same inputs
        print(f"{row:10s} {len(old[row]):5d} {sum(old[row]) / len(old[row]):9.1f} "
              f"{sum(new[row]) / len(new[row]):9.1f}")
    total_old = sum(map(sum, old.values()))
    total_new = sum(map(sum, new.values()))
    calls = sum(map(len, old.values()))
    print(f"total over {calls} classify calls: old {total_old}, new {total_new}"
          f" ({total_new / total_old:.3f} of old)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
