"""Time fresh ``omegalie`` processes of two source trees, command by command.

    python3 tools/startup.py OLD_SRC NEW_SRC [--repeats 25]

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each timed run is one fresh
``python -S`` process that puts the tree first on ``sys.path``, imports
``omegalie.io_cli`` and runs one command line through ``run``, as the
``omegalie`` command does:

* ``orbit-sample IX_a --param 3/2 --seed 1``;
* ``validate``, ``classify --json`` and ``deformability --json`` with the
  document that orbit-sample writes in the old tree on stdin.

The wall time covers the whole process: interpreter start, the package's
import (compiling it too when no bytecode is cached, as under
``PYTHONDONTWRITEBYTECODE=1``), the command and exit.  The two trees
alternate, and so does which of them goes first in each round.  Prints the
median wall ms of each command in each tree, then the modules that one
tree's process loaded and the other tree's did not, read off
``sys.modules`` by one more, untimed, run of each.  Exits 1 when the two
trees' exit codes or outputs differ on a command.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from time import perf_counter

from cli_diff import package_dir

COMMANDS = (["orbit-sample", "IX_a", "--param", "3/2", "--seed", "1"], ["validate"],
            ["classify", "--json"], ["deformability", "--json"])
MARK = "\n@modules "
# the process: argv is [SRC, "list" or "time", command line...]; a listing run
# writes the loaded modules to stderr after the command's own output
CHILD = f"""
import sys
sys.path.insert(0, sys.argv[1])
from omegalie.io_cli import run
code = run(sys.argv[3:])
if sys.argv[2] == "list":
    sys.stderr.write({MARK!r} + " ".join(sorted(sys.modules)))
sys.exit(code)
"""


def fresh(src, mode, argv, doc):
    """(wall s, exit code, stdout, stderr) of one fresh process."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, str(src), mode, *argv],
                          input=doc, capture_output=True, text=True)
    return perf_counter() - t0, done.returncode, done.stdout, done.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--repeats", type=int, default=25, help="timed runs per command and tree")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = {"old": package_dir(args.old), "new": package_dir(args.new)}

    doc = fresh(trees["old"], "time", COMMANDS[0], "")[2]
    inputs = [(command, "" if command is COMMANDS[0] else doc) for command in COMMANDS]
    walls = {(name, k): [] for name in trees for k in range(len(COMMANDS))}
    for round_no in range(args.repeats):
        for name in (("old", "new") if round_no % 2 == 0 else ("new", "old")):
            for k, (command, stdin) in enumerate(inputs):
                walls[name, k].append(fresh(trees[name], "time", command, stdin)[0])

    print(f"{'command':<44s} {'old ms':>8s} {'new ms':>8s} {'new/old':>8s}"
          f"   (medians of {args.repeats} fresh python -S processes)")
    for k, (command, _) in enumerate(inputs):
        old, new = (statistics.median(walls[name, k]) * 1e3 for name in trees)
        print(f"{' '.join(command):<44s} {old:8.1f} {new:8.1f} {new / old:8.3f}")

    listed = {}  # (tree, k) -> ((exit code, stdout, stderr), modules loaded)
    for name, src in trees.items():
        for k, (command, stdin) in enumerate(inputs):
            _, code, out, err = fresh(src, "list", command, stdin)
            err, _, modules = err.rpartition(MARK)
            listed[name, k] = (code, out, err), set(modules.split())
    for name, other in (("old", "new"), ("new", "old")):
        print(f"modules loaded by the {name} tree only:")
        for k, (command, _) in enumerate(inputs):
            only = sorted(listed[name, k][1] - listed[other, k][1])
            print(f"  {' '.join(command)}: {', '.join(only) or '(none)'}")
    differ = [command for k, (command, _) in enumerate(inputs)
              if listed["old", k][0] != listed["new", k][0]]
    for command in differ:
        print(f"the trees' exit codes or outputs differ on {' '.join(command)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
