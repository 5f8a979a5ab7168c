"""Time the exact kernels of two source trees on stores with coprime denominators.

    python3 tools/coprime_cost.py OLD_SRC NEW_SRC [--seed 0]

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each tree runs in subprocesses
of its own, three per tree, old and new alternating (and which goes first
alternating too) so that a change in the machine's speed affects both trees
alike.  Each subprocess builds the same seeded stores and times, best of 3
calls, each of

* ``residual(spec)``;
* ``transport(spec, p)``, p a seeded invertible matrix of small rationals;
* in dim 3, the t that ``validate`` reports, ``t_of(spec)``;
* ``omegalie validate --json`` on the serialized store, in-process;
* in dim 3, ``omegalie validate --json --force-omega`` on it, in-process:
  the forced omega, then the report on the forced store.

Every stored value has a denominator of the stated number of digits, and
the denominators are pairwise coprime, so a common denominator of the store
is as long as all of them together: the case where clearing denominators
costs most.  The rows are dim 3 with all 9 c entries and 2 omega entries at
1000 and 4000 digits, and dim 8 with 120 entries of 100 digits and 200
entries of 30 digits.  The worker lifts the integer-to-text digit limit so
that ``validate`` prints its whole report instead of stopping at the limit.

Prints one line per row and kernel: the best time over the three
subprocesses of each tree, in seconds, and the ratio new / old.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import subprocess
import sys
import timeit
from fractions import Fraction
from pathlib import Path

from cli_diff import package_dir

# (name, dim, c entries, omega entries, digits of each denominator)
ROWS = (("dim 3, 1000 digits", 3, 9, 2, 1000),
        ("dim 3, 4000 digits", 3, 9, 2, 4000),
        ("dim 8, 120 x 100 digits", 8, 100, 20, 100),
        ("dim 8, 200 x 30 digits", 8, 170, 28, 30))


def coprime_values(rng, count, digits):
    """``count`` Fractions whose denominators have ``digits`` digits and are
    pairwise coprime, each with a numerator coprime to its denominator."""
    dens, out = [], []
    while len(out) < count:
        den = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if any(math.gcd(den, d) != 1 for d in dens):
            continue
        num = rng.randrange(1, den)
        if math.gcd(num, den) != 1:
            continue
        dens.append(den)
        out.append(Fraction(num if rng.random() < 0.5 else -num, den))
    return out


def build(ol, rng, dim, n_c, n_om, digits):
    """The seeded spec of one row and an invertible basis change for it."""
    c_keys = [(i, j, k) for i in range(1, dim) for j in range(i + 1, dim + 1)
              for k in range(1, dim + 1)]
    om_keys = [(i, j) for i in range(1, dim) for j in range(i + 1, dim + 1)]
    values = coprime_values(rng, n_c + n_om, digits)
    spec = ol.AlgebraSpec.from_entries(
        dim, [(*key, v) for key, v in zip(sorted(rng.sample(c_keys, n_c)), values)],
        [(*key, v) for key, v in zip(sorted(rng.sample(om_keys, n_om)), values[n_c:])])
    while True:
        p = ol.Matrix(tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                  for _ in range(dim)) for _ in range(dim)))
        if p.det() != 0:
            return spec, p


def time_tree(src, seed):
    """{row: {kernel: best-of-3 seconds}} for one tree."""
    sys.path.insert(0, str(src))
    sys.set_int_max_str_digits(0)
    ol = importlib.import_module("omegalie")
    out = {}
    for name, dim, n_c, n_om, digits in ROWS:
        spec, p = build(ol, random.Random(f"{seed} {name}"), dim, n_c, n_om, digits)
        doc = ol.serialize(spec)

        def validate(*options):
            sys.stdin = io.StringIO(doc)
            with contextlib.redirect_stdout(io.StringIO()):
                ol.io_cli.run(["validate", "--json", *options])

        kernels = {"residual": lambda: ol.residual(spec),
                   "transport": lambda: ol.transport(spec, p)}
        if dim == 3:
            kernels["t"] = lambda: ol.t_of(spec)
        kernels["validate --json"] = validate
        if dim == 3:
            kernels["--force-omega"] = lambda: validate("--force-omega")
        out[name] = {k: min(timeit.repeat(f, number=1, repeat=3)) for k, f in kernels.items()}
    return out


def collect(src, seed):
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src), str(seed)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        json.dump(time_tree(Path(argv[1]), int(argv[2])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--seed", type=int, default=0, help="store seed")
    args = parser.parse_args(argv)
    trees = package_dir(args.old), package_dir(args.new)
    runs = []
    for k in range(3):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        runs.append(dict((side, collect(trees[side], args.seed)) for side in order))
    old, new = ({row: {k: min(run[side][row][k] for run in runs) for k in runs[0][side][row]}
                 for row in runs[0][side]} for side in (0, 1))
    print(f"{'row':26s} {'kernel':16s} {'old s':>10s} {'new s':>10s} {'new/old':>8s}")
    for row in old:
        for kernel, t_old in old[row].items():
            t_new = new[row][kernel]
            print(f"{row:26s} {kernel:16s} {t_old:10.5f} {t_new:10.5f} {t_new / t_old:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
