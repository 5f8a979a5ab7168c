"""Compare the command-line outputs of two source trees on the benchmark inputs.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--seeds 1,5,9001]

OLD_SRC and NEW_SRC each name a directory holding an ``omegalie`` package: a
checkout's ``src/``, or the checkout itself.  Each tree runs in one
subprocess of its own.  That process imports the tree's package, builds
every input of the three benchmark workloads with ``bench/workloads.py``
(imported, not modified) for each seed, and runs every applicable
subcommand through ``omegalie.io_cli.run``, in-process:

* every document (the classify-orbit and nd-sparse documents, the
  orbit-sample output of each orbit-validate pipeline and its edited copy):
  ``validate`` and ``deformability``, plus ``decompose`` and ``classify``
  in dim 3, each with and without ``--json`` and ``--force-omega``;
* the orbit-sample and ``generate`` command of each orbit-validate
  pipeline, and ``tables``, with and without ``--json``;
* ``generate`` and ``orbit-sample --seed 0..3`` on every table row, the
  parametric rows at each of ``EXTREME_PARAMS``, with and without
  ``--json``, and every document command on each of those orbit samples:
  the benchmark's parameters (1..6 over 1..4) leave the integer paths'
  extreme values untried;
* ``orbit-sample`` with and without ``--json`` on every table row (the
  parametric rows at 3/2) for each seed in ``ORBIT_SEEDS``, and
  ``validate --json`` and ``classify --json`` on each sample: two hundred
  seeds per row run many singular redraws and matrices over m = 2;
* ``RANDOM_BRACKETS`` seeded random rational dim-3 documents per seed, every
  document command on each: a full bracket (so n is not diagonal and a not
  zero) with every value over its own denominator, pairwise coprime, and an
  omega over denominators coprime to c's, which no power of c's common
  denominator clears.  The documents above are all transported table rows;
* ``LOW_RANK_BRACKETS`` seeded valid dim-3 documents per seed whose n is
  hollow (zero diagonal, some off-diagonal entry nonzero) or of rank 1 or 2,
  with a != 0 and the forced omega, every document command on each: they
  run the congruence elimination's split and early break on an int view
  (N, A, lc) that shares factors with 2lc, which transported rows rarely do;
* zero-entry documents, every document command on each: the seed's
  low-rank brackets, the first ``ZERO_BASES`` random brackets and nd-sparse
  documents, each with explicit zero values (spelled as in ``ZEROS``) at
  some of the c and omega keys it leaves empty, entries shuffled, and a copy
  with a zero-valued duplicate of a stored or a zero entry, in c or omega.
  Serialized documents hold no zero, so the sets above cannot show that
  parsing drops zeros without changing an output or an error;
* every table row as written (the parametric rows at each of
  ``EXTREME_PARAMS``) and its twin with n -> -n and the forced omega, every
  document command on each: seeds 0..3 give some rows (VII0, VII_a, VII_x)
  only negative-leaning n, which leaves the classifier's orientation flips
  untried on the others;
* ``error_documents()``: documents of dim 1, 2 and 4, a dim-4 bracket that
  admits no omega, and two documents whose report values pass the int-to-text
  digit limit, every document command on each, in dim 3 or not: they run the
  dim checks, ``--force-omega`` below dim 3 and without a compatible omega,
  and a report that fails while it is formatted;
* ``USAGE``: the help of the program and of each command, and argvs that
  are not plain command lines (an unknown command, abbreviated or ``=``
  options, values that start with ``-``, a missing or repeated argument,
  ``--``, options of another command), each with a document on stdin;
* the exit-2 messages of malformed input: every document command, with and
  without ``--json``, on each of ``MALFORMED_DOCUMENTS`` (a JSON, key, entry
  or rational error each) and on the FILE ``MISSING_FILE``, and
  ``generate`` and ``orbit-sample`` on each of ``ROW_ERRORS``.  No set
  above reaches a parse, entry, FILE or row error, so none pins these messages.

The generated documents count as outputs too.  Every exit code, stdout and
stderr that differs between the trees is printed as a unified diff; when
both stdouts are JSON objects, the top-level keys that differ are listed
too, and the run ends with one line per such key giving the number of
outputs it differs in.  The exit code is 1 when any output differs, else 0.
"""

from __future__ import annotations

import argparse
import collections
import difflib
import importlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILE_COMMANDS = ("validate", "decompose", "classify", "deformability")
DIM3_ONLY = ("decompose", "classify")
MODES = ([], ["--json"])
EXTREME_PARAMS = ("1/" + "1" + "0" * 30, "3/2", "1" + "0" * 40 + "/7")
ORBIT_SEEDS = range(200)
RANDOM_BRACKETS = 24
LOW_RANK_BRACKETS = 24
ZERO_BASES = 8
ZEROS = ("0", "-0", "0/7", "-00/13", 0)
COMMANDS = ("validate", "decompose", "classify", "generate", "orbit-sample", "tables",
            "deformability")
USAGE = ([], ["-h"], ["--help"], *([command, "-h"] for command in COMMANDS),
         ["no-such-command"], ["validate", "--js"], ["orbit-sample", "IX", "--seed=3"],
         ["generate", "IX_a", "--param", "-1/2"], ["orbit-sample", "IX"],
         ["orbit-sample", "IX", "--seed", "x"], ["validate", "a", "b"],
         ["validate", "--", "-"], ["generate", "II", "--force-omega"],
         ["tables", "--float-tol", "5"])
# one document per error message of parse, from_entries and rational; the
# last holds two errors, of which the first in document order is reported
MALFORMED_DOCUMENTS = (
    "not json", "[1, 2]", '{"dim": 3}',
    '{"dim": 3, "c_entries": [], "omega_entries": [], "extra": 1}',
    '{"dim": 0, "c_entries": [], "omega_entries": []}',
    '{"dim": true, "c_entries": [], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [], "omega_entries": [[1, 2]]}',
    '{"dim": 3, "c_entries": [[2, 1, 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 4, 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3, "1/0"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3, "1.5"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3, "2\\n"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3, 1.5]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, 2, 3, "%s"]], "omega_entries": []}' % ("9" * 4301),
    '{"dim": 3, "c_entries": [[1, 2, 3, "1"], [1, 2, 3, "2"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [], "omega_entries": [[1, 2, "1"], [1, 2, "1"]]}',
    '{"dim": 3, "c_entries": {}, "omega_entries": []}',
    '{"dim": 3, "c_entries": [], "omega_entries": "x"}',
    '{"dim": 3, "c_entries": [[1.5, 2, 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, "2", 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [], "omega_entries": [[1, true, "1"]]}',
    '{"dim": %s, "c_entries": [], "omega_entries": []}' % ("9" * 4301), "[" * 100000,
    '{"dim": 3, "c_entries": [[1, 2, 3, "1.5"]], "omega_entries": "x"}')
MISSING_FILE = "no-such-omegalie-document.json"  # relative: the outputs name no tree
# generate and orbit-sample argvs past the label: an unknown label, a parametric
# row without --param, a fixed row with one, and --param values that are refused
ROW_ERRORS = (["IX_b"], ["IX_a"], ["IX", "--param", "2"], ["IX_a", "--param", "0"],
              ["IX_a", "--param", "x"], ["IX_a", "--param", "1e4000000"],
              ["IX_a", "--param", "9" * 4301])


def random_brackets(rng):
    """``RANDOM_BRACKETS`` dim-3 document texts: all 9 c entries and all 3
    omega entries nonzero, each over its own denominator of 1 to 7 digits,
    the 12 denominators pairwise coprime."""
    docs = []
    for k in range(RANDOM_BRACKETS):
        dens = []
        while len(dens) < 12:
            den = rng.randrange(2, 10 ** (2 + k % 6))
            if all(math.gcd(den, d) == 1 for d in dens):
                dens.append(den)
        values = [f"{rng.choice((-1, 1)) * rng.randrange(1, 3 * d)}/{d}" for d in dens]
        c = [[i, j, m, v] for (i, j, m), v in zip(
            [(i, j, m) for i, j in ((1, 2), (1, 3), (2, 3)) for m in (1, 2, 3)], values)]
        omega = [[i, j, v] for (i, j), v in zip(((1, 2), (1, 3), (2, 3)), values[9:])]
        docs.append(json.dumps({"dim": 3, "c_entries": c, "omega_entries": omega}))
    return docs


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


def low_rank_brackets(rng):
    """``LOW_RANK_BRACKETS`` valid dim-3 document texts: by turns n hollow (of
    rank 2 or 3), n = e v v^T of rank 1 and n = e v v^T + f w w^T of rank 2,
    each value over a denominator of 1 to 12, a != 0 (in ker n for every
    other low-rank n) and omega the forced b = -2 n a."""
    def value(zero=False):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        return x if x or zero else value()

    def vector():
        v = [rng.randint(-3, 3) for _ in range(3)]
        return v if any(v) else vector()

    docs = []
    for m in range(LOW_RANK_BRACKETS):
        rank = m % 3
        if rank == 0:
            n = [[Fraction(0)] * 3 for _ in range(3)]
            while not any(n[0][1:] + n[1][2:]):
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    n[i][j] = n[j][i] = value(zero=True)
            a = [value(zero=True) for _ in range(3)]
        else:
            vs = [vector() for _ in range(rank)]
            while rank == 2 and not any(_cross(*vs)):
                vs[1] = vector()
            es = [value() for _ in vs]
            n = [[sum(e * v[i] * v[j] for e, v in zip(es, vs)) for j in range(3)]
                 for i in range(3)]
            if m // 3 % 2:  # a orthogonal to every v, so n a = 0
                w, t = vs[1] if rank == 2 else vector(), value()
                a = [t * x for x in _cross(vs[0], w)]
            else:
                a = [value(zero=True) for _ in range(3)]
        if not any(a):
            a[rng.randrange(3)] = value()
        docs.append(document(n, a))
    return docs


def zero_entry_documents(rng, docs):
    """For each document text of ``docs``: a copy with zero-valued c and
    omega entries at up to 6 and 2 of the keys it leaves empty, the entries
    shuffled, and a copy of that with one zero-valued duplicate of a c or an
    omega entry (stored or zero), placed before or after the entry."""
    out = []
    for doc in docs:
        obj = json.loads(doc)
        dim, c, omega = obj["dim"], obj["c_entries"], obj["omega_entries"]
        pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
        c_keys = [[i, j, k] for i, j in pairs for k in range(1, dim + 1)]
        for entries, keys, limit in ((c, c_keys, 6), (omega, [[*ij] for ij in pairs], 2)):
            stored = [e[:-1] for e in entries]
            empty = [key for key in keys if key not in stored]
            entries += [key + [rng.choice(ZEROS)]
                        for key in rng.sample(empty, min(limit, len(empty)))]
            rng.shuffle(entries)
        out.append(json.dumps(obj))
        entries = c if not omega or rng.random() < 0.5 else omega
        pos = rng.randrange(len(entries))
        entries.insert(pos + rng.randint(0, 1), [*entries[pos][:-1], rng.choice(ZEROS)])
        out.append(json.dumps(obj))
    return out


def document(n, a):
    """The dim-3 document text of (n, a) with the forced omega b = -2 n a,
    written out through c[i][j][k] = n[i][l] eps_jkl - delta_ij a_k + delta_ik a_j."""
    b = [-2 * sum(x * y for x, y in zip(r, a)) for r in n]
    c, omega = [], []
    for l in range(3):
        j, k = (l + 1) % 3, (l + 2) % 3
        key, sign = sorted((j, k)), 1 if j < k else -1
        for i in range(3):
            v = sign * (n[i][l] - (i == j) * a[k] + (i == k) * a[j])
            if v:
                c.append([key[0] + 1, key[1] + 1, i + 1, str(v)])
        if b[l]:
            omega.append([key[0] + 1, key[1] + 1, str(sign * b[l])])
    return json.dumps({"dim": 3, "c_entries": sorted(c), "omega_entries": sorted(omega)})


def orientations(ol):
    """{case name: document text} of every table row, the parametric rows at
    each of ``EXTREME_PARAMS``, and of its twin with n -> -n (omega forced),
    so that every row runs with both orientations of n."""
    docs = {}
    for label in ol.FIRST_TABLE_ORDER + ol.SECOND_TABLE_ORDER:
        nd, apat, parametric = ol.table_row(label)
        for param in EXTREME_PARAMS if parametric else (None,):
            p = Fraction(1 if param is None else param)
            for sign, twin in ((1, "n"), (-1, "-n")):
                n = [[sign * nd[i] * (i == j) for j in range(3)] for i in range(3)]
                name = f"orientation {label}" + ("" if param is None else f" at {param}")
                docs[f"{name} {twin}"] = document(n, [p * x for x in apat])
    return docs


def error_documents():
    """{case name: document text} of the documents that end in a usage error,
    a failure report or a report past the int-to-text digit limit."""
    big = "7" * 3000
    dim4 = [[1, 4, 1, "-1"], [2, 4, 2, "-1"], [3, 4, 3, "-1"]]
    docs = {"dim 1": (1, [], []), "dim 2": (2, [[1, 2, 1, "1"]], [[1, 2, "1/2"]]),
            "dim 4": (4, dim4, [[1, 2, "3"]]),
            "dim 4 not deformable": (4, dim4 + [[1, 2, 3, "1"]], []),
            "dim 4 past the digit limit": (4, [[1, 2, 3, big], [3, 4, 1, big]], []),
            "dim 3 past the digit limit": (3, [[1, 2, 3, big], [2, 3, 2, big]], [[1, 2, "1"]])}
    return {name: json.dumps({"dim": dim, "c_entries": c, "omega_entries": omega})
            for name, (dim, c, omega) in docs.items()}


def package_dir(path):
    path = Path(path).resolve()
    for candidate in (path, path / "src"):
        if (candidate / "omegalie" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"error: no omegalie package in {path} or {path / 'src'}")


def run_tree(src, seeds):
    """Every output of one tree: {case name: [exit code, stdout, stderr]}."""
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    ol = importlib.import_module("omegalie")
    workloads = importlib.import_module("workloads")
    out = {}

    def run(name, argv, stdin=""):
        (code, stdout, stderr), _ = workloads.call(ol.io_cli, argv, stdin)
        out[f"{name}: omegalie {' '.join(argv)}"] = [code, stdout,
                                                      stderr.replace(str(src), "SRC")]
        return stdout

    def run_document(name, doc, every=False):
        out[f"{name}: document"] = [None, doc, ""]
        dim = json.loads(doc)["dim"]
        for command in FILE_COMMANDS:
            if command in DIM3_ONLY and dim != 3 and not every:
                continue
            for mode in MODES:
                for force in ([], ["--force-omega"]):
                    run(name, [command, *mode, *force], doc)

    for mode in MODES:
        run("tables", ["tables", *mode])
    usage_doc = ol.serialize(ol.generate("IX_a", 2))
    for argv in USAGE:
        run("usage", argv, usage_doc)
    for label in ol.FIRST_TABLE_ORDER + ol.SECOND_TABLE_ORDER:
        params = EXTREME_PARAMS if label in ol.PARAMETRIC_LABELS else (None,)
        for param in params:
            name = f"row {label}" + ("" if param is None else f" at {param}")
            row = [label] + ([] if param is None else ["--param", param])
            for mode in MODES:
                run(name, ["generate", *row, *mode])
            for seed in range(4):
                run(name, ["orbit-sample", *row, "--seed", str(seed), "--json"])
                run_document(f"{name} seed {seed}",
                             run(name, ["orbit-sample", *row, "--seed", str(seed)]))
    for label in ol.FIRST_TABLE_ORDER + ol.SECOND_TABLE_ORDER:
        row = [label] + (["--param", "3/2"] if label in ol.PARAMETRIC_LABELS else [])
        for seed in ORBIT_SEEDS:
            name = f"orbit {label} seed {seed}"
            run(name, ["orbit-sample", *row, "--seed", str(seed), "--json"])
            doc = run(name, ["orbit-sample", *row, "--seed", str(seed)])
            for command in ("validate", "classify"):
                run(name, [command, "--json"], doc)
    for name, doc in orientations(ol).items():
        run_document(name, doc)
    for name, doc in error_documents().items():
        run_document(f"error {name}", doc, every=True)
    for command in FILE_COMMANDS:
        for mode in MODES:
            run("missing file", [command, *mode, MISSING_FILE])
            for k, doc in enumerate(MALFORMED_DOCUMENTS):
                run(f"malformed {k}", [command, *mode], doc)
    for row in ROW_ERRORS:
        for mode in MODES:
            run("row error", ["generate", *row, *mode])
            run("row error", ["orbit-sample", *row, "--seed", "1", *mode])
    for seed in seeds:
        for k, op in enumerate(workloads.classify_orbit(ol, random.Random(seed))):
            run_document(f"seed {seed} classify-orbit {k}", op.doc)
        for k, op in enumerate(workloads.orbit_validate(ol, random.Random(seed))):
            name = f"seed {seed} orbit-validate {k}"
            generate = ["generate", op.row] + ([] if op.param is None else ["--param", str(op.param)])
            for mode in MODES:
                run(name, generate + mode)
            run(name, op.argv + ["--json"])
            doc = run(name, op.argv)
            run_document(name, doc)
            edited = workloads.bump_omega(doc) if op.bump else None
            if edited:
                run_document(name + " edited", edited[0])
        nd_docs = [op.doc for op in workloads.nd_sparse(ol, random.Random(seed))]
        for k, doc in enumerate(nd_docs):
            run_document(f"seed {seed} nd-sparse {k}", doc)
        brackets = random_brackets(random.Random(f"{seed} brackets"))
        for k, doc in enumerate(brackets):
            run_document(f"seed {seed} random bracket {k}", doc)
        low_rank = low_rank_brackets(random.Random(f"{seed} low rank"))
        for k, doc in enumerate(low_rank):
            run_document(f"seed {seed} low-rank bracket {k}", doc)
        bases = low_rank + brackets[:ZERO_BASES] + nd_docs[:ZERO_BASES]
        for k, doc in enumerate(zero_entry_documents(random.Random(f"{seed} zeros"), bases)):
            run_document(f"seed {seed} zero-entry {k}", doc)
    return out


def differing_keys(old, new):
    """The top-level keys whose values differ, when both stdouts are JSON
    objects; otherwise none."""
    try:
        x, y = json.loads(old[1]), json.loads(new[1])
    except (TypeError, ValueError):
        return []
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return []
    missing = object()
    return sorted(k for k in x.keys() | y.keys() if x.get(k, missing) != y.get(k, missing))


def collect(src, seeds):
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src), seeds],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        json.dump(run_tree(Path(argv[1]), [int(s) for s in argv[2].split(",")]), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--seeds", default="1,5,9001", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    old = collect(package_dir(args.old), args.seeds)
    new = collect(package_dir(args.new), args.seeds)
    differ = 0
    key_counts = collections.Counter()
    for case in sorted(old.keys() | new.keys()):
        a, b = old.get(case), new.get(case)
        if a == b:
            continue
        differ += 1
        print(f"=== {case}")
        keys = differing_keys(a, b) if a and b else []
        if keys:
            print("keys: " + ", ".join(keys))
            key_counts.update(keys)
        for part, x, y in zip(("exit code", "stdout", "stderr"), a or [None] * 3, b or [None] * 3):
            if x != y:
                print(f"--- {part}")
                sys.stdout.writelines(difflib.unified_diff(
                    str(x).splitlines(True), str(y).splitlines(True), "old", "new"))
                print()
    print(f"{len(old.keys() | new.keys())} outputs compared, {differ} differ")
    for key, count in sorted(key_counts.items()):
        print(f"{key}: {count} outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
