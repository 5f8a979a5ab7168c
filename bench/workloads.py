"""Seeded inputs, expected outcomes and output checks for the three workloads.

An operation is one user-level action through ``omegalie.io_cli.run``, the
entry point behind the ``omegalie`` command: stdin, stdout and stderr are
swapped for in-memory buffers, so an operation does what a shell pipeline
does, minus interpreter start-up.  Each operation knows its expected outcome
from how its input was built, never from the functions being timed, and
``check`` lists every way the program's output departs from it.

The input generators take the freshly imported ``omegalie`` package as an
argument, because the harness re-imports it for every timed set-up.
"""

from __future__ import annotations

import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from time import perf_counter

PARAMETRIC = frozenset(("VI_a", "VII_a", "VIII_a", "VIII_xa", "VIII_na", "IX_a"))

# Causal certificate of each row's orbit: the sign of a^T n a, read in the
# orientation with at least as many positive as negative entries of n.
CAUSAL = {
    "I": "zero", "II": "zero", "VI0": "zero", "VII0": "zero", "VIII": "zero",
    "IX": "zero", "V": "kernel-only", "IV": "kernel-only", "IV_x": "spacelike",
    "VI_a": "kernel-only", "VI_x": "spacelike", "VI_y": "spacelike",
    "VI_n": "null", "VII_a": "kernel-only", "VII_x": "spacelike",
    "VIII_a": "timelike", "VIII_xa": "spacelike", "VIII_na": "null",
    "IX_a": "spacelike",
}
TABLE_ORDER = tuple(CAUSAL)
# The acceptance suite's rules: VI_y lies on the orbit of VI_x and reports
# as VI_x; the VIII_na parameter is not an orbit invariant, so only the
# label and the null certificate of VIII_na are checked.
REPORTED_AS = {"VI_y": "VI_x"}
LABEL_AND_CAUSAL_ONLY = frozenset(("VIII_na",))

FLOAT_TOL = 1e-9      # the CLI's default --float-tol
PARAM_TOL = 1e-9      # acceptance criterion 4

# dim-3 rows that are Lie algebras (forced omega = 0) and rows that are not
LIE_ROWS = ("I", "II", "VI0", "VII0", "VIII", "IX", "V", "IV", "VI_a", "VII_a")
DEFORMED_ROWS = ("IV_x", "VI_x", "VI_y", "VI_n", "VII_x", "VIII_a", "VIII_xa",
                 "VIII_na", "IX_a")

ND_DIMS = (5, 6, 7, 8)
# (kind, command) slots per dimension: half the documents are invalid, and
# both commands see every kind.
ND_SLOTS = (("lie", "validate"), ("deformed", "deformability"),
            ("bumped", "validate"), ("lie", "deformability"),
            ("deformed", "validate"), ("lie", "validate"),
            ("bumped", "deformability"), ("lie", "deformability"))

ROUNDS = 4            # passes over the 19 rows in the dim-3 pools
BUMPED_SHARE = 4      # one orbit-validate document in this many is made invalid


def call(cli, argv, stdin_text=""):
    """One ``cli.run(argv)`` on in-memory streams.

    Returns ((exit code, stdout, stderr), seconds spent inside ``run``); the
    exit code reads "raised" when ``run`` raised, with the traceback in stderr.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        t0 = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a wrong output, not the end of the run
            code = "raised"
            traceback.print_exc()
        seconds = perf_counter() - t0
        return (code, sys.stdout.getvalue(), sys.stderr.getvalue()), seconds
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _report(out, problems):
    try:
        report = json.loads(out)
    except ValueError:
        problems.append("stdout is not a JSON report")
        return None
    if not isinstance(report, dict):
        problems.append("JSON report is not an object")
        return None
    return report


def _param(rng):
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


# ---------------------------------------------------------------------------
# classify-orbit


@dataclass
class ClassifyOp:
    """``omegalie classify --json`` on one orbit sample of a table row."""

    doc: str
    row: str
    param: Fraction | None
    expected_label: str
    expected_causal: str

    def execute(self, cli):
        return call(cli, ["classify", "--json"], self.doc)

    def check(self, outputs):
        code, out, _ = outputs
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        report = _report(out, problems)
        if report is None:
            return problems
        if report.get("label") != self.expected_label:
            problems.append(f"label {report.get('label')!r}, expected {self.expected_label!r}")
        certs = report.get("certificates")
        causal = certs.get("causal") if isinstance(certs, dict) else None
        if causal != self.expected_causal:
            problems.append(f"causal {causal!r}, expected {self.expected_causal!r}")
        if self.row in LABEL_AND_CAUSAL_ONLY:
            return problems
        err = report.get("transform_error")
        if not isinstance(err, float) or not err <= FLOAT_TOL:
            problems.append(f"transform_error {err!r} above {FLOAT_TOL}")
        got = report.get("parameter")
        if self.param is None:
            if got is not None:
                problems.append(f"parameter {got!r}, expected none")
        elif not isinstance(got, float) or not abs(got - float(self.param)) <= PARAM_TOL:
            problems.append(f"parameter {got!r}, expected {self.param} within {PARAM_TOL}")
        return problems


def classify_orbit(ol, rng):
    ops = []
    for _ in range(ROUNDS):
        for row in TABLE_ORDER:
            param = _param(rng) if row in PARAMETRIC else None
            spec = ol.orbit_sample(row, param, seed=rng.randrange(2 ** 31))
            ops.append(ClassifyOp(ol.serialize(spec), row, param,
                                  REPORTED_AS.get(row, row), CAUSAL[row]))
    return ops


# ---------------------------------------------------------------------------
# orbit-validate


def bump_omega(doc):
    """Add 1 to the first omega entry of a dim-3 document (or set omega_12 = 1).

    Returns the edited text and the t vector it must produce, or None when
    ``doc`` is not a document.  omega_ij carries b^k = eps_ijk omega_ij, so
    t = 4 n a + 2 b moves by 2 eps_ijk in component k, and t was zero before.
    """
    try:
        obj = json.loads(doc)
        entries = obj["omega_entries"]
        if entries:
            entries[0][2] = str(Fraction(entries[0][2]) + 1)
            i, j = entries[0][0], entries[0][1]
        else:
            entries.append([1, 2, "1"])
            i, j = 1, 2
        sign = {(1, 2): 1, (1, 3): -1, (2, 3): 1}[i, j]
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        return None
    t = ["0", "0", "0"]
    t[5 - i - j] = str(2 * sign)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n", t


@dataclass
class OrbitValidateOp:
    """``omegalie orbit-sample ... | omegalie validate --json``.

    When ``bump`` is set, one omega entry of the sampled document is edited
    between the two commands, so validate takes its exit-1 defect path.
    """

    row: str
    param: Fraction | None
    seed: int
    bump: bool
    expect_valid: bool

    @property
    def argv(self):
        argv = ["orbit-sample", self.row, "--seed", str(self.seed)]
        if self.param is not None:
            argv += ["--param", str(self.param)]
        return argv

    def execute(self, cli):
        first, s1 = call(cli, self.argv)
        edited = bump_omega(first[1]) if self.bump else None
        second, s2 = call(cli, ["validate", "--json"], edited[0] if edited else first[1])
        return first + second, s1 + s2

    def check(self, outputs):
        code1, doc, _, code2, out, _ = outputs
        problems = []
        if code1 != 0:
            return [f"orbit-sample exit code {code1}, expected 0"]
        edited = bump_omega(doc)
        if edited is None or json.loads(doc).get("dim") != 3:
            return ["orbit-sample did not print a dim-3 document"]
        want_t = edited[1] if self.bump else ["0", "0", "0"]
        want_code = 0 if self.expect_valid else 1
        if code2 != want_code:
            problems.append(f"validate exit code {code2}, expected {want_code}")
        report = _report(out, problems)
        if report is None:
            return problems
        if report.get("valid") is not self.expect_valid:
            problems.append(f"valid {report.get('valid')!r}, expected {self.expect_valid}")
        if report.get("t") != want_t:
            problems.append(f"t {report.get('t')!r}, expected {want_t}")
        if not self.expect_valid and not report.get("nonzero_residual_components"):
            problems.append("invalid document reported no residual components")
        return problems


def orbit_validate(ol, rng):
    specs = [(row, _param(rng) if row in PARAMETRIC else None, rng.randrange(2 ** 31))
             for _ in range(ROUNDS) for row in TABLE_ORDER]
    bumped = set(rng.sample(range(len(specs)), len(specs) // BUMPED_SHARE))
    return [OrbitValidateOp(row, param, seed, i in bumped, i not in bumped)
            for i, (row, param, seed) in enumerate(specs)]


# ---------------------------------------------------------------------------
# nd-sparse


def _row_block(ol, label, rng):
    doc = ol.document_object(ol.generate(label, _param(rng) if label in PARAMETRIC else None))
    c = [(i, j, k, Fraction(v)) for i, j, k, v in doc["c_entries"]]
    om = [(i, j, Fraction(v)) for i, j, v in doc["omega_entries"]]
    return 3, c, om


def _heisenberg(m):
    # [e_i, e_{m+i}] = e_{2m+1}
    return 2 * m + 1, [(i, m + i, 2 * m + 1, Fraction(1)) for i in range(1, m + 1)], []


def _filiform(d):
    # [e_1, e_i] = e_{i+1}
    return d, [(1, i, i + 1, Fraction(1)) for i in range(2, d)], []


def _lie_blocks(ol, rng, room):
    """Lie-algebra summands (omega = 0) filling ``room`` dimensions."""
    blocks = []
    while room:
        options = ["abelian"]
        if room >= 2:
            options.append("affine")
        if room >= 3:
            options += ["row", "row"]
        if room >= 4:
            options.append("filiform")
        if room >= 5:
            options.append("heisenberg")
        pick = rng.choice(options)
        if pick == "abelian":
            block = (1, [], [])
        elif pick == "affine":
            block = (2, [(1, 2, 2, Fraction(1))], [])
        elif pick == "row":
            block = _row_block(ol, rng.choice(LIE_ROWS), rng)
        elif pick == "filiform":
            block = _filiform(rng.randint(4, room))
        else:
            block = _heisenberg(rng.choice([m for m in (2, 3) if 2 * m + 1 <= room]))
        blocks.append(block)
        room -= block[0]
    return blocks


def _direct_sum(blocks, rng):
    """Entries of the direct sum, each summand scaled, basis shuffled.

    Scaling the bracket by s and omega by s^2 keeps each summand's validity
    (the identity is quadratic in c and linear in omega); relabelling the
    basis keeps the document sparse.
    """
    dim = sum(b[0] for b in blocks)
    perm = rng.sample(range(1, dim + 1), dim)
    c_entries, om_entries, offset = [], [], 0

    def place(i, j):
        pi, pj = perm[offset + i - 1], perm[offset + j - 1]
        return (pi, pj, 1) if pi < pj else (pj, pi, -1)

    for size, c, om in blocks:
        s = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        for i, j, k, v in c:
            pi, pj, sign = place(i, j)
            c_entries.append((pi, pj, perm[offset + k - 1], sign * s * v))
        for i, j, v in om:
            pi, pj, sign = place(i, j)
            om_entries.append((pi, pj, sign * s * s * v))
        offset += size
    return dim, c_entries, om_entries


def _basis_triple_check(ol, spec):
    """(bracket is Lie, spec is valid), from jacobiator and omega_rhs on every
    basis triple; the identity is alternating, so i < j < k suffices."""
    n = spec.dim
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lie = valid = True
    for a, b, c in combinations(basis, 3):
        jac = ol.jacobiator(spec, a, b, c)
        lie = lie and not any(jac)
        valid = valid and jac == ol.omega_rhs(spec, a, b, c)
    return lie, valid


@dataclass
class NdSparseOp:
    """``omegalie validate --json`` or ``deformability --json`` on a sparse
    direct sum in dimension 5-8."""

    doc: str
    dim: int
    kind: str         # lie, bumped (Lie bracket, omega != 0) or deformed
    command: str      # validate or deformability
    expect: bool      # valid, or deformable

    def execute(self, cli):
        return call(cli, [self.command, "--json"], self.doc)

    def check(self, outputs):
        code, out, _ = outputs
        problems = []
        want_code = 0 if self.expect else 1
        if code != want_code:
            problems.append(f"exit code {code}, expected {want_code}")
        report = _report(out, problems)
        if report is None:
            return problems
        if report.get("dim") != self.dim:
            problems.append(f"dim {report.get('dim')!r}, expected {self.dim}")
        verdict = "valid" if self.command == "validate" else "deformable"
        if report.get(verdict) is not self.expect:
            problems.append(f"{verdict} {report.get(verdict)!r}, expected {self.expect}")
        if not self.expect:
            key = ("nonzero_residual_components" if self.command == "validate"
                   else "defect_components")
            if not report.get(key):
                problems.append(f"negative verdict reported no {key}")
        elif self.command == "deformability":
            # a Lie bracket admits omega = 0, and the compatible omega is unique
            if report.get("candidate_omega") != []:
                problems.append(f"candidate omega {report.get('candidate_omega')!r}, expected none")
            if report.get("matches_document_omega") is not (self.kind == "lie"):
                problems.append("matches_document_omega disagrees with the document")
        return problems


def _nd_doc(ol, rng, dim, kind):
    if kind == "deformed":
        blocks = [_row_block(ol, rng.choice(DEFORMED_ROWS), rng)]
        blocks += _lie_blocks(ol, rng, dim - 3)
    else:
        blocks = _lie_blocks(ol, rng, dim)
    rng.shuffle(blocks)
    dim, c_entries, om_entries = _direct_sum(blocks, rng)
    if kind == "bumped":
        i, j = sorted(rng.sample(range(1, dim + 1), 2))
        om_entries.append((i, j, Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))))
    spec = ol.AlgebraSpec.from_entries(dim, c_entries, om_entries)
    lie, valid = _basis_triple_check(ol, spec)
    # A deformed dim-3 row beside another summand: omega must equal the row's
    # forced form on the row's plane and vanish there for triples reaching
    # into the other summand, so no omega exists.  Every other document has a
    # Lie bracket, and omega = 0 closes the identity.
    if (lie, valid) != {"lie": (True, True), "bumped": (True, False),
                        "deformed": (False, False)}[kind]:
        raise RuntimeError(f"generated {kind} document has lie={lie} valid={valid}")
    return ol.serialize(spec), lie, valid


def nd_sparse(ol, rng):
    ops = []
    for kind, command in ND_SLOTS:
        for dim in ND_DIMS:
            doc, lie, valid = _nd_doc(ol, rng, dim, kind)
            ops.append(NdSparseOp(doc, dim, kind, command,
                                  valid if command == "validate" else lie))
    return ops


WORKLOADS = {
    "classify-orbit": classify_orbit,
    "orbit-validate": orbit_validate,
    "nd-sparse": nd_sparse,
}
