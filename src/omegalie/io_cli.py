"""JSON documents and the command-line surface.

The on-disk format is a single JSON object:

    {
      "dim": 3,
      "c_entries": [[1, 2, 3, "1"], ...],      # c^k_ij with i < j
      "omega_entries": [[1, 2, "-1/2"], ...]   # omega_ij with i < j
    }

Rationals travel as strings ("p" or "p/q", lowest terms on output) so no
binary float ever enters the exact pipeline; bare JSON integers are also
accepted on input.  The parser checks the JSON object and its keys, and
``AlgebraSpec.from_entries`` the rest, as for the library: dim, and each
entry's shape, indices and value, read by ``tensor_core.rational``, the one
grammar of documents, ``--param`` and the library.  Only the i < j
orientation is written, and the parser keeps exactly that: the nonzero
entries become the spec's store, so parsing and ``document_object`` cost in
the number of entries, never in dim^3.  An optional "meta" object is
accepted and ignored; a document nested too deeply to decode is a
DocumentError like any other.

Subcommands: validate, decompose, classify, generate, tables,
orbit-sample, deformability.  Exit codes: 0 success/valid, 1 well-formed
input that is not an omega-deformed Lie algebra, 2 parse or usage error.
A handler builds one report of unformatted values, and ``_emit`` renders it
as JSON (``--json``) or as the command's text, formatting only what it prints.

``run`` reads the plain command lines itself, into a namespace with the
attributes argparse would set:

    validate | decompose | classify | deformability [--json] [--force-omega] [FILE]
    generate LABEL [--param P] [--json]
    orbit-sample LABEL --seed N [--param P] [--json]
    tables [--json]

with the options in any order, each spelled out in full, and no value or
FILE but ``-`` that starts with ``-``.  Every other command line goes to
argparse unchanged: help, abbreviations, ``--opt=value``, ``--`` and every
usage error, so argparse writes all help, usage and error text.  Both routes
and ``_emit`` read one command table, ``_COMMANDS``, in place.

A command imports only the modules it runs: argparse is imported when a
line needs it, ``classify3d`` by classify, and ``decomp_nd`` by
deformability and ``--force-omega``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from .algebra_core import AlgebraSpec, ResidualTensor, residual
from .decomp3d import (FIRST_TABLE_ORDER, PARAMETRIC_LABELS, SECOND_TABLE_ORDER, _t,
                       _t_residual, _triple, _view, forced_b, generate, orbit_sample, table_row)
from .tensor_core import rational

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """The document text is not a well-formed algebra document."""


# ---------------------------------------------------------------------------
# parse / serialize


def parse_object(obj) -> AlgebraSpec:
    """Build an exact spec from an already-decoded document object: an object
    with the document's keys, whose dim and entries ``from_entries`` checks."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(obj) - {"dim", "c_entries", "omega_entries", "meta"}
    if unknown:
        raise DocumentError(f"unknown document keys: {', '.join(sorted(unknown))}")
    missing = [k for k in ("dim", "c_entries", "omega_entries") if k not in obj]
    if missing:
        raise DocumentError(f"missing document keys: {', '.join(missing)}")
    try:
        return AlgebraSpec.from_entries(obj["dim"], obj["c_entries"], obj["omega_entries"])
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from None


def parse(text: str) -> AlgebraSpec:
    """Parse document text into an exact spec.

    Raises DocumentError with a position report on syntax errors, bad
    indices, duplicates, or malformed rationals.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError:  # a bare integer with more digits than int() converts
        raise DocumentError("document holds an integer with too many digits") from None
    except RecursionError:
        raise DocumentError("document nests arrays or objects too deeply") from None
    return parse_object(obj)


class _Usage(ValueError):
    """exit 2: domain/usage errors discovered after argument parsing"""


def _rat_str(x):
    # the one formatter of exact report values: a value within the input's
    # digit limit can still have a product or sum past it
    try:
        return str(x)
    except ValueError:
        raise _Usage("a result value has more digits than the integer-to-text "
                     f"conversion limit ({sys.get_int_max_str_digits()}) allows") from None


def document_object(spec: AlgebraSpec) -> dict:
    """The canonical document object of a spec: the store's i < j entries,
    lexicographic (i, j) then k ordering, lowest-terms values."""
    c_entries = [[i + 1, j + 1, k + 1, _rat_str(v)] for (i, j, k), v in spec.c_upper.items()]
    omega_entries = [[i + 1, j + 1, _rat_str(v)] for (i, j), v in spec.omega_upper.items()]
    return {"dim": spec.dim, "c_entries": c_entries, "omega_entries": omega_entries}


def serialize(spec: AlgebraSpec) -> str:
    """Canonical, byte-stable document text; parse(serialize(s)) == s."""
    return _dumps(document_object(spec)) + "\n"


def _write_list(xs, pad):
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(
        [w(x) if (w := _SCALARS.get(type(x))) else _dumps(x, inner) for x in xs]
    ) + pad + "]" if xs else "[]"


def _write_dict(d, pad):
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(
        [_encode_str(k) + ": " + (w(x) if (w := _SCALARS.get(type(x := d[k])))
                                  else _dumps(x, inner)) for k in sorted(d)]
    ) + pad + "}" if d else "{}"


# json's types, and the exact values a report holds, each formatted where the walk
# meets it: a Fraction as its string, a spec as its document, a residual as its components
_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {str: _encode_str, int: int.__repr__, type(None): lambda _: "null",
            bool: ("false", "true").__getitem__, float: lambda x: (
                float.__repr__(x) if math.isfinite(x)
                else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"),
            Fraction: lambda x: _encode_str(_rat_str(x))}
_CONTAINERS = {list: _write_list, tuple: _write_list, dict: _write_dict,
               AlgebraSpec: lambda s, pad: _write_dict(document_object(s), pad),
               ResidualTensor: lambda res, pad: _write_list(
                   [{"indices": idx, "value": v} for idx, v in res.nonzero], pad)}


def _dumps(obj, pad="\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, on json's types;
    json skips its C encoder when an indent is set.  ``pad`` is the newline and indent
    before obj's closing bracket.  A non-str dict key or a value of a type neither
    table writes raises TypeError."""
    kind = type(obj)
    if kind not in _SCALARS and kind not in _CONTAINERS:  # a subclass, in json's order
        kind = next((t for t in (str, int, float, list, tuple, dict) if isinstance(obj, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return _SCALARS[kind](obj) if kind in _SCALARS else _CONTAINERS[kind](obj, pad)


# ---------------------------------------------------------------------------
# reports: one per command, of unformatted values, rendered by _emit


class _Failure(Exception):
    """exit 1 with the report args[0]: well-formed input that is not an
    omega-deformed Lie algebra"""


def _emit(args, report):
    if args.json:
        report["schema"] = SCHEMA_VERSION
        sys.stdout.write(_dumps(report) + "\n")
    elif "error" in report:
        print(f"invalid: {report['error']}", file=sys.stderr)
    else:  # the whole text first: a value past the digit limit prints nothing
        sys.stdout.write(_COMMANDS[args.command][1](report))


def _text(xs):
    return "(" + ", ".join(map(_rat_str, xs)) + ")"


def _lines(lines):
    return "".join(line + "\n" for line in lines)


def _residual_lines(res):
    lines = [f"  residual[m={m} l={l} j={j} k={k}] = {_rat_str(v)}"
             for (m, l, j, k), v in res.nonzero[:20]]
    if len(res.nonzero) > 20:
        lines.append(f"  ... and {len(res.nonzero) - 20} more")
    return lines


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"cannot read {path}: not UTF-8 text") from None


def _load_spec(args) -> AlgebraSpec:
    spec = parse(_read_text(args.file))
    if args.force_omega:
        spec = _force_omega(spec)
    rule = _DIM_RULES.get(args.command)
    if rule and spec.dim < 3 or rule == "3" and spec.dim != 3:
        raise _Usage(f"{args.command} requires dim {rule}, got dim {spec.dim}")
    return spec


def _force_omega(spec: AlgebraSpec) -> AlgebraSpec:
    # the trace candidate; in dim 3 it is b = -2 n a and always compatible
    if spec.dim < 3:
        raise _Usage(f"--force-omega requires dim >= 3; in dim {spec.dim} every omega "
                     "is compatible, so no forced form exists")
    from .decomp_nd import check_deformability
    result = check_deformability(spec)
    if not result.compatible:
        raise _Failure({"valid": False, "deformable": False,
                        "error": "no compatible omega exists for this bracket; the trace "
                                 "candidate leaves a nonzero defect"})
    return result.spec


def _canonical_row(label):
    # (n diagonal, a pattern, b pattern) of the table row, at parameter 1; b = -2 n a on
    # ints, not by forced_b, whose Fractions classify's JSON would print as strings
    nd, apat, _ = table_row(label)
    return nd, apat, tuple(-2 * nd[i] * apat[i] for i in range(3))


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, report); its human template follows it


def _cmd_validate(args):
    spec = _load_spec(args)
    t = _t(_view(spec)) if spec.dim == 3 else None  # dim 3: the residual collapses to t
    res = residual(spec) if t is None else _t_residual(*t)
    report = {"command": "validate", "dim": spec.dim, "valid": res.is_zero}
    if t is not None:
        report["t"] = t[0]
    if not res.is_zero:
        report["nonzero_residual_components"] = res
    return (0 if res.is_zero else 1), report


def _validate_text(r):
    lines = ["valid: the deformed Jacobi identity holds (residual = 0)" if r["valid"]
             else "invalid: nonzero residual components"]
    if "t" in r:
        lines.append(f"t = {_text(r['t'])}")
    if not r["valid"]:
        lines += _residual_lines(r["nonzero_residual_components"])
    return _lines(lines)


def _cmd_decompose(args):
    spec = _load_spec(args)
    view = _view(spec)
    trip, (t, nonzero) = _triple(view), _t(view)
    return 0, {"command": "decompose", "n": trip.n.rows, "a": trip.a, "b": trip.b,
               "forced_b": forced_b(trip.n, trip.a), "b_is_forced": not any(nonzero), "t": t}


def _decompose_text(r):
    return _lines(["n = " + "; ".join(map(_text, r["n"])),
                   f"a = {_text(r['a'])}",
                   f"b = {_text(r['b'])}",
                   f"forced b = -2 n a = {_text(r['forced_b'])}"
                   + ("  [matches]" if r["b_is_forced"] else "  [differs: not an algebra]"),
                   f"t = 4 n a + 2 b = {_text(r['t'])}"])


def _cmd_classify(args):
    spec = _load_spec(args)
    from .classify3d import FloatRangeError, NotAnAlgebraError, classify
    try:
        nf = classify(spec)
    except NotAnAlgebraError as exc:
        return 1, {"command": "classify", "valid": False, "t": exc.t,
                   "error": f"not an omega-deformed Lie algebra: {exc}"}
    except FloatRangeError as exc:
        raise _Usage(str(exc)) from None
    nd, apat, brow = _canonical_row(nf.label.name)
    certs, trip = nf.certificates, nf.decomposition
    scale = 1 if nf.parameter is None else nf.parameter
    return 0, {
        "command": "classify",
        "valid": True,
        "label": nf.label.name,
        "parameter": nf.parameter,
        "certificates": {
            "n_inertia": certs.n_inertia,
            "a_is_zero": certs.causal == "zero",
            "causal": certs.causal,
        },
        "canonical_row": {
            "n_diagonal": nd,
            "a": tuple(x * scale for x in apat),
            "b": tuple(x * scale for x in brow),
            "b_rule": "b = -2 n a",
        },
        "transform": nf.transform,
        "transform_error": nf.transform_error,
        "notes": nf.notes,
        "decomposition": {"n": trip.n.rows, "a": trip.a, "b": trip.b, "b_is_forced": True},
        "exact_transform": nf.exact_transform.rows,
    }


def _classify_text(r):
    from .classify3d import FLOAT_TOL, BianchiLabel
    certs, row = r["certificates"], r["canonical_row"]
    floats = (lambda xs: "(" + ", ".join(f"{x:g}" for x in xs) + ")")
    return _lines([
        f"label: {BianchiLabel(r['label'], r['parameter'])}",
        "certificates: inertia {}; a {}; causal {}".format(
            certs["n_inertia"], "zero" if certs["a_is_zero"] else "nonzero", certs["causal"]),
        f"canonical row: n = diag{row['n_diagonal']}, a = {floats(row['a'])}, "
        f"b = {floats(row['b'])}   [{row['b_rule']}]",
        f"transform error: {r['transform_error']:.3e} (tolerance {FLOAT_TOL:g})",
        *(f"note: {note}" for note in r["notes"])])


def _cmd_row(args):
    # generate and orbit-sample: the document of a table row or of a point on its orbit
    sample = {} if args.command == "generate" else {"seed": args.seed}
    try:
        param = None if args.param is None else rational(args.param)
    except ValueError as exc:
        raise _Usage(f"--param: {exc}") from None
    try:
        spec = (orbit_sample if sample else generate)(args.label, param, **sample)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    return 0, {"command": args.command, "label": args.label, "parameter": args.param,
               **sample, "document": spec}


def _row_text(r):
    return serialize(r["document"])


def _cmd_tables(args):
    def row(label, table_no):
        nd, apat, brow = _canonical_row(label)
        parametric = label in PARAMETRIC_LABELS
        return {"label": label, "table": table_no, "n_diagonal": nd,
                "a": tuple(map(Fraction, apat)), "b": tuple(map(Fraction, brow)),
                "parametric": parametric, "document": generate(label, 1 if parametric else None),
                **({"parameter_note": "parametric family, emitted at parameter 1"}
                   if parametric else {})}

    return 0, {"command": "tables", "first_table": [row(x, 1) for x in FIRST_TABLE_ORDER],
               "second_table": [row(x, 2) for x in SECOND_TABLE_ORDER]}


def _tables_text(r):
    fmt, lines = "  {:<8} {:<12} {:<14} {:<14} {}", []
    for key, title in (("first_table", "table 1 (a = 0):"),
                       ("second_table", "\ntable 2 (a != 0, b = -2 n a):")):
        lines += [title, fmt.format("label", "n diagonal", "a", "b", "")]
        lines += [fmt.format(x["label"], _text(x["n_diagonal"]), _text(x["a"]), _text(x["b"]),
                             "parametric (at 1)" if x["parametric"] else "") for x in r[key]]
    return _lines(lines) + "".join(f"\n--- {x['label']} ---\n" + serialize(x["document"])
                                   for x in r["first_table"] + r["second_table"])


def _cmd_deformability(args):
    spec = _load_spec(args)
    from .decomp_nd import check_deformability
    result = check_deformability(spec)
    report = {"command": "deformability", "dim": spec.dim, "deformable": result.compatible}
    if not result.compatible:
        report["defect_components"] = result.defect
        return 1, report
    cand = result.spec.omega_upper
    report["candidate_omega"] = [(i + 1, j + 1, v) for (i, j), v in cand.items()]
    report["matches_document_omega"] = cand == spec.omega_upper
    return 0, report


def _deformability_text(r):
    if not r["deformable"]:
        return _lines(["not deformable: no omega closes the deformed Jacobi identity",
                       "defect of the unique trace candidate:",
                       *_residual_lines(r["defect_components"])])
    entries = ", ".join(f"({i}, {j}, {_rat_str(v)})" for i, j, v in r["candidate_omega"])
    return _lines(["deformable: the trace candidate omega closes the deformed Jacobi identity",
                   "candidate omega entries (i, j, value): " + (entries or "none (omega = 0)"),
                   "matches the omega stored in the document" if r["matches_document_omega"]
                   else "differs from the omega stored in the document"])


# ---------------------------------------------------------------------------
# argument parsing and dispatch
#
# One command table, read in place: ``_build_parser`` builds the argparse
# parser from it, ``_read_plain`` reads its plain command lines straight into
# the namespace that parser would build, and ``_emit`` renders a report with
# the command's template.  Each argument is stated once, in ``_ARGUMENTS``,
# with the dest argparse derives from its name (``_DESTS`` derives it alike);
# one without a default is required.  ``_load_spec`` checks ``_DIM_RULES``.

_ARGUMENTS = {  # name -> add_argument keywords
    "--json": {"action": "store_true", "default": False,
               "help": "emit a machine-readable JSON report (schema-versioned)"},
    "--force-omega": {"action": "store_true", "default": False,
                      "help": "replace the supplied omega by the forced one first"},
    "--param": {"metavar": "P", "default": None,
                "help": "positive rational parameter for parametric rows"},
    "--seed": {"type": int, "required": True, "metavar": "N",
               "help": "seed for the deterministic sampler"},
    "file": {"nargs": "?", "default": "-", "metavar": "FILE",
             "help": "document path, or - for standard input (default)"},
    "label": {"metavar": "LABEL", "help": "table row name, e.g. IX_a"},
}
_DESTS = {name: name.lstrip("-").replace("-", "_") for name in _ARGUMENTS}
# name -> (handler, human template, arguments after --json, help), in help order;
# the positional comes first among the arguments, as argparse lists missing ones
_COMMANDS = {
    "validate": (_cmd_validate, _validate_text, ("file", "--force-omega"),
                 "check the deformed Jacobi identity (prints t for dim 3)"),
    "decompose": (_cmd_decompose, _decompose_text, ("file", "--force-omega"),
                  "decompose a dim-3 spec into (n, a, b)"),
    "classify": (_cmd_classify, _classify_text, ("file", "--force-omega"),
                 "classify a dim-3 spec onto its normal-form table row"),
    "generate": (_cmd_row, _row_text, ("label", "--param"),
                 "print the canonical document of a table row"),
    "orbit-sample": (_cmd_row, _row_text, ("label", "--param", "--seed"),
                     "print a seeded random transport of a table row"),
    "tables": (_cmd_tables, _tables_text, (),
               "re-emit both normal-form tables as a grid plus documents"),
    "deformability": (_cmd_deformability, _deformability_text, ("file", "--force-omega"),
                      "check whether a bracket (dim >= 3) admits a compatible omega"),
}
_DIM_RULES = {"decompose": "3", "classify": "3", "deformability": ">= 3"}  # command -> dim


@functools.cache
def _build_parser():
    # Built once per process: argparse looks up sys.stdout and sys.stderr
    # when it prints, not when it is built, so swapped streams still work.
    import argparse
    parser = argparse.ArgumentParser(
        prog="omegalie",
        description="Exact tools for omega-deformed Lie algebras: validation, "
                    "(n, a, b) decomposition, Bianchi-style classification, "
                    "normal-form tables, and orbit sampling.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, _, arguments, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, description=help_)
        for argument in ("--json", *arguments):
            p.add_argument(argument, **_ARGUMENTS[argument])
        p.set_defaults(handler=handler)
    return parser


def _read_plain(argv):
    """A namespace with the attributes argparse sets for ``argv``, when argv
    is a plain line of the command table: a command, its own options spelled
    out in full, at most one positional, and no value but ``-`` that starts
    with ``-``.  None for every other argv."""
    if not argv or (entry := _COMMANDS.get(argv[0])) is None:
        return None
    names, values, rest = ("--json", *entry[2]), {}, iter(argv[1:])
    positional = names[1] if names[1:] and names[1][0] != "-" else None  # listed first
    for arg in rest:
        if arg in names and arg != positional:
            keywords = _ARGUMENTS[arg]
            if keywords.get("action") == "store_true":
                values[_DESTS[arg]] = True
                continue
            value = next(rest, "--")  # argparse reads a missing value as an option
            if value[:1] == "-" and value != "-":
                return None
            try:
                values[_DESTS[arg]] = keywords.get("type", str)(value)
            except ValueError:  # argparse's "invalid int value"
                return None
        elif positional is None or positional in values or arg[:1] == "-" and arg != "-":
            return None
        else:
            values[positional] = arg
    for name in names:
        if (dest := _DESTS[name]) not in values:
            if "default" not in (keywords := _ARGUMENTS[name]):
                return None
            values[dest] = keywords["default"]
    return SimpleNamespace(command=argv[0], handler=entry[0], **values)


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 not an algebra, 2 usage)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:  # formatting a report can exit 2 too, past the digit limit
        try:
            code, report = args.handler(args)
        except _Failure as exc:
            code, report = 1, exc.args[0]
        _emit(args, report)
        return code
    except (DocumentError, _Usage) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a backstop: no bound on the work is read before it starts
        print("error: out of memory", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
