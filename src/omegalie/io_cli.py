"""JSON documents and the command-line surface.

The on-disk format is a single JSON object:

    {
      "dim": 3,
      "c_entries": [[1, 2, 3, "1"], ...],      # c^k_ij with i < j
      "omega_entries": [[1, 2, "-1/2"], ...]   # omega_ij with i < j
    }

Rationals travel as strings ("p" or "p/q", lowest terms on output) so no
binary float ever enters the exact pipeline; bare JSON integers are also
accepted on input.  Only the i < j orientation is written, and the parser
keeps exactly that: the nonzero entries become the spec's store, so parsing
and ``document_object`` cost in the number of entries, never in dim^3.  An
optional "meta" object is accepted and ignored; a document nested too
deeply to decode is a DocumentError like any other.

Subcommands: validate, decompose, classify, generate, tables,
orbit-sample, deformability.  Exit codes: 0 success/valid, 1 well-formed
input that is not an omega-deformed Lie algebra, 2 parse or usage error.

``run`` reads the plain command lines itself, into the namespace argparse
would build:

    validate | decompose | classify | deformability [--json] [--force-omega] [FILE]
    generate LABEL [--param P] [--json]
    orbit-sample LABEL --seed N [--param P] [--json]
    tables [--json]

with the options in any order, each spelled out in full, and no value or
FILE but ``-`` that starts with ``-``.  Every other command line goes to
argparse unchanged: help, abbreviations, ``--opt=value``, ``--`` and every
usage error, so argparse writes all help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .algebra_core import AlgebraSpec, residual
from .classify3d import (FIRST_TABLE_ORDER, FLOAT_TOL, PARAMETRIC_LABELS,
                         SECOND_TABLE_ORDER, FloatRangeError, NotAnAlgebraError,
                         classify, generate, orbit_sample, table_row)
from .decomp3d import _t, _t_residual, _triple, _view
from .decomp_nd import check_deformability

SCHEMA_VERSION = 1

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


class DocumentError(ValueError):
    """The document text is not a well-formed algebra document."""


# ---------------------------------------------------------------------------
# parse / serialize


def _as_rational(value, where):
    if isinstance(value, str):
        if not (match := _RATIONAL_RE.fullmatch(value)):
            raise DocumentError(f"{where}: malformed rational {value!r}; write 'p' or 'p/q'")
        try:  # the terms, not the string: Fraction would parse it a second time
            return Fraction(int(match[1]), int(match[2] or 1))
        except ValueError:  # more digits than int() converts from a string
            raise DocumentError(f"{where}: rational has too many digits") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DocumentError(f"{where}: values must be rational strings, got {value!r}")


def parse_object(obj) -> AlgebraSpec:
    """Build an exact spec from an already-decoded document object."""
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    unknown = set(obj) - {"dim", "c_entries", "omega_entries", "meta"}
    if unknown:
        raise DocumentError(f"unknown document keys: {', '.join(sorted(unknown))}")
    missing = [k for k in ("dim", "c_entries", "omega_entries") if k not in obj]
    if missing:
        raise DocumentError(f"missing document keys: {', '.join(missing)}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise DocumentError(f"dim must be a positive integer, got {dim!r}")

    def read_entries(key, width):
        raw = obj[key]
        if not isinstance(raw, list):
            raise DocumentError(f"{key} must be a list")
        shape = "[i, j, k, value]" if width == 4 else "[i, j, value]"
        out = []
        for pos, entry in enumerate(raw):
            where = f"{key}[{pos}]"
            if not isinstance(entry, list) or len(entry) != width:
                raise DocumentError(f"{where}: expected {shape}")
            idx = entry[:-1]
            for v in idx:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise DocumentError(f"{where}: indices must be integers, got {v!r}")
                if not 1 <= v <= dim:
                    raise DocumentError(f"{where}: index {v} out of range 1..{dim}")
            if not idx[0] < idx[1]:
                raise DocumentError(f"{where}: requires i < j, got i={idx[0]}, j={idx[1]}")
            out.append((*idx, _as_rational(entry[-1], where)))
        return out

    c_entries = read_entries("c_entries", 4)
    omega_entries = read_entries("omega_entries", 3)
    try:
        return AlgebraSpec.from_entries(dim, c_entries, omega_entries)
    except ValueError as exc:
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


def _dumps(obj, pad="\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte; json skips its
    C encoder when an indent is set.  ``pad`` is the newline and indent before obj's
    closing bracket.  A non-str dict key or a value json cannot encode raises TypeError."""
    kind = type(obj)
    if kind not in _SCALARS and kind not in _CONTAINERS:  # a subclass, in json's order
        kind = next((t for t in (str, int, float, list, tuple, dict) if isinstance(obj, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return _SCALARS[kind](obj) if kind in _SCALARS else _CONTAINERS[kind](obj, pad)


def _write_list(xs, pad):
    inner, get = pad + "  ", _SCALARS.get
    return "[" + inner + ("," + inner).join(
        [w(x) if (w := get(type(x))) else _dumps(x, inner) for x in xs]) + pad + "]" if xs else "[]"


def _write_dict(d, pad):
    inner, get = pad + "  ", _SCALARS.get
    return "{" + inner + ("," + inner).join(
        [_encode_str(k) + ": " + (w(x) if (w := get(type(x := d[k]))) else _dumps(x, inner))
         for k in sorted(d)]) + pad + "}" if d else "{}"


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {str: _encode_str, int: int.__repr__, type(None): lambda _: "null",
            bool: ("false", "true").__getitem__, float: lambda x: (
                float.__repr__(x) if math.isfinite(x)
                else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")}
_CONTAINERS = {list: _write_list, tuple: _write_list, dict: _write_dict}


# ---------------------------------------------------------------------------
# report helpers


class _Failure(Exception):
    # exit 1: well-formed input that is not an omega-deformed Lie algebra
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


def _vec(v):
    return [_rat_str(x) for x in v]


def _mat(m):
    return [[_rat_str(x) for x in row] for row in m.rows]


def _emit(args, report, human_lines):
    if args.json:
        report["schema"] = SCHEMA_VERSION
        print(_dumps(report))
    else:
        for line in human_lines:
            print(line)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_spec(args) -> AlgebraSpec:
    spec = parse(_read_text(args.file))
    if args.force_omega:
        spec = _force_omega(spec)
    return spec


def _force_omega(spec: AlgebraSpec) -> AlgebraSpec:
    # the trace candidate; in dim 3 it is b = -2 n a and always compatible
    if spec.dim < 3:
        raise _Usage(f"--force-omega requires dim >= 3; in dim {spec.dim} every omega "
                     "is compatible, so no forced form exists")
    result = check_deformability(spec)
    if not result.compatible:
        raise _Failure("no compatible omega exists for this bracket; the trace "
                       "candidate leaves a nonzero defect",
                       {"valid": False, "deformable": False})
    return result.spec


def _residual_report(args, res, report, key, lines, limit=20):
    # only what the mode prints: every component under report[key], or at most limit lines
    if args.json:
        report[key] = [{"indices": list(idx), "value": _rat_str(v)} for idx, v in res.nonzero]
        return
    lines.extend(f"  residual[m={m} l={l} j={j} k={k}] = {_rat_str(v)}"
                 for (m, l, j, k), v in res.nonzero[:limit])
    if len(res.nonzero) > limit:
        lines.append(f"  ... and {len(res.nonzero) - limit} more")


def _canonical_row(label):
    # (n diagonal, a pattern, b pattern) of the table row, at parameter 1
    nd, apat, _ = table_row(label)
    return nd, apat, tuple(-2 * nd[i] * apat[i] for i in range(3))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    spec = _load_spec(args)
    t = _t(_view(spec)) if spec.dim == 3 else None  # dim 3: the residual collapses to t
    res = residual(spec) if t is None else _t_residual(t)
    report, lines = {"command": "validate", "dim": spec.dim, "valid": res.is_zero}, []
    if t is not None:
        report["t"] = _vec(t)
        lines.append(f"t = ({', '.join(report['t'])})")
    if not res.is_zero:
        _residual_report(args, res, report, "nonzero_residual_components", lines)
    lines.insert(0, "valid: the deformed Jacobi identity holds (residual = 0)" if res.is_zero
                 else "invalid: nonzero residual components")
    _emit(args, report, lines)
    return 0 if res.is_zero else 1


def _cmd_decompose(args):
    spec = _load_spec(args)
    if spec.dim != 3:
        raise _Usage(f"decompose requires dim 3, got dim {spec.dim}")
    view = _view(spec)
    trip, t = _triple(view), _t(view)
    fb, matches = [x - y / 2 for x, y in zip(trip.b, t)], not any(t)  # t = 2 (b - forced b)
    report = {
        "command": "decompose",
        "n": _mat(trip.n), "a": _vec(trip.a), "b": _vec(trip.b),
        "forced_b": _vec(fb), "b_is_forced": matches, "t": _vec(t),
    }
    lines = [
        "n = " + "; ".join("(" + ", ".join(r) + ")" for r in _mat(trip.n)),
        f"a = ({', '.join(_vec(trip.a))})",
        f"b = ({', '.join(_vec(trip.b))})",
        f"forced b = -2 n a = ({', '.join(_vec(fb))})"
        + ("  [matches]" if matches else "  [differs: not an algebra]"),
        f"t = 4 n a + 2 b = ({', '.join(_vec(t))})",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_classify(args):
    spec = _load_spec(args)
    if spec.dim != 3:
        raise _Usage(f"classify requires dim 3, got dim {spec.dim}")
    try:
        nf = classify(spec)
    except NotAnAlgebraError as exc:
        raise _Failure(f"not an omega-deformed Lie algebra: {exc}",
                       {"command": "classify", "valid": False,
                        "t": _vec(exc.t)}) from None
    nd, apat, brow = _canonical_row(nf.label.name)
    certs = nf.certificates
    p = nf.parameter
    report = {
        "command": "classify",
        "valid": True,
        "label": nf.label.name,
        "parameter": p,
        "certificates": {
            "n_inertia": list(certs.n_inertia.as_tuple()),
            "a_is_zero": certs.a_is_zero,
            "causal": certs.causal,
        },
        "canonical_row": {
            "n_diagonal": list(nd),
            "a": [x * (p if p is not None else 1) for x in apat],
            "b": [x * (p if p is not None else 1) for x in brow],
            "b_rule": "b = -2 n a",
        },
        "transform": [list(row) for row in nf.transform],
        "transform_error": nf.transform_error,
        "notes": list(nf.notes),
    }
    if args.json:  # the exact values print only here, and can pass the int-to-text limit
        trip = nf.decomposition
        report["decomposition"] = {"n": _mat(trip.n), "a": _vec(trip.a), "b": _vec(trip.b),
                                   "b_is_forced": True}
        report["exact_transform"] = _mat(nf.exact_transform)
    scaled = (lambda xs: "(" + ", ".join(f"{x * (p if p is not None else 1):g}" for x in xs) + ")")
    lines = [
        f"label: {nf.label}",
        "certificates: inertia {}; a {}; causal {}".format(
            certs.n_inertia.as_tuple(), "zero" if certs.a_is_zero else "nonzero", certs.causal),
        f"canonical row: n = diag{tuple(nd)}, a = {scaled(apat)}, b = {scaled(brow)}"
        "   [b = -2 n a]",
        f"transform error: {nf.transform_error:.3e} (tolerance {FLOAT_TOL:g})",
    ]
    lines.extend(f"note: {note}" for note in nf.notes)
    _emit(args, report, lines)
    return 0


def _parse_param(args):
    if args.param is None:
        return None
    try:  # p or p/q: Fraction() alone takes exponents, numerals of unbounded size
        return _as_rational(args.param, "--param")
    except DocumentError as exc:
        raise _Usage(str(exc)) from None


def _cmd_row(args):
    # generate and orbit-sample: the document of a table row or of a point on its orbit
    sample = {} if args.command == "generate" else {"seed": args.seed}
    try:
        spec = (orbit_sample if sample else generate)(args.label, _parse_param(args), **sample)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    if args.json:
        _emit(args, {"command": args.command, "label": args.label, "parameter": args.param,
                     **sample, "document": document_object(spec)}, [])
    else:
        sys.stdout.write(serialize(spec))
    return 0


def _cmd_tables(args):
    def rows(order, table_no):
        out = []
        for label in order:
            parametric = label in PARAMETRIC_LABELS
            spec = generate(label, 1 if parametric else None)
            nd, apat, brow = _canonical_row(label)
            row = {"label": label, "table": table_no,
                   "n_diagonal": list(nd), "a": _vec(apat), "b": _vec(brow),
                   "parametric": parametric,
                   "document": document_object(spec)}
            if parametric:
                row["parameter_note"] = "parametric family, emitted at parameter 1"
            out.append(row)
        return out

    first, second = rows(FIRST_TABLE_ORDER, 1), rows(SECOND_TABLE_ORDER, 2)
    if args.json:
        _emit(args, {"command": "tables", "first_table": first, "second_table": second}, [])
        return 0

    def grid(rows_):
        fmt = "  {:<8} {:<12} {:<14} {:<14} {}"
        yield fmt.format("label", "n diagonal", "a", "b", "")
        for r in rows_:
            mark = "parametric (at 1)" if r["parametric"] else ""
            yield fmt.format(r["label"], "(" + ", ".join(map(str, r["n_diagonal"])) + ")",
                             "(" + ", ".join(r["a"]) + ")", "(" + ", ".join(r["b"]) + ")", mark)

    print("table 1 (a = 0):")
    for line in grid(first):
        print(line)
    print()
    print("table 2 (a != 0, b = -2 n a):")
    for line in grid(second):
        print(line)
    for r in first + second:
        print()
        print(f"--- {r['label']} ---")
        sys.stdout.write(_dumps(r["document"]) + "\n")
    return 0


def _cmd_deformability(args):
    spec = _load_spec(args)
    if spec.dim < 3:
        raise _Usage(f"deformability requires dim >= 3, got dim {spec.dim}")
    result = check_deformability(spec)
    report = {"command": "deformability", "dim": spec.dim,
              "deformable": result.compatible}
    if result.compatible:
        cand = result.spec.omega_upper
        report["candidate_omega"] = [[i + 1, j + 1, _rat_str(v)] for (i, j), v in cand.items()]
        report["matches_document_omega"] = cand == spec.omega_upper
        lines = ["deformable: the trace candidate omega closes the deformed Jacobi identity"]
        entries = report["candidate_omega"]
        lines.append("candidate omega entries (i, j, value): "
                     + (", ".join(f"({i}, {j}, {v})" for i, j, v in entries) if entries else "none (omega = 0)"))
        lines.append("matches the omega stored in the document"
                     if report["matches_document_omega"]
                     else "differs from the omega stored in the document")
        _emit(args, report, lines)
        return 0
    lines = ["not deformable: no omega closes the deformed Jacobi identity",
             "defect of the unique trace candidate:"]
    _residual_report(args, result.defect, report, "defect_components", lines)
    _emit(args, report, lines)
    return 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
#
# One command table feeds both routes: ``_build_parser`` builds the argparse
# parser from it, and ``_read_plain`` reads its plain command lines straight
# into the namespace that parser would build.

_OPTIONS = {  # option -> add_argument keywords
    "--json": {"action": "store_true",
               "help": "emit a machine-readable JSON report (schema-versioned)"},
    "--force-omega": {"action": "store_true",
                      "help": "replace the supplied omega by the forced one first"},
    "--param": {"metavar": "P", "default": None,
                "help": "positive rational parameter for parametric rows"},
    "--seed": {"type": int, "required": True, "metavar": "N",
               "help": "seed for the deterministic sampler"},
}
_POSITIONALS = {  # metavar -> (dest, add_argument keywords)
    "FILE": ("file", {"nargs": "?", "default": "-", "metavar": "FILE",
                      "help": "document path, or - for standard input (default)"}),
    "LABEL": ("label", {"metavar": "LABEL", "help": "table row name, e.g. IX_a"}),
}
# name -> (handler, help, positional, options after --json), in help order;
# the options are added after the positional, as argparse lists missing ones
_COMMANDS = {
    "validate": (_cmd_validate, "check the deformed Jacobi identity (prints t for dim 3)",
                 "FILE", ("--force-omega",)),
    "decompose": (_cmd_decompose, "decompose a dim-3 spec into (n, a, b)",
                  "FILE", ("--force-omega",)),
    "classify": (_cmd_classify, "classify a dim-3 spec onto its normal-form table row",
                 "FILE", ("--force-omega",)),
    "generate": (_cmd_row, "print the canonical document of a table row",
                 "LABEL", ("--param",)),
    "orbit-sample": (_cmd_row, "print a seeded random transport of a table row",
                     "LABEL", ("--param", "--seed")),
    "tables": (_cmd_tables, "re-emit both normal-form tables as a grid plus documents",
               None, ()),
    "deformability": (_cmd_deformability,
                      "check whether a bracket (dim >= 3) admits a compatible omega",
                      "FILE", ("--force-omega",)),
}


@functools.cache
def _build_parser():
    # Built once per process: argparse looks up sys.stdout and sys.stderr
    # when it prints, not when it is built, so swapped streams still work.
    parser = argparse.ArgumentParser(
        prog="omegalie",
        description="Exact tools for omega-deformed Lie algebras: validation, "
                    "(n, a, b) decomposition, Bianchi-style classification, "
                    "normal-form tables, and orbit sampling.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, help_, positional, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--json", **_OPTIONS["--json"])
        if positional:
            dest, keywords = _POSITIONALS[positional]
            p.add_argument(dest, **keywords)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler)
    return parser


def _plain_routes():
    # name -> (namespace defaults, option -> (dest, converter, or None for a
    # flag), positional dest, dests a plain line must set)
    routes = {}
    for name, (handler, _, positional, options) in _COMMANDS.items():
        defaults, readers, required = {"command": name, "handler": handler}, {}, []
        for option in ("--json", *options):
            keywords, dest = _OPTIONS[option], option[2:].replace("-", "_")
            flag = keywords.get("action") == "store_true"
            readers[option] = dest, None if flag else keywords.get("type", str)
            if keywords.get("required"):
                required.append(dest)
            else:
                defaults[dest] = False if flag else keywords["default"]
        dest, keywords = _POSITIONALS.get(positional, (None, {}))
        if keywords.get("nargs") == "?":
            defaults[dest] = keywords["default"]
        elif dest:
            required.append(dest)
        routes[name] = defaults, readers, dest, tuple(required)
    return routes


_PLAIN = _plain_routes()


def _read_plain(argv):
    """The namespace argparse builds for ``argv``, when argv is a plain line
    of the command table: a command, its own options spelled out in full, at
    most one positional, and no value but ``-`` that starts with ``-``.
    None for every other argv."""
    if not argv or (route := _PLAIN.get(argv[0])) is None:
        return None
    defaults, readers, positional, required = route
    values, placed, rest = dict(defaults), False, iter(argv[1:])
    for arg in rest:
        if (reader := readers.get(arg)) is not None:
            dest, convert = reader
            if convert is None:
                values[dest] = True
                continue
            value = next(rest, "--")  # argparse reads a missing value as an option
            if value[:1] == "-" and value != "-":
                return None
            try:
                values[dest] = convert(value)
            except ValueError:  # argparse's "invalid int value"
                return None
        elif placed or positional is None or arg[:1] == "-" and arg != "-":
            return None
        else:
            values[positional], placed = arg, True
    if not all(dest in values for dest in required):
        return None
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 not an algebra, 2 usage)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (DocumentError, _Usage, FloatRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a backstop: no bound on the work is read before it starts
        print("error: out of memory", file=sys.stderr)
        return 2
    except _Failure as exc:
        if args.json:
            _emit(args, {**exc.report, "error": str(exc)}, [])
        else:
            print(f"invalid: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
