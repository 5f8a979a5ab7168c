"""Document format and command-line behavior, including exit codes."""

import collections
import io
import itertools
import json
import math
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie import (FIRST_TABLE_ORDER, PARAMETRIC_LABELS, SECOND_TABLE_ORDER,
                      AlgebraSpec, DocumentError, NotAnAlgebraError,
                      ResidualTensor, classify, classify3d, decomp3d, generate,
                      orbit_sample, parse, rational, serialize)
from omegalie.io_cli import (_REPORT, SCHEMA_VERSION, _build_parser, _dumps,
                             _force_omega, _read_plain, document_object, main, run)
from oracles import (c_tensor, dual_forced, dual_forced_b, fraction_decompose,
                     omega_matrix, spec_from_dense, with_omega)
from test_decomp3d import rand_spec


# --- parse -----------------------------------------------------------------

def test_parse_type_ii_document():
    text = '{"dim": 3, "c_entries": [[2, 3, 1, "1"]], "omega_entries": []}'
    assert parse(text) == generate("II")


def test_parse_empty_document_is_abelian():
    text = '{"dim": 3, "c_entries": [], "omega_entries": []}'
    assert parse(text) == AlgebraSpec.from_entries(3)


def test_parse_reduces_to_lowest_terms():
    text = '{"dim": 3, "c_entries": [[1, 2, 1, "2/4"]], "omega_entries": []}'
    s = parse(text)
    assert c_tensor(s)[0][0][1] == Fraction(1, 2)
    assert '"1/2"' in serialize(s)


def test_parse_accepts_meta_and_bare_integers():
    text = '{"dim": 3, "c_entries": [[1, 2, 1, -3]], "omega_entries": [], "meta": {"x": 1}}'
    assert c_tensor(parse(text))[0][0][1] == -3


BAD_INDEX_DOCUMENTS = (
    '{"dim": 3, "c_entries": [[1.5, 2, 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [[1, "2", 3, "1"]], "omega_entries": []}',
    '{"dim": 3, "c_entries": [], "omega_entries": [[1, true, "1"]]}',
)


def test_parse_error_catalog():
    cases = [
        ("not json", "syntax error at line 1"),
        ("[1, 2]", "must be a JSON object"),
        ('{"dim": 3}', "missing document keys"),
        ('{"dim": 3, "c_entries": [], "omega_entries": [], "extra": 1}', "unknown document keys"),
        ('{"dim": 0, "c_entries": [], "omega_entries": []}', "dim must be a positive integer"),
        ('{"dim": 3, "c_entries": [[1, 2, 3]], "omega_entries": []}', "expected"),
        ('{"dim": 3, "c_entries": [[2, 1, 3, "1"]], "omega_entries": []}', "requires i < j"),
        ('{"dim": 3, "c_entries": [[1, 4, 3, "1"]], "omega_entries": []}', "out of range"),
        ('{"dim": 3, "c_entries": [[1, 2, 3, "1/0"]], "omega_entries": []}', "malformed rational"),
        ('{"dim": 3, "c_entries": [[1, 2, 3, "1.5"]], "omega_entries": []}', "malformed rational"),
        ('{"dim": 3, "c_entries": [[1, 2, 3, "2\\n"]], "omega_entries": []}', "malformed rational"),
        ('{"dim": 3, "c_entries": [[1, 2, 3, 1.5]], "omega_entries": []}', "values must be rational"),
        ('{"dim": 3, "c_entries": [[1, 2, 3, "1"], [1, 2, 3, "2"]], "omega_entries": []}', "duplicate"),
        ('{"dim": 3, "c_entries": [], "omega_entries": [[1, 2, "1"], [1, 2, "1"]]}', "duplicate"),
        ('{"dim": 3, "c_entries": {}, "omega_entries": []}', "must be a list"),
        *((doc, "indices must be integers") for doc in BAD_INDEX_DOCUMENTS),
        # the first error in document order: c_entries before omega_entries is read
        ('{"dim": 3, "c_entries": [[1, 2, 3, "1.5"]], "omega_entries": "x"}',
         r"^c_entries\[0\]: malformed rational '1\.5'; write 'p' or 'p/q'$"),
    ]
    for text, fragment in cases:
        with pytest.raises(DocumentError, match=fragment):
            parse(text)


def test_rational_values_read_as_fraction_reads_them():
    # the grammar's capture groups give the terms Fraction's own parser would
    for value in ("0", "-0", "-00", "007/14", "-12/8", "3/1", "\u0661\u0662", "5/1\u0660",
                  "9" * 4299, "-1/" + "7" * 4299):
        x = rational(value)
        assert type(x) is Fraction and x == Fraction(value), value
    for value in ("9" * 4301, "1/" + "9" * 4301):
        with pytest.raises(ValueError, match="^rational has too many digits$"):
            rational(value)


# --- serialize ---------------------------------------------------------------

def test_serialize_type_v_entries():
    doc = document_object(generate("V"))
    assert doc["c_entries"] == [[1, 3, 1, "-1"], [2, 3, 2, "-1"]]
    assert doc["omega_entries"] == []


def test_serialize_abelian_is_empty():
    doc = document_object(AlgebraSpec.from_entries(3))
    assert doc == {"dim": 3, "c_entries": [], "omega_entries": []}


def test_serialize_orders_entries_canonically():
    doc = document_object(generate("VIII_na", 2))
    assert doc["c_entries"] == sorted(doc["c_entries"], key=lambda e: (e[0], e[1], e[2]))
    assert doc["omega_entries"] == sorted(doc["omega_entries"], key=lambda e: (e[0], e[1]))


def test_round_trip_is_byte_stable():
    for label in ("I", "V", "VI_n", "VIII_na", "IX_a"):
        p = 2 if label in ("VIII_na", "IX_a") else None
        text = serialize(generate(label, p))
        assert serialize(parse(text)) == text


def test_round_trip_is_structural_on_random_specs():
    rng = random.Random(51)
    for _ in range(60):
        s = rand_spec(rng)
        assert parse(serialize(s)) == s
        # the dense tensors read back to the store, and the store is exact
        assert spec_from_dense(c_tensor(s), omega_matrix(s)) == s
        for store in (s.c_upper, s.omega_upper, parse(serialize(s)).c_upper):
            assert all(type(v) is Fraction for v in store.values())


# --- CLI ---------------------------------------------------------------------


def write_doc(tmp_path, spec, name="alg.json"):
    path = tmp_path / name
    path.write_text(serialize(spec), encoding="utf-8")
    return str(path)


def json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, generate("IX_a", Fraction(1, 2)))
    assert run(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "t = (0, 0, 0)" in out


def test_cli_validate_invalid_exit_1(tmp_path, capsys):
    bad = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    path = write_doc(tmp_path, bad)
    assert run(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out and "residual[m=3 l=1 j=2 k=3] = 1/3" in out


def test_cli_validate_json_report(tmp_path, capsys):
    path = write_doc(tmp_path, generate("VI_n"))
    assert run(["validate", "--json", path]) == 0
    report = json_out(capsys)
    assert report["schema"] == SCHEMA_VERSION
    assert report["valid"] is True
    assert report["t"] == ["0", "0", "0"]


def test_cli_reads_stdin_by_default(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize(generate("II"))))
    assert run(["classify"]) == 0
    assert "label: II" in capsys.readouterr().out


def test_cli_decompose(tmp_path, capsys):
    path = write_doc(tmp_path, generate("VIII_a", 1))
    assert run(["decompose", "--json", path]) == 0
    report = json_out(capsys)
    assert report["a"] == ["0", "0", "1"]
    assert report["b"] == ["0", "0", "2"]
    assert report["b_is_forced"] is True
    assert report["n"][2] == ["0", "0", "-1"]


def test_decompose_and_classify_build_one_int_view(tmp_path, monkeypatch):
    # (n, a, b) and t come from one int view of the store, in the decompose
    # command as in classify, also after --force-omega, and validate reads t
    # and the residual off one view; the counter replaces every binding of _view
    original, calls = decomp3d._view, []

    def counted(spec):
        calls.append(spec)
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("omegalie") and getattr(module, "_view", None) is original:
            monkeypatch.setattr(module, "_view", counted)
    bumped = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    for spec in (generate("VIII_a", 1), orbit_sample("VI_y", seed=4), bumped):
        path = write_doc(tmp_path, spec)
        for argv in (["decompose", path], ["decompose", "--json", path],
                     ["decompose", "--force-omega", path], ["classify", "--force-omega", path]):
            calls.clear()
            assert run(argv) == 0
            assert len(calls) == 1, argv
        for argv in (["validate", path], ["validate", "--json", path]):
            calls.clear()
            assert run(argv) == (1 if spec is bumped else 0)
            assert len(calls) == 1, argv
        calls.clear()
        try:
            classify(spec)
        except NotAnAlgebraError:
            assert spec is bumped
        assert len(calls) == 1


def test_cli_decompose_wrong_dim_exit_2(tmp_path, capsys):
    path = tmp_path / "d4.json"
    path.write_text('{"dim": 4, "c_entries": [], "omega_entries": []}')
    assert run(["decompose", str(path)]) == 2
    assert "requires dim 3" in capsys.readouterr().err


def test_cli_classify_json(tmp_path, capsys):
    path = write_doc(tmp_path, generate("VIII_xa", Fraction(3, 2)))
    assert run(["classify", "--json", path]) == 0
    report = json_out(capsys)
    assert report["label"] == "VIII_xa"
    assert abs(report["parameter"] - 1.5) < 1e-9
    assert report["certificates"]["causal"] == "spacelike"
    assert report["canonical_row"]["b_rule"] == "b = -2 n a"
    assert report["transform_error"] < 1e-9


def test_cli_classify_reports_the_exact_transform(tmp_path, capsys):
    spec = orbit_sample("VIII_a", Fraction(3, 2), seed=9)
    assert run(["classify", "--json", write_doc(tmp_path, spec)]) == 0
    exact = classify(spec).exact_transform
    assert json_out(capsys)["exact_transform"] == [[str(x) for x in row] for row in exact.rows]


def test_cli_classify_outside_the_float_range_exits_2(monkeypatch):
    # a valid IX algebra with n = b I: its transform is about 1/b
    for b, code in ((10 ** 103, 0), (Fraction(1, 10 ** 400), 2), (10 ** 400, 2)):
        text = json.dumps({"dim": 3, "c_entries": [[2, 3, 1, str(b)], [1, 3, 2, str(-b)],
                                                   [1, 2, 3, str(b)]], "omega_entries": []})
        for argv in (["classify", "--json"], ["classify"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert run(argv) == code, (b, argv)
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: "), (b, argv)
                assert "Traceback" not in err.getvalue()
    # an IX_a parameter below the float range, through orbit-sample
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["orbit-sample", "IX_a", "--param", "1/1" + "0" * 350, "--seed", "0"]) == 0
    for argv in (["classify", "--json"], ["classify"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(out.getvalue()))
        stdout, err = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(err):
            assert run(argv) == 2, argv
        assert stdout.getvalue() == "" and err.getvalue().startswith("error: "), argv


def test_cli_classify_reports_the_tolerance_note(monkeypatch):
    # a transform_error past FLOAT_TOL is reported: in the normal form's notes,
    # in the --json notes and as a human note: line
    monkeypatch.setattr(classify3d, "FLOAT_TOL", -1.0)
    spec = orbit_sample("IX_a", Fraction(3, 2), seed=1)
    nf = classify(spec)
    note = f"canonical transform check exceeded tolerance: max deviation {nf.transform_error:.3e}"
    assert note in nf.notes
    code, out, _ = run_streams(["classify", "--json"], serialize(spec))
    assert code == 0 and note in json.loads(out)["notes"]
    code, out, _ = run_streams(["classify"], serialize(spec))
    assert code == 0 and f"note: {note}" in out.splitlines()


def test_cli_classify_viii_na_reports_the_parameter_1_row(tmp_path, capsys):
    path = write_doc(tmp_path, orbit_sample("VIII_na", Fraction(5, 2), seed=3))
    assert run(["classify", "--json", path]) == 0
    report = json_out(capsys)
    assert report["label"] == "VIII_na"
    assert report["parameter"] is None
    assert report["canonical_row"]["a"] == [1, 0, 1]
    assert report["canonical_row"]["b"] == [-2, 0, 2]
    assert report["transform_error"] < 1e-9
    assert any("one orbit" in note for note in report["notes"])
    assert run(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "label: VIII_na\n" in out and "a = (1, 0, 1)" in out


def test_cli_classify_not_an_algebra_exit_1(tmp_path, capsys):
    bad = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    path = write_doc(tmp_path, bad)
    assert run(["classify", "--json", path]) == 1
    report = json_out(capsys)
    assert report["valid"] is False
    assert report["t"] == ["0", "0", "2"]


def test_cli_classify_force_omega(tmp_path, capsys):
    bad = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    path = write_doc(tmp_path, bad)
    assert run(["classify", "--force-omega", path]) == 0
    assert "label: IX" in capsys.readouterr().out


def test_cli_force_omega_dim2_exit_2(tmp_path, capsys):
    # the message names the document's own dim
    for dim, c_entries in ((2, '[[1, 2, 1, "1"]]'), (1, "[]")):
        path = tmp_path / f"d{dim}.json"
        path.write_text(f'{{"dim": {dim}, "c_entries": {c_entries}, "omega_entries": []}}')
        assert run(["validate", "--force-omega", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: --force-omega requires dim >= 3; in dim {dim} every omega "
            "is compatible, so no forced form exists\n")


def cli(argv, doc):
    """(exit code, stdout) of one in-process run on the document text doc."""
    out, stdin = io.StringIO(), sys.stdin
    try:
        sys.stdin = io.StringIO(doc)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def assert_force_and_decompose_follow_the_dual_route(spec):
    # --force-omega writes the document of reconstruct(NabTriple(n, a, -2 n a)),
    # and decompose reports the forced b and b_is_forced of the dual route,
    # on the store as given and with omega bumped at (1, 2)
    ref = dual_forced(spec)
    assert serialize(_force_omega(spec)) == serialize(ref)
    code, out = cli(["decompose", "--json", "--force-omega"], serialize(spec))
    report, trip = json.loads(out), fraction_decompose(ref)
    assert code == 0 and report["b_is_forced"] is True
    assert report["b"] == report["forced_b"] == [str(x) for x in trip.b]
    assert report["n"] == [[str(x) for x in r] for r in trip.n.rows]
    assert report["a"] == [str(x) for x in trip.a]
    bumped = with_omega(spec, {**spec.omega_upper, (0, 1): spec.omega_upper.get((0, 1), 0) + 1})
    for store in (spec, bumped):
        code, out = cli(["decompose", "--json"], serialize(store))
        report = json.loads(out)
        fb, is_forced = dual_forced_b(store)
        assert code == 0
        assert (report["forced_b"], report["b_is_forced"]) == ([str(x) for x in fb], is_forced)


def test_cli_force_omega_follows_the_dual_route_on_every_row():
    # all 19 rows at seeds 0-3, parametric rows at 3/2 and 10**40/7, as sampled
    # and with omega dropped; then integral brackets with omega_12 = 1/2
    for label in FIRST_TABLE_ORDER + SECOND_TABLE_ORDER:
        params = (Fraction(3, 2), Fraction(10 ** 40, 7)) if label in PARAMETRIC_LABELS else (None,)
        for param in params:
            for seed in range(4):
                spec = orbit_sample(label, param, seed=seed)
                for store in (spec, with_omega(spec, {})):
                    assert_force_and_decompose_follow_the_dual_route(store)
    for c in ([(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)],
              [(1, 2, 1, 3), (1, 2, 2, -1), (1, 3, 3, 2), (2, 3, 1, 5), (2, 3, 3, -4)]):
        assert_force_and_decompose_follow_the_dual_route(
            AlgebraSpec.from_entries(3, c, [(1, 2, Fraction(1, 2))]))


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_C_KEYS = [(i, j, k) for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3)]


@st.composite
def coprime_brackets(draw):
    # a dim-3 store, each value over its own prime: no power of c's common
    # denominator clears omega's
    dens = draw(st.permutations(_PRIMES))
    nums = draw(st.lists(st.integers(-9, 9), min_size=12, max_size=12))
    values = [Fraction(x, d) for x, d in zip(nums, dens)]
    return AlgebraSpec.from_entries(
        3, [(*key, v) for key, v in zip(_C_KEYS, values)],
        [(i, j, v) for (i, j), v in zip(((1, 2), (1, 3), (2, 3)), values[9:])])


@given(coprime_brackets())
@settings(deadline=None, max_examples=60)
def test_cli_force_omega_follows_the_dual_route_on_coprime_brackets(spec):
    assert_force_and_decompose_follow_the_dual_route(spec)


def test_cli_generate_pipes_into_parse(capsys):
    assert run(["generate", "VI_a", "--param", "1/2"]) == 0
    text = capsys.readouterr().out
    assert parse(text) == generate("VI_a", Fraction(1, 2))


def test_cli_generate_errors_exit_2(capsys):
    assert run(["generate", "NOPE"]) == 2
    assert "unknown label" in capsys.readouterr().err
    assert run(["generate", "VIII_a"]) == 2
    assert "requires a positive parameter" in capsys.readouterr().err
    assert run(["generate", "VIII_a", "--param", "x"]) == 2
    assert "--param" in capsys.readouterr().err


def test_cli_param_follows_the_document_grammar(capsys):
    # only 'p' or 'p/q': an exponent form would ask for a numeral of any
    # size (1e4000000 has four million digits) before anything checks it
    # a whole-string match: "$" alone would also match before a final newline
    for value in ("1e4000000", "0.5", "1_000", " 2", "2\n", "1/2\n"):
        assert run(["generate", "IX_a", "--param", value]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error: --param: malformed rational"), (value, err)
    assert run(["generate", "IX_a", "--param", "9" * 5000]) == 2
    assert "--param: rational has too many digits" in capsys.readouterr().err
    for value, code in (("1/2", 0), ("-3", 2), ("9" * 4299, 0)):
        assert run(["generate", "IX_a", "--param", value]) == code, value
        assert capsys.readouterr().err.startswith("error: ") == bool(code), value


def test_cli_document_value_with_a_trailing_newline_exits_2(monkeypatch):
    for value, code in (('"2\\n"', 2), ('"2"', 1), ('"1/2"', 1), ('"-3"', 1)):
        text = f'{{"dim": 3, "c_entries": [[1, 2, 3, {value}]], "omega_entries": [[1, 2, "1"]]}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(["validate", "--json"]) == code, value
        if code == 2:
            assert out.getvalue() == "" and "malformed rational" in err.getvalue()
            assert "Traceback" not in err.getvalue()


def test_cli_orbit_sample_deterministic(capsys):
    assert run(["orbit-sample", "IX", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["orbit-sample", "IX", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert parse(first) != generate("IX")  # genuinely moved off the table row


def test_cli_orbit_sample_requires_seed(capsys):
    assert run(["orbit-sample", "IX"]) == 2


def test_cli_tables_documents_all_validate(capsys):
    assert run(["tables", "--json"]) == 0
    report = json_out(capsys)
    rows = report["first_table"] + report["second_table"]
    assert len(rows) == 19
    assert [r["label"] for r in report["first_table"]] == [
        "I", "II", "VI0", "VII0", "VIII", "IX"]
    for row in rows:
        text = json.dumps(row["document"], indent=2, sort_keys=True) + "\n"
        assert serialize(parse(text)) == text  # byte-stable round trip
    parametric = [r["label"] for r in rows if r["parametric"]]
    assert parametric == ["VI_a", "VII_a", "VIII_a", "VIII_xa", "VIII_na", "IX_a"]
    for r in rows:
        if r["parametric"]:
            assert "parameter" in r["parameter_note"]


def test_cli_tables_rows_validate_exit_0(tmp_path, capsys):
    assert run(["tables", "--json"]) == 0
    report = json_out(capsys)
    for row in report["first_table"] + report["second_table"]:
        path = tmp_path / f"{row['label']}.json"
        path.write_text(json.dumps(row["document"]), encoding="utf-8")
        assert run(["validate", str(path)]) == 0, row["label"]
        capsys.readouterr()


def test_cli_tables_human_grid(capsys):
    assert run(["tables"]) == 0
    out = capsys.readouterr().out
    assert "table 1 (a = 0):" in out
    assert "table 2 (a != 0, b = -2 n a):" in out
    assert "--- IX_a ---" in out


def test_cli_deformability(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text('{"dim": 4, "c_entries": [[1, 4, 1, "-1"], [2, 4, 2, "-1"], '
                  '[3, 4, 3, "-1"]], "omega_entries": []}')
    assert run(["deformability", "--json", str(ok)]) == 0
    report = json_out(capsys)
    assert report["deformable"] is True and report["matches_document_omega"] is True

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 4, "c_entries": [[1, 4, 1, "-1"], [2, 4, 2, "-1"], '
                   '[3, 4, 3, "-1"], [1, 2, 3, "1"]], "omega_entries": []}')
    assert run(["deformability", "--json", str(bad)]) == 1
    report = json_out(capsys)
    assert report["deformable"] is False
    assert report["defect_components"]

    d2 = tmp_path / "d2.json"
    d2.write_text('{"dim": 2, "c_entries": [], "omega_entries": []}')
    assert run(["deformability", str(d2)]) == 2


def test_cli_parse_failures_exit_2(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "absent.json")
    assert run(["validate", missing]) == 2
    assert "cannot read" in capsys.readouterr().err
    garbled = tmp_path / "g.json"
    garbled.write_text("{")
    assert run(["validate", str(garbled)]) == 2
    assert "syntax error" in capsys.readouterr().err
    for text in BAD_INDEX_DOCUMENTS:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["validate", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "indices must be integers, got" in captured.err
    nest = "[" * 100000 + "]" * 100000
    for text in (nest, '{"dim": 3, "c_entries": [], "omega_entries": [], "meta": %s}' % nest):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["validate", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "nests" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_refuses_text_that_is_not_utf8(source, tmp_path, capsys, monkeypatch):
    # stdin under a strict decoder, as Python sets up in UTF-8 locales: one line, exit 2
    path = "-"
    if source == "file":
        path = str(tmp_path / "bad.json")
        Path(path).write_bytes(b"\xff{}")
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff{}"), encoding="utf-8"))
    assert run(["validate", "--json", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: cannot read {path}: not UTF-8 text\n"


def test_cli_usage_errors_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    # options are accepted only by the subcommands that read them
    assert run(["generate", "II", "--force-omega"]) == 2
    assert run(["tables", "--float-tol", "5"]) == 2


def test_main_exits_with_the_code_run_returns(tmp_path, capsys):
    # the console script's entry point: main prints what run prints, then exits with its code
    missing = str(tmp_path / "absent.json")
    for argv, code in ((["tables"], 0), (["validate", missing], 2)):
        assert run(argv) == code
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == printed

def test_cli_numerals_beyond_the_int_digit_limit_exit_2(monkeypatch):
    huge = "1" * 5000
    for value in (f'"{huge}"', f'"1/{huge}"', huge):
        text = f'{{"dim": 3, "c_entries": [[1, 2, 3, {value}]], "omega_entries": []}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(["validate", "--json"]) == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and "too many digits" in err.getvalue()
        assert "Traceback" not in err.getvalue()


def test_cli_report_values_beyond_the_int_digit_limit_exit_2(monkeypatch):
    # every input is under the limit, but the residual, the trace candidate
    # and t hold products of two 3,000-digit entries
    big = "7" * 3000
    dim4 = json.dumps({"dim": 4, "c_entries": [[1, 2, 3, big], [3, 4, 1, big]],
                       "omega_entries": []})
    dim3 = json.dumps({"dim": 3, "c_entries": [[1, 2, 3, big], [2, 3, 2, big]],
                       "omega_entries": [[1, 2, "1"]]})
    for text, argv in ((dim4, ["validate", "--json"]), (dim4, ["validate"]),
                       (dim4, ["deformability", "--json"]), (dim4, ["deformability"]),
                       (dim3, ["classify", "--json"]),
                       (dim3, ["deformability", "--json"]),
                       # transported entries grow a few digits past a parameter's
                       ("", ["orbit-sample", "IX_a", "--param", "9" * 4299, "--seed", "0"]),
                       ("", ["orbit-sample", "IX_a", "--param", "9" * 4299, "--seed", "0",
                             "--json"]),
                       ("", ["orbit-sample", "VIII_na", "--param", "1/" + "9" * 4299,
                             "--seed", "1"])):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(argv) == 2, argv
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: ") and "digits" in err.getvalue(), argv
    # human classify prints only its message, which writes t through _brief
    monkeypatch.setattr("sys.stdin", io.StringIO(dim3))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(["classify"]) == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("invalid: not an omega-deformed Lie algebra: ")
    assert "<more digits than the int-to-text limit>" in err.getvalue()


def tall_document(seed, digits=150):
    """A dim-3 document text of 9 c entries p/q, each p and q of ``digits``
    digits, the denominators pairwise coprime, and no omega."""
    rng = random.Random(seed)
    dens = []
    while len(dens) < 9:
        den = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if all(math.gcd(den, d) == 1 for d in dens):
            dens.append(den)
    keys = [(i, j, k) for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3)]
    c = [[*key, f"{rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)}/{den}"]
         for key, den in zip(keys, dens)]
    return json.dumps({"dim": 3, "c_entries": c, "omega_entries": []})


def test_human_classify_formats_only_what_it_prints(monkeypatch):
    # a 2.9 KB document whose exact_transform passes the int-to-text digit
    # limit: the human report prints no exact value, so it classifies; the
    # JSON report still exits 2 with the message
    doc = tall_document(0)
    assert len(doc) < 3000
    for argv, code in ((["classify", "--force-omega"], 0),
                       (["classify", "--json", "--force-omega"], 2)):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(argv) == code, argv
        if code == 0:
            assert out.getvalue().startswith("label: VIII_xa(") and err.getvalue() == ""
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: a result value has more digits than the "
                                             "integer-to-text conversion limit")


_MODE_DOCS = {
    "valid dim 3": serialize(orbit_sample("VIII_a", Fraction(3, 2), seed=2)),
    "invalid dim 3": serialize(AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])),
    "sparse dim 5": serialize(AlgebraSpec.from_entries(
        5, [(1, 5, 1, -1), (2, 5, 2, -1), (3, 5, 3, -1), (1, 2, 3, 1), (1, 3, 4, "2/3")],
        [(4, 5, Fraction(1, 2))])),
}


def run_streams(argv, doc):
    """(exit code, stdout, stderr) of one in-process run on the document text doc."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    try:
        sys.stdin = io.StringIO(doc)
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_cli_diff_error_set_reaches_one_message_per_case():
    # tools/cli_diff.py compares these outputs byte for byte between two trees:
    # a case that stopped exiting 2 with its own message would pin nothing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        import cli_diff
    finally:
        sys.path.pop(0)
    cases = [(["validate", "--json"], doc) for doc in cli_diff.MALFORMED_DOCUMENTS]
    cases += [([command, *row, *seed], "") for command, seed in (("generate", []),
              ("orbit-sample", ["--seed", "1"])) for row in cli_diff.ROW_ERRORS]
    messages = []
    for argv, doc in cases + [(["classify", cli_diff.MISSING_FILE], "")]:
        code, out, err = run_streams(argv, doc)
        assert code == 2 and out == "" and err.startswith("error: "), (argv, err)
        assert err.count("\n") == 1 and "Traceback" not in err
        messages.append((argv[0], err))
    # the last document repeats an earlier message: it pins which of two errors is read
    last = len(cli_diff.MALFORMED_DOCUMENTS) - 1
    assert messages[last] in messages[:last] and len(set(messages)) == len(messages) - 1


def assert_residual_lines(lines, components):
    # the human text lists the first 20 components of the JSON report and counts the rest
    shown = [f"  residual[m={m} l={l} j={j} k={k}] = {c['value']}"
             for c in components[:20] for m, l, j, k in [c["indices"]]]
    more = [f"  ... and {len(components) - 20} more"] if len(components) > 20 else []
    assert [x for x in lines if x.startswith(("  residual[", "  ... and"))] == shown + more


@pytest.mark.parametrize("doc", list(_MODE_DOCS))
@pytest.mark.parametrize("command", ["validate", "decompose", "classify", "deformability"])
def test_human_text_shows_the_json_report(command, doc):
    # both modes render one report: the human text shows the report's verdict,
    # label and t, or its residual components
    code, out, err = run_streams([command], _MODE_DOCS[doc])
    code_js, out_js, err_js = run_streams([command, "--json"], _MODE_DOCS[doc])
    assert code == code_js
    if code == 2:  # decompose and classify in dim 5
        assert out == out_js == "" and err == err_js and "requires dim 3" in err
        return
    report, lines = json.loads(out_js), out.splitlines()
    t = "(" + ", ".join(report.get("t", ())) + ")"
    if "error" in report:  # classify on the invalid document
        assert (code, out, err) == (1, "", f"invalid: {report['error']}\n")
        assert f"t = 4 n a + 2 b = {t}" in err and report["t"] != ["0", "0", "0"]
    elif command == "validate":
        assert lines[0].startswith("valid:" if report["valid"] else "invalid:")
        assert (f"t = {t}" in lines) == ("t" in report) == (report["dim"] == 3)
        assert_residual_lines(lines, report.get("nonzero_residual_components", []))
    elif command == "decompose":
        assert lines[-1] == f"t = 4 n a + 2 b = {t}"
        assert lines[3].endswith("[matches]" if report["b_is_forced"] else "[differs: not an algebra]")
    elif command == "classify":
        p = report["parameter"]
        assert lines[0] == f"label: {report['label']}" + ("" if p is None else f"({p:.12g})")
        assert f"causal {report['certificates']['causal']}" in lines[1]
    else:
        assert lines[0].startswith("deformable:" if report["deformable"] else "not deformable:")
        if report["deformable"]:
            assert lines[1].endswith(", ".join(f"({i}, {j}, {v})"
                                               for i, j, v in report["candidate_omega"]))
        assert_residual_lines(lines, report.get("defect_components", []))


def test_cli_parser_is_reused_across_swapped_streams(monkeypatch):
    doc = serialize(generate("IX_a", 2))
    calls = [["validate", "--json"], ["no-such-command"], ["--help"],
             ["validate", "--help"], ["validate"], ["classify", "--float-tol"]]

    def call(argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        return code, out, err

    def read(results):
        # read every buffer after all calls: a later call writing to an
        # earlier call's stream would show here
        return [(code, out.getvalue(), err.getvalue()) for code, out, err in results]

    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    fresh = read(fresh)
    reused = read([call(argv) for argv in calls + calls])
    assert _build_parser.cache_info().misses == 1
    assert reused == fresh + fresh
    codes = [code for code, _, _ in fresh]
    assert codes == [0, 2, 0, 0, 0, 2]
    for code, out, err in fresh:
        assert out if code == 0 else (err and not out)


COMMANDS = ("validate", "decompose", "classify", "generate", "orbit-sample", "tables",
            "deformability")
# every option, its = form and prefixes, and values argparse reads in more than one way
ARGV_WORDS = COMMANDS + (
    "--json", "--force-omega", "--param", "--seed", "--json=", "--force-omega=1",
    "--param=3/2", "--seed=3", "--js", "--force", "--p", "--se", "--s", "-", "--", "-h",
    "--help", "-1", "-3", "-1/2", "-0", "3", "3/2", "10/4", " 3", "3 ", "1 2", "+3", "1_0",
    "x", "IX", "IX_a", "doc.json", "")


argv_words = st.sampled_from(ARGV_WORDS)


@st.composite
def command_lines(draw):
    # any words; or a command, one word where a positional may stand, and around it
    # options of that command (a value option with any word after it) or any words
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(argv_words, max_size=6))
    command = draw(st.sampled_from(COMMANDS))
    options = {"generate": ("--param",), "orbit-sample": ("--seed", "--param"),
               "tables": ()}.get(command, ("--force-omega",))
    pieces = draw(st.lists(st.one_of(
        st.sampled_from(("--json",) + options).flatmap(
            lambda option: st.tuples(st.just(option), argv_words).map(list)
            if option in ("--param", "--seed") else st.just([option])),
        argv_words.map(lambda word: [word])), max_size=4))
    pieces.insert(draw(st.integers(0, len(pieces))), [draw(argv_words)])
    return [command, *(word for piece in pieces for word in piece)]


@given(command_lines())
@settings(deadline=None, max_examples=1500)
def test_plain_command_lines_read_as_argparse_reads_them(argv):
    fast = _read_plain(argv)
    if fast is None:
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            slow = _build_parser().parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse refused {argv!r} (exit {exc.code}): {err.getvalue()}")
    assert vars(fast) == vars(slow)
    assert out.getvalue() == err.getvalue() == ""


# command -> (its options after --json, valid values of its positional)
PLAIN_GRAMMAR = {
    "validate": (("--force-omega",), ("-", "doc.json")),
    "decompose": (("--force-omega",), ("-", "doc.json")),
    "classify": (("--force-omega",), ("-", "doc.json")),
    "deformability": (("--force-omega",), ("-", "doc.json")),
    "generate": (("--param",), ("IX_a",)),
    "orbit-sample": (("--param", "--seed"), ("IX_a",)),
    "tables": ((), ()),
}


def test_every_plain_command_line_is_read_without_argparse():
    # each ordered subset of a command's options, with no positional or with one
    # at each place between them: _read_plain builds argparse's namespace, and
    # returns None only where argparse refuses the line (a required argument missing)
    words = {"--param": ["--param", "3/2"], "--seed": ["--seed", "3"]}
    read = 0
    for command, (options, positionals) in PLAIN_GRAMMAR.items():
        units = [words.get(option, [option]) for option in ("--json", *options)]
        for size in range(len(units) + 1):
            for chosen in itertools.permutations(units, size):
                for pieces in [chosen] + [chosen[:at] + ([word],) + chosen[at:]
                                          for at in range(size + 1) for word in positionals]:
                    argv = [command, *itertools.chain.from_iterable(pieces)]
                    fast = _read_plain(argv)
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        try:
                            slow = vars(_build_parser().parse_args(argv))
                        except SystemExit:
                            slow = None
                    assert (fast if fast is None else vars(fast)) == slow, argv
                    read += fast is not None
    assert read == 159


def test_benchmark_command_lines_never_build_the_parser(monkeypatch):
    # the argv shapes of the three benchmark workloads are read without argparse
    dim3 = serialize(orbit_sample("IX_a", Fraction(3, 2), seed=1))
    dim5 = serialize(AlgebraSpec.from_entries(5, [(1, 2, 3, 1)]))
    calls = [(["classify", "--json"], dim3), (["orbit-sample", "IX", "--seed", "7"], ""),
             (["orbit-sample", "IX_a", "--seed", "7", "--param", "3/2"], ""),
             (["validate", "--json"], dim3), (["validate", "--json"], dim5),
             (["deformability", "--json"], dim5)]
    _build_parser.cache_clear()
    for argv, doc in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        with redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    assert _build_parser.cache_info().misses == 0


def test_run_reads_sys_argv_on_both_routes(monkeypatch):
    # --js is not a plain line, so argparse reads it, as an abbreviation of --json
    doc = serialize(generate("IX_a", 2))
    results = []
    for argv in (["validate", "--json"], ["validate", "--js"]):
        monkeypatch.setattr("sys.argv", ["omegalie", *argv])
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        _build_parser.cache_clear()
        out = io.StringIO()
        with redirect_stdout(out):
            code = run()
        results.append((code, out.getvalue(), _build_parser.cache_info().misses))
    (code, out, direct), (code_js, out_js, parsed) = results
    assert code == code_js == 0 and out == out_js and json.loads(out)["valid"] is True
    assert (direct, parsed) == (0, 1)


def test_cli_out_of_memory_exits_2_without_traceback(monkeypatch):
    # a backstop only: run reads no bound on the work before it starts
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr("omegalie.classify3d.classify", exhausted)
    monkeypatch.setattr("omegalie.io_cli.residual", exhausted)
    dim3 = serialize(generate("IX_a", 2))
    dim4 = serialize(AlgebraSpec.from_entries(4, [(1, 2, 3, 1)]))
    for argv, doc in ((["classify", "--json"], dim3), (["validate"], dim4),
                      (["validate", "--js"], dim4)):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run(argv) == 2, argv
        assert out.getvalue() == "" and err.getvalue() == "error: out of memory\n", argv


def filiform_document(dim):
    """The filiform nilpotent algebra [e1, e_i] = e_{i+1}, i = 2..dim-1."""
    return serialize(AlgebraSpec.from_entries(
        dim, [(1, i, i + 1, 1) for i in range(2, dim)]))


def test_cli_dim24_filiform_within_budget(monkeypatch):
    # the cost of validate and deformability follows the stored structure
    # constants; a dense O(dim^5) residual takes tens of seconds on the
    # filiform algebra, and a dense dim^3 store seconds on the dim-120 ones
    docs = [(filiform_document(24), 2.0),
            (serialize(AlgebraSpec.from_entries(120)), 1.0),
            (serialize(AlgebraSpec.from_entries(120, [(1, 2, 1, 1), (3, 120, 5, "-2/3")])), 1.0)]
    for doc, budget in docs:
        for command, key in (("validate", "valid"), ("deformability", "deformable")):
            monkeypatch.setattr("sys.stdin", io.StringIO(doc))
            out = io.StringIO()
            started = time.perf_counter()
            with redirect_stdout(out):
                code = run([command, "--json"])
            elapsed = time.perf_counter() - started
            assert elapsed < budget, f"{command} overran: {elapsed:.2f}s >= {budget}s"
            assert code == 0
            assert json.loads(out.getvalue())[key] is True


def test_cli_never_reads_the_dense_views(monkeypatch):
    # every subcommand works on the i < j store alone: the package has no
    # dense c, omega or residual components to read, and every call below
    # still ends in a verdict, 0 or 1
    assert not any(hasattr(AlgebraSpec, name) for name in ("c", "omega"))
    assert not any(hasattr(ResidualTensor, name)
                   for name in ("components", "nonzero_components"))
    so3_bumped = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    heisenberg_twist = AlgebraSpec.from_entries(
        4, [(1, 4, 1, -1), (2, 4, 2, -1), (3, 4, 3, -1), (1, 2, 3, 1)])
    docs = [serialize(s) for s in (
        generate("IX_a", 2), orbit_sample("VIII_na", Fraction(5, 2), seed=3),
        orbit_sample("VI_y", seed=4), so3_bumped, heisenberg_twist,
        AlgebraSpec.from_entries(4, [(1, 4, 1, -1), (2, 4, 2, -1), (3, 4, 3, -1)]),
        AlgebraSpec.from_entries(120, [(1, 2, 1, 1), (3, 120, 5, "-2/3")], [(7, 9, 1)]))]
    calls = [(argv, "") for argv in (["generate", "VI_a", "--param", "1/2"],
                                     ["orbit-sample", "IX", "--seed", "7"], ["tables"])]
    for doc in docs:
        dim = json.loads(doc)["dim"]
        for command in ("validate", "deformability") + (("decompose", "classify") if dim == 3 else ()):
            calls += [([command, *force], doc) for force in ([], ["--force-omega"])]
    calls += [(argv + ["--json"], doc) for argv, doc in calls]

    codes = set()
    for argv, doc in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.add(run(argv))
    assert codes == {0, 1}


# --- run() on arbitrary input -------------------------------------------------

# numerals up to the 4,299 digits the parser converts, as strings or bare
numerals = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds(lambda digit, size, neg: "-" * neg + digit * size,
              st.sampled_from("123456789"), st.integers(1, 4299), st.booleans()),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


@st.composite
def documents(draw):
    # well-formed document text: dim 1-8, at most 12 entries in all
    dim = draw(st.integers(1, 8))
    index = st.integers(1, dim)
    pairs = st.tuples(index, index).filter(lambda ij: ij[0] < ij[1])
    c = draw(st.lists(st.tuples(pairs, index), max_size=8, unique=True)) if dim > 1 else []
    om = draw(st.lists(pairs, max_size=12 - len(c), unique=True)) if dim > 1 else []

    def value():
        numeral = draw(numerals)
        return numeral if draw(st.booleans()) else f'"{numeral}"'

    entries = [f"[{i}, {j}, {k}, {value()}]" for (i, j), k in c]
    omega = [f"[{i}, {j}, {value()}]" for i, j in om]
    return (f'{{"dim": {dim}, "c_entries": [{", ".join(entries)}], '
            f'"omega_entries": [{", ".join(omega)}]}}')


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=12), inner,
                                                                max_size=4),
    max_leaves=12).map(json.dumps)


@given(st.one_of(json_values, documents()))
@settings(deadline=None, max_examples=80)
def test_run_never_raises(text):
    stdin = sys.stdin
    try:
        for command in ("validate", "decompose", "classify", "deformability"):
            for mode in ([], ["--json"]):
                sys.stdin = io.StringIO(text)
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert run([command, *mode]) in (0, 1, 2)
    finally:
        sys.stdin = stdin


@st.composite
def entry_lists(draw):
    # (dim, c_entries, omega_entries) as a document decodes them: valid
    # entries mixed with wrong widths, bool, float and str indices, indices
    # out of range or with i >= j, bad numerals, floats, non-list entries and
    # lists, and duplicates in either list (dim 1-3 makes them frequent)
    dim = draw(st.integers(1, 3) | st.sampled_from([0, True, 2.0]))
    n = dim if type(dim) is int and dim > 0 else 3
    index = st.integers(1, n) | st.integers(-1, n + 2) | st.sampled_from([True, 1.0, "2"])
    value = numerals | st.integers(-3, 3) | st.sampled_from(
        ["1.5", "1e3", " 2", "+1", "1/0", 0.5, True, None])

    def entries(width):
        def entry():
            if draw(st.integers(0, 3)):
                i, j = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2,
                                            unique=True))) if n > 1 else (1, 2)
                return [i, j, *(draw(st.integers(1, n)) for _ in range(width - 3)), draw(numerals)]
            if draw(st.integers(0, 5)):
                return [*(draw(index) for _ in range(draw(st.integers(width - 2, width)))),
                        draw(value)]
            return draw(st.sampled_from(["[1, 2]", 3, {"i": 1}]))
        if not draw(st.integers(0, 12)):
            return draw(st.sampled_from([{}, "x", 3]))
        return [entry() for _ in range(draw(st.integers(0, 4)))]

    return dim, entries(4), entries(3)


@given(entry_lists())
@settings(deadline=None, max_examples=400)
def test_parse_reads_entries_as_from_entries_does(case):
    dim, c_entries, omega_entries = case
    try:
        expected = AlgebraSpec.from_entries(dim, c_entries, omega_entries)
    except (TypeError, ValueError) as exc:
        expected = str(exc)
    try:
        got = parse(json.dumps({"dim": dim, "c_entries": c_entries,
                                "omega_entries": omega_entries}))
    except DocumentError as exc:
        got = str(exc)
    assert got == expected


def _spec_of(case):
    dim, c, om = case
    return AlgebraSpec.from_entries(dim, [(i, j, k, v) for (i, j, k), v in c.items() if i < j],
                                    [(i, j, v) for (i, j), v in om.items() if i < j])


# specs of dim 1-6 with up to 10 c and 6 omega entries, numerals as above
exact_specs = st.integers(1, 6).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.dictionaries(st.tuples(st.integers(1, dim), st.integers(1, dim), st.integers(1, dim)),
                    numerals.map(Fraction), max_size=10),
    st.dictionaries(st.tuples(st.integers(1, dim), st.integers(1, dim)),
                    numerals.map(Fraction), max_size=6))).map(_spec_of)


@given(exact_specs)
@settings(deadline=None, max_examples=60)
def test_parse_inverts_serialize_with_exact_entries(spec):
    back = parse(serialize(spec))
    assert back == spec
    assert all(type(v) is Fraction for v in (*back.c_upper.values(), *back.omega_upper.values()))


# --- the report writer -----------------------------------------------------


class _Int(int):
    def __repr__(self):  # json writes int.__repr__, not a subclass's
        return "not a number"


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not a number"


writer_keys = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "caf\u00e9", "\u2028", "\ud800", "\U0001f600"])
writer_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10 ** 60, 10 ** 60),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, float("nan"), float("inf"),
                                  float("-inf")]),
    writer_keys, st.integers().map(_Int), st.text(max_size=4).map(_Str),
    st.floats().map(_Float))
writer_values = st.recursive(
    writer_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(writer_keys, inner, max_size=4)
                   | st.dictionaries(writer_keys, inner, max_size=3).map(collections.OrderedDict)),
    max_leaves=30)


@given(writer_values)
@settings(deadline=None, max_examples=300)
def test_report_writer_matches_indented_sorted_json(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


# a report's exact values: Fractions, specs and residuals, each with the
# plain JSON value the report writer formats it as
residuals = st.builds(ResidualTensor, st.integers(1, 6), st.lists(st.tuples(
    st.tuples(*[st.integers(1, 6)] * 4), st.fractions()), max_size=4).map(tuple))
exact_values = st.one_of(st.fractions(), exact_specs, residuals)


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AlgebraSpec):
        return document_object(value)
    if isinstance(value, ResidualTensor):
        return [{"indices": list(idx), "value": str(v)} for idx, v in value.nonzero]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _nested(depth):
    # containers nested ``depth`` deep, exact values and plain scalars at the leaves
    inner = exact_values | writer_scalars
    for _ in range(depth):
        inner = (st.lists(inner, min_size=1, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                 | st.dictionaries(writer_keys, inner, min_size=1, max_size=3))
    return inner


@given(st.integers(1, 3).flatmap(_nested))
@settings(deadline=None, max_examples=200)
def test_report_writer_formats_exact_values_as_their_plain_json(value):
    assert _dumps(value, writers=_REPORT) == json.dumps(_plain(value), indent=2, sort_keys=True)


def test_report_writer_rejects_what_it_cannot_write():
    for bad in ({1: "x"}, {"a": 1, 2: "b"}, {None: 1}, {(1, 2): 1}, Fraction(1, 2),
                [Fraction(1)], {"a": {1, 2}}, {1, 2}, b"bytes"):
        with pytest.raises(TypeError):
            _dumps(bad)


def strict_json(text):
    # JSON as RFC 8259 reads it: Infinity, -Infinity and NaN are not numbers
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_classify_b_past_the_float_range_exits_2():
    # the canonical b = -2 n a of VIII_a and IX_a is 2 parameter: past half the
    # largest float it is no float, and classify exits 2 as for the parameter
    for p, code in (("8" + "0" * 307, 0), ("9" + "0" * 307, 2), ("1" + "0" * 308, 2)):
        for row in ("VIII_a", "IX_a"):
            for make in (["generate", row, "--param", p],
                         ["orbit-sample", row, "--param", p, "--seed", "3"]):
                made, doc, _ = run_streams(make, "")
                assert made == 0, make
                for argv in (["classify", "--json"], ["classify"]):
                    got, out, err = run_streams(argv, doc)
                    assert got == code, (make, argv)
                    if code == 2:
                        assert out == "" and err == ("error: the parameter or transform "
                                                     "lies outside the float range\n"), (make, argv)
                    elif argv == ["classify", "--json"]:
                        assert abs(strict_json(out)["canonical_row"]["b"][2]) == 16e307
                    else:
                        assert "inf" not in out and "nan" not in out


def test_cli_classify_reports_far_from_1_are_json():
    # the specs that test_classify_at_magnitudes_far_from_1 classifies: each
    # report is JSON with no Infinity or NaN
    specs = [AlgebraSpec.from_entries(3, [(2, 3, 1, b), (1, 3, 2, -b), (1, 2, 3, b)])
             for b in (10 ** 103, 10 ** 150)]
    specs += [generate(label, p) for label, p in (
        ("IX_a", 10 ** 160), ("VIII_a", 10 ** 160), ("VI_a", 10 ** 160),
        ("VII_a", 10 ** 160), ("IX_a", Fraction(1, 10 ** 160)))]
    for spec in specs:
        code, out, _ = run_streams(["classify", "--json"], serialize(spec))
        assert code == 0
        report = strict_json(out)
        assert report["label"] in ("IX", "IX_a", "VIII_a", "VI_a", "VII_a")
