"""The package surface: what importing it and each command load, and the
contract of its immutable record classes."""

import ast
import copy
import importlib
import json
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import omegalie
from omegalie import (AlgebraSpec, BianchiLabel, DeformabilityResult, ExactCertificates,
                      Matrix, NabTriple, NormalForm, ResidualTensor)
from omegalie.tensor_core import _Record

ROOT = Path(__file__).resolve().parents[1]

# every command loads these only when it runs them, and a plain command line
# never loads the others: the records are not dataclasses and carry no type
# hints that need typing, and argparse reads only the lines the plain reader refuses
DEFERRED = ("omegalie.classify3d", "omegalie.decomp_nd")
UNUSED = ("dataclasses", "inspect", "typing", "argparse")

# a fresh `python -S` process: import the package, run each command line on
# the stdin document (the previous command's stdout when it is None), and
# print the exit codes and the modules loaded
CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import omegalie
from omegalie.io_cli import run
loaded, codes, doc = [sorted(sys.modules)], [], ""
for argv, stdin in json.loads(sys.argv[2]):
    sys.stdin, out = io.StringIO(doc if stdin is None else stdin), io.StringIO()
    sys.stdout, real = out, sys.stdout
    try:
        codes.append(run(argv))
    finally:
        sys.stdout = real
    doc = out.getvalue()
    loaded.append(sorted(sys.modules))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_fresh(calls):
    """(exit codes, modules loaded after the import and after each call) of one
    fresh ``python -S`` process running ``calls``, (argv, stdin or None) pairs."""
    argv = [sys.executable, "-S", "-c", CHILD, str(ROOT / "src"), json.dumps(calls)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(done.stdout)
    return result["codes"], [set(names) for names in result["loaded"]]


def test_document_commands_load_only_the_shared_modules():
    codes, loaded = run_fresh([(["orbit-sample", "IX_a", "--seed", "1", "--param", "3/2"], ""),
                               (["validate", "--json"], None)])
    assert codes == [0, 0]
    for names in loaded:
        assert names.isdisjoint(DEFERRED + UNUSED), sorted(names & {*DEFERRED, *UNUSED})
    assert {"omegalie.decomp3d", "omegalie.io_cli"} <= loaded[0]
    # only orbit-sample draws: a process that validates loads no random
    doc = omegalie.serialize(omegalie.generate("IX"))
    codes, loaded = run_fresh([(["validate", "--json"], doc)])
    assert codes == [0] and all("random" not in names for names in loaded)


def test_classify_and_deformability_load_their_module_on_first_use():
    doc = omegalie.serialize(omegalie.orbit_sample("VIII_a", Fraction(3, 2), seed=1))
    codes, loaded = run_fresh([(["classify", "--json"], doc)])
    assert codes == [0] and "omegalie.classify3d" not in loaded[0]
    assert "omegalie.classify3d" in loaded[1] and "omegalie.decomp_nd" not in loaded[1]
    codes, loaded = run_fresh([(["deformability", "--json"], doc)])
    assert codes == [0] and "omegalie.decomp_nd" not in loaded[0]
    assert "omegalie.decomp_nd" in loaded[1] and "omegalie.classify3d" not in loaded[1]
    for names in loaded:
        assert names.isdisjoint(UNUSED), sorted(names & set(UNUSED))


def test_every_public_name_and_layer_resolves_in_a_fresh_process():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from spans import LAYERS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import omegalie, types\n"
            "for name in omegalie.__all__: getattr(omegalie, name)\n"
            "assert all(isinstance(getattr(omegalie, layer), types.ModuleType)"
            " for layer in sys.argv[2:])\n"
            "assert set(omegalie.__all__) <= set(dir(omegalie))\n")
    subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *LAYERS],
                   timeout=60, check=True)
    with pytest.raises(AttributeError, match="has no attribute 'ExactnessError'"):
        getattr(omegalie, "ExactnessError")


def records():
    """(two equal but separately built instances, field names, repr) of each record class."""
    spec = lambda: AlgebraSpec.from_entries(3, [(1, 2, 3, "1/2")], [(1, 2, 1)])
    res = lambda: ResidualTensor(4, (((1, 2, 3, 4), Fraction(1, 3)),))
    certs = lambda: ExactCertificates((3, 0, 0), "spacelike")
    triple = lambda: NabTriple(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (0, 0, 1), (0, 0, -2))
    normal = lambda: NormalForm(BianchiLabel("IX_a", 1.5), Matrix([[1]]), ((1.0,),), certs(),
                                ("a note",), 0.0, triple())
    one, zero = "Fraction(1, 1)", "Fraction(0, 1)"
    triple_repr = (f"NabTriple(n=Matrix([[{one}, {zero}, {zero}], [{zero}, {one}, {zero}], "
                   f"[{zero}, {zero}, {one}]]), a=({zero}, {zero}, {one}), "
                   f"b=({zero}, {zero}, Fraction(-2, 1)))")
    spec_repr = ("AlgebraSpec(dim=3, c_upper={(0, 1, 2): Fraction(1, 2)}, "
                 "omega_upper={(0, 1): Fraction(1, 1)})")
    certs_repr = "ExactCertificates(n_inertia=(3, 0, 0), causal='spacelike')"
    return [
        (Matrix([[1, 2], [3, 4]]), Matrix(((1, Fraction(2)), ("3", 4))), ("rows",),
         f"Matrix([[{one}, Fraction(2, 1)], [Fraction(3, 1), Fraction(4, 1)]])"),
        (spec(), spec(), ("dim", "c_upper", "omega_upper"), spec_repr),
        (res(), res(), ("dim", "nonzero"),
         "ResidualTensor(dim=4, nonzero=(((1, 2, 3, 4), Fraction(1, 3)),))"),
        (triple(), triple(), ("n", "a", "b"), triple_repr),
        (DeformabilityResult(spec(), res()), DeformabilityResult(spec=spec(), defect=res()),
         ("spec", "defect"), f"DeformabilityResult(spec={spec_repr}, defect={res()!r})"),
        (BianchiLabel("IX_a", 1.5), BianchiLabel(name="IX_a", parameter=1.5),
         ("name", "parameter"), "BianchiLabel(name='IX_a', parameter=1.5)"),
        (certs(), certs(), ("n_inertia", "causal"), certs_repr),
        (normal(), normal(), ("label", "exact_transform", "transform", "certificates", "notes",
                              "transform_error", "decomposition"),
         "NormalForm(label=BianchiLabel(name='IX_a', parameter=1.5), "
         f"exact_transform=Matrix([[{one}]]), transform=((1.0,),), certificates={certs_repr}, "
         f"notes=('a note',), transform_error=0.0, decomposition={triple_repr})"),
    ]


RECORDS = records()
# the records that check no input, built by the one constructor of _Record
SHARED_CONSTRUCTOR = {ResidualTensor, DeformabilityResult, ExactCertificates, NormalForm}


@pytest.mark.parametrize("first, second, fields, text", RECORDS,
                         ids=[type(first).__name__ for first, *_ in RECORDS])
def test_record_contract(first, second, fields, text):
    # immutable, equal and hashed on the fields, never equal to a tuple of
    # them, a repr that names each field; a copy, a deep copy and a pickle
    # round trip are equal records
    assert first is not second and first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == text
    values = tuple(getattr(first, name) for name in fields)
    assert first != values and values != first and not first == values
    assert first != object() and first is not None
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert tuple(getattr(first, name) for name in fields) == values
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(twin) is type(first) and twin == first and repr(twin) == text
    # the fields are declared once: the shared constructor binds by position,
    # keyword or both in slot order, and refuses a missing, extra, unknown or
    # doubly-given field; an AlgebraSpec is built only by from_entries
    cls = type(first)
    assert (cls.__init__ is _Record.__init__) == (cls in SHARED_CONSTRUCTOR)
    if cls is AlgebraSpec:
        for args, kwargs in (((3, {}, {}), {}), ((), dict(zip(fields, values)))):
            with pytest.raises(TypeError, match="AlgebraSpec.from_entries"):
                AlgebraSpec(*args, **kwargs)
    if cls not in SHARED_CONSTRUCTOR:
        return
    for k in range(len(fields) + 1):
        built = cls(*values[:k], **dict(zip(fields[k:], values[k:])))
        assert built == first and repr(built) == text
    refused = (
        (values[:-1], {}), ((), dict(zip(fields[1:], values[1:]))),    # missing
        (values + (None,), {}),                                         # extra
        (values[:-1], {"extra": None}), (values, {"extra": None}),      # unknown
        (values, {fields[0]: values[0]}),                               # given twice
        (values[:1], dict(zip(fields, values))))
    for args, kwargs in refused:
        with pytest.raises(TypeError, match=re.escape(f"takes the fields ({', '.join(fields)})")):
            cls(*args, **kwargs)


def test_readme_library_example_gives_what_its_comments_show():
    # each expression line of the Library section's python block evaluates to the
    # literal its comment opens with; the decompose line's comment is prose
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n")[1]
    block = section.split("```python\n")[1].split("```")[0]
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if isinstance(ast.parse(code.strip() or "pass").body[0], ast.Expr):
            expected = ast.literal_eval(comment.strip().split(":")[0])
            shown.append((code.strip(), eval(code, namespace), expected))
        else:
            exec(code, namespace)
    assert [code for code, _, _ in shown] == [
        "residual(spec).is_zero", "check_deformability(spec).spec.omega_upper",
        "classify(spec).label.name"]
    for code, value, expected in shown:
        assert value == expected and type(value) is type(expected), code
    trip = namespace["trip"]
    assert trip.n.rows == ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert trip.a == trip.b == (0, 0, 0)


def test_packaging_metadata_names_the_package_version_and_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == omegalie.__version__
    module, _, name = project["scripts"]["omegalie"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target) and target is omegalie.io_cli.main
