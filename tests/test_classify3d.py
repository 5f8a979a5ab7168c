"""Normal-form tables, exact certificates, the classifier and the public API."""

import ast
import collections
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import omegalie
from omegalie import (AlgebraSpec, BianchiLabel, ExactCertificates, FloatRangeError, Matrix,
                      NabTriple, NormalForm, NotAnAlgebraError,
                      PARAMETRIC_LABELS, check_deformability, classify,
                      decompose, forced_b, generate, orbit_sample, reconstruct,
                      serialize, t_of, table_row, transport)
from omegalie.classify3d import (_LABELS, _TABLE, _certify, _discrete_classify,
                                 _exact_head, _invariants)
from omegalie.decomp3d import _adjugate3, _triple, _view
from omegalie.tensor_core import SingularMatrixError, int_adjugate
from oracles import _discrete_classify as chain_classify
from oracles import (c_tensor, dense_transport, diagonal, eps_reconstruct,
                     exact_witness_holds, flat, fraction_orbit_sample, omega_matrix,
                     perm_det, reconstructed_row, transport_error)

ALL_LABELS = ("I", "II", "VI0", "VII0", "VIII", "IX", "V", "IV", "IV_x",
              "VI_a", "VI_x", "VI_y", "VI_n", "VII_a", "VII_x", "VIII_a",
              "VIII_xa", "VIII_na", "IX_a")

EXPECTED_CAUSAL = {
    "I": "zero", "II": "zero", "VI0": "zero", "VII0": "zero",
    "VIII": "zero", "IX": "zero",
    "V": "kernel-only", "IV": "kernel-only", "VI_a": "kernel-only",
    "VII_a": "kernel-only",
    "IV_x": "spacelike", "VI_x": "spacelike", "VI_y": "spacelike",
    "VII_x": "spacelike", "VIII_xa": "spacelike", "IX_a": "spacelike",
    "VIII_a": "timelike",
    "VI_n": "null", "VIII_na": "null",
}


def nab_spec(n_diag, a):
    n = diagonal(tuple(Fraction(x) for x in n_diag))
    av = tuple(Fraction(x) for x in a)
    return reconstruct(NabTriple(n, av, forced_b(n, av)))


# --- generate / table_row / BianchiLabel -----------------------------------

def test_generate_parameter_validation():
    with pytest.raises(ValueError, match="unknown label"):
        generate("X")
    with pytest.raises(ValueError, match="requires a positive parameter"):
        generate("VIII_a")
    with pytest.raises(ValueError, match="must be positive"):
        generate("VIII_a", 0)
    with pytest.raises(ValueError, match="must be positive"):
        generate("IX_a", Fraction(-1, 2))
    with pytest.raises(ValueError, match="does not take a parameter"):
        generate("IX", 1)
    with pytest.raises(TypeError):
        generate("IX_a", 0.5)  # floats refused, pass a Fraction or string


def test_generate_is_exact():
    s = generate("VIII_a", "1/3")
    assert all(isinstance(x, (int, Fraction)) for m in c_tensor(s) for r in m for x in r)
    assert decompose(s).a == (0, 0, Fraction(1, 3))


def test_generate_writes_the_reconstructed_row_on_ints():
    for label in ALL_LABELS:
        params = ((1, Fraction(1, 7), Fraction(3, 2), 5, Fraction(10 ** 40, 7),
                   Fraction(1, 10 ** 30)) if label in PARAMETRIC_LABELS else (None,))
        for p in params:
            spec, ref = generate(label, p), reconstructed_row(label, p)
            assert list(spec.c_upper.items()) == list(ref.c_upper.items()), (label, p)
            assert list(spec.omega_upper.items()) == list(ref.omega_upper.items()), (label, p)
            assert all(type(x) is Fraction
                       for x in (*spec.c_upper.values(), *spec.omega_upper.values()))


def test_table_row_and_parametric_set():
    assert table_row("VI_y") == ((1, -1, 0), (0, 1, 0), False)
    assert table_row("VIII_na") == ((1, 1, -1), (1, 0, 1), True)
    assert PARAMETRIC_LABELS == {"VI_a", "VII_a", "VIII_a", "VIII_xa",
                                 "VIII_na", "IX_a"}
    # the two orders are read off the table: its a = 0 rows, then the rest
    assert omegalie.FIRST_TABLE_ORDER == ("I", "II", "VI0", "VII0", "VIII", "IX")
    assert omegalie.SECOND_TABLE_ORDER == (
        "V", "IV", "IV_x", "VI_a", "VI_x", "VI_y", "VI_n",
        "VII_a", "VII_x", "VIII_a", "VIII_xa", "VIII_na", "IX_a")
    with pytest.raises(ValueError):
        table_row("nope")


def test_bianchi_label_validation():
    assert str(BianchiLabel("IX")) == "IX"
    assert str(BianchiLabel("IX_a", 0.5)) == "IX_a(0.5)"
    with pytest.raises(ValueError):
        BianchiLabel("IXa")
    with pytest.raises(ValueError):
        BianchiLabel("IX_a", -1.0)
    with pytest.raises(ValueError, match="label IX does not take a parameter"):
        BianchiLabel("IX", 2.0)


# --- classify: canonical inputs -------------------------------------------

def test_classify_is_idempotent_on_tables():
    for label in ALL_LABELS:
        params = (Fraction(1, 2), Fraction(1), Fraction(2)) \
            if label in PARAMETRIC_LABELS else (None,)
        for p in params:
            nf = classify(generate(label, p))
            expected = "VI_x" if label == "VI_y" else label
            assert nf.label.name == expected, label
            if label == "VIII_na":
                assert nf.parameter is None
            elif p is not None:
                assert nf.parameter == pytest.approx(float(p), abs=1e-12)
            assert nf.certificates.causal == EXPECTED_CAUSAL[expected]
            assert nf.transform_error <= 1e-12, (label, nf.transform_error)


def test_classify_certificate_inertia_is_canonically_ordered():
    for label in ALL_LABELS:
        p = 1 if label in PARAMETRIC_LABELS else None
        positive, negative, _ = classify(generate(label, p)).certificates.n_inertia
        assert positive >= negative


def test_certificates_are_plain_values():
    # the inertia is the int triple the report prints, the causal character a str,
    # and a = 0 is read off it: no record of their own and no a_is_zero field
    assert ExactCertificates.__slots__ == ("n_inertia", "causal")
    for (inertia, causal), _ in _LABELS.items():
        assert type(inertia) is tuple and [type(x) for x in inertia] == [int] * 3
        assert type(causal) is str
    for label in ALL_LABELS:
        p = Fraction(3, 2) if label in PARAMETRIC_LABELS else None
        inertia = classify(orbit_sample(label, p, seed=1)).certificates.n_inertia
        assert type(inertia) is tuple and [type(x) for x in inertia] == [int] * 3


def test_vi_x_vi_y_witness_transform():
    # the determinant -1 axis swap carries the VI_x row exactly onto VI_y
    swap = Matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    moved = transport(generate("VI_x"), swap)
    assert moved == generate("VI_y")
    # == alone passes with float entries, since 1.0 == Fraction(1)
    assert all(type(x) is Fraction for m in c_tensor(moved) for r in m for x in r)
    assert all(type(x) is Fraction for r in omega_matrix(moved) for x in r)
    nf = classify(generate("VI_y"))
    assert nf.label.name == "VI_x"
    assert any("VI_y" in note for note in nf.notes)


def test_viii_na_witness_transform():
    # boosts in the (e1, e3) plane preserve n = diag(1, 1, -1) and rescale
    # the null a = (p, 0, p), so every parameter lies on one orbit
    for shear, target in ((Fraction(3, 4), 2), (Fraction(-3, 4), Fraction(1, 2))):
        boost = Matrix(((Fraction(5, 4), 0, shear), (0, 1, 0),
                        (shear, 0, Fraction(5, 4))))
        assert boost.det() == 1
        moved = transport(generate("VIII_na", 1), boost)
        assert moved == generate("VIII_na", target)
        # == alone passes with float entries, since 1.0 == Fraction(1)
        assert all(type(x) is Fraction for m in c_tensor(moved) for r in m for x in r)
        assert all(type(x) is Fraction for r in omega_matrix(moved) for x in r)
    for p in (Fraction(1, 2), 1, 2):
        nf = classify(generate("VIII_na", p))
        assert nf.label.name == "VIII_na"
        assert nf.parameter is None
        assert str(nf.label) == "VIII_na"
        assert any("[[5/4, 0, 3/4]" in note for note in nf.notes)
        assert transport_error(generate("VIII_na", p), nf) <= 1e-12, p
        assert nf.transform_error <= 1e-12, (p, nf.transform_error)


def test_exact_stages_hand_an_exact_witness_to_the_float_stage():
    # the exact head P at the float boundary: all Fractions, n carried
    # exactly onto a diagonal (det(P) P^-1 n P^-T = adj(P) n adj(P)^T / det(P))
    # and a onto P^T a, with the sign pattern of the table row; the float
    # tail on that frame within the tolerance
    rng = random.Random(48)
    for label in ALL_LABELS:
        for _ in range(4):
            p = Fraction(rng.randint(1, 6), rng.randint(1, 4)) \
                if label in PARAMETRIC_LABELS else None
            spec = orbit_sample(label, p, seed=rng.randrange(2 ** 31))
            nf = classify(spec)
            assert exact_witness_holds(decompose(spec), nf), label
            assert nf.transform_error <= 1e-9, (label, nf.transform_error)


def test_viii_na_far_from_parameter_1_stays_within_tolerance():
    # the float boost from (r, 0, r) to (1, 0, 1) alone loses about
    # r^2 2^-53; the exact null boost keeps r near 1 for the float tail
    for p in (1000, Fraction(1, 1000)):
        for seed in range(200):
            nf = classify(orbit_sample("VIII_na", p, seed=seed))
            assert nf.transform_error <= 1e-9, (p, seed, nf.transform_error)
            assert not any("tolerance" in note for note in nf.notes), (p, seed)


@st.composite
def rational_basis_changes(draw):
    # invertible, large denominators, and half of them near-singular: the
    # third row a combination of the first two plus a tiny perturbation
    den = draw(st.integers(1, 10 ** 12))
    rows = [[Fraction(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, den)))
             for _ in range(3)] for _ in range(3)]
    if draw(st.booleans()):
        s, t = (Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for _ in range(2))
        eps = Fraction(1, draw(st.integers(1, 10 ** 30)))
        rows[2] = [s * x + t * y + eps * z for x, y, z in zip(*rows)]
    p = Matrix(rows)
    assume(p.det() != 0)
    return p


@given(st.sampled_from(ALL_LABELS),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 6),
       rational_basis_changes())
@settings(deadline=None, max_examples=150)
def test_classification_is_invariant_under_rational_basis_changes(label, p, basis):
    p = p if label in PARAMETRIC_LABELS else None
    base = classify(generate(label, p))
    moved = transport(generate(label, p), basis)
    nf = classify(moved)
    assert nf.label == base.label  # the parameter too: both are the same exact invariant
    assert nf.certificates == base.certificates
    assert exact_witness_holds(decompose(moved), nf)
    assert nf.transform_error <= 1e-9, nf.transform_error


def test_transport_error_reads_near_singular_transforms_exactly():
    # the float transform of a near-singular basis has a determinant that
    # rounding can make tiny or zero; the oracle inverts the exact rationals
    # its floats are, so it reads a value on every transform that is
    # invertible, and inf on one the floats round to a singular matrix
    rng, checked, singulars = random.Random(7), 0, 0
    for label in ALL_LABELS:
        p = Fraction(3, 2) if label in PARAMETRIC_LABELS else None
        for k in (5, 10, 15, 20, 25, 30) * 2:
            r1, r2, z = ([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
                         for _ in range(3))
            s, t = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            basis = Matrix((r1, r2, [s * x + t * y + w / 10 ** k for x, y, w in zip(r1, r2, z)]))
            if basis.det() == 0:
                continue
            moved = transport(generate(label, p), basis)
            nf = classify(moved)
            err = transport_error(moved, nf)
            singular = Matrix([map(Fraction, row) for row in nf.transform]).det() == 0
            assert err == math.inf if singular else math.isfinite(err), (label, k)
            assert any("rounds to a singular matrix" in note for note in nf.notes) == singular, (
                label, k)
            singulars += singular
            assert exact_witness_holds(decompose(moved), nf), (label, k)
            checked += 1
    assert checked >= 200 and singulars >= 1, (checked, singulars)


def test_integer_certificate_rejects_every_single_change():
    # on the final integer frames of rows with rank-2 and rank-3 n, changing
    # any one integer of P, d or a, or the sign of det(P), breaks an identity
    # of the certificate
    for label, p in (("VIII_a", Fraction(3, 2)), ("IX_a", Fraction(2, 5)), ("VI_x", None)):
        for seed in range(4):
            view = _view(orbit_sample(label, p, seed=seed))
            name, _, _, frame = _exact_head(view)
            assert name == label
            _certify(frame, view, label)
            (d, dd), (a, ad), cols = frame
            mutants = []
            for k, (col, s) in enumerate(cols):
                def with_col(new, a=a, k=k):
                    return (d, dd), (a, ad), [new if j == k else c for j, c in enumerate(cols)]
                mutants += [with_col(([x + (r == i) for r, x in enumerate(col)], s))
                            for i in range(3)]
                mutants.append(with_col((col, 2 * s)))
                # column k and a_k negated together keep P diag(d) P^T and
                # P^T a = a_frame; only det(P) changes sign
                mutants.append(with_col(([-x for x in col], s),
                                        [-x if j == k else x for j, x in enumerate(a)]))
            for i in range(3):
                mutants.append((([x + (r == i) for r, x in enumerate(d)], dd), (a, ad), cols))
                mutants.append(((d, dd), ([x + (r == i) for r, x in enumerate(a)], ad), cols))
            assert len(mutants) == 21
            for mutant in mutants:
                with pytest.raises(AssertionError, match="failed its certificate"):
                    _certify(mutant, view, label)


def test_exact_head_ignores_the_views_representation():
    # _view does not reduce N and A against 2lc: scaling (N, A, lc) by 6 and
    # (B, lw) by 5 describes the same (n, a, b), and the exact head returns
    # the identical label, squared parameter, certificates and frame
    for label in ALL_LABELS:
        p = Fraction(3, 2) if label in PARAMETRIC_LABELS else None
        for seed in range(4):
            view = _view(orbit_sample(label, p, seed=seed))
            n, a, b, lc, lw = view
            scaled = ([[6 * x for x in r] for r in n], [6 * x for x in a],
                      [5 * x for x in b], 6 * lc, 5 * lw)
            assert _triple(scaled) == _triple(view)
            assert _exact_head(scaled) == _exact_head(view), (label, seed)


def row_key(label):
    nd, apat, _ = _TABLE[label]
    certs, _ = _invariants(nd, apat)
    return certs.n_inertia, certs.causal


def test_label_map_is_read_off_the_table():
    # 19 rows reach 18 keys: VI_x and VI_y are one orbit, and VI_x comes first
    assert len(_LABELS) == 18
    for label in ALL_LABELS:
        assert _LABELS[row_key(label)][0] == ("VI_x" if label == "VI_y" else label)
    # a row takes no parameter iff its ratio has sign 0; VIII_na's ratio
    # a^T n a / det n is 0, which is its parameter collapse
    assert ({label for label in ALL_LABELS if _LABELS[row_key(label)][1] == 0}
            == set(ALL_LABELS) - PARAMETRIC_LABELS | {"VIII_na"})


def test_discrete_classify_refuses_a_ratio_of_the_wrong_sign(monkeypatch):
    for label, sign in list(_LABELS.values()):
        nd, apat, _ = _TABLE[label]
        frame = ((nd, 1), (apat, 1))
        assert _discrete_classify(*frame)[0] == label
        monkeypatch.setitem(_LABELS, row_key(label), (label, 1 if sign == 0 else -sign))
        with pytest.raises(AssertionError, match="lost its sign"):
            _discrete_classify(*frame)


small_ints = st.one_of(st.just(0), st.integers(-9, 9))


@given(st.lists(small_ints, min_size=3, max_size=3), st.integers(1, 12),
       st.lists(small_ints, min_size=3, max_size=3), st.integers(1, 12))
@settings(deadline=None, max_examples=500)
def test_discrete_classify_matches_the_label_chain(d, dd, a, ad):
    # label, raw squared parameter and certificates of the table lookup are
    # those of the hand-written chain on every int frame
    assert _discrete_classify((d, dd), (a, ad)) == chain_classify((d, dd), (a, ad))


def test_classify_clears_only_the_view_and_builds_two_matrices(monkeypatch):
    # classify reads n and a off the int view: tensor_core.cleared runs only
    # for _view's two stores, and the only Matrix objects it builds are the
    # decomposition's n and exact_transform
    counts = collections.Counter()
    original_cleared, original_init = omegalie.tensor_core.cleared, Matrix.__init__

    def cleared(xs):
        counts["cleared"] += 1
        return original_cleared(xs)

    def init(self, rows):
        counts["Matrix"] += 1
        original_init(self, rows)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "omegalie" and \
                getattr(module, "cleared", None) is original_cleared:
            monkeypatch.setattr(module, "cleared", cleared)
    monkeypatch.setattr(Matrix, "__init__", init)
    for label in ALL_LABELS:
        spec = orbit_sample(label, Fraction(3, 2) if label in PARAMETRIC_LABELS else None, seed=7)
        counts.clear()
        nf = classify(spec)
        assert nf.label.name == ("VI_x" if label == "VI_y" else label)
        assert counts == {"cleared": 2, "Matrix": 2}, (label, counts)


def test_classify_at_magnitudes_far_from_1():
    def ix(b):
        return AlgebraSpec.from_entries(3, [(2, 3, 1, b), (1, 3, 2, -b), (1, 2, 3, b)])

    for b in (10 ** 103, 10 ** 150):
        nf = classify(ix(b))
        assert nf.label.name == "IX" and nf.transform_error <= 1e-9, b
    for label, p in (("IX_a", 10 ** 160), ("VIII_a", 10 ** 160), ("VI_a", 10 ** 160),
                     ("VII_a", 10 ** 160), ("IX_a", Fraction(1, 10 ** 160))):
        nf = classify(generate(label, p))
        assert nf.label.name == label
        assert abs(nf.parameter - float(p)) <= 1e-12 * float(p), (label, p, nf.parameter)
    # the transform is about 1/b: past the float range either way
    for b in (Fraction(1, 10 ** 400), 10 ** 400):
        with pytest.raises(FloatRangeError):
            classify(ix(b))
    # parameters below the normal float range: an error, not a rounded 0.0
    for label, p in (("VII_a", Fraction(1, 10 ** 330)), ("VI_a", Fraction(1, 10 ** 330)),
                     ("VIII_a", Fraction(1, 10 ** 330)), ("VIII_xa", Fraction(1, 10 ** 330)),
                     ("IX_a", Fraction(1, 10 ** 350))):
        with pytest.raises(FloatRangeError):
            classify(generate(label, p))


@pytest.mark.parametrize("label, e, err", [
    ("IX_a", 12, 0.0001220703125), ("VIII_xa", 12, 0.00048828125),
    ("VIII_a", 12, 1.8086284336465771e-06), ("IX_a", 40, 2.4178516392292583e+24),
    ("VIII_xa", 40, 2.4178516392292583e+24), ("VIII_a", 40, 2.4178516392292583e+24)])
def test_tolerance_note_reads_the_deviation_on_the_rows_scale(label, e, err):
    # the canonical a and b grow with the parameter, and so does their float
    # rounding: the absolute transform_error passes FLOAT_TOL, while the a and
    # b rows over max(1, parameter) stay at rounding level, so no note is added
    nf = classify(orbit_sample(label, 10 ** e, seed=1))
    assert nf.label.name == label and nf.parameter == float(10 ** e)
    assert nf.transform_error == err  # the absolute reading, as before scaling
    assert not any("tolerance" in note for note in nf.notes)


# the real 3-dim Lie algebras in their textbook bases (Bianchi 1898; Patera
# and Winternitz, J. Math. Phys. 18, 1977): {(i, j): {k: c}} gives
# [e_i, e_j] = sum of c e_k, and the row each lands on with omega = 0
BIANCHI_LIST = [
    ("Heisenberg", {(1, 2): {3: 1}}, BianchiLabel("II")),
    ("so(3)", {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}}, BianchiLabel("IX")),
    ("sl(2,R)", {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}, BianchiLabel("VIII")),
    ("e(2)", {(3, 1): {2: 1}, (3, 2): {1: -1}}, BianchiLabel("VII0")),
    ("e(1,1)", {(3, 1): {1: 1}, (3, 2): {2: -1}}, BianchiLabel("VI0")),
    ("r_3", {(3, 1): {1: 1}, (3, 2): {1: 1, 2: 1}}, BianchiLabel("IV")),
    ("r_3,1", {(3, 1): {1: 1}, (3, 2): {2: 1}}, BianchiLabel("V")),
    ("III", {(1, 3): {1: 1}}, BianchiLabel("VI_a", 1.0)),
    ("r_3,1/2", {(3, 1): {1: 1}, (3, 2): {2: Fraction(1, 2)}}, BianchiLabel("VI_a", 3.0)),
    ("r'_3,1", {(3, 1): {1: 1, 2: -1}, (3, 2): {1: 1, 2: 1}}, BianchiLabel("VII_a", 1.0)),
]


@pytest.mark.parametrize("name,brackets,row", BIANCHI_LIST, ids=[b[0] for b in BIANCHI_LIST])
def test_bianchi_list_in_textbook_bases(name, brackets, row):
    entries = [(min(i, j), max(i, j), k, v if i < j else -v)
               for (i, j), vec in brackets.items() for k, v in vec.items()]
    spec = AlgebraSpec.from_entries(3, entries)
    assert check_deformability(spec).spec.omega_upper == {}  # a Lie algebra: omega = 0 is forced
    assert classify(spec).label == row
    unimodular = Matrix([[1, 2, 0], [0, 1, 3], [1, 0, -5]])  # det 1
    assert classify(transport(spec, unimodular)).label == row


def _family_row(entries):
    # (label, exact squared parameter or None) of a bracket with its forced omega
    forced = check_deformability(AlgebraSpec.from_entries(3, entries)).spec
    label, param2, _, _ = _exact_head(_view(forced))
    return label, None if param2 is None else Fraction(*param2)


def test_bianchi_one_parameter_families_exactly():
    # r_{3,l}: [e3, e1] = e1, [e3, e2] = l e2; r'_{3,g}: [e3, e1] = g e1 - e2,
    # [e3, e2] = e1 + g e2 (Patera and Winternitz), over exact rational parameters
    def r3(lam):
        return _family_row([(1, 3, 1, -1), (2, 3, 2, -lam)])

    def r3_prime(g):
        return _family_row([(1, 3, 1, -g), (1, 3, 2, 1), (2, 3, 1, -1), (2, 3, 2, -g)])

    rng = random.Random(210)
    drawn = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(400)]
    drawn += [Fraction(rng.getrandbits(80) - (1 << 79), rng.getrandbits(60) + 1)
              for _ in range(60)]
    params = {Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-3), *drawn}
    assert r3(Fraction(1)) == ("V", None) and r3(Fraction(-1)) == ("VI0", None)
    assert r3_prime(Fraction(0)) == ("VII0", None)
    for x in params:
        if x not in (1, -1):
            assert r3(x) == ("VI_a", ((1 + x) / (1 - x)) ** 2), x
            if x:
                assert r3(1 / x) == r3(x), x
        if x:
            assert r3_prime(x) == ("VII_a", x * x), x


# --- classify: exact invariants on messy representatives -------------------

def test_classify_rescaled_definite_n():
    assert classify(nab_spec((2, 3, 5), (0, 0, 0))).label.name == "IX"
    assert classify(nab_spec((-2, -3, -5), (0, 0, 0))).label.name == "IX"
    assert classify(nab_spec((0, -7, 0), (0, 0, 0))).label.name == "II"


def test_classify_vi_a_parameter_from_adjugate_ratio():
    # rho = (a x a) / adj(n): diag(4, -9, 0) with a = (0,0,6) gives rho = -1
    nf = classify(nab_spec((4, -9, 0), (0, 0, 6)))
    assert nf.label.name == "VI_a"
    assert nf.parameter == pytest.approx(1.0, abs=1e-12)


def test_classify_viii_a_parameter_from_q_over_det():
    # r = (a n a) / det(n): diag(1, 1, -4), a = (0,0,2) gives r = 4
    nf = classify(nab_spec((1, 1, -4), (0, 0, 2)))
    assert nf.label.name == "VIII_a"
    assert nf.parameter == pytest.approx(2.0, abs=1e-12)


def test_classify_mixed_kernel_components_are_sheared_away():
    assert classify(nab_spec((1, -1, 0), (1, 0, 5))).label.name == "VI_x"
    assert classify(nab_spec((1, 1, 0), (0, 2, -3))).label.name == "VII_x"
    assert classify(nab_spec((5, 0, 0), (0, 3, 7))).label.name == "IV"
    assert classify(nab_spec((5, 0, 0), (2, 3, 7))).label.name == "IV_x"


def test_classify_null_families():
    nf = classify(nab_spec((1, 1, -1), (3, 0, 3)))
    assert nf.label.name == "VIII_na"
    assert nf.certificates.causal == "null"
    assert nf.transform_error <= 1e-12
    assert classify(nab_spec((1, -1, 0), (2, 2, 0))).label.name == "VI_n"
    assert classify(nab_spec((1, -1, 0), (2, -2, 0))).label.name == "VI_n"


def test_classify_negative_definite_rank2_goes_to_vii_family():
    nf = classify(nab_spec((-1, -1, 0), (0, 0, Fraction(1, 2))))
    assert nf.label.name == "VII_a"
    assert nf.parameter == pytest.approx(0.5, abs=1e-12)


# --- classify: input validation --------------------------------------------

def test_classify_rejects_incompatible_omega():
    s = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    with pytest.raises(NotAnAlgebraError) as exc:
        classify(s)
    assert exc.value.t == (0, 0, 2)
    # t past the int-to-text digit limit: .t stays exact, the message is text
    big = int("7" * 3000)
    s = AlgebraSpec.from_entries(3, [(1, 2, 3, big), (2, 3, 2, big)], [(1, 2, 1)])
    with pytest.raises(NotAnAlgebraError) as exc:
        classify(s)
    assert all(type(x) is Fraction for x in exc.value.t)
    assert exc.value.t == t_of(s)
    assert "more digits than the int-to-text limit" in str(exc.value)


def test_classify_rejects_wrong_dim():
    with pytest.raises(ValueError):
        classify(AlgebraSpec.from_entries(4))


# --- orbit sampling ---------------------------------------------------------

def test_orbit_sample_is_deterministic_per_seed():
    a = orbit_sample("VIII_a", 2, seed=42)
    b = orbit_sample("VIII_a", 2, seed=42)
    c = orbit_sample("VIII_a", 2, seed=43)
    assert a == b
    assert a != c


def test_orbit_sample_resamples_a_singular_draw_with_the_same_stream():
    # seed 0 first draws a singular matrix (its third row is 2/3 of its
    # first); the document is the one the det pre-check gave before
    rng = random.Random(0)
    first = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
             for _ in range(3)]
    assert Matrix(first).det() == 0
    c = {(1, 2, 1): "37/12", (1, 2, 2): "163/15", (1, 2, 3): "-179/15",
         (1, 3, 1): "11/3", (1, 3, 2): "161/15", (1, 3, 3): "-163/15",
         (2, 3, 1): "-5/6", (2, 3, 2): "-2/3", (2, 3, 3): "19/12"}
    om = {(1, 2): "-39/2", (1, 3): "-33/2", (2, 3): "15/4"}
    doc = {"c_entries": [[*key, v] for key, v in c.items()], "dim": 3,
           "omega_entries": [[*key, v] for key, v in om.items()]}
    assert serialize(orbit_sample("IX_a", Fraction(3, 2), seed=0)) == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_orbit_sample_draws_the_fraction_matrix_on_ints():
    # the (n, a) frame moved by the int draws M / m gives exactly the store the
    # Matrix of Fraction draws transports; seed 0's first draw is singular
    cases = [(label, Fraction(3, 2) if label in PARAMETRIC_LABELS else None, seed)
             for label in ALL_LABELS for seed in range(40)]
    cases += [(label, p, seed) for label in sorted(PARAMETRIC_LABELS)
              for p in (Fraction(1, 10 ** 30), Fraction(10 ** 40, 7)) for seed in range(10)]
    for label, p, seed in cases:
        sample = orbit_sample(label, p, seed=seed)
        ref = fraction_orbit_sample(label, p, seed=seed)
        assert list(sample.c_upper.items()) == list(ref.c_upper.items()), (label, p, seed)
        assert list(sample.omega_upper.items()) == list(ref.omega_upper.items()), (label, p, seed)
        assert all(type(x) is Fraction
                   for x in (*sample.c_upper.values(), *sample.omega_upper.values()))


def test_cofactor_adjugate_matches_the_elimination():
    # orbit_sample's closed-form (adj(M), det(M)) against the Bareiss elimination
    rng = random.Random(208)
    singular = 0
    for _ in range(2000):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        adj, det = _adjugate3(rows)
        assert {type(x) for r in adj for x in r} | {type(det)} == {int}, rows
        if det == 0:
            singular += 1
            with pytest.raises(SingularMatrixError):
                int_adjugate(rows)
            continue
        assert (adj, det) == int_adjugate(rows), rows
    assert singular > 0


def test_direct_determinant_matches_the_cofactors():
    # the note's and _certify's determinant, off orbit_sample's nine cofactors,
    # against the permutation expansion, on small entries and on 120-bit ones
    rng = random.Random(209)
    cases = [[[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)] for _ in range(2000)]
    cases += [[[rng.getrandbits(120) - (1 << 119) for _ in range(3)] for _ in range(3)]
              for _ in range(200)]
    for rows in cases:
        assert _adjugate3(rows)[1] == perm_det(rows), rows
    assert any(_adjugate3(rows)[1] == 0 for rows in cases)


def test_orbit_samples_classify_back():
    rng = random.Random(44)
    for label in ("V", "VI_n", "VII0", "IX"):
        for _ in range(5):
            nf = classify(orbit_sample(label, seed=rng.randint(0, 10**6)))
            assert nf.label.name == label
            assert nf.certificates.causal == EXPECTED_CAUSAL[label]


def test_orbit_parameter_invariance_spot_checks():
    for label, p in (("VI_a", Fraction(1, 2)), ("VIII_xa", 2), ("IX_a", 1)):
        for seed in range(8):
            nf = classify(orbit_sample(label, p, seed=seed))
            assert nf.label.name == label
            assert nf.parameter == pytest.approx(float(p), abs=1e-9)


def test_transform_carries_input_onto_canonical():
    # the reported transform really is the basis change, checked externally
    spec = orbit_sample("VIII_a", Fraction(3, 2), seed=9)
    nf = classify(spec)
    assert all(type(x) is float for x in flat(nf.transform))
    moved = dense_transport(([[[float(x) for x in r] for r in m] for m in c_tensor(spec)],
                             [[float(x) for x in r] for r in omega_matrix(spec)]),
                            nf.transform)
    p = nf.parameter
    canonical = eps_reconstruct(((1.0, 0, 0), (0, 1.0, 0), (0, 0, -1.0)), (0, 0, p), (0, 0, 2 * p))
    for x, y in zip(flat(moved), flat(canonical)):
        assert x == pytest.approx(y, abs=1e-9)


def test_classify_certificates_are_transport_invariant():
    for label in ("IV_x", "VI_a", "VIII_na"):
        p = 1 if label in PARAMETRIC_LABELS else None
        base = classify(generate(label, p)).certificates
        for seed in (1, 2, 3):
            cert = classify(orbit_sample(label, p, seed=seed)).certificates
            assert cert == base


# --- public API ---------------------------------------------------------------

def test_public_api_resolves_without_test_only_names():
    for name in omegalie.__all__:
        getattr(omegalie, name)
    deleted = ("ScalingGroup", "residual_scalings", "causal_character", "levi_civita",
               "forced_omega", "inertia", "deformability", "validate_skew",
               "omega_rhs_is_identically_zero", "dual_c", "adjugate", "congruence_diagonalize")
    assert not set(deleted) & set(omegalie.__all__)
    assert not any(hasattr(omegalie, name) for name in deleted)
    assert not hasattr(omegalie.tensor_core, "congruence_diagonalize")
    assert not any(hasattr(Matrix, name)
                   for name in ("zero", "from_rational", "scale", "T", "astype_float",
                                "diagonal", "identity", "transpose", "apply"))
    assert not hasattr(omegalie.classify3d, "_rvec")
    # the inertia is a plain int triple: no record class of its own
    assert not hasattr(omegalie, "Inertia") and "Inertia" not in omegalie.__all__
    assert "Inertia" not in omegalie._DEFERRED and not hasattr(omegalie.classify3d, "Inertia")
    assert not hasattr(omegalie.DeformabilityResult, "omega")
    assert not hasattr(NabTriple, "satisfies_forced_b")
    assert not hasattr(AlgebraSpec, "basis")
    assert not hasattr(AlgebraSpec, "astype_float")
    assert not any(hasattr(module, name) for module in (omegalie.decomp3d, omegalie.tensor_core)
                   for name in ("dual_c", "adjugate"))
    assert not hasattr(omegalie, "ExactnessError") and "ExactnessError" not in omegalie.__all__
    assert not hasattr(omegalie.io_cli, "ExactnessError")
    assert not any(hasattr(AlgebraSpec, name) for name in ("zero_value", "c_at", "omega_at"))
    assert not hasattr(AlgebraSpec.from_entries(3), "zero_value")
    assert not hasattr(omegalie.tensor_core, "_field")
    assert hasattr(NormalForm, "transform") and not hasattr(NormalForm, "canonical")
    # the store is the only data shape: no dense views, constructor or skew errors
    for name in ("SkewViolation", "SkewViolationError", "invert", "Scalar"):
        assert not hasattr(omegalie, name) and name not in omegalie.__all__
        assert not hasattr(omegalie.algebra_core, name) and not hasattr(omegalie.tensor_core, name)
    assert not any(hasattr(AlgebraSpec, name) for name in ("c", "omega", "_set"))
    assert not any(hasattr(omegalie.ResidualTensor, name)
                   for name in ("components", "nonzero_components"))
    # one route to the trace candidate: check_deformability; the alpha split is a test oracle
    for name in ("GeneralSplit", "split_trace", "induced_omega"):
        assert not hasattr(omegalie, name) and name not in omegalie.__all__
        assert not hasattr(omegalie.decomp_nd, name)
    assert not hasattr(omegalie.decomp_nd, "_induced_upper")
    assert not hasattr(omegalie.classify3d, "_det3")
    assert not hasattr(omegalie.DeformabilityResult, "candidate")
    # one route per dim-3 fact: t_of is the one t, from_entries(dim) the one zero spec
    assert not hasattr(omegalie, "t_vector") and "t_vector" not in omegalie.__all__
    assert not any(hasattr(omegalie.decomp3d, name) for name in ("t_vector", "_triple_view"))
    assert not hasattr(AlgebraSpec, "zero")
    with pytest.raises(TypeError):
        AlgebraSpec(2, (((0, 0), (0, 0)), ((0, 0), (0, 0))), ((0, 0), (0, 0)))


PUBLIC_API = [
    "AlgebraSpec", "BianchiLabel", "DeformabilityResult", "DocumentError",
    "ExactCertificates", "FIRST_TABLE_ORDER", "FloatRangeError",
    "Matrix", "NabTriple", "NormalForm", "NotAnAlgebraError",
    "PARAMETRIC_LABELS", "ResidualTensor", "SECOND_TABLE_ORDER",
    "SingularMatrixError", "bracket", "check_deformability", "classify",
    "decompose", "document_object", "forced_b", "generate", "jacobiator",
    "omega_rhs", "omega_value", "orbit_sample", "parse", "rational",
    "reconstruct", "residual", "serialize", "t_of", "table_row", "transport",
]


def test_public_api_is_pinned():
    # a name enters or leaves the package's surface only by editing this list
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert omegalie.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        getattr(omegalie, name)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_reads_resolve():
    # bench/spans.py wraps these two methods on the class itself
    assert {"det", "__matmul__"} <= set(omegalie.tensor_core.Matrix.__dict__)
    layers = next(ast.literal_eval(node.value) for node in ast.parse(
        (BENCH / "spans.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    for layer in layers:
        assert getattr(omegalie, layer).__name__ == f"omegalie.{layer}"
    # every attribute chain the bench scripts read off the package or io_cli
    roots = {"ol": omegalie, "package": omegalie, "cli": omegalie.io_cli}
    chains = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in roots:
                chains.add((node.id, *attrs))
    assert {("ol", "AlgebraSpec", "from_entries"), ("ol", "jacobiator"),
            ("cli", "run")} <= chains
    for root, *attrs in chains:
        obj = roots[root]
        for attr in attrs:
            obj = getattr(obj, attr)
