"""Exact scalar and matrix layer, cross-checked against naive oracles."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie import Matrix, SingularMatrixError, generate, rational, transport
from omegalie.classify3d import int_congruence
from omegalie.tensor_core import cleared, int_adjugate
from oracles import (adjugate, descartes_inertia, diagonal, fraction_congruence_diagonalize,
                     identity, inertia, inverse, mat_vec, perm_adjugate, perm_det, scale,
                     transpose)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=9)


def rand_matrix(rng, dim=3, num=6, den=3):
    return Matrix(tuple(tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                              for _ in range(dim)) for _ in range(dim)))


def rand_symmetric(rng, dim=3):
    m = rand_matrix(rng, dim)
    return Matrix(tuple(tuple(m[i][j] + m[j][i] for j in range(dim)) for i in range(dim)))


# --- rational -----------------------------------------------------------

def test_rational_coercions():
    assert rational(3) == Fraction(3)
    assert rational(Fraction(2, 4)) == Fraction(1, 2)
    assert rational("2/4") == Fraction(1, 2)
    assert rational("-7") == Fraction(-7)


def test_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(True)
    for text in ("x", "1/0"):
        with pytest.raises(ValueError, match=f"^malformed rational '{text}'; write 'p' or 'p/q'$"):
            rational(text)
    with pytest.raises(TypeError, match="cannot interpret NoneType"):
        rational(None)


def test_rational_reads_only_p_or_p_over_q():
    # the one grammar of documents, --param and the library
    for text in ("1.5", "1e3", " 2", "2 ", "+1", "1/-2", "1/02", "1_000", "0x10", ""):
        with pytest.raises(ValueError, match=re.escape(f"malformed rational {text!r}; "
                                                       "write 'p' or 'p/q'") + "$"):
            rational(text)


@given(rationals)
@settings(deadline=None)
def test_rational_is_identity_on_fractions(x):
    assert rational(x) == x and isinstance(rational(x), Fraction)


# --- Matrix basics ------------------------------------------------------

def test_matrix_construction_and_ops():
    m = Matrix(((1, 2), (3, 4)))
    assert m.dim == 2
    assert transpose(m) == Matrix(((1, 3), (2, 4)))
    assert m @ identity(2) == m
    assert (m @ m)[0][1] == 2 + 8
    assert mat_vec(m, (1, 0)) == (1, 3)
    assert scale(m, 2) == Matrix(((2, 4), (6, 8)))
    assert diagonal((5, 7)) == Matrix(((5, 0), (0, 7)))
    for rows in (((1, 2),), ((1, 2), (3,)), ()):
        with pytest.raises(ValueError, match="square and non-empty"):
            Matrix(rows)
    # a row that is a str is refused, not read as one-character numerals
    for rows in (["12", "34"], ((1, 2), "34"), "12", ["1"], ["100", "010", "001"]):
        with pytest.raises(TypeError, match="^a vector is a sequence of scalars, not a str$"):
            Matrix(rows)
    with pytest.raises(TypeError, match="^a vector is a sequence of scalars, not a str$"):
        transport(generate("IX"), Matrix(["100", "010", "001"]))
    assert Matrix([["1/2", 2], (3, Fraction(4))]) == Matrix(((Fraction(1, 2), 2), (3, 4)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        m @ identity(3)


@given(st.lists(st.fractions(max_denominator=10 ** 12), max_size=9))
@settings(deadline=None)
def test_cleared_is_in_lowest_terms(xs):
    # over the lcm of the denominators no common factor is left: a prime
    # dividing the lcm divides some denominator fully, and that numerator is
    # coprime to it
    nums, den = cleared(xs)
    assert math.gcd(*nums, den) == 1
    assert [Fraction(x, den) for x in nums] == xs
    assert all(type(x) is int for x in (*nums, den))


def test_matrix_is_immutable():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()
    with pytest.raises(AttributeError):
        del m.rows
    assert m == identity(2) and m.det() == 1


def test_matrix_symmetry():
    assert Matrix(((0, 1), (1, 0))).is_symmetric()
    assert not Matrix(((0, 1), (2, 0))).is_symmetric()
    # equal entries that are distinct objects, or one shared object, read alike
    half, shared = Fraction(1, 2), Fraction(3, 4)
    assert Matrix(((1, half), (Fraction(2, 4), 1))).is_symmetric()
    assert Matrix(((0, shared, 1), (shared, 0, 5), (1, 5, 0))).is_symmetric()
    assert not Matrix(((0, shared, 1), (shared, 0, 5), (1, -5, 0))).is_symmetric()
    assert Matrix(((7,),)).is_symmetric()
    rng = random.Random(83)
    for dim in range(1, 5):
        for _ in range(50):
            rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
                    for _ in range(dim)]
            m = Matrix(rows)
            assert m.is_symmetric() == all(rows[i][j] == rows[j][i]
                                           for i in range(dim) for j in range(dim))


# --- determinant / inverse / adjugate vs oracles ------------------------

def rank_deficient(rng, dim, den=3):
    """A random matrix whose last row is a rational combination of the others
    (the zero matrix in dim 1)."""
    rows = [list(r) for r in rand_matrix(rng, dim, den=den).rows]
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, den)) for _ in range(dim - 1)]
    rows[-1] = [sum((f * r[j] for f, r in zip(coeffs, rows)), Fraction(0)) for j in range(dim)]
    return Matrix(rows)


def test_det_matches_permutation_expansion():
    rng = random.Random(101)
    for _ in range(60):
        m = rand_matrix(rng)
        assert m.det() == perm_det([list(r) for r in m.rows])
    for dim in range(1, 6):
        for den in (3, 10 ** 12):
            for m in (rand_matrix(rng, dim, den=den), rank_deficient(rng, dim, den)):
                det = m.det()
                assert det == perm_det([list(r) for r in m.rows]) and type(det) is Fraction


def test_det_handles_singular_and_pivot_free_rows():
    assert Matrix(((1, 2, 3), (2, 4, 6), (0, 1, 1))).det() == 0
    assert Matrix(((0, 1), (1, 0))).det() == -1


def test_invert_round_trip():
    rng = random.Random(202)
    seen = 0
    while seen < 40:
        m = rand_matrix(rng)
        if m.det() == 0:
            continue
        seen += 1
        assert m @ inverse(m) == identity(3)
        assert inverse(m) @ m == identity(3)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(((1, 2), (2, 4))))
    rng = random.Random(205)
    for dim in range(1, 6):
        with pytest.raises(SingularMatrixError):
            inverse(rank_deficient(rng, dim))


def test_invert_is_the_adjugate_over_the_determinant():
    rng = random.Random(206)
    for dim in range(1, 6):
        for den in (1, 3, 10 ** 12):
            m = rand_matrix(rng, dim, den=den)
            while m.det() == 0:
                m = rand_matrix(rng, dim, den=den)
            rows = [list(r) for r in m.rows]
            det = perm_det(rows)
            inv = inverse(m)
            assert [list(r) for r in inv.rows] == [[x / det for x in r]
                                                   for r in perm_adjugate(rows)], m
            assert entry_types(inv) == {Fraction}, m


def test_int_adjugate_matches_the_cofactors():
    # the one elimination behind det, inverse and transport, on its own int input
    rng = random.Random(207)
    for dim in range(1, 6):
        for _ in range(30):
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(dim)]
                    for _ in range(dim)]
            det = perm_det(rows)
            if det == 0:
                with pytest.raises(SingularMatrixError):
                    int_adjugate(rows)
                continue
            adj, got = int_adjugate(rows)
            assert (adj, got) == (perm_adjugate(rows), det), rows
            assert {type(x) for r in adj for x in r} | {type(got)} == {int}, rows


def test_adjugate_identity_and_oracle():
    rng = random.Random(303)
    for _ in range(40):
        m = rand_matrix(rng)
        adj = adjugate(m)
        assert m @ adj == scale(identity(3), m.det())
        assert [list(r) for r in adj.rows] == perm_adjugate([list(r) for r in m.rows])


def entry_types(m):
    return {type(x) for r in m.rows for x in r}


def test_kernels_divide_exactly_on_int_entries():
    # 1.0 == Fraction(1), so only the type shows a float leak
    ints = [identity(3), Matrix(((2, 1), (1, 1))), Matrix(((5,),)),
            Matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1))), Matrix(((1, 2, 3), (0, 1, 4), (5, 6, 0))),
            Matrix(((1, 2, 3), (2, 4, 6), (0, 1, 1)))]
    for m in ints:
        assert entry_types(m) == {Fraction}, m  # construction converts the ints
        assert type(m.det()) is Fraction, m
        assert entry_types(adjugate(m)) == {Fraction}, m
        if m.det() != 0:
            assert entry_types(inverse(m)) == {Fraction}, m
            assert m @ inverse(m) == identity(m.dim)
    assert Matrix(((2, 1), (1, 1))).det() == 1
    assert type(Matrix(((0, 1), (0, 1))).det()) is Fraction


# --- congruence diagonalization and inertia -----------------------------

def congruence_diagonalize(m):
    """(p, d, det(p)) with m = p diag(d) p^T, read off ``int_congruence`` of
    m's int rows M = den m: column j of p is cols[j] / dens[j] and d_i is
    piv_i / (den prev_i); every entry it returns is an int, det(p) = +-1."""
    rows, den = m.int_rows()
    cols, dens, d, det = int_congruence(rows)
    assert {type(x) for x in [*dens, *(x for col in cols for x in col),
                              *(x for pair in d for x in pair)]} <= {int}
    assert type(det) is int and det in (1, -1)
    p = Matrix(tuple(tuple(Fraction(col[r], s) for col, s in zip(cols, dens))
                     for r in range(m.dim)))
    return p, tuple(Fraction(num, den * prev) for num, prev in d), det


def test_congruence_diagonalize_structure():
    rng = random.Random(404)
    for _ in range(60):
        m = rand_symmetric(rng)
        p, d, det = congruence_diagonalize(m)
        assert p @ diagonal(d) @ transpose(p) == m
        assert det == p.det() and det in (1, -1)


def test_congruence_diagonalize_hollow_matrix():
    # no nonzero diagonal entry: forces the rank-two split path
    m = Matrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    p, d, det = congruence_diagonalize(m)
    assert p @ diagonal(d) @ transpose(p) == m
    assert det == p.det() and det in (1, -1)
    assert inertia(m) == (1, 1, 1)
    mixed = Matrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert inertia(mixed) == (2, 1, 0)


@st.composite
def symmetric_matrices(draw):
    # dim 1-5: full, hollow (every diagonal entry 0, so the split runs) or of
    # rank below dim; denominators up to 10^12, small entries and zeros mixed
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                      st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 12)))
    kind = draw(st.sampled_from(("full", "hollow", "low rank")))
    if kind == "low rank":  # b diag(e) b^T with k < n columns
        k = draw(st.integers(0, n - 1))
        b = [[draw(entry) for _ in range(k)] for _ in range(n)]
        e = [draw(entry) for _ in range(k)]
        rows = [[sum((b[i][t] * e[t] * b[j][t] for t in range(k)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    else:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + (kind == "hollow"), n):
                rows[i][j] = rows[j][i] = draw(entry)
    return kind, Matrix(rows)


@given(symmetric_matrices())
@settings(deadline=None, max_examples=200)
def test_congruence_diagonalize_matches_the_fraction_reference(drawn):
    # the fraction-free elimination on ints returns exactly the (p, d, det)
    # of step-by-step Fraction elimination, with int entries throughout
    kind, m = drawn
    p, d, det = congruence_diagonalize(m)
    assert (p, d, det) == fraction_congruence_diagonalize(m)
    if kind == "low rank":
        assert 0 in d


def test_inertia_matches_descartes_oracle():
    rng = random.Random(505)
    for _ in range(60):
        m = rand_symmetric(rng)
        assert inertia(m) == descartes_inertia([list(r) for r in m.rows])


def test_inertia_known_cases():
    assert inertia(diagonal((1, 1, -1))) == (2, 1, 0)
    assert inertia(diagonal((0, 0, 0))) == (0, 0, 3)
    assert inertia(diagonal((Fraction(1, 7), 3, 2))) == (3, 0, 0)


@given(st.lists(rationals, min_size=3, max_size=3))
@settings(deadline=None)
def test_inertia_of_diagonal_counts_signs(d):
    expect = (sum(1 for x in d if x > 0), sum(1 for x in d if x < 0),
              sum(1 for x in d if x == 0))
    assert inertia(diagonal(tuple(d))) == expect
