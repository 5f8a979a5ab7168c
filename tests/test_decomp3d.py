"""Dual (n, a, b) decomposition in dimension 3 and its inverse."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegalie import (AlgebraSpec, Matrix, NabTriple, decompose, forced_b,
                      generate, orbit_sample, reconstruct, residual, t_of)
from omegalie.decomp3d import _store, _t, _t_residual, _view
from oracles import (c_tensor, diagonal, dual_c, eps_decompose, eps_dual_c,
                     eps_reconstruct, flat, forced_omega, fraction_decompose,
                     fraction_t_vector, identity, omega_matrix, spec_from_dense)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def rand_triple(rng):
    sym = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
           for _ in range(3)]
    n = Matrix(tuple(tuple(sym[i][j] + sym[j][i] for j in range(3)) for i in range(3)))
    a = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
    b = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
    return NabTriple(n, a, b)


def rand_spec(rng):
    return reconstruct(rand_triple(rng))


# --- the frozen table columns: (label, n diagonal, a, b), parametric rows
#     written with their pattern scaled by the parameter in the test body
FIRST_ROWS = [
    ("I", (0, 0, 0)), ("II", (1, 0, 0)), ("VI0", (1, -1, 0)),
    ("VII0", (1, 1, 0)), ("VIII", (1, 1, -1)), ("IX", (1, 1, 1)),
]
SECOND_ROWS = [
    ("V", (0, 0, 0), (0, 0, 1), (0, 0, 0), False),
    ("IV", (1, 0, 0), (0, 0, 1), (0, 0, 0), False),
    ("IV_x", (1, 0, 0), (1, 0, 0), (-2, 0, 0), False),
    ("VI_a", (1, -1, 0), (0, 0, 1), (0, 0, 0), True),
    ("VI_x", (1, -1, 0), (1, 0, 0), (-2, 0, 0), False),
    ("VI_y", (1, -1, 0), (0, 1, 0), (0, 2, 0), False),
    ("VI_n", (1, -1, 0), (1, 1, 0), (-2, 2, 0), False),
    ("VII_a", (1, 1, 0), (0, 0, 1), (0, 0, 0), True),
    ("VII_x", (1, 1, 0), (1, 0, 0), (-2, 0, 0), False),
    ("VIII_a", (1, 1, -1), (0, 0, 1), (0, 0, 2), True),
    ("VIII_xa", (1, 1, -1), (1, 0, 0), (-2, 0, 0), True),
    ("VIII_na", (1, 1, -1), (1, 0, 1), (-2, 0, 2), True),
    ("IX_a", (1, 1, 1), (0, 0, 1), (0, 0, -2), True),
]


def test_first_table_decompositions():
    for label, nd in FIRST_ROWS:
        trip = decompose(generate(label))
        assert trip.n == diagonal(nd), label
        assert trip.a == (0, 0, 0) and trip.b == (0, 0, 0), label


def test_second_table_decompositions_and_forced_b():
    for label, nd, apat, bpat, parametric in SECOND_ROWS:
        for p in ((Fraction(1, 2), Fraction(1), Fraction(2)) if parametric else (1,)):
            trip = decompose(generate(label, p if parametric else None))
            assert trip.n == diagonal(nd), label
            assert trip.a == tuple(x * p for x in apat), label
            assert trip.b == tuple(x * p for x in bpat), label
            assert trip.b == forced_b(trip.n, trip.a), label


def test_canonical_commutation_relations():
    # [e1,e2] = n3 e3 - a2 e1 + a1 e2  (and cyclic), omega(e1,e2) = -2 n3 a3
    for label, nd, apat, bpat, parametric in SECOND_ROWS:
        p = Fraction(3, 2) if parametric else None
        s = generate(label, p)
        n = nd
        a = tuple(x * (p if parametric else 1) for x in apat)
        # c[k][i][j] is the e_(k+1) component of [e_(i+1), e_(j+1)]
        c, om = c_tensor(s), omega_matrix(s)
        assert tuple(m[0][1] for m in c) == (-a[1], a[0], n[2])
        assert tuple(m[2][0] for m in c) == (a[2], n[1], -a[0])
        assert tuple(m[1][2] for m in c) == (n[0], -a[2], a[1])
        assert om[0][1] == -2 * n[2] * a[2]
        assert om[2][0] == -2 * n[1] * a[1]
        assert om[1][2] == -2 * n[0] * a[0]


def test_dual_c_of_type_ii():
    s = generate("II")  # [e2,e3] = e1 gives dual matrix e11 = 1
    assert dual_c(c_tensor(s)) == diagonal((1, 0, 0))


def test_decompose_type_v():
    s = AlgebraSpec.from_entries(3, [(1, 3, 1, "-1"), (2, 3, 2, "-1")], [])
    trip = decompose(s)
    assert trip.n == diagonal((0, 0, 0))
    assert trip.a == (0, 0, 1)
    assert trip.b == (0, 0, 0)


def test_reconstruct_vi_x_omega():
    trip = NabTriple(diagonal((1, -1, 0)), (1, 0, 0), (-2, 0, 0))
    om = omega_matrix(reconstruct(trip))
    assert om[1][2] == -2
    assert om[0][1] == 0 and om[2][0] == 0


def test_round_trips_on_random_data():
    rng = random.Random(21)
    for _ in range(120):
        trip = rand_triple(rng)
        assert decompose(reconstruct(trip)) == trip
        spec = rand_spec(rng)
        assert reconstruct(decompose(spec)) == spec


@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=6, max_size=6))
@settings(deadline=None, max_examples=60)
def test_round_trip_property(a, b, sym6):
    n = Matrix(((sym6[0], sym6[1], sym6[2]),
                (sym6[1], sym6[3], sym6[4]),
                (sym6[2], sym6[4], sym6[5])))
    trip = NabTriple(n, tuple(a), tuple(b))
    assert decompose(reconstruct(trip)) == trip


def test_decompose_arbitrary_spec_round_trips():
    # decompose is defined for any skew (c, omega), valid algebra or not
    rng = random.Random(22)
    for _ in range(40):
        c_entries = [(i, j, k, Fraction(rng.randint(-5, 5), rng.randint(1, 2)))
                     for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3)]
        om = [(i, j, Fraction(rng.randint(-5, 5))) for i, j in ((1, 2), (1, 3), (2, 3))]
        s = AlgebraSpec.from_entries(3, c_entries, om)
        assert reconstruct(decompose(s)) == s


def test_t_vector_zero_iff_forced_b():
    rng = random.Random(23)
    for _ in range(80):
        trip = rand_triple(rng)
        is_forced = trip.b == forced_b(trip.n, trip.a)
        assert (t_of(reconstruct(trip)) == (0, 0, 0)) == is_forced
        assert residual(reconstruct(trip)).is_zero == is_forced
    forced = NabTriple(trip.n, trip.a, forced_b(trip.n, trip.a))
    assert t_of(reconstruct(forced)) == (0, 0, 0)


def test_forced_omega_matches_forced_b_route():
    rng = random.Random(24)
    for _ in range(40):
        spec = rand_spec(rng)
        om = forced_omega(c_tensor(spec))
        trip = decompose(spec)
        rebuilt = reconstruct(NabTriple(trip.n, trip.a, forced_b(trip.n, trip.a)))
        assert om == omega_matrix(rebuilt)
        assert residual(spec_from_dense(c_tensor(spec), om)).is_zero


def nested(x):
    return [nested(y) for y in x] if isinstance(x, (tuple, list)) else x


def test_dictionary_matches_eps_sums():
    # the cyclic-index kernels against the 27-term Levi-Civita sums, on
    # skew c and omega built from int and Fraction entries
    rng = random.Random(26)
    for _ in range(60):
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        om = [[0] * 3 for _ in range(3)]
        for j, k in ((0, 1), (0, 2), (1, 2)):
            for i in range(3):
                v = rng.choice((0, rng.randint(-9, 9)))
                c[i][j][k], c[i][k][j] = v, -v
            w = rng.choice((0, rng.randint(-9, 9)))
            om[j][k], om[k][j] = w, -w
        den = rng.randint(1, 4)
        for kind, conv in (("int", int), ("fraction", lambda x: Fraction(x, den))):
            spec = spec_from_dense([[[conv(x) for x in r] for r in p] for p in c],
                                   [[conv(x) for x in r] for r in om])
            cm = dual_c(c_tensor(spec))
            assert nested(cm.rows) == eps_dual_c(c_tensor(spec))
            trip = decompose(spec)
            assert (nested(trip.n.rows), list(trip.a), list(trip.b)) == eps_decompose(spec)
            rebuilt = reconstruct(trip)
            assert (nested(c_tensor(rebuilt)), nested(omega_matrix(rebuilt))) == eps_reconstruct(
                nested(trip.n.rows), trip.a, trip.b)
            assert rebuilt == spec
            raw = NabTriple(Matrix(tuple(tuple(conv(x) for x in r) for r in
                                         ((2, 1, 0), (1, -3, 5), (0, 5, 0)))),
                            tuple(conv(x) for x in c[0][1]), tuple(conv(x) for x in om[2]))
            from_raw = reconstruct(raw)
            assert (nested(c_tensor(from_raw)), nested(omega_matrix(from_raw))) == eps_reconstruct(
                nested(raw.n.rows), raw.a, raw.b)
            for out in (cm.rows, trip.n.rows, trip.a, trip.b, c_tensor(rebuilt),
                        omega_matrix(rebuilt), c_tensor(from_raw), omega_matrix(from_raw)):
                assert {type(x) for x in flat(out)} == {Fraction}, kind


# store values: ints, small fractions, and denominators up to 10^12
store_values = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)))
C_KEYS = [(i, j, k) for i, j in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3)]
dim3_specs = st.builds(
    lambda c, om: AlgebraSpec.from_entries(3, [(*key, v) for key, v in c.items()],
                                           [(*key, v) for key, v in om.items()]),
    st.dictionaries(st.sampled_from(C_KEYS), store_values, max_size=9),
    st.dictionaries(st.sampled_from([(1, 2), (1, 3), (2, 3)]), store_values, max_size=3))


def _spec(c=(), om=()):
    return AlgebraSpec.from_entries(3, c, om)


@given(dim3_specs)
@example(AlgebraSpec.from_entries(3))  # the empty store
# c integral with omega_12 = 1/2: no power of c's denominator 1 clears omega
@example(_spec([(1, 2, 3, 1), (2, 3, 1, -2), (1, 3, 2, 3)], [(1, 2, Fraction(1, 2))]))
# omega integral with c denominators
@example(_spec([(1, 2, 3, Fraction(1, 3)), (2, 3, 1, Fraction(2, 5)), (1, 3, 1, Fraction(1, 7))],
               [(1, 3, 2)]))
# nonzero t: the edited omega of a valid spec, and one that the int test
# with lc in place of lc^2 would pass as zero
@example(_spec([(1, 3, 1, -1), (2, 3, 2, -1)], [(1, 2, 1)]))
@example(_spec([(1, 2, 2, -1), (1, 3, 2, Fraction(-1, 2)), (2, 3, 1, Fraction(-1, 2))],
               [(2, 3, -1)]))
# denominators up to 10^12, valid (t = 0) and not
@example(orbit_sample("VIII_a", Fraction(10 ** 12 - 1, 10 ** 12), seed=3))
@example(_spec([(1, 2, 3, Fraction(1, 10 ** 12)), (2, 3, 3, Fraction(7, 10 ** 12 - 11))],
               [(2, 3, Fraction(-3, 999_999_999_989))]))
@settings(deadline=None, max_examples=150)
def test_int_view_matches_the_fraction_reference(spec):
    trip, ref = decompose(spec), fraction_decompose(spec)
    assert trip == ref
    assert all(type(x) is Fraction for x in (*flat(trip.n.rows), *trip.a, *trip.b))
    # n is built symmetric: each off-diagonal Fraction sits at (i, j) and (j, i)
    assert all(trip.n[i][j] is trip.n[j][i] for i in range(3) for j in range(3))
    t = t_of(spec)
    assert t == fraction_t_vector(ref)
    assert all(type(x) is Fraction for x in t)
    assert (t == (0, 0, 0)) == residual(spec).is_zero


@given(dim3_specs)
@example(AlgebraSpec.from_entries(3))  # t = 0 on the empty store
@example(orbit_sample("IX_a", Fraction(3, 2), seed=5))  # t = 0 on a full store
# pairwise coprime denominators, t != 0
@example(_spec([(1, 2, 3, Fraction(1, 10 ** 12 + 39)), (2, 3, 1, Fraction(5, 999_999_999_989)),
                (1, 3, 3, Fraction(-2, 7))], [(1, 3, Fraction(4, 10 ** 12 + 37))]))
@example(_spec([(1, 3, 1, -1), (2, 3, 2, -1)], [(1, 2, 1)]))  # one nonzero t_m
@settings(deadline=None, max_examples=150)
def test_residual_read_off_t_matches_the_residual_kernel(spec):
    # component (m, s(1, 2, 3)) = sign(s) t_m / 6 is all of the dim-3 residual
    res, ref = _t_residual(*_t(_view(spec))), residual(spec)
    assert res == ref
    assert [idx for idx, _ in res.nonzero] == [idx for idx, _ in ref.nonzero]
    assert all(type(x) is Fraction and type(y) is Fraction
               for (_, x), (_, y) in zip(res.nonzero, ref.nonzero))


# codec stores: each of the 9 c and 3 omega slots zero or a value over its own
# power of a prime, the primes distinct, so the denominators are pairwise
# coprime and omega's are coprime to c's
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 10 ** 9 + 7, 10 ** 12 + 39)


@st.composite
def coprime_stores(draw):
    primes = draw(st.permutations(PRIMES))
    values = [draw(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)))
              * Fraction(1, p ** draw(st.integers(0, 3))) for p in primes[:12]]
    return _spec([(*key, v) for key, v in zip(C_KEYS, values)],
                  [(*key, v) for key, v in zip([(1, 2), (1, 3), (2, 3)], values[9:])])


@given(coprime_stores())
@example(AlgebraSpec.from_entries(3))
@example(orbit_sample("VIII_xa", Fraction(3, 2), seed=7))  # a full, valid store
@settings(deadline=None, max_examples=200)
def test_store_inverts_the_view(spec):
    back = _store(*_view(spec))
    assert back == spec
    assert list(back.c_upper.items()) == list(spec.c_upper.items())
    assert list(back.omega_upper.items()) == list(spec.omega_upper.items())
    assert all(type(v) is Fraction for v in (*back.c_upper.values(), *back.omega_upper.values()))


def test_decompose_requires_dim3():
    with pytest.raises(ValueError):
        decompose(AlgebraSpec.from_entries(2))
    with pytest.raises(ValueError):
        decompose(AlgebraSpec.from_entries(4))
    with pytest.raises(ValueError):
        t_of(AlgebraSpec.from_entries(4))
    for n, a in ((identity(2), (0, 0)), (identity(3), (0, 0)), (identity(2), (0, 0, 0))):
        with pytest.raises(ValueError, match="requires 3-dimensional data"):
            forced_b(n, a)
    with pytest.raises(TypeError, match="^forced_b needs a Matrix, got list$"):
        forced_b([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 1))


def test_nab_triple_validation():
    with pytest.raises(ValueError):
        NabTriple(Matrix(((0, 1, 0), (0, 0, 0), (0, 0, 0))), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        NabTriple(identity(2), (0, 0), (0, 0))
    with pytest.raises(TypeError, match="^NabTriple needs a Matrix, got list$"):
        NabTriple([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 1), (0, 0, 0))
    # a and b are vectors: a str is refused, not read as one-character numerals
    for a, b in (("100", (0, 0, 0)), ((0, 0, 1), "000"), ("10", (0, 0, 0)), ((0, 0, 1), "")):
        with pytest.raises(TypeError, match="^a vector is a sequence of scalars, not a str$"):
            NabTriple(identity(3), a, b)
    trip = NabTriple(identity(3), ["1/2", 0, 1], (Fraction(1), "-2", 0))
    assert trip.a == (Fraction(1, 2), 0, 1) and trip.b == (1, -2, 0)
    assert all(type(x) is Fraction for x in (*trip.a, *trip.b))
