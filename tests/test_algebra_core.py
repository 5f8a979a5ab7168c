"""Spec container, bracket evaluation, residual tensor, basis transport."""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie import (AlgebraSpec, DocumentError, SingularMatrixError, Matrix,
                      NabTriple, bracket, check_deformability, decompose,
                      forced_b, generate, jacobiator, omega_rhs, omega_value,
                      orbit_sample, parse, reconstruct, residual, transport)
from omegalie.decomp_nd import _trace_covector
from omegalie.io_cli import run
from oracles import (basis, c_tensor, deformed_identity_holds, dense_bracket,
                     dense_omega, dense_residual, dense_transport, diagonal,
                     eps_reconstruct, flat, identity, omega_matrix,
                     omega_rhs_is_identically_zero, residual_components,
                     spec_from_dense, trace_omega, trace_split)
from test_io_cli import exact_specs


def rand_spec(rng, dim=3, valid_omega=False):
    c_entries = [(i, j, k, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                 for i in range(1, dim) for j in range(i + 1, dim + 1)
                 for k in range(1, dim + 1)]
    om_entries = [] if valid_omega else [
        (i, j, Fraction(rng.randint(-2, 2)))
        for i in range(1, dim) for j in range(i + 1, dim + 1)]
    return AlgebraSpec.from_entries(dim, c_entries, om_entries)


def rand_transport(rng, dim=3, den=2):
    while True:
        p = Matrix(tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, den))
                               for _ in range(dim)) for _ in range(dim)))
        if p.det() != 0:
            return p


# --- construction and accessors -----------------------------------------

def test_from_entries_skew_completion():
    s = AlgebraSpec.from_entries(3, [(2, 3, 1, "1")], [(1, 2, "1/2")])
    c, om = c_tensor(s), omega_matrix(s)
    assert c[0][1][2] == 1
    assert c[0][2][1] == -1
    assert om[0][1] == Fraction(1, 2)
    assert om[1][0] == Fraction(-1, 2)
    assert c[1][1][2] == 0


def test_from_entries_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate c entry"):
        AlgebraSpec.from_entries(3, [(1, 2, 3, 1), (1, 2, 3, 2)])
    with pytest.raises(ValueError, match=r"^c_entries\[0\]: index 4 out of range 1\.\.3$"):
        AlgebraSpec.from_entries(3, [(1, 4, 3, 1)])
    with pytest.raises(ValueError, match=r"^c_entries\[0\]: requires i < j, got i=2, j=1$"):
        AlgebraSpec.from_entries(3, [(2, 1, 3, 1)])  # needs i < j
    with pytest.raises(ValueError, match="duplicate omega entry"):
        AlgebraSpec.from_entries(3, [], [(1, 2, 1), (1, 2, 1)])
    for entry, message in (((1, 4, 1), "index 4 out of range 1..3"),
                           ((2, 1, 1), "requires i < j, got i=2, j=1"),
                           ((0, 2, 1), "index 0 out of range 1..3")):
        with pytest.raises(ValueError, match=re.escape(f"omega_entries[0]: {message}") + "$"):
            AlgebraSpec.from_entries(3, [], [entry])
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        AlgebraSpec.from_entries(0)
    with pytest.raises(TypeError):
        AlgebraSpec.from_entries(3, [(1, 2, 3, 0.5)])


def test_from_entries_refuses_what_documents_refuse():
    # the library reads entries by the document's rules and messages
    for index in (True, 1.0, "2"):
        with pytest.raises(TypeError, match=re.escape(
                f"c_entries[0]: indices must be integers, got {index!r}") + "$"):
            AlgebraSpec.from_entries(4, [(index, 3, 1, 1)])
    for value in ("1.5", "1e3", " 2"):
        with pytest.raises(ValueError, match=re.escape(
                f"omega_entries[1]: malformed rational {value!r}; write 'p' or 'p/q'") + "$"):
            AlgebraSpec.from_entries(4, [], [(1, 2, 1), (2, 3, value)])


def test_constructors_refuse_floats():
    # 1.0 == Fraction(1), so a float let in would pass every == check
    zero = AlgebraSpec.from_entries(3)
    for bad in (1.0, 0.5, True):
        with pytest.raises(TypeError):
            Matrix(((1, 0), (0, bad)))
        with pytest.raises(TypeError):
            spec_from_dense((((0, 0), (0, 0)), ((0, bad), (-bad, 0))), ((0, 0), (0, 0)))
        with pytest.raises(TypeError):
            spec_from_dense(c_tensor(zero), ((0, bad, 0), (-bad, 0, 0), (0, 0, 0)))
        with pytest.raises(TypeError):
            AlgebraSpec.from_entries(3, [(1, 2, 3, bad)])
        with pytest.raises(TypeError):
            AlgebraSpec.from_entries(3, [], [(1, 2, bad)])
        with pytest.raises(TypeError):
            NabTriple(identity(3), (0, bad, 0), (0, 0, 0))
        with pytest.raises(TypeError):
            NabTriple(identity(3), (0, 0, 0), (bad, 0, 0))


def test_zero_spec():
    z = AlgebraSpec.from_entries(3)
    assert z.dim == 3
    assert residual(z).is_zero
    # the zero spec stores nothing: its dense c and omega are Fraction zeros
    assert {type(x) for x in flat(c_tensor(z)) + flat(omega_matrix(z))} == {Fraction}
    assert z.c_upper == {} and z.omega_upper == {}


# --- bracket and forms ---------------------------------------------------

def test_bracket_on_type_ii():
    s = generate("II")  # [e2, e3] = e1
    e1, e2, e3 = basis(3)
    assert bracket(s, e2, e3) == (1, 0, 0)
    assert bracket(s, e3, e2) == (-1, 0, 0)
    assert bracket(s, e1, e2) == (0, 0, 0)
    assert bracket(s, (0, 2, 0), (0, 0, Fraction(1, 2))) == (1, 0, 0)
    for x, y in (((0, 1), e3), (e1, (0, 0, 1, 0))):
        with pytest.raises(ValueError, match="does not match dim 3"):
            bracket(s, x, y)


def test_omega_value_is_skew():
    s = AlgebraSpec.from_entries(3, [], [(1, 2, "3"), (2, 3, "-1/2")])
    e1, e2, e3 = basis(3)
    assert omega_value(s, e1, e2) == 3
    assert omega_value(s, e2, e1) == -3
    assert omega_value(s, e2, e3) == Fraction(-1, 2)
    assert omega_value(s, e1, e1) == 0


def test_jacobiator_vanishes_for_so3_like_bracket():
    s = generate("IX")
    vectors = basis(3)
    for a in vectors:
        for b in vectors:
            for c in vectors:
                assert jacobiator(s, a, b, c) == (0, 0, 0)


# a valid spec with nonzero c and omega, and the public functions that read
# vectors, each as (name, function of the spec and its vector arguments, arity)
VECTOR_SPEC = orbit_sample("VIII_na", Fraction(3, 2), seed=5)
VECTOR_FUNCTIONS = (
    ("bracket", bracket, 2), ("omega_value", omega_value, 2),
    ("jacobiator", jacobiator, 3), ("omega_rhs", omega_rhs, 3),
    ("forced_b", lambda spec, a: forced_b(decompose(spec).n, a), 1))


@pytest.mark.parametrize("name, fn, arity", VECTOR_FUNCTIONS,
                         ids=[name for name, *_ in VECTOR_FUNCTIONS])
def test_vector_arguments_are_read_as_exact_rationals(name, fn, arity):
    # every argument position refuses a float, a bool and a malformed string
    # entry, and a string in place of the vector, even one of numerals
    exact = [(1, Fraction(-2, 3), 5), (Fraction(1, 2), 0, -1), (2, 1, Fraction(1, 4))][:arity]
    refused = ((0.5, TypeError, "refusing to coerce float 0.5 to an exact rational"),
               (True, TypeError, "bool is not a scalar"),
               ("1.5", ValueError, "malformed rational '1.5'; write 'p' or 'p/q'"))
    for pos in range(arity):
        for bad, error, message in refused:
            args = list(exact)
            args[pos] = (args[pos][0], bad, args[pos][2])
            with pytest.raises(error, match=re.escape(message) + "$"):
                fn(VECTOR_SPEC, *args)
        for bad in ("100", "1", ""):
            args = list(exact)
            args[pos] = bad
            with pytest.raises(TypeError, match="^a vector is a sequence of scalars, not a str$"):
                fn(VECTOR_SPEC, *args)
    # int, Fraction and p/q entries, alone or mixed, give the all-Fraction result in Fractions
    mixed = [(1, "-2/3", 5), ("1/2", 0, -1), (2, 1, Fraction(1, 4))][:arity]
    ints = [(1, 0, 5), (0, 3, -1), (2, 1, 0)][:arity]
    for args in (mixed, ints):
        got = fn(VECTOR_SPEC, *args)
        want = fn(VECTOR_SPEC, *[tuple(map(Fraction, v)) for v in args])
        assert got == want, name
        entries = got if isinstance(got, tuple) else (got,)
        assert any(entries) and all(type(x) is Fraction for x in entries), (name, got)


# --- residual ------------------------------------------------------------

def test_residual_zero_iff_identity_holds():
    rng = random.Random(11)
    for dim in (2, 3, 4):
        for _ in range(25):
            s = rand_spec(rng, dim)
            assert residual(s).is_zero == deformed_identity_holds(s)


def test_residual_equals_minus_third_of_basis_defect():
    # residual is the total antisymmetrization of c.c + delta.omega; on basis
    # triples the identity's defect is exactly -3 of it, in any dimension
    rng = random.Random(12)
    for dim in (3, 4):
        s = rand_spec(rng, dim)
        r = residual_components(residual(s))
        e = basis(dim)
        for l in range(dim):
            for j in range(dim):
                for k in range(dim):
                    defect = tuple(
                        jacobiator(s, e[l], e[j], e[k])[m]
                        - omega_rhs(s, e[l], e[j], e[k])[m]
                        for m in range(dim))
                    assert defect == tuple(-3 * r[m][l][j][k]
                                           for m in range(dim))


def test_residual_is_totally_antisymmetric():
    rng = random.Random(13)
    s = rand_spec(rng, 3)
    r = residual_components(residual(s))
    for m in range(3):
        for l in range(3):
            for j in range(3):
                for k in range(3):
                    assert r[m][l][j][k] == -r[m][j][l][k]
                    assert r[m][l][j][k] == -r[m][l][k][j]


def test_residual_known_component():
    # so(3)-like bracket forces omega = 0, so omega_12 = 1 must leave a defect
    s = AlgebraSpec.from_entries(
        3, [(2, 3, 1, 1), (1, 3, 2, -1), (1, 2, 3, 1)], [(1, 2, 1)])
    r = residual(s)
    assert not r.is_zero
    comps = dict(r.nonzero)
    assert comps[(3, 1, 2, 3)] == Fraction(1, 3)
    assert comps[(3, 2, 1, 3)] == Fraction(-1, 3)
    assert all(m == 3 for (m, _, _, _) in comps)


def test_residual_nonzero_components_are_one_based():
    s = AlgebraSpec.from_entries(3, [(1, 2, 1, 1)], [])
    for (m, l, j, k), v in residual(s).nonzero:
        assert 1 <= min(m, l, j, k) and max(m, l, j, k) <= 3
        assert v == dense_residual(s)[m - 1][l - 1][j - 1][k - 1]


def sparse_spec(rng, dim, density):
    """Random spec with each independent c and omega entry nonzero with
    probability ``density``."""
    def value():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    c_entries = [(i, j, k, value()) for i in range(1, dim) for j in range(i + 1, dim + 1)
                 for k in range(1, dim + 1) if rng.random() < density]
    om_entries = [(i, j, value()) for i in range(1, dim) for j in range(i + 1, dim + 1)
                  if rng.random() < density]
    return AlgebraSpec.from_entries(dim, c_entries, om_entries)


def residual_cases():
    # random sparsity from empty to full; each bracket also with its trace
    # candidate omega (often valid) and with integer-entry tuples
    rng = random.Random(18)
    for dim in range(2, 8):
        for density in (0.0, 0.1, 0.25, 0.5, 1.0):
            s = sparse_spec(rng, dim, density)
            yield s
            if dim >= 3:
                yield check_deformability(s).spec
        filiform = AlgebraSpec.from_entries(dim, [(1, i, i + 1, 1) for i in range(2, dim)])
        yield filiform
        yield spec_from_dense(tuple(tuple(tuple(int(x) for x in row) for row in plane)
                                    for plane in c_tensor(filiform)),
                              tuple(tuple(int(i < j) - int(j < i) for j in range(dim))
                                    for i in range(dim)))


def test_residual_matches_dense_reference():
    valid = invalid = 0
    for s in residual_cases():
        n = s.dim
        ref = dense_residual(s)
        r = residual(s)
        assert residual_components(r) == tuple(tuple(tuple(tuple(row) for row in plane)
                                                     for plane in block) for block in ref)
        expected = [((m + 1, l + 1, j + 1, k + 1), ref[m][l][j][k])
                    for m in range(n) for l in range(n) for j in range(n)
                    for k in range(n) if ref[m][l][j][k] != 0]
        assert list(r.nonzero) == expected
        for _, v in r.nonzero:
            assert type(v) is Fraction
        for block in residual_components(r):
            for plane in block:
                for row in plane:
                    assert all(type(x) is Fraction for x in row if x != 0)
        assert r.is_zero == (not expected)
        valid += r.is_zero
        invalid += not r.is_zero
    assert valid >= 10 and invalid >= 10  # both verdicts exercised


def test_bracket_and_forms_match_naive_sums():
    rng = random.Random(19)

    def vector(dim, density):
        return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     if rng.random() < density else Fraction(0) for _ in range(dim))

    for dim in range(2, 8):
        for density in (0.0, 0.25, 0.5, 1.0):
            s = sparse_spec(rng, dim, density)
            x, y, z = (vector(dim, rng.choice((0.3, 0.7, 1.0))) for _ in range(3))
            c, om = c_tensor(s), omega_matrix(s)
            xy = bracket(s, x, y)
            assert xy == dense_bracket(c, x, y)
            assert omega_value(s, x, y) == dense_omega(om, x, y)
            jac = tuple(sum(t) for t in zip(
                dense_bracket(c, x, dense_bracket(c, y, z)),
                dense_bracket(c, z, dense_bracket(c, x, y)),
                dense_bracket(c, y, dense_bracket(c, z, x))))
            assert jacobiator(s, x, y, z) == jac
            wyz, wxy, wzx = (dense_omega(om, *pair)
                             for pair in ((y, z), (x, y), (z, x)))
            assert omega_rhs(s, x, y, z) == tuple(
                wyz * x[m] + wxy * z[m] + wzx * y[m] for m in range(dim))
            # 0 == Fraction(0), so only the type shows an int zero
            for v in (*xy, omega_value(s, x, y), *jacobiator(s, x, y, z),
                      *omega_rhs(s, x, y, z)):
                assert type(v) is Fraction, (dim, density, v)
    # zero components on int basis vectors too
    e1, e2, _ = basis(3)
    zero = AlgebraSpec.from_entries(3)
    for v in (*bracket(generate("VIII_a", 2), e1, e1), omega_value(zero, e1, e2),
              *jacobiator(zero, e1, e2, e1), *omega_rhs(zero, e1, e2, e1)):
        assert type(v) is Fraction, v


def test_dim2_residual_always_zero():
    rng = random.Random(14)
    for _ in range(50):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        d = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        w = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        s = AlgebraSpec.from_entries(2, [(1, 2, 1, c), (1, 2, 2, d)], [(1, 2, w)])
        assert residual(s).is_zero
        assert deformed_identity_holds(s)


# --- omega_rhs_is_identically_zero ---------------------------------------

def test_omega_rhs_collapses_only_in_dim2():
    assert omega_rhs_is_identically_zero(((0, 5), (-5, 0)))
    om3 = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    assert not omega_rhs_is_identically_zero(om3)
    assert omega_rhs_is_identically_zero(((0, 0, 0), (0, 0, 0), (0, 0, 0)))


def test_omega_rhs_zero_checker_validates_input():
    with pytest.raises(ValueError):
        omega_rhs_is_identically_zero(((0, 1), (1, 0)))  # not skew
    with pytest.raises(ValueError):
        omega_rhs_is_identically_zero(((0, 1, 0), (-1, 0, 0)))  # ragged


# --- transport ------------------------------------------------------------

def test_transport_scaling_of_type_ii():
    s = generate("II")  # [e2, e3] = e1
    p = diagonal((1, 1, 2))  # e3' = 2 e3
    assert c_tensor(transport(s, p))[0][1][2] == 2


def test_transport_composes():
    rng = random.Random(15)
    s = rand_spec(rng, 3)
    p, q = rand_transport(rng), rand_transport(rng)
    assert transport(transport(s, p), q) == transport(s, p @ q)


def test_transport_by_identity_is_identity():
    rng = random.Random(16)
    s = rand_spec(rng, 3)
    assert transport(s, identity(3)) == s


def test_transport_preserves_validity_and_invalidity():
    rng = random.Random(17)
    for label, param in (("IX_a", 2), ("VI_n", None)):
        s = generate(label, param)
        for _ in range(5):
            moved = transport(s, rand_transport(rng))
            assert residual(moved).is_zero
    bad = AlgebraSpec.from_entries(3, [(1, 2, 3, 1)], [(1, 3, 1)])
    assert not residual(bad).is_zero
    for _ in range(5):
        assert not residual(transport(bad, rand_transport(rng))).is_zero


def test_transport_rejects_singular():
    s = AlgebraSpec.from_entries(3)
    with pytest.raises(ValueError, match="transform dimension does not match spec"):
        transport(s, Matrix(((1, 0), (0, 1))))
    with pytest.raises(TypeError, match="^transport needs a Matrix, got list$"):
        transport(s, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(SingularMatrixError):
        transport(s, Matrix(((1, 0, 0), (0, 1, 0), (1, 1, 0))))
    rng = random.Random(31)
    for dim in range(1, 6):
        rows = [list(r) for r in rand_transport(rng, dim).rows]
        rows[-1] = [Fraction(-1, 3) * x for x in rows[0]] if dim > 1 else [0]
        for spec in (AlgebraSpec.from_entries(dim), sparse_spec(rng, dim, 1.0)):
            with pytest.raises(SingularMatrixError):
                transport(spec, Matrix(rows))


def as_scalars(spec, p, kind):
    """spec and p built from int or Fraction entries."""
    conv = {"int": lambda x: int(x * 6), "fraction": Fraction}[kind]
    c = tuple(tuple(tuple(conv(x) for x in row) for row in plane) for plane in c_tensor(spec))
    om = tuple(tuple(conv(x) for x in row) for row in omega_matrix(spec))
    return spec_from_dense(c, om), Matrix(tuple(tuple(conv(x) for x in r) for r in p.rows))


def test_transport_matches_dense_reference():
    rng = random.Random(32)
    for dim in range(1, 6):
        for density in (0.0, 0.2, 0.5, 1.0):
            s = sparse_spec(rng, dim, density)
            p = rand_transport(rng, dim)
            while Matrix(tuple(tuple(int(x * 6) for x in r) for r in p.rows)).det() == 0:
                p = rand_transport(rng, dim)
            # denominators up to 10^12, kept as Fractions
            big = rand_transport(rng, dim, den=10 ** 12)
            for kind, q in (("int", p), ("fraction", p), ("fraction", big)):
                spec, pk = as_scalars(s, q, kind)
                got = transport(spec, pk)
                got_all = flat(c_tensor(got)) + flat(omega_matrix(got))
                assert got_all == flat(dense_transport(spec, pk.rows)), (dim, density, kind)
                assert {type(x) for x in got_all} == {Fraction}, (dim, density, kind)
                assert all(type(x) is Fraction for x in (*got.c_upper.values(),
                                                         *got.omega_upper.values()))


@given(exact_specs, st.integers(0, 2 ** 32))
@settings(deadline=None, max_examples=60)
def test_kernels_keep_fraction_entries(spec, seed):
    # 1.0 == Fraction(1) and 0 == Fraction(0): only the type shows a leak
    def store(s):
        return (*s.c_upper.values(), *s.omega_upper.values())

    results = [transport(spec, rand_transport(random.Random(seed), spec.dim))]
    if spec.dim >= 2:
        assert all(type(x) is Fraction for x in _trace_covector(spec)), spec
    if spec.dim >= 3:
        results.append(check_deformability(spec).spec)
    if spec.dim == 3:
        trip = decompose(spec)
        assert {type(x) for x in (*flat(trip.n.rows), *trip.a, *trip.b)} == {Fraction}
        results.append(reconstruct(trip))
    for result in results:
        assert all(type(x) is Fraction for x in store(result)), result


# --- no store holds a zero: each writer drops its zeros where it decides them

def _zero_entries():
    # explicit zero values next to nonzero ones; each store equals the one without them
    spec = AlgebraSpec.from_entries(4, [(1, 2, 3, 0), (1, 2, 4, "0"), (1, 3, 1, Fraction(0)),
                                        (2, 3, 1, "1/2"), (3, 4, 2, "-0/5")],
                                    [(1, 2, 0), (2, 4, "-0"), (3, 4, 7)])
    assert spec == AlgebraSpec.from_entries(4, [(2, 3, 1, "1/2")], [(3, 4, 7)])
    return [spec]


def _parsed_zeros():
    specs = []
    for zero in ('"0"', '"-0"', '"0/7"', "0"):
        doc = ('{"dim": 3, "c_entries": [[1, 2, 3, ZERO], [2, 3, 1, "1"], [1, 3, 3, ZERO]], '
               '"omega_entries": [[1, 2, ZERO], [2, 3, "-1/2"]]}').replace("ZERO", zero)
        specs.append(parse(doc))
        assert specs[-1] == AlgebraSpec.from_entries(3, [(2, 3, 1, 1)], [(2, 3, "-1/2")])
    return specs


# documents whose c entry (1, 2, 3) repeats, once or twice with a zero value
ZERO_DUPLICATES = [f'{{"dim": 3, "c_entries": [[1, 2, 3, {first}], [2, 3, 1, "1"], '
                   f'[1, 2, 3, {second}]], "omega_entries": [[1, 2, "0"]]}}'
                   for first, second in (('"0"', '"1"'), ('"1"', '"-0"'), ('"0/7"', "0"))]


def _reconstructed_zeros():
    # n[0][1] = a[2] cancels c[1][1][2] and n[2][1] = -a[0] cancels c[1][0][1]; b holds zeros
    specs = []
    for n, a, b in ((((0, 1, 0), (1, 0, 0), (0, 0, 2)), (0, 0, 1), (0, 0, 0)),
                    (((0, 0, 0), (0, 0, 3), (0, 3, 0)), (-3, 0, 0), (5, 0, Fraction(1, 2)))):
        spec = reconstruct(NabTriple(Matrix(n), a, b))
        assert spec == spec_from_dense(*eps_reconstruct(n, a, b))
        specs.append(spec)
    return specs


def _trace_split_zeros():
    # c^i_jk = a_k delta^i_j - a_j delta^i_k is all trace: alpha = 0, and the
    # candidate's two terms a_j a_k - a_k a_j cancel at every (j, k)
    specs = []
    for a in ((1, -2, 3), (1, -2, 3, Fraction(1, 2))):
        dim = len(a)
        entries = [(j, k, i, a[k - 1] if i == j else -a[j - 1])
                   for j in range(1, dim) for k in range(j + 1, dim + 1) for i in (j, k)]
        spec = AlgebraSpec.from_entries(dim, entries, [(1, 2, 5)])
        assert not any(flat(trace_split(spec)[1])) and trace_omega(spec) == {}
        forced = check_deformability(spec).spec
        assert forced == AlgebraSpec.from_entries(dim, entries)
        specs.append(forced)
    return specs


def _induced_zeros():
    # [e1, e2] = e1 + e2: a_0 c^0_12 + a_1 c^1_12 = 0 in every dim
    specs = []
    for dim in (3, 4):
        spec = AlgebraSpec.from_entries(dim, [(1, 2, 1, 1), (1, 2, 2, 1)], [(1, 2, 5)])
        assert trace_omega(spec) == {}
        forced = check_deformability(spec).spec
        assert forced == AlgebraSpec.from_entries(dim, [(1, 2, 1, 1), (1, 2, 2, 1)])
        specs.append(forced)
    return specs


def _transported_zeros():
    # a shear of VI0 and a swap of VIII_a: most outputs of the int sums are zero
    specs = []
    for spec, rows in ((generate("VI0"), ((1, 1, 0), (0, 1, 0), (0, 0, 1))),
                       (generate("VIII_a", 2), ((0, 1, 0), (1, 0, 0), (0, 0, 1)))):
        moved = transport(spec, Matrix(rows))
        assert moved == spec_from_dense(*dense_transport(spec, Matrix(rows).rows))
        specs.append(moved)
    return specs


@pytest.mark.parametrize("build", [_zero_entries, _parsed_zeros, _reconstructed_zeros,
                                   _trace_split_zeros, _induced_zeros, _transported_zeros])
def test_no_store_holds_a_zero(build, monkeypatch):
    for spec in build():
        for value in (*spec.c_upper.values(), *spec.omega_upper.values()):
            assert type(value) is Fraction and value != 0, (build.__name__, spec)
        assert list(spec.c_upper) == sorted(spec.c_upper), spec
        assert list(spec.omega_upper) == sorted(spec.omega_upper), spec
    if build is _parsed_zeros:  # a zero-valued duplicate is still a duplicate
        for doc in ZERO_DUPLICATES:
            with pytest.raises(DocumentError) as exc:
                parse(doc)
            assert str(exc.value) == "duplicate c entry (1,2,3)"
            for argv in (["validate"], ["classify", "--json", "--force-omega"]):
                monkeypatch.setattr("sys.stdin", io.StringIO(doc))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    assert run(argv) == 2
                assert (out.getvalue(), err.getvalue()) == (
                    "", "error: duplicate c entry (1,2,3)\n")
