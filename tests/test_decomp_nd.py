"""General-dimension trace split and the forced-omega (deformability) check."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegalie import (AlgebraSpec, Matrix, check_deformability, decompose, generate, residual,
                      transport)
from omegalie.decomp_nd import _trace_covector
from oracles import (c_tensor, deformability, linear_deformability, omega_matrix, trace_omega,
                     trace_split, with_omega)


def rand_bracket_spec(rng, dim):
    entries = [(i, j, k, Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
               for i in range(1, dim) for j in range(i + 1, dim + 1)
               for k in range(1, dim + 1)]
    return AlgebraSpec.from_entries(dim, entries)


def table_specs():
    for label in ("I", "II", "VI0", "VII0", "VIII", "IX", "V", "IV", "IV_x",
                  "VI_x", "VI_y", "VI_n", "VII_x"):
        yield label, generate(label)
    for label in ("VI_a", "VII_a", "VIII_a", "VIII_xa", "VIII_na", "IX_a"):
        for p in (Fraction(1, 2), 1, 2):
            yield label, generate(label, p)


# --- the trace split -------------------------------------------------------

def test_split_alpha_is_trace_free():
    rng = random.Random(31)
    for dim in (2, 3, 4, 5):
        s = rand_bracket_spec(rng, dim)
        alpha = trace_split(s)[1]
        for k in range(dim):
            assert sum(alpha[i][i][k] for i in range(dim)) == 0


def test_split_reassembles_the_bracket():
    # c^i_jk = alpha^i_jk + a_k delta^i_j - a_j delta^i_k, with the library's a
    rng = random.Random(32)
    for dim in (2, 3, 4):
        s = rand_bracket_spec(rng, dim)
        a, alpha, c = _trace_covector(s), trace_split(s)[1], c_tensor(s)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    back = (alpha[i][j][k]
                            + (a[k] if i == j else 0)
                            - (a[j] if i == k else 0))
                    assert back == c[i][j][k]


def test_split_trace_covector_matches_the_dense_trace():
    # a_k = sum_i c[i][i][k] / (dim - 1), every entry a Fraction, zeros too
    rng = random.Random(34)
    for dim in range(3, 9):
        keys = [(i, j, k) for i in range(1, dim) for j in range(i + 1, dim + 1)
                for k in range(1, dim + 1)]
        for _ in range(8):
            chosen = rng.sample(keys, rng.randint(0, 2 * dim))
            spec = AlgebraSpec.from_entries(
                dim, [(*key, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for key in chosen])
            c = c_tensor(spec)
            a = _trace_covector(spec)
            assert a == tuple(sum(c[i][i][k] for i in range(dim)) / Fraction(dim - 1)
                              for k in range(dim)), spec
            assert {type(x) for x in a} == {Fraction}, spec


def test_split_trace_sign_bridge_to_dual_decomposition():
    # the trace covector is exactly minus the dual-decomposition covector
    rng = random.Random(33)
    for label, spec in table_specs():
        assert _trace_covector(spec) == tuple(-x for x in decompose(spec).a), label
    for _ in range(30):
        s = rand_bracket_spec(rng, 3)
        assert _trace_covector(s) == tuple(-x for x in decompose(s).a)


# --- the trace candidate ----------------------------------------------------

def test_induced_omega_matches_stored_omega_on_tables():
    for label, spec in table_specs():
        assert check_deformability(spec).spec.omega_upper == spec.omega_upper, label
        assert trace_omega(spec) == spec.omega_upper, label


def test_induced_omega_is_skew():
    # alpha is skew in its lower pair, so a_i alpha[i][j][k] is; the library's
    # store holds the j < k half of that dense candidate
    rng = random.Random(34)
    for dim in (3, 4, 5):
        s = rand_bracket_spec(rng, dim)
        a, alpha = trace_split(s)
        factor = Fraction(dim - 1, dim - 2)
        om = omega_matrix(check_deformability(s).spec)
        for j in range(dim):
            for k in range(dim):
                assert all(alpha[i][j][k] == -alpha[i][k][j] for i in range(dim))
                assert om[j][k] == factor * sum(a[i] * alpha[i][j][k] for i in range(dim))


# --- deformability --------------------------------------------------------

def test_every_dim3_bracket_is_deformable(monkeypatch):
    # the candidate is b = -2 n a, compatible by construction: no residual is computed
    def no_residual(spec):
        raise AssertionError("check_deformability computed a dim-3 residual")

    monkeypatch.setattr("omegalie.decomp_nd.residual", no_residual)
    rng = random.Random(35)
    for _ in range(50):
        s = rand_bracket_spec(rng, 3)
        result = check_deformability(s)
        assert result.compatible
        assert result.defect.is_zero
        assert residual(with_omega(s, result.spec.omega_upper)).is_zero


def test_abelian_brackets_force_zero_omega():
    for dim in (3, 4, 5):
        result = check_deformability(AlgebraSpec.from_entries(dim))
        assert result.compatible
        assert result.spec.omega_upper == AlgebraSpec.from_entries(dim).omega_upper


def test_dim4_bracket_with_no_compatible_omega():
    # scaling vector field extension of a Heisenberg pair: [e4,ei] = ei for
    # i = 1..3 plus [e1,e2] = e3; the candidate cannot absorb the extra e3
    s = AlgebraSpec.from_entries(4, [
        (1, 4, 1, -1), (2, 4, 2, -1), (3, 4, 3, -1), (1, 2, 3, 1)])
    result = check_deformability(s)
    assert not result.compatible
    assert deformability(s) is None
    assert not result.defect.is_zero
    comps = dict(result.defect.nonzero)
    assert comps[(3, 1, 2, 4)] == Fraction(1, 3)


def test_dim4_scaling_extension_without_twist_is_deformable():
    # same construction minus the [e1,e2] = e3 twist; like type V, the pure
    # scaling algebra forces omega = 0
    s = AlgebraSpec.from_entries(4, [(1, 4, 1, -1), (2, 4, 2, -1), (3, 4, 3, -1)])
    result = check_deformability(s)
    assert result.compatible
    assert result.spec.omega_upper == AlgebraSpec.from_entries(4).omega_upper


def test_deformability_requires_dim_at_least_3():
    for spec in (AlgebraSpec.from_entries(1), AlgebraSpec.from_entries(2),
                 AlgebraSpec.from_entries(2, [(1, 2, 2, 1)])):
        with pytest.raises(ValueError, match="^deformability requires dim >= 3$"):
            check_deformability(spec)


def test_candidate_is_kept_even_when_incompatible():
    rng = random.Random(5)
    entries = [(i, j, k, Fraction(rng.randint(-2, 2)))
               for i in range(1, 4) for j in range(i + 1, 5) for k in range(1, 5)]
    s = AlgebraSpec.from_entries(4, entries)
    result = check_deformability(s)
    assert not result.compatible and deformability(s) is None
    assert any(x != 0 for row in omega_matrix(result.spec) for x in row)
    assert not result.defect.is_zero


@st.composite
def sparse_brackets(draw, dims=(3, 8)):
    # dim 3-8 by default, up to 3 dim stored c entries; about a quarter of the keys carry trace
    dim = draw(st.integers(*dims))
    keys = [(i, j, k) for i in range(1, dim) for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=3 * dim))
    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return AlgebraSpec.from_entries(dim, [(*key, draw(values)) for key in chosen])


@given(sparse_brackets())
@settings(deadline=None, max_examples=200)
def test_candidate_from_the_bracket_store_matches_the_alpha_formula(spec):
    # the trace terms cancel, so a_i c[i][j][k] off the store and the dense
    # a_i alpha[i][j][k] of the oracle give one omega
    assert check_deformability(spec).spec.omega_upper == trace_omega(spec)


# [e1, e2] = -e3, [e1, e3] = e1, [e2, e3] = e4, [e3, e4] = -e4: deformed, omega_12 = -1
DEFORMED_DIM4 = AlgebraSpec.from_entries(4, [(1, 2, 3, -1), (1, 3, 1, 1), (2, 3, 4, 1),
                                             (3, 4, 4, -1)])


@given(sparse_brackets(dims=(4, 6)))
@example(DEFORMED_DIM4)
@settings(deadline=None, max_examples=200)
def test_deformability_agrees_with_the_linear_system_in_omega(spec):
    # the identity is linear in omega: exact elimination over its dim(dim-1)/2
    # unknowns decides existence, leaves no unknown free, and finds the candidate
    omega, free = linear_deformability(spec)
    result = check_deformability(spec)
    assert free == 0
    assert (omega is not None) == result.compatible
    if omega is not None:
        assert omega == result.spec.omega_upper


def test_the_linear_system_finds_a_nonzero_deformation():
    # random sparse brackets rarely force a nonzero omega: the example above does
    assert linear_deformability(DEFORMED_DIM4) == ({(0, 1): -1}, 0)


def dim4_census():
    # the c_entries of every dim-4 bracket with one to four entries of +-1, the first
    # +1: r slots (i, j, k), i < j, in lexicographic order, then the signs of the others
    slots = [(i, j, k) for i in range(1, 5) for j in range(i + 1, 5) for k in range(1, 5)]
    for r in range(1, 5):
        for chosen in itertools.combinations(slots, r):
            for signs in itertools.product((1, -1), repeat=r - 1):
                yield [(*slot, sign) for slot, sign in zip(chosen, (1, *signs))]


def test_a_stride_of_the_dim4_census_agrees_with_the_linear_system():
    # every 401st of the 93,680 census brackets: 234, one of them deformed only
    # by a nonzero omega
    deformed = checked = 0
    for entries in itertools.islice(dim4_census(), 0, None, 401):
        spec = AlgebraSpec.from_entries(4, entries)
        omega, free = linear_deformability(spec)
        result = check_deformability(spec)
        assert free == 0
        assert (omega is not None) == result.compatible
        if omega is not None:
            assert omega == result.spec.omega_upper
            deformed += bool(omega)
        checked += 1
    assert checked == 234 and deformed >= 1


# three dim-4 brackets whose one compatible omega is nonzero, each confirmed by
# linear_deformability: DEFORMED_DIM4 and two found among sparse +-1 brackets
DEFORMED_DIM4_MORE = (
    AlgebraSpec.from_entries(4, [(1, 3, 4, -1), (1, 4, 1, -1), (2, 4, 2, -1)]),
    AlgebraSpec.from_entries(4, [(1, 3, 1, -1), (1, 3, 3, 1), (1, 4, 3, 1), (1, 4, 4, -1),
                                 (2, 3, 2, -1)]),
)


def test_the_trace_candidate_is_covariant_in_dim4():
    # the compatible omega is unique, so it moves with the basis: the candidate
    # of the transported bracket is the transported candidate, and it stays valid
    assert [linear_deformability(s) for s in DEFORMED_DIM4_MORE] == [
        ({(0, 2): 1}, 0), ({(0, 2): -1, (0, 3): -1}, 0)]
    rng = random.Random(409)
    for spec in (DEFORMED_DIM4, *DEFORMED_DIM4_MORE):
        base = check_deformability(spec).spec
        moved = 0
        while moved < 100:
            p = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
            if not p.det():
                continue
            result = check_deformability(transport(spec, p))
            assert result.compatible
            assert result.spec == transport(base, p)
            assert residual(result.spec).is_zero
            moved += 1
