"""The dim-3 frame kernels of classify against the generic forms they replaced.

Each property draws random int frames (entries up to 2^200, zeros included,
each vector in lowest terms over a positive denominator) and checks that the
written-out kernel in ``classify3d`` (or ``decomp3d._triple``) returns what
its generic oracle in ``oracles.py`` returns: the same value, or the same
exception type.  Exact results must hold only ints; float results must match
bit for bit.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from omegalie import classify3d as c3
from omegalie.decomp3d import _TABLE, _triple, _view, orbit_sample

LABELS = tuple(_TABLE)
KERNEL = settings(deadline=None, max_examples=20)

ints = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200))
nonzero = st.builds(lambda x, sg: sg * x, st.one_of(st.integers(1, 3), st.integers(1, 2 ** 200)),
                    st.sampled_from((1, -1)))
dens = st.one_of(st.integers(1, 4), st.integers(1, 2 ** 200))
triples = st.tuples(ints, ints, ints)
signs = st.sampled_from((1, -1))


@st.composite
def vectors(draw):
    # a rational vector (nums, den): ints over a positive denominator, in lowest terms
    nums, den = draw(triples), draw(dens)
    g = math.gcd(*nums, den)
    return [x // g for x in nums], den // g


@st.composite
def frames(draw):
    return (draw(vectors()), draw(vectors()), [draw(vectors()) for _ in range(3)])


def outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # the kernels must fail alike too
        return "raises", type(exc)


def same(x, y):
    # equal, floats bit for bit (so a signed zero or a nan compares by its bits)
    if isinstance(x, (list, tuple)):
        return (isinstance(y, (list, tuple)) and len(x) == len(y)
                and all(same(u, v) for u, v in zip(x, y)))
    if isinstance(x, float):
        return type(y) is float and x.hex() == y.hex()
    return type(x) is type(y) and x == y


def all_ints(x):
    if isinstance(x, (list, tuple)):
        return all(all_ints(y) for y in x)
    return type(x) is int


def check_exact(got, want):
    assert same(got, want), (got, want)
    if got[0] == "value":
        assert all_ints(got[1]), got


@given(st.lists(triples, min_size=3, max_size=3), st.booleans())
@KERNEL
def test_int_congruence_matches_the_generic_elimination(rows, hollow):
    rows = [list(r) for r in rows]
    for i in range(3):
        for j in range(i):
            rows[i][j] = rows[j][i]
        if hollow:  # no nonzero diagonal entry: the split path
            rows[i][i] = 0
    check_exact(outcome(c3.int_congruence, rows), outcome(oracles.int_congruence, rows))


@given(triples, triples)
@KERNEL
def test_form_matches_the_generic_sum(d, v):
    check_exact(outcome(c3._form, d, v), outcome(oracles._form, d, v))


@given(st.tuples(st.one_of(st.just(0), nonzero), st.one_of(st.just(0), nonzero),
                 st.one_of(st.just(0), nonzero)), triples)
@KERNEL
def test_invariants_match_the_generic_counts(d, a):
    got, want = c3._invariants(d, a), oracles._invariants(d, a)
    assert got == want
    assert got[1] is None or all_ints(got[1])


@given(st.lists(st.tuples(ints, nonzero), min_size=3, max_size=3))
@KERNEL
def test_join_matches_the_generic_join(pairs):
    (x0, m0), (x1, m1), (x2, m2) = pairs
    check_exact(outcome(c3._join, x0, m0, x1, m1, x2, m2), outcome(oracles._join, pairs))


@given(frames(), st.permutations((0, 1, 2)), st.tuples(signs, signs, signs))
@KERNEL
def test_permute_matches_the_generic_permutation(frame, order, sg):
    assert c3._parity(order) == oracles._parity(order)
    check_exact(outcome(c3._permute, frame, order, sg), outcome(oracles._permute, frame, order, sg))


@given(frames(), st.tuples(nonzero, nonzero, nonzero),
       st.one_of(st.just((1, 1, 1)), st.tuples(nonzero, nonzero, nonzero)))
@KERNEL
def test_scale_matches_the_generic_scaling(frame, nums, ds):
    check_exact(outcome(c3._scale, frame, nums, ds), outcome(oracles._scale, frame, nums, ds))


@given(frames(), st.dictionaries(st.integers(0, 2), st.tuples(triples, nonzero), max_size=3))
@KERNEL
def test_recombine_matches_the_generic_terms(frame, new):
    # the oracle reads e'_m as its nonzero (q, k) terms
    terms = {m: (tuple((q, k) for q, k in enumerate(ks) if k), den)
             for m, (ks, den) in new.items()}
    check_exact(outcome(c3._recombine, frame, new), outcome(oracles._recombine, frame, terms))


@given(frames(), triples, triples, st.tuples(ints, ints), st.tuples(ints, ints), nonzero)
@KERNEL
def test_plane_map_matches_the_generic_map(frame, f, g, tf, tg, den):
    check_exact(outcome(c3._plane_map, frame, f, g, tf, tg, den),
                outcome(oracles._plane_map, frame, f, g, tf, tg, den))


@st.composite
def certified(draw):
    # the certified frame of an orbit sample, as it is, with one int changed or
    # replaced by a random frame, and a label, mostly the frame's own
    label = draw(st.sampled_from(LABELS))
    param = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) if _TABLE[label][2] else None
    view = _view(orbit_sample(label, param, seed=draw(st.integers(0, 50))))
    name, _, _, frame = c3._exact_head(view)
    change = draw(st.sampled_from(("none", "entry", "frame")))
    if change == "frame":
        frame = draw(frames())
    elif change == "entry":
        (d, dd), (a, ad), cols = frame
        vec = draw(st.sampled_from((d, a, *(col for col, _ in cols))))
        vec[draw(st.integers(0, 2))] += draw(nonzero)
    return frame, view, draw(st.sampled_from((name, name, *LABELS))), draw(nonzero)


def view_changes(view, k):
    # the view, then each view with one entry of N (and its mirror) or of A moved by k:
    # on a certified frame, each breaks one identity of the certificate
    yield view
    n, a, b, lc, lw = view
    for i in range(4):
        for j in range(i, 3) if i < 3 else range(3):
            n2, a2 = [list(r) for r in n], list(a)
            if i == 3:
                a2[j] += k
            else:
                n2[i][j] += k
                n2[j][i] += k * (i != j)
            yield n2, a2, b, lc, lw


@given(certified())
@KERNEL
def test_certify_matches_the_generic_certificate(case):
    frame, view, label, k = case
    for changed in view_changes(view, k):
        assert same(outcome(c3._certify, frame, changed, label),
                    outcome(oracles._certify, frame, changed, label))


@given(frames(), st.sampled_from(LABELS))
@KERNEL
def test_float_tail_matches_the_generic_tail(frame, label):
    got, want = outcome(c3._float_tail, frame, label), outcome(oracles._float_tail, frame, label)
    assert same(got, want), (got, want)


floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30)


@given(triples.map(lambda v: tuple(map(float, v))),
       st.tuples(floats, floats, floats), st.tuples(floats, floats, floats),
       st.tuples(floats, floats, floats), st.floats(0.5, 2.0))
@KERNEL
def test_float_scale_and_plane_match_the_generic_recombination(a, x, y, lams, c):
    frame = (list(a), [list(x), list(y), [0.0, -0.0, 1.0]], -1.5)
    assert same(c3._float_scale(frame, *lams), oracles._float_scale(frame, lams))
    for i, j, s, t in ((0, 1, 0.25, -0.25), (0, 2, 0.75, 0.75), (1, 2, -3.0, 3.0)):
        assert same(c3._float_plane(frame, i, j, c, s, t),
                    oracles._float_recombine(frame, oracles._plane(i, j, c, s, t)))


@given(frames(), st.sampled_from(LABELS), st.one_of(st.none(), st.floats(1e-300, 1e300)))
@KERNEL
def test_tail_error_matches_the_generic_deviations(frame, label, parameter):
    kind, tail = outcome(oracles._float_tail, frame, label)
    if kind == "raises":
        tail = ([1.0, 2.0, 3.0], [[0.5, 0.0, 1.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]], 2.5)
    got = outcome(c3._tail_error, frame, tail, label, parameter)
    want = outcome(oracles._tail_error, frame, tail, label, parameter)
    assert same(got, want), (got, want)


@given(st.lists(triples, min_size=3, max_size=3), triples, triples, dens, dens)
@KERNEL
def test_triple_matches_the_generic_lower_triangle(n, a, b, lc, lw):
    n = [list(r) for r in n]
    for i in range(3):
        for j in range(i + 1, 3):
            n[i][j] = n[j][i]
    view = (n, list(a), list(b), lc, lw)
    got, want = _triple(view), oracles._triple(view)
    assert got == want
    assert all(type(x) is Fraction for x in (*got.n.rows[0], *got.n.rows[1], *got.n.rows[2],
                                             *got.a, *got.b))


@given(st.sampled_from(LABELS), st.integers(1, 2 ** 200), st.integers(1, 2 ** 200),
       st.integers(0, 10 ** 6), st.lists(triples, min_size=3, max_size=3), triples, st.booleans())
@KERNEL
def test_exact_head_matches_the_generic_stages(label, pn, pd, seed, n, a, sampled):
    # an orbit sample of any row at any parameter, or a random symmetric N and A
    # (with B forced, which the head does not read)
    if sampled:
        view = _view(orbit_sample(label, Fraction(pn, pd) if _TABLE[label][2] else None, seed=seed))
    else:
        n = [list(r) for r in n]
        for i in range(3):
            for j in range(i):
                n[i][j] = n[j][i]
        view = (n, list(a), [0, 0, 0], 1, 1)
    got, want = outcome(c3._exact_head, view), outcome(oracles._exact_head, view)
    assert got == want
    if got[0] == "value":
        assert all_ints(got[1][3])


huge = st.one_of(ints, st.integers(-10 ** 400, 10 ** 400))


@given(st.tuples(huge, huge, huge), st.one_of(nonzero, st.integers(1, 10 ** 400)))
@KERNEL
def test_reported_matches_the_entrywise_check(x, den):
    # past the float range either way: entries and denominators up to 10^400
    want = [outcome(oracles._reported, v, den) for v in x]
    if all(kind == "value" for kind, _ in want):
        want = "value", tuple(v for _, v in want)
    else:
        want = "raises", next(v for kind, v in want if kind == "raises")
    assert same(outcome(c3._reported, *x, den), want)
