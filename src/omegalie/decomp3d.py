"""Dual decomposition of 3-dimensional algebras into (n, a, b).

A skew bracket in dimension 3 is equivalent to a symmetric matrix n (two
upper indices) and a covector a via

    c[i][j][k] = n[i][l] eps_{jkl} - delta_ij a_k + delta_ik a_j,

and a skew 2-form is equivalent to a vector b via omega_ij = eps_ijk b^k.
The validity defect collapses to the single vector

    t = 4 n a + 2 b,

so a bracket admits exactly one compatible omega: the one with b = -2 n a.
So does the residual of ``algebra_core``: its component (m, s(1, 2, 3)) is
sign(s) t_m / 6 for each permutation s, and every other component is zero.

With indices mod 3 each eps sum is a single term: the dual matrix is
cm[i][l] = c[i][l+1][l+2], n is its symmetric part, a_m = (cm[m+1][m+2] -
cm[m+2][m+1]) / 2 and b^k = omega[k+1][k+2].  A dim-3 store travels as the
int view (N, A, B, lc, lw): n = N / 2lc, a = A / 2lc and b = B / lw, with lc
and lw the least common denominators of c and of omega (kept apart: no power
of lc need clear omega).  ``_view`` reads a store into it, and its inverse
``_store``, the one writer of the cyclic layout, writes one back.  On a view
t_m = 0 is (N A)_m lw + 2 B_m lc^2 = 0, decided on ints and handed on with t;
Fractions are built only for stored values, the ``NabTriple`` and t.  The
forced b = -2 n a is ``forced_b``, written on ints by ``_forced`` for the tables.

The 19 rows of the two normal-form tables (six with a = 0, thirteen with
a != 0) live here too, with the two writers built on
``_store``: ``generate`` writes a row's canonical spec and ``orbit_sample``
a point on its orbit.  ``classify3d`` classifies onto these rows.
Canonical commutation relations of every table row (b = -2 n a throughout):

    [e1,e2] = n3 e3 - a2 e1 + a1 e2       omega(e1,e2) = -2 n3 a3
    [e3,e1] = n2 e2 - a1 e3 + a3 e1       omega(e3,e1) = -2 n2 a2
    [e2,e3] = n1 e1 - a3 e2 + a2 e3       omega(e2,e3) = -2 n1 a1
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .algebra_core import _ZERO, AlgebraSpec, ResidualTensor, _defect
from .tensor_core import Matrix, _Record, _scalars, _vector, cleared, rational


class NabTriple(_Record):
    """(n, a, b) data of one 3-dimensional algebra, the fields in that order.

    n: symmetric Matrix (upper indices), a: covector, b: vector, all of
    Fractions (a and b are read by ``_scalars``, which refuses a str).  The
    triple comes from a valid algebra iff b = -2 n a, that is b == forced_b(n, a).
    """

    __slots__ = ("n", "a", "b")

    def __init__(self, n: Matrix, a: tuple, b: tuple):
        if not isinstance(n, Matrix):
            raise TypeError(f"NabTriple needs a Matrix, got {type(n).__name__}")
        a, b = _scalars(a), _scalars(b)
        if n.dim != 3 or len(a) != 3 or len(b) != 3:
            raise ValueError("NabTriple is strictly 3-dimensional")
        if not n.is_symmetric():
            raise ValueError("n must be symmetric")
        super().__init__(n, a, b)


# (l + 1, l + 2) mod 3 for l = 0, 1, 2: the pair with eps_{jkl} = +1, and
# the same pair as a store key j < k with the sign of the reordering
_CYCLIC = ((1, 2), (2, 0), (0, 1))
_UPPER = tuple((min(j, k), max(j, k), 1 if j < k else -1) for j, k in _CYCLIC)


def _view(spec):
    # (N, A, B, lc, lw): ints with n = N / 2lc, a = A / 2lc, b = B / lw; cm = lc * dual matrix
    if spec.dim != 3:
        raise ValueError("the (n, a, b) decomposition requires dim 3")
    cv, lc = cleared(spec.c_upper.values())
    wv, lw = cleared(spec.omega_upper.values())
    c, w = dict(zip(spec.c_upper, cv)), dict(zip(spec.omega_upper, wv))
    cm = [[sign * c.get((j, k, i), 0) for j, k, sign in _UPPER] for i in range(3)]
    n = [[x + y for x, y in zip(r, col)] for r, col in zip(cm, zip(*cm))]
    a = [cm[i][l] - cm[l][i] for i, l in _CYCLIC]
    return n, a, [sign * w.get((j, k), 0) for j, k, sign in _UPPER], lc, lw


def _store(N, A, B, lc, lw) -> AlgebraSpec:
    """The spec of the view (n = N / 2lc symmetric): at each cyclic pair (j, k) of
    l, c[i] = n[l][i] - delta_ij a_k + delta_ik a_j and omega = b_l, at the pair's
    j < k key with its sign, zeros dropped on the ints.  _store(*_view(s)) == s."""
    c, om = {}, {}
    for l, ((j, k), (uj, uk, sign)) in enumerate(zip(_CYCLIC, _UPPER)):
        row = N[l]
        for i, v in ((l, row[l]), (j, row[j] - A[k]), (k, row[k] + A[j])):
            if v:
                c[uj, uk, i] = Fraction(sign * v, 2 * lc)
        if B[l]:
            om[uj, uk] = Fraction(sign * B[l], lw)
    return AlgebraSpec._from_upper(3, c, om)


def _triple(view) -> NabTriple:
    # n's lower triangle, and above it the same Fractions: is_symmetric then
    # compares each entry with itself, and tuple equality skips __eq__ for that
    n, a, b, lc, lw = view
    low = [[Fraction(x, 2 * lc) for x in r[:i + 1]] for i, r in enumerate(n)]
    rows = [r + [low[j][i] for j in range(i + 1, 3)] for i, r in enumerate(low)]
    return NabTriple(Matrix(rows),
                     tuple(Fraction(x, 2 * lc) for x in a), tuple(Fraction(x, lw) for x in b))


def _t(view) -> tuple:
    # (t, nonzero): t_m = 0 is decided on the int lw (N A)_m + 2 lc^2 B_m, and a
    # nonzero t_m = (N A)_m / lc^2 + 2 B_m / lw is reduced by one lc at a time: short gcds
    n, a, b, lc, lw = view
    na = [sum(x * y for x, y in zip(r, a)) for r in n]
    nonzero = tuple(bool(lw * x + 2 * lc * lc * z) for x, z in zip(na, b))
    return tuple(Fraction(x, lc) / lc + Fraction(2 * z, lw) if nz else _ZERO
                 for x, z, nz in zip(na, b, nonzero)), nonzero


def _t_residual(t, nonzero) -> ResidualTensor:
    # the dim-3 residual read off _t's (t, nonzero): component (m, s(1, 2, 3)) = sign(s) t_m / 6
    return _defect(3, (((m, 1, 2, 3), x / 6) for m, (x, nz) in enumerate(zip(t, nonzero), 1) if nz))


def decompose(spec: AlgebraSpec) -> NabTriple:
    """Extract (n, a, b): n the symmetric part and a the skew part of the dual
    matrix, b^k = (1/2) eps^{ijk} omega_ij = omega[k+1][k+2]."""
    return _triple(_view(spec))


def t_of(spec: AlgebraSpec) -> tuple:
    """t = 4 n a + 2 b of a dim-3 spec, zero iff the spec is valid."""
    return _t(_view(spec))[0]


def reconstruct(t: NabTriple) -> AlgebraSpec:
    """Inverse of decompose: assemble the AlgebraSpec with this (n, a, b).

    c[i][j][k] = n[i][l] - delta_ij a_k + delta_ik a_j for the cyclic
    (j, k) = (l+1, l+2), and omega[l+1][l+2] = b^l, each stored at its
    j < k key; n and a are cleared to ints over one denominator, b over its own.
    """
    nums, lc = cleared([*t.n[0], *t.n[1], *t.n[2], *t.a])
    B, lw = cleared(t.b)
    return _store([[2 * x for x in nums[r:r + 3]] for r in (0, 3, 6)],
                  [2 * x for x in nums[9:]], B, lc, lw)


def forced_b(n: Matrix, a: Sequence) -> tuple:
    """The unique b compatible with the bracket data: -2 n a, or b' - t / 2 for any b'.
    ``a`` is read by ``_vector``, as ``bracket`` reads a vector."""
    if not isinstance(n, Matrix):
        raise TypeError(f"forced_b needs a Matrix, got {type(n).__name__}")
    a = _vector(a, len(a))  # refuses a str; the length is checked with n's dim
    if n.dim != 3 or len(a) != 3:
        raise ValueError("forced_b requires 3-dimensional data")
    return tuple(-2 * sum(x * y for x, y in zip(row, a)) for row in n.rows)


# ---------------------------------------------------------------------------
# the normal-form tables and their writers


# label -> (n diagonal, a pattern, has continuous parameter)
# Parametric labels scale the a pattern by the parameter.
_TABLE = {
    # a = 0 family
    "I":       ((0, 0, 0),  (0, 0, 0), False),
    "II":      ((1, 0, 0),  (0, 0, 0), False),
    "VI0":     ((1, -1, 0), (0, 0, 0), False),
    "VII0":    ((1, 1, 0),  (0, 0, 0), False),
    "VIII":    ((1, 1, -1), (0, 0, 0), False),
    "IX":      ((1, 1, 1),  (0, 0, 0), False),
    # a != 0 family
    "V":       ((0, 0, 0),  (0, 0, 1), False),
    "IV":      ((1, 0, 0),  (0, 0, 1), False),
    "IV_x":    ((1, 0, 0),  (1, 0, 0), False),
    "VI_a":    ((1, -1, 0), (0, 0, 1), True),
    "VI_x":    ((1, -1, 0), (1, 0, 0), False),
    "VI_y":    ((1, -1, 0), (0, 1, 0), False),
    "VI_n":    ((1, -1, 0), (1, 1, 0), False),
    "VII_a":   ((1, 1, 0),  (0, 0, 1), True),
    "VII_x":   ((1, 1, 0),  (1, 0, 0), False),
    "VIII_a":  ((1, 1, -1), (0, 0, 1), True),
    "VIII_xa": ((1, 1, -1), (1, 0, 0), True),
    "VIII_na": ((1, 1, -1), (1, 0, 1), True),
    "IX_a":    ((1, 1, 1),  (0, 0, 1), True),
}

FIRST_TABLE_ORDER = tuple(l for l, (_, apat, _) in _TABLE.items() if not any(apat))
SECOND_TABLE_ORDER = tuple(l for l in _TABLE if l not in FIRST_TABLE_ORDER)
PARAMETRIC_LABELS = frozenset(l for l, (_, _, p) in _TABLE.items() if p)


def table_row(label: str) -> tuple:
    """(n diagonal, a pattern, parametric flag) of one table row."""
    if label not in _TABLE:
        raise ValueError(f"unknown label {label!r}; known: {', '.join(sorted(_TABLE))}")
    return _TABLE[label]


def _row(label: str, param) -> tuple:
    # (nd, apat, pn, pd): the row's ints and its parameter pn / pd, checked
    nd, apat, parametric = table_row(label)
    if parametric == (param is None):
        raise ValueError(f"label {label} requires a positive parameter" if parametric
                         else f"label {label} does not take a parameter")
    pn, pd = (1, 1) if param is None else rational(param).as_integer_ratio()
    if pn <= 0:
        raise ValueError(f"parameter for {label} must be positive, got {param}")
    return nd, apat, pn, pd


def _forced(N, A, lc) -> AlgebraSpec:
    # the spec of n = N / 2lc and a = A / 2lc with b = -2 n a, that is B = -N A over 2 lc^2;
    # forced_b's rule on ints, as generate and orbit_sample write no Fraction before _store
    return _store(N, A, [-r[0] * A[0] - r[1] * A[1] - r[2] * A[2] for r in N], lc, 2 * lc * lc)


def generate(label: str, param=None) -> AlgebraSpec:
    """The exact canonical spec of one table row, written on ints.

    Parametric rows (VI_a, VII_a, VIII_a, VIII_xa, VIII_na, IX_a) require a
    positive rational parameter p = pn / pd; all others refuse one.  The
    row's n = diag(nd) and a = p apat are 2pd diag(nd) and 2pn apat over 2pd,
    written with b = -2 n a by ``_store``.
    """
    nd, apat, pn, pd = _row(label, param)
    return _forced([[2 * pd * x if i == j else 0 for j in range(3)] for i, x in enumerate(nd)],
                   [2 * pn * x for x in apat], pd)


def _adjugate3(rows) -> tuple:
    # (adj(M), det(M)) of a 3x3 int M: adj[i][j] = M[j+1][i+1] M[j+2][i+2] - M[j+1][i+2] M[j+2][i+1]
    adj = [[rows[j1][i1] * rows[j2][i2] - rows[j1][i2] * rows[j2][i1] for j1, j2 in _CYCLIC]
           for i1, i2 in _CYCLIC]
    return adj, sum(x * r[0] for x, r in zip(rows[0], adj))


def orbit_sample(label: str, param=None, *, seed: int) -> AlgebraSpec:
    """A pseudorandom point on the orbit of generate(label, param).

    Moves the row by M / m, its entries r / d (r in -3..3, d in 1..2) drawn row
    by row from a generator seeded with ``seed`` and redrawn while singular, m = 2
    when some odd r has d = 2, else 1.  As classify's frame moves, n' = adj(M) n
    adj(M)^T / (m det M) and a' = M^T a / m, over the one denominator m det(M) pd,
    written with b = -2 n a by ``_store``.
    """
    import random  # here, not at the top: no other command draws
    nd, apat, pn, pd = _row(label, param)
    rng, det = random.Random(seed), 0
    while not det:
        draws = [(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(9)]
        m = 2 if any(d == 2 and r % 2 for r, d in draws) else 1
        rows = [[r * m // d for r, d in draws[i:i + 3]] for i in (0, 3, 6)]
        adj, det = _adjugate3(rows)
    d0, d1, d2 = (2 * pd * x for x in nd)
    a0, a1, a2 = (2 * pn * det * x for x in apat)
    return _forced([[d0 * i0 * j0 + d1 * i1 * j1 + d2 * i2 * j2 for j0, j1, j2 in adj]
                    for i0, i1, i2 in adj],
                   [a0 * x + a1 * y + a2 * z for x, y, z in zip(*rows)], m * det * pd)
