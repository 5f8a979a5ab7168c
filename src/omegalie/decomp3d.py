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
Fractions are built only for stored values, the ``NabTriple`` and t, and the
forced b is b - t / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra_core import _ZERO, AlgebraSpec, ResidualTensor, _defect
from .tensor_core import Matrix, cleared, rational


@dataclass(frozen=True)
class NabTriple:
    """(n, a, b) data of one 3-dimensional algebra.

    n: symmetric Matrix (upper indices), a: covector, b: vector, all of
    Fractions (a and b pass through ``rational``).  The triple comes from a
    valid algebra iff b = -2 n a, equivalently t_vector == 0.
    """

    n: Matrix
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.n.dim != 3 or len(self.a) != 3 or len(self.b) != 3:
            raise ValueError("NabTriple is strictly 3-dimensional")
        if not self.n.is_symmetric():
            raise ValueError("n must be symmetric")
        object.__setattr__(self, "a", tuple(map(rational, self.a)))
        object.__setattr__(self, "b", tuple(map(rational, self.b)))


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


def _triple_view(t: NabTriple) -> tuple:
    # the view of a triple: n and a over one denominator, b over its own
    nums, lc = cleared([*t.n[0], *t.n[1], *t.n[2], *t.a])
    B, lw = cleared(t.b)
    N = [[2 * x for x in nums[r:r + 3]] for r in (0, 3, 6)]
    return N, [2 * x for x in nums[9:]], B, lc, lw


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
    j < k key; the triple is cleared to ints once and written by ``_store``.
    """
    return _store(*_triple_view(t))


def forced_b(n: Matrix, a: Sequence) -> tuple:
    """The unique b compatible with the bracket data: -2 n a, or b' - t / 2 for any b'."""
    if n.dim != 3 or len(a) != 3:
        raise ValueError("forced_b requires 3-dimensional data")
    return tuple(-2 * sum(x * y for x, y in zip(row, a)) for row in n.rows)


def t_vector(t: NabTriple) -> tuple:
    """Validity defect t = 4 n a + 2 b; zero iff the triple is a valid algebra."""
    return _t(_triple_view(t))[0]
