"""Dual decomposition of 3-dimensional algebras into (n, a, b).

A skew bracket in dimension 3 is equivalent to a symmetric matrix n (two
upper indices) and a covector a via

    c[i][j][k] = n[i][l] eps_{jkl} - delta_ij a_k + delta_ik a_j,

and a skew 2-form is equivalent to a vector b via omega_ij = eps_ijk b^k.
The validity defect collapses to the single vector

    t = 4 n a + 2 b,

so a bracket admits exactly one compatible omega: the one with b = -2 n a.

With indices mod 3 each eps sum is a single term: the dual matrix is
cm[i][l] = c[i][l+1][l+2], n is its symmetric part, a_m = (cm[m+1][m+2] -
cm[m+2][m+1]) / 2 and b^k = omega[k+1][k+2], so ``decompose`` and
``reconstruct`` touch each independent entry once.  Every entry is a
Fraction by construction: a spec's store, a ``Matrix`` and the a and b of
a ``NabTriple`` all pass through ``rational``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra_core import AlgebraSpec
from .tensor_core import Matrix, rational


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


def _cyclic(store, *plane):
    # the values at the three cyclic pairs, read from an i < j store
    return [sign * store.get((j, k, *plane), Fraction(0)) for j, k, sign in _UPPER]


def decompose(spec: AlgebraSpec) -> NabTriple:
    """Extract (n, a, b): n the symmetric part and a the skew part of the dual
    matrix, b^k = (1/2) eps^{ijk} omega_ij = omega[k+1][k+2]."""
    if spec.dim != 3:
        raise ValueError("decompose requires dim 3")
    cm = [_cyclic(spec.c_upper, i) for i in range(3)]  # the dual matrix
    half = Fraction(1, 2)
    # a_m = (1/2) eps^{mil} cm[i][l]; the symmetric part shares its pairs
    sym = {}
    a = []
    for i, l in _CYCLIC:
        sym[i, l] = sym[l, i] = half * (cm[i][l] + cm[l][i])
        a.append(half * (cm[i][l] - cm[l][i]))
    n = Matrix(tuple(tuple(cm[i][i] if i == l else sym[i, l] for l in range(3))
                     for i in range(3)))
    b = tuple(_cyclic(spec.omega_upper))
    return NabTriple(n, tuple(a), b)


def reconstruct(t: NabTriple) -> AlgebraSpec:
    """Inverse of decompose: assemble the AlgebraSpec with this (n, a, b).

    c[i][j][k] = n[i][l] - delta_ij a_k + delta_ik a_j for the cyclic
    (j, k) = (l+1, l+2), and omega[l+1][l+2] = b^l, each stored at its
    j < k key.
    """
    n, a = t.n, t.a
    c, om = {}, {}
    for l, ((j, k), (uj, uk, sign)) in enumerate(zip(_CYCLIC, _UPPER)):
        for i in range(3):
            v = n[i][l]
            if i == j:
                v = v - a[k]
            elif i == k:
                v = v + a[j]
            c[uj, uk, i] = sign * v
        om[uj, uk] = sign * t.b[l]
    return AlgebraSpec._from_upper(3, c, om)


def forced_b(n: Matrix, a: Sequence) -> tuple:
    """The unique b compatible with the bracket data: b = -2 n a."""
    if n.dim != 3 or len(a) != 3:
        raise ValueError("forced_b requires 3-dimensional data")
    return tuple(-2 * x for x in n.apply(a))


def t_vector(t: NabTriple) -> tuple:
    """Validity defect t = 4 n a + 2 b; zero iff the triple is a valid algebra."""
    na = t.n.apply(t.a)
    return tuple(4 * x + 2 * y for x, y in zip(na, t.b))
