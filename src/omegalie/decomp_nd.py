"""Trace decomposition of a skew bracket in general dimension.

Any skew bracket splits uniquely as

    c[i][j][k] = alpha[i][j][k] + a_k delta_ij - a_j delta_ik

with alpha trace-free (sum_i alpha[i][i][k] = 0) and a_k = c[i][i][k]/(dim-1).
For dim >= 3 the only candidate 2-form for the deformed Jacobi identity is

    omega_jk = (dim-1)/(dim-2) * a_i alpha[i][j][k],

and a nonzero omega needs both a nonzero trace part and a nonzero alpha.
In dimension 3 the candidate always works; from dimension 4 on it can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra_core import AlgebraSpec, ResidualTensor, residual


@dataclass(frozen=True)
class GeneralSplit:
    """Trace-free part alpha and trace covector a of one skew bracket."""

    dim: int
    alpha: tuple  # alpha[i][j][k], 0-based, trace-free in (i, j)
    a: tuple      # covector


def split_trace(spec: AlgebraSpec) -> GeneralSplit:
    """Split off the trace part; requires dim >= 2 (divides by dim - 1).

    alpha differs from c only in the planes' row and column i (where
    i == j or i == k), and only at the nonzero components of a.
    """
    n = spec.dim
    if n < 2:
        raise ValueError("split_trace requires dim >= 2")
    c = spec.c
    a = tuple(sum(c[i][i][k] for i in range(n) if c[i][i][k]) / Fraction(n - 1)
              for k in range(n))
    support = [(k, ak) for k, ak in enumerate(a) if ak]
    if not support:
        return GeneralSplit(n, c, a)
    alpha = []
    for i, plane in enumerate(c):
        rows = [list(row) for row in plane]
        for k, ak in support:
            rows[i][k] -= ak
            rows[k][i] += ak
        alpha.append(tuple(map(tuple, rows)))
    return GeneralSplit(n, tuple(alpha), a)


def induced_omega(split: GeneralSplit) -> tuple:
    """Candidate 2-form omega_jk = (dim-1)/(dim-2) a_i alpha[i][j][k]; dim >= 3.

    The sum runs over the nonzero a_i and the nonzero alpha entries only.
    """
    n = split.dim
    if n <= 2:
        raise ValueError("induced_omega requires dim >= 3")
    factor = Fraction(n - 1, n - 2)
    om = [[0] * n for _ in range(n)]
    for ai, plane in zip(split.a, split.alpha):
        if ai:
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    if v:
                        om[j][k] += ai * v
    return tuple(tuple(factor * x for x in row) for row in om)


@dataclass(frozen=True)
class DeformabilityResult:
    """Outcome of the forced-omega check, keeping the candidate either way."""

    candidate: tuple
    compatible: bool
    defect: ResidualTensor

    @property
    def omega(self) -> Optional[tuple]:
        return self.candidate if self.compatible else None


def check_deformability(c) -> DeformabilityResult:
    """Full result of the forced-omega check for a skew bracket, dim >= 3."""
    n = len(c)
    if n < 3:
        raise ValueError("deformability requires dim >= 3")
    zero_omega = tuple((0,) * n for _ in range(n))
    probe = AlgebraSpec(n, c, zero_omega)
    candidate = induced_omega(split_trace(probe))
    defect = residual(AlgebraSpec(n, c, candidate))
    return DeformabilityResult(candidate, defect.is_zero, defect)


def deformability(c) -> Optional[tuple]:
    """The unique 2-form making this bracket a valid algebra, or None.

    Uniqueness: any compatible omega must be the induced candidate, so a
    failing candidate means no omega works.  Use ``check_deformability`` when
    the failing candidate itself is wanted for debugging.
    """
    return check_deformability(c).omega
