"""The forced 2-form of a skew bracket in general dimension.

Any skew bracket splits uniquely as

    c[i][j][k] = alpha[i][j][k] + a_k delta_ij - a_j delta_ik

with alpha trace-free (sum_i alpha[i][i][k] = 0) and a_k = c[i][i][k]/(dim-1).
For dim >= 3 the only candidate 2-form for the deformed Jacobi identity is

    omega_jk = (dim-1)/(dim-2) * a_i alpha[i][j][k],

and a nonzero omega needs both a nonzero trace part and a nonzero alpha.
In dimension 3 the candidate always works; from dimension 4 on it can fail.

The trace terms cancel in it, a_i (c - alpha)[i][j][k] = a_j a_k - a_k a_j = 0,
so omega_jk = (dim-1)/(dim-2) * a_i c[i][j][k], and ``check_deformability``
reads the candidate off the bracket store without building alpha.  In
dimension 3 the candidate is b = -2 n a of ``decomp3d``, so its defect
t = 4 n a + 2 b is zero and no residual is computed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_core import _ZERO, AlgebraSpec, ResidualTensor, residual
from .tensor_core import _Record


def _trace_covector(spec: AlgebraSpec) -> tuple:
    # a_k = c[i][i][k] / (dim - 1), read off the stored entries with k in the lower pair
    trace = [0] * spec.dim
    for (i, j, k), v in spec.c_upper.items():
        if k == i:
            trace[j] += v   # c[i][i][j]
        elif k == j:
            trace[i] -= v   # c[j][j][i] = -c[j][i][j]
    return tuple(x / (spec.dim - 1) if x else _ZERO for x in trace)


class DeformabilityResult(_Record):
    """Outcome of the forced-omega check, keeping the candidate either way.

    The fields, in order: ``spec``, the bracket with the candidate omega in
    its omega store, and ``defect``, its ``ResidualTensor``.
    """

    __slots__ = ("spec", "defect")

    @property
    def compatible(self) -> bool:
        return self.defect.is_zero


def check_deformability(spec: AlgebraSpec) -> DeformabilityResult:
    """Full result of the forced-omega check for the bracket of ``spec``, dim >= 3.

    The omega of ``spec`` is ignored.
    """
    n = spec.dim
    if n < 3:
        raise ValueError("deformability requires dim >= 3")
    a, om = _trace_covector(spec), {}
    for (j, k, i), v in spec.c_upper.items():  # the sum runs over the nonzero a_i only
        if a[i]:
            om[j, k] = om.get((j, k), 0) + a[i] * v
    factor = Fraction(n - 1, n - 2)
    omega = {jk: factor * x for jk, x in om.items() if x}
    forced = AlgebraSpec._from_upper(n, spec.c_upper, omega)
    return DeformabilityResult(forced, ResidualTensor(3, ()) if n == 3 else residual(forced))
