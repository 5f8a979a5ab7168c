"""Trace decomposition of a skew bracket in general dimension.

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


class GeneralSplit(_Record):
    """Trace-free part alpha and trace covector a of one skew bracket.

    The fields, in order: ``trace_free``, the spec whose bracket is alpha
    (skew in its lower pair like a bracket; omega = 0), and ``a``.
    """

    __slots__ = ("trace_free", "a")


def _trace_covector(spec: AlgebraSpec) -> tuple:
    # a_k = c[i][i][k] / (dim - 1), read off the stored entries with k in the lower pair
    trace = [0] * spec.dim
    for (i, j, k), v in spec.c_upper.items():
        if k == i:
            trace[j] += v   # c[i][i][j]
        elif k == j:
            trace[i] -= v   # c[j][j][i] = -c[j][i][j]
    return tuple(x / (spec.dim - 1) if x else _ZERO for x in trace)


def split_trace(spec: AlgebraSpec) -> GeneralSplit:
    """Split off the trace part; requires dim >= 2 (divides by dim - 1).  alpha
    differs from c only at the entries (i, k) of plane i, for the nonzero a_k."""
    n = spec.dim
    if n < 2:
        raise ValueError("split_trace requires dim >= 2")
    a = _trace_covector(spec)
    alpha = dict(spec.c_upper)
    for k, ak in enumerate(a):
        if ak:
            for i in range(n):
                if i != k:  # alpha[i][i][k] = c[i][i][k] - a_k, alpha[i][k][i] = c[i][k][i] + a_k
                    key, v = ((i, k, i), -ak) if i < k else ((k, i, i), ak)
                    v += alpha.pop(key, 0)
                    if v:
                        alpha[key] = v
    return GeneralSplit(AlgebraSpec._from_upper(n, alpha, {}), a)


def _induced_upper(c_upper: dict, a: tuple) -> dict:
    # the candidate omega as (j, k) -> value, j < k, from the store of c or alpha
    n = len(a)
    if n <= 2:
        raise ValueError("induced_omega requires dim >= 3")
    om = {}
    for (j, k, i), v in c_upper.items():
        if a[i]:
            om[j, k] = om.get((j, k), 0) + a[i] * v
    factor = Fraction(n - 1, n - 2)
    return {jk: factor * x for jk, x in om.items() if x}


def induced_omega(split: GeneralSplit) -> dict:
    """Candidate 2-form omega_jk = (dim-1)/(dim-2) a_i alpha[i][j][k]; dim >= 3.

    The sum runs over the nonzero a_i and the stored alpha entries only;
    the result is an omega store: {(j, k): value} with j < k, nonzero
    values only, in key order.
    """
    return dict(sorted(_induced_upper(split.trace_free.c_upper, split.a).items()))


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
    if spec.dim < 3:
        raise ValueError("deformability requires dim >= 3")
    omega = _induced_upper(spec.c_upper, _trace_covector(spec))
    forced = AlgebraSpec._from_upper(spec.dim, spec.c_upper, omega)
    return DeformabilityResult(forced, ResidualTensor(3, ()) if spec.dim == 3 else residual(forced))
