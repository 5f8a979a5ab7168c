"""Omega-deformed Lie algebras in any finite dimension.

An algebra is a skew bracket plus a skew 2-form omega.  The bracket is stored
as structure constants ``c[k][i][j]`` (0-based nested tuples): the e_{k+1}
component of [e_{i+1}, e_{j+1}].  Validity means the deformed Jacobi identity

    [A,[B,C]] + [C,[A,B]] + [B,[C,A]] = omega(B,C) A + omega(A,B) C + omega(C,A) B

holds; ``residual`` packages its component form (the antisymmetrized
quadratic constraint, weight 1/3!) so that validity is ``residual(spec).is_zero``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .tensor_core import Matrix, invert, rational


class SkewViolation(NamedTuple):
    tensor: str          # "c" or "omega"
    indices: tuple       # 1-based; ("c", (k, i, j)) or ("omega", (i, j))


class SkewViolationError(ValueError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(f"bracket/omega not skew: {self.violations}")


@dataclass(frozen=True)
class AlgebraSpec:
    """Structure constants and 2-form of one algebra, dimension ``dim``."""

    dim: int
    c: tuple      # c[k][i][j], 0-based
    omega: tuple  # omega[i][j], 0-based

    def __post_init__(self):
        n = self.dim
        if not isinstance(n, int) or n < 1:
            raise ValueError("dim must be a positive integer")
        c = tuple(tuple(tuple(plane) for plane in mat) for mat in self.c)
        om = tuple(tuple(row) for row in self.omega)
        if len(c) != n or any(len(m) != n or any(len(r) != n for r in m) for m in c):
            raise ValueError("c must have shape dim x dim x dim")
        if len(om) != n or any(len(r) != n for r in om):
            raise ValueError("omega must have shape dim x dim")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "omega", om)

    @classmethod
    def zero(cls, dim: int) -> "AlgebraSpec":
        z = tuple(tuple((0,) * dim for _ in range(dim)) for _ in range(dim))
        return cls(dim, z, tuple((0,) * dim for _ in range(dim)))

    @classmethod
    def from_entries(cls, dim, c_entries=(), omega_entries=()) -> "AlgebraSpec":
        """Build a spec from sparse 1-based entries with implicit skew completion.

        ``c_entries``: iterable of (i, j, k, value) meaning the e_k component of
        [e_i, e_j], with i < j.  ``omega_entries``: (i, j, value) with i < j.
        """
        c = [[[rational(0)] * dim for _ in range(dim)] for _ in range(dim)]
        om = [[rational(0)] * dim for _ in range(dim)]
        seen_c, seen_om = set(), set()
        for (i, j, k, value) in c_entries:
            if not (1 <= i < j <= dim and 1 <= k <= dim):
                raise ValueError(f"c entry ({i},{j},{k}) out of range for dim {dim}")
            if (i, j, k) in seen_c:
                raise ValueError(f"duplicate c entry ({i},{j},{k})")
            seen_c.add((i, j, k))
            v = rational(value)
            c[k - 1][i - 1][j - 1] = v
            c[k - 1][j - 1][i - 1] = -v
        for (i, j, value) in omega_entries:
            if not (1 <= i < j <= dim):
                raise ValueError(f"omega entry ({i},{j}) out of range for dim {dim}")
            if (i, j) in seen_om:
                raise ValueError(f"duplicate omega entry ({i},{j})")
            seen_om.add((i, j))
            v = rational(value)
            om[i - 1][j - 1] = v
            om[j - 1][i - 1] = -v
        return cls(dim, tuple(map(tuple, (map(tuple, m) for m in c))), tuple(map(tuple, om)))

    def c_at(self, k: int, i: int, j: int):
        """1-based accessor: the e_k component of [e_i, e_j]."""
        return self.c[k - 1][i - 1][j - 1]

    def omega_at(self, i: int, j: int):
        return self.omega[i - 1][j - 1]

    def basis(self) -> tuple:
        return tuple(tuple(1 if i == j else 0 for j in range(self.dim)) for i in range(self.dim))

    def astype_float(self) -> "AlgebraSpec":
        c = tuple(tuple(tuple(float(x) for x in r) for r in m) for m in self.c)
        om = tuple(tuple(float(x) for x in r) for r in self.omega)
        return AlgebraSpec(self.dim, c, om)


def validate_skew(spec: AlgebraSpec) -> tuple[SkewViolation, ...]:
    """Every index pair violating skewness of c or omega; empty means valid."""
    out = []
    n = spec.dim
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if spec.c[k][i][j] != -spec.c[k][j][i]:
                    out.append(SkewViolation("c", (k + 1, i + 1, j + 1)))
    for i in range(n):
        for j in range(i, n):
            if spec.omega[i][j] != -spec.omega[j][i]:
                out.append(SkewViolation("omega", (i + 1, j + 1)))
    return tuple(out)


def _require_skew(spec: AlgebraSpec):
    violations = validate_skew(spec)
    if violations:
        raise SkewViolationError(violations)


def _check_vec(spec, vec):
    if len(vec) != spec.dim:
        raise ValueError(f"vector length {len(vec)} does not match dim {spec.dim}")


def _nonzero(vec) -> list:
    return [(i, v) for i, v in enumerate(vec) if v]


def bracket(spec: AlgebraSpec, x: Sequence, y: Sequence) -> tuple:
    """[x, y] componentwise: result_k = sum_ij c[k][i][j] x_i y_j.

    Only the nonzero components of x and y are visited.
    """
    _check_vec(spec, x)
    _check_vec(spec, y)
    xs, ys = _nonzero(x), _nonzero(y)
    return tuple(
        sum(ck[i][j] * xi * yj for i, xi in xs for j, yj in ys if ck[i][j])
        for ck in spec.c)


def omega_value(spec: AlgebraSpec, x: Sequence, y: Sequence):
    """omega(x, y); only the nonzero components of x and y are visited."""
    _check_vec(spec, x)
    _check_vec(spec, y)
    om, ys = spec.omega, _nonzero(y)
    return sum(om[i][j] * xi * yj for i, xi in _nonzero(x) for j, yj in ys if om[i][j])


def jacobiator(spec: AlgebraSpec, a: Sequence, b: Sequence, c: Sequence) -> tuple:
    """[a,[b,c]] + [c,[a,b]] + [b,[c,a]]; identically zero exactly for Lie brackets."""
    first = bracket(spec, a, bracket(spec, b, c))
    second = bracket(spec, c, bracket(spec, a, b))
    third = bracket(spec, b, bracket(spec, c, a))
    return tuple(p + q + r for p, q, r in zip(first, second, third))


def omega_rhs(spec: AlgebraSpec, a: Sequence, b: Sequence, c: Sequence) -> tuple:
    """omega(b,c) a + omega(a,b) c + omega(c,a) b, the deformation side."""
    wbc = omega_value(spec, b, c)
    wab = omega_value(spec, a, b)
    wca = omega_value(spec, c, a)
    return tuple(wbc * a[m] + wab * c[m] + wca * b[m] for m in range(spec.dim))


# The six permutations of three slots with their signs.
_PERM3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


@dataclass(frozen=True)
class ResidualTensor:
    """Antisymmetrized validity defect; zero iff the spec is a valid algebra.

    Component (m, l, j, k) is the weight-1/3! antisymmetrization over
    (l, j, k) of  sum_i c[m][i][l] c[i][j][k] + delta(m,l) omega[j][k].
    On basis triples, jacobiator minus omega_rhs equals -3 times this.

    Only the nonzero components are stored, as ``nonzero``: pairs of
    1-based (m, l, j, k) and value, in lexicographic index order.
    ``components`` is the dense [m][l][j][k] view (0-based, zeros as int
    0), built on first access.
    """

    dim: int
    nonzero: tuple  # (((m, l, j, k) 1-based, value), ...), lexicographic

    @property
    def is_zero(self) -> bool:
        return not self.nonzero

    def nonzero_components(self):
        """Yield ((m, l, j, k) 1-based, value) for every nonzero component."""
        return iter(self.nonzero)

    @cached_property
    def components(self) -> tuple:
        n = self.dim
        dense = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (m, l, j, k), v in self.nonzero:
            dense[m - 1][l - 1][j - 1][k - 1] = v
        return tuple(tuple(tuple(tuple(row) for row in plane) for plane in block)
                     for block in dense)


def residual(spec: AlgebraSpec) -> ResidualTensor:
    """The validity defect tensor; ``residual(spec).is_zero`` decides validity.

    The cost follows the nonzero structure constants, not dim^5: only
    products of two nonzero c entries and the nonzero omega entries are
    visited.  Because c[i][j][k] and omega[j][k] are skew in (j, k), the
    weight-1/3! antisymmetrization over (l, j, k) equals the cyclic sum
    divided by 3, so each term  c[m][i][l] c[i][j][k]  (j < k) adds, with
    the sign of the permutation sorting (l, j, k), to the one component
    with sorted indices; the other five orderings follow by sign.
    """
    _require_skew(spec)
    n = spec.dim
    # into[i]: (m, l, c[m][i][l]) for every nonzero c[m][i][l]
    into = [[] for _ in range(n)]
    pairs = []  # (i, j, k, c[i][j][k]) for every nonzero c[i][j][k], j < k
    for m, plane in enumerate(spec.c):
        for i, row in enumerate(plane):
            for l, v in enumerate(row):
                if v:
                    into[i].append((m, l, v))
                    if i < l:
                        pairs.append((m, i, l, v))
    terms = [(m, l, j, k, cmil * cijk)
             for i, j, k, cijk in pairs for m, l, cmil in into[i] if l != j and l != k]
    terms.extend((m, m, j, k, w)
                 for j, row in enumerate(spec.omega) for k, w in enumerate(row)
                 if j < k and w for m in range(n) if m != j and m != k)

    acc = {}  # (m, l, j, k) with l < j < k -> cyclic sum over (l, j, k)
    for m, l, j, k, v in terms:
        if l < j:
            key = (m, l, j, k)
        elif l < k:
            key, v = (m, j, l, k), -v
        else:
            key = (m, j, k, l)
        acc[key] = acc.get(key, 0) + v

    three = rational(3)  # keeps Fractions exact, floats stay floats
    entries = []
    for (m, l, j, k), total in acc.items():
        if total != 0:
            val = total / three
            idx = (l + 1, j + 1, k + 1)
            entries.extend(((m + 1, idx[p0], idx[p1], idx[p2]), val if sign > 0 else -val)
                           for (p0, p1, p2), sign in _PERM3)
    entries.sort(key=lambda entry: entry[0])
    return ResidualTensor(n, tuple(entries))


def transport(spec: AlgebraSpec, p: Matrix) -> AlgebraSpec:
    """Change of basis e'_j = p[q][j] e_q (new basis vectors are columns of p).

    c'[i][j][k] = inv(p)[i][q] c[q][r][s] p[r][j] p[s][k];
    omega'[i][j] = p[w][i] p[v][j] omega[w][v].

    Only the nonzero c[q][r][s] and omega[w][v] with r < s, w < v are
    visited.  By skewness each meets the 2x2 minor of rows r, s of p,
    p[r][j] p[s][k] - p[s][j] p[r][k], and only the j < k outputs are
    computed; the j > k half is their negative.  Exact input gives
    Fraction entries (int entries included), float input float entries.
    """
    n = spec.dim
    if p.dim != n:
        raise ValueError("transform dimension does not match spec")
    _require_skew(spec)
    pinv = invert(p)
    rows = p.rows
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    zero = abs(pinv[0][0] * spec.omega[0][0])  # 0 in the result's scalar type
    minors = {}

    def half_transform(terms):
        # sum of v * minor(r, s) over the (r, s, v) terms, at every j < k
        acc = [zero] * len(pairs)
        for r, s, v in terms:
            minor = minors.get((r, s))
            if minor is None:
                pr, ps = rows[r], rows[s]
                minor = minors[r, s] = [pr[j] * ps[k] - ps[j] * pr[k] for j, k in pairs]
            for idx, x in enumerate(minor):
                if x:
                    acc[idx] += v * x
        return acc

    def skew(upper):
        m = [[zero] * n for _ in range(n)]
        for (j, k), v in zip(pairs, upper):
            m[j][k], m[k][j] = v, -v
        return m

    # u[q][jk] = c[q][r][s] p[r][j] p[s][k], for the q with a nonzero c[q]
    u = []
    for q, plane in enumerate(spec.c):
        terms = [(r, s, v) for r, s in pairs if (v := plane[r][s])]
        if terms:
            u.append((q, half_transform(terms)))
    c_new = []
    for prow in pinv.rows:
        upper = [zero] * len(pairs)
        for q, uq in u:
            f = prow[q]
            if f:
                upper = [x + f * y for x, y in zip(upper, uq)]
        c_new.append(skew(upper))
    om = spec.omega
    om_new = skew(half_transform([(w, v, x) for w, v in pairs if (x := om[w][v])]))
    return AlgebraSpec(n, c_new, om_new)


def omega_rhs_is_identically_zero(omega) -> bool:
    """Whether the deformation side vanishes on all basis triples.

    In dimension 2 this holds for every skew omega (no deformation is ever
    visible); in dimension != 2 it forces omega = 0.  Decided by brute
    evaluation, not by the dimension shortcut.
    """
    om = tuple(tuple(row) for row in omega)
    n = len(om)
    if any(len(r) != n for r in om):
        raise ValueError("omega must be square")
    if any(om[i][j] != -om[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("omega must be skew")
    for l in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    val = om[j][k] * (1 if m == l else 0) \
                        + om[l][j] * (1 if m == k else 0) \
                        + om[k][l] * (1 if m == j else 0)
                    if val != 0:
                        return False
    return True
