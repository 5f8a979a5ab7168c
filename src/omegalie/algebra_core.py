"""Omega-deformed Lie algebras in any finite dimension.

An algebra is a skew bracket plus a skew 2-form omega.  ``AlgebraSpec``
stores only their independent part, which is also the shape of a document:
the nonzero structure constants c[k][i][j] with i < j (the e_{k+1}
component of [e_{i+1}, e_{j+1}], 0-based) and the nonzero omega[i][j] with
i < j.  Skewness therefore holds by construction, every stored value is a
Fraction, and every kernel below costs in the number of stored entries,
not in dim^3: an empty document of any dimension is checked at once.  The
store is the only shape that enters or leaves this module: no dense c or
omega is built, and ``ResidualTensor`` keeps only its nonzero components.
Validity means the deformed Jacobi identity

    [A,[B,C]] + [C,[A,B]] + [B,[C,A]] = omega(B,C) A + omega(A,B) C + omega(C,A) B

holds; ``residual`` packages its component form (the antisymmetrized
quadratic constraint, weight 1/3!) so that validity is ``residual(spec).is_zero``.
``residual`` adds Fractions, each term reduced locally; ``transport`` sums on
ints over common denominators, as each of its outputs reads every stored entry.
No library path transports: ``orbit_sample`` moves a dim-3 row's (n, a) instead.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .tensor_core import Matrix, _Record, _vector, cleared, int_adjugate, rational

# The zero of the kernels' results, which hold Fractions only: every nonzero
# value is a stored Fraction or a product with one.
_ZERO = Fraction(0)


class AlgebraSpec(_Record):
    """Structure constants and 2-form of one algebra, dimension ``dim``.

    The fields, in order: ``dim`` and the store, ``c_upper`` mapping 0-based
    (i, j, k) with i < j to the nonzero c[k][i][j] and ``omega_upper`` mapping
    (i, j) with i < j to the nonzero omega[i][j], in lexicographic key order.
    The entries with i > j follow by skewness and are never stored.  Every
    value is a Fraction: ``from_entries``, the one public constructor, passes
    each entry through ``rational``, so floats and bools raise TypeError.
    """

    __slots__ = ("dim", "c_upper", "omega_upper")

    def __init__(self, *args, **kwargs):
        raise TypeError("an AlgebraSpec is built by AlgebraSpec.from_entries")

    @classmethod
    def _from_upper(cls, dim, c_upper, omega_upper) -> "AlgebraSpec":
        """The spec whose store holds these i < j entries, keys sorted (the
        kernels' constructor).  Callers pass a valid dim and nonzero Fractions
        only: each writer drops its zeros where it decides them, mostly on ints."""
        spec = object.__new__(cls)
        _Record.__init__(spec, dim, dict(sorted(c_upper.items())),
                         dict(sorted(omega_upper.items())))
        return spec

    def __hash__(self):
        return hash((self.dim, tuple(self.c_upper.items()), tuple(self.omega_upper.items())))

    @classmethod
    def from_entries(cls, dim, c_entries=(), omega_entries=()) -> "AlgebraSpec":
        """Build a spec from sparse 1-based entries, the document's own form.

        ``c_entries``: a list or tuple of (i, j, k, value), the e_k component of
        [e_i, e_j], i < j; ``omega_entries``: (i, j, value), i < j.  The one
        checker of entries: an error names the entry, as in ``c_entries[2]:
        index 4 out of range 1..3`` (TypeError for a wrong type, else ValueError).
        A zero value is checked like any other and then dropped, on its numerator.
        """
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        c, om, duplicate = {}, {}, None
        for name, width, entries, store in (("c_entries", 4, c_entries, c),
                                            ("omega_entries", 3, omega_entries, om)):
            if not isinstance(entries, (list, tuple)):
                raise TypeError(f"{name} must be a list")
            for pos, entry in enumerate(entries):
                try:  # each check raises without the place, added below
                    if not isinstance(entry, (list, tuple)) or len(entry) != width:
                        raise ValueError("expected [i, j, k, value]" if width == 4
                                         else "expected [i, j, value]")
                    for x in entry[:-1]:
                        if isinstance(x, bool) or not isinstance(x, int):
                            raise TypeError(f"indices must be integers, got {x!r}")
                        if not 1 <= x <= dim:
                            raise ValueError(f"index {x} out of range 1..{dim}")
                    i, j, value = entry[0], entry[1], entry[-1]
                    if not i < j:
                        raise ValueError(f"requires i < j, got i={i}, j={j}")
                    try:
                        value = rational(value)
                    except TypeError:
                        raise TypeError(f"values must be rational strings, got {value!r}") from None
                except (TypeError, ValueError) as exc:
                    raise type(exc)(f"{name}[{pos}]: {exc}") from None
                key = (i - 1, j - 1, entry[2] - 1) if width == 4 else (i - 1, j - 1)
                if key in store and duplicate is None:
                    duplicate = (f"duplicate {name.split('_')[0]} entry "
                                 f"({','.join(str(x + 1) for x in key)})")
                store[key] = value
        if duplicate:
            raise ValueError(duplicate)
        return cls._from_upper(dim, {key: v for key, v in c.items() if v.numerator},
                               {key: v for key, v in om.items() if v.numerator})


def _bracket(spec, x, y) -> list:
    # [x, y] of read vectors, int 0 where no stored entry contributes, so that
    # the nested brackets of jacobiator skip those components at int speed
    out = [0] * spec.dim
    for (i, j, k), v in spec.c_upper.items():
        xi, xj = x[i], x[j]
        if xi or xj:
            w = xi * y[j] - xj * y[i]
            if w:
                out[k] += v * w
    return out


def bracket(spec: AlgebraSpec, x: Sequence, y: Sequence) -> tuple:
    """[x, y]_k = sum over the stored c[k][i][j] of c[k][i][j] (x_i y_j - x_j y_i).

    Entries where x vanishes at both i and j are skipped.  Here and below each
    vector argument is read by ``_vector`` (ints, Fractions, ``p/q`` strings)."""
    return tuple(v or _ZERO for v in _bracket(spec, _vector(x, spec.dim), _vector(y, spec.dim)))


def _omega_value(spec, x, y):
    return sum((v * (x[i] * y[j] - x[j] * y[i])
                for (i, j), v in spec.omega_upper.items() if x[i] or x[j]), _ZERO)


def omega_value(spec: AlgebraSpec, x: Sequence, y: Sequence):
    """omega(x, y), summed over the stored omega[i][j] like ``bracket``."""
    return _omega_value(spec, _vector(x, spec.dim), _vector(y, spec.dim))


def jacobiator(spec: AlgebraSpec, a: Sequence, b: Sequence, c: Sequence) -> tuple:
    """[a,[b,c]] + [c,[a,b]] + [b,[c,a]]; identically zero exactly for Lie brackets."""
    a, b, c = _vector(a, spec.dim), _vector(b, spec.dim), _vector(c, spec.dim)
    first = _bracket(spec, a, _bracket(spec, b, c))
    second = _bracket(spec, c, _bracket(spec, a, b))
    third = _bracket(spec, b, _bracket(spec, c, a))
    return tuple(p + q + r or _ZERO for p, q, r in zip(first, second, third))


def omega_rhs(spec: AlgebraSpec, a: Sequence, b: Sequence, c: Sequence) -> tuple:
    """omega(b,c) a + omega(a,b) c + omega(c,a) b, the deformation side."""
    a, b, c = _vector(a, spec.dim), _vector(b, spec.dim), _vector(c, spec.dim)
    terms = [(w, v) for w, v in ((_omega_value(spec, b, c), a), (_omega_value(spec, a, b), c),
                                 (_omega_value(spec, c, a), b)) if w]
    return (tuple(sum((w * v[m] for w, v in terms), _ZERO) for m in range(spec.dim))
            if terms else (_ZERO,) * spec.dim)


# The six permutations of three slots with their signs.
_PERM3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


class ResidualTensor(_Record):
    """Antisymmetrized validity defect; zero iff the spec is a valid algebra.

    Component (m, l, j, k) is the weight-1/3! antisymmetrization over
    (l, j, k) of  sum_i c[m][i][l] c[i][j][k] + delta(m,l) omega[j][k].
    On basis triples, jacobiator minus omega_rhs equals -3 times this.

    The fields, in order: ``dim`` and ``nonzero``, the nonzero components
    only, as pairs of 1-based (m, l, j, k) and value in lexicographic order.
    """

    __slots__ = ("dim", "nonzero")

    @property
    def is_zero(self) -> bool:
        return not self.nonzero


def _defect(dim, independent) -> ResidualTensor:
    """The defect with these independent components ((m, l, j, k), value),
    1-based with l < j < k: each is written with its five signed reorderings,
    the one layout of every defect, in index order."""
    entries = []
    for (m, l, j, k), v in independent:
        signed, idx = {1: v, -1: -v}, (l, j, k)
        entries.extend(((m, idx[p0], idx[p1], idx[p2]), signed[sign])
                       for (p0, p1, p2), sign in _PERM3)
    entries.sort(key=lambda entry: entry[0])
    return ResidualTensor(dim, tuple(entries))


def residual(spec: AlgebraSpec) -> ResidualTensor:
    """The validity defect tensor; ``residual(spec).is_zero`` decides validity.

    The cost follows the stored entries, not dim^5: only products of two
    nonzero c entries and the nonzero omega entries are visited.  Because
    c[i][j][k] and omega[j][k] are skew in (j, k), the weight-1/3!
    antisymmetrization over (l, j, k) equals the cyclic sum divided by 3,
    so each term  c[m][i][l] c[i][j][k]  (j < k, a stored entry) adds, with
    the sign of the permutation sorting (l, j, k), to the one component
    with sorted indices; the other five orderings follow by sign.
    """
    n = spec.dim
    # into[i]: (m, l, c[m][i][l]) for every nonzero c[m][i][l], both orientations
    into = [[] for _ in range(n)]
    for (i, l, m), v in spec.c_upper.items():
        into[i].append((m, l, v))
        into[l].append((m, i, -v))
    terms = [(m, l, j, k, cmil * cijk) for (j, k, i), cijk in spec.c_upper.items()
             for m, l, cmil in into[i] if l != j and l != k]
    terms.extend((m, m, j, k, w) for (j, k), w in spec.omega_upper.items()
                 for m in range(n) if m != j and m != k)

    acc = {}  # (m, l, j, k) with l < j < k -> cyclic sum over (l, j, k)
    for m, l, j, k, v in terms:
        if l < j:
            key = (m, l, j, k)
        elif l < k:
            key, v = (m, j, l, k), -v
        else:
            key = (m, j, k, l)
        acc[key] = acc.get(key, 0) + v

    return _defect(n, (((m + 1, l + 1, j + 1, k + 1), total / 3)
                       for (m, l, j, k), total in acc.items() if total != 0))


def transport(spec: AlgebraSpec, p: Matrix) -> AlgebraSpec:
    """Change of basis e'_j = p[q][j] e_q (new basis vectors are columns of p).

    c'[i][j][k] = inv(p)[i][q] c[q][r][s] p[r][j] p[s][k];
    omega'[i][j] = p[w][i] p[v][j] omega[w][v].

    Only the stored c[q][r][s] and omega[w][v] (r < s, w < v) are visited.
    By skewness each meets the 2x2 minor of rows r, s of p,
    p[r][j] p[s][k] - p[s][j] p[r][k], and only the j < k outputs are
    computed: they are the new store.  On ints, for p = M / m, c = C / lc and
    omega = W / lw: c' = adj(M) C (M x M) / (lc m det M), omega' = M^T W M / (lw m^2).
    """
    if not isinstance(p, Matrix):
        raise TypeError(f"transport needs a Matrix, got {type(p).__name__}")
    if p.dim != spec.dim:
        raise ValueError("transform dimension does not match spec")
    n, (rows, m) = spec.dim, p.int_rows()
    adj, det = int_adjugate(rows)
    cv, lc = cleared(spec.c_upper.values())
    wv, lw = cleared(spec.omega_upper.values())
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    minors = {}

    def add_minor(acc, r, s, v):
        # acc[jk] += v * minor(r, s), at every j < k
        minor = minors.get((r, s))
        if minor is None:
            pr, ps = rows[r], rows[s]
            minor = minors[r, s] = [pr[j] * ps[k] - ps[j] * pr[k] for j, k in pairs]
        for idx, x in enumerate(minor):
            if x:
                acc[idx] += v * x

    # u[q][jk] = C[q][r][s] M[r][j] M[s][k], for the q with a nonzero c[q];
    # the store visits each plane's (r, s) in order
    u = {}
    for (r, s, q), v in zip(spec.c_upper, cv):
        add_minor(u.setdefault(q, [0] * len(pairs)), r, s, v)
    om_new = [0] * len(pairs)
    for (w, v), x in zip(spec.omega_upper, wv):
        add_minor(om_new, w, v, x)
    c_new = {}
    for i, arow in enumerate(adj):
        upper = [0] * len(pairs)
        for q, uq in u.items():
            f = arow[q]
            if f:
                upper = [x + f * y for x, y in zip(upper, uq)]
        c_new.update(((j, k, i), Fraction(x, lc * m * det))
                     for (j, k), x in zip(pairs, upper) if x)
    om_new = {jk: Fraction(x, lw * m * m) for jk, x in zip(pairs, om_new) if x}
    return AlgebraSpec._from_upper(n, c_new, om_new)
