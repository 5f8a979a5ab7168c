"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: permutation expansions for
determinants, characteristic polynomial + Descartes' rule of signs for
inertia, direct evaluation of the deformed Jacobi identity on basis
triples, the dense O(dim^5) component formula of the residual tensor,
the 27-term Levi-Civita sums of the dimension-3 dictionary, the dense
basis change of a spec, the dim-3 decomposition, its defect t and
symmetric elimination in Fractions, the hand-written label chain of the
dim-3 classification, the generic frame kernels and exact head it ran on
before they were written out for dimension 3, and the table rows and orbit samples built through
``Matrix``, ``forced_b`` and ``reconstruct``.  Slow but obviously correct,
and sharing no code
paths with the package under test (``deformed_identity_holds`` uses the
library's ``jacobiator`` and ``omega_rhs``, which tests compare against
``dense_bracket`` and ``dense_omega``).

The package holds only the i < j store, so the dense shapes these
references read are built here: ``c_tensor`` and ``omega_matrix`` give a
spec's dense c[k][i][j] and omega[i][j], ``spec_from_dense`` reads a spec
off dense skew tensors, ``with_omega`` pairs a spec's bracket with an omega
store, and ``residual_components`` gives the dense [m][l][j][k] of a
``ResidualTensor``.

The last section keeps the helpers that only tests call, so they are not
part of the package's API: basis vectors, identity, diagonal, scaled and
transposed matrices, the matrix-vector product, the adjugate and the
inverse (both read off the library's eliminations), inertia, the dual
matrix of a dense dim-3 bracket, the forced b and the forced spec of a
dim-3 spec by the dual route b = -2 n a, the forced omega of a dense dim-3
bracket, the trace split (a, alpha) of a bracket in any dimension and its
trace candidate omega, built densely from alpha, the deformed identity as linear equations in omega with their
exact solution and the compatible omega store or None read off it, the
brute-force check that omega's side of the identity vanishes, the exact
witness of a classification and its whole-input float check.
"""

import math
import random
import sys
from fractions import Fraction
from itertools import permutations

from omegalie import (AlgebraSpec, ExactCertificates, Inertia, Matrix, NabTriple,
                      SingularMatrixError, forced_b, jacobiator, omega_rhs,
                      reconstruct, table_row, transport)
from omegalie.classify3d import _half_log2, _root
from omegalie.decomp3d import _TABLE, _adjugate3
from omegalie.tensor_core import int_adjugate

_ZERO = Fraction(0)


# --- dense builders -----------------------------------------------------------

def c_tensor(spec):
    """Dense c[k][i][j], 0-based, of a spec: the stored c[k][i][j] (i < j),
    its negative at c[k][j][i] and Fraction zeros elsewhere."""
    n = spec.dim
    dense = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in spec.c_upper.items():
        dense[k][i][j], dense[k][j][i] = v, -v
    return tuple(tuple(map(tuple, plane)) for plane in dense)


def omega_matrix(spec):
    """Dense omega[i][j], 0-based, of a spec, completed by skewness like ``c_tensor``."""
    n = spec.dim
    dense = [[_ZERO] * n for _ in range(n)]
    for (i, j), v in spec.omega_upper.items():
        dense[i][j], dense[j][i] = v, -v
    return tuple(map(tuple, dense))


def spec_from_dense(c, omega):
    """The spec of a dense skew c[k][i][j] and omega[i][j], read off their i < j
    entries through ``AlgebraSpec.from_entries`` (so floats raise TypeError);
    ValueError if either tensor is not skew."""
    n = len(omega)
    if any(c[k][i][j] != -c[k][j][i] for k in range(n) for i in range(n) for j in range(i, n)):
        raise ValueError("c is not skew")
    if any(omega[i][j] != -omega[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("omega is not skew")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return AlgebraSpec.from_entries(
        n, [(i + 1, j + 1, k + 1, c[k][i][j]) for i, j in pairs for k in range(n)],
        [(i + 1, j + 1, omega[i][j]) for i, j in pairs])


def with_omega(spec, omega_upper):
    """The spec with the bracket of ``spec`` and the omega store ``omega_upper``."""
    return AlgebraSpec.from_entries(
        spec.dim, [(i + 1, j + 1, k + 1, v) for (i, j, k), v in spec.c_upper.items()],
        [(i + 1, j + 1, v) for (i, j), v in omega_upper.items()])


def residual_components(res):
    """Dense [m][l][j][k], 0-based, of a ``ResidualTensor``: its nonzero
    components and Fraction zeros elsewhere."""
    n = res.dim
    dense = [[[[_ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (m, l, j, k), v in res.nonzero:
        dense[m - 1][l - 1][j - 1][k - 1] = v
    return tuple(tuple(tuple(map(tuple, plane)) for plane in block) for block in dense)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, node = 0, start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_det(rows):
    """Determinant by full permutation expansion."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_perm_sign(perm))
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def perm_adjugate(rows):
    """Adjugate via cofactors of permutation-expanded minors."""
    n = len(rows)

    def minor(r, c):
        return [[rows[i][j] for j in range(n) if j != c] for i in range(n) if i != r]

    return [[(-1) ** (i + j) * perm_det(minor(j, i)) for j in range(n)]
            for i in range(n)]


def char_poly(rows):
    """Coefficients of det(x I - M), highest power first (Faddeev-LeVerrier)."""
    n = len(rows)

    def mat_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def trace(a):
        return sum(a[i][i] for i in range(n))

    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I); c_k = -trace(M_k)/k
        for i in range(n):
            m[i][i] += coeffs[-1]
        m = mat_mul([[Fraction(x) for x in row] for row in rows], m)
        coeffs.append(Fraction(-1, k) * trace(m))
    return coeffs


def descartes_inertia(rows):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    All roots of the characteristic polynomial are real, so Descartes'
    rule is exact: positive roots = sign changes of p(x), negative roots
    = sign changes of p(-x), the rest are zeros.
    """
    n = len(rows)
    coeffs = char_poly(rows)

    def sign_changes(seq):
        signs = [x for x in seq if x != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))

    pos = sign_changes(coeffs)
    neg = sign_changes([c if i % 2 == 0 else -c for i, c in enumerate(coeffs)])
    return pos, neg, n - pos - neg


def deformed_identity_holds(spec: AlgebraSpec) -> bool:
    """The defining identity, checked directly on every basis triple."""
    vectors = basis(spec.dim)
    for a in vectors:
        for b in vectors:
            for c in vectors:
                if jacobiator(spec, a, b, c) != omega_rhs(spec, a, b, c):
                    return False
    return True


def dense_bracket(c, x, y):
    """[x, y]_k = sum over every i, j of c[k][i][j] x_i y_j, zeros included."""
    n = len(c)
    return tuple(sum(c[k][i][j] * x[i] * y[j] for i in range(n) for j in range(n))
                 for k in range(n))


def dense_omega(omega, x, y):
    """omega(x, y) = sum over every i, j of omega[i][j] x_i y_j."""
    n = len(omega)
    return sum(omega[i][j] * x[i] * y[j] for i in range(n) for j in range(n))


# the six permutations of three slots with their signs
_PERM3 = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))


def dense_residual(spec: AlgebraSpec):
    """The residual tensor [m][l][j][k], 0-based, by its defining formula.

    Component (m, l, j, k) is the weight-1/3! antisymmetrization over
    (l, j, k) of  sum_i c[m][i][l] c[i][j][k] + delta(m,l) omega[j][k],
    every term of every permutation evaluated.  Entries with a repeated
    index among (l, j, k) are int 0; the others are Fractions for exact
    input.
    """
    n = spec.dim
    c, om = c_tensor(spec), omega_matrix(spec)

    def t_comp(m, l, j, k):
        acc = sum(c[m][i][l] * c[i][j][k] for i in range(n))
        if m == l:
            acc += om[j][k]
        return acc

    comps = [[[[0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for l in range(n):
            for j in range(l + 1, n):
                for k in range(j + 1, n):
                    idx = (l, j, k)
                    val = sum(sign * t_comp(m, idx[p0], idx[p1], idx[p2])
                              for (p0, p1, p2), sign in _PERM3) / Fraction(6)
                    for (p0, p1, p2), sign in _PERM3:
                        comps[m][idx[p0]][idx[p1]][idx[p2]] = sign * val
    return comps


def eps3(i, j, k):
    """Levi-Civita symbol on 0-based indices, as a permutation sign."""
    if len({i, j, k}) < 3:
        return 0
    return _perm_sign((i, j, k))


def eps_dual_c(c):
    """c^{il} = (1/2) sum over j, k of c[i][j][k] eps^{jkl}, all 27 terms."""
    half = Fraction(1, 2)
    return [[half * sum(c[i][j][k] * eps3(j, k, l) for j in range(3) for k in range(3))
             for l in range(3)] for i in range(3)]


def eps_decompose(spec: AlgebraSpec):
    """(n rows, a, b) of a dim-3 spec by the full eps sums."""
    cm = eps_dual_c(c_tensor(spec))
    om = omega_matrix(spec)
    half = Fraction(1, 2)
    n = [[half * (cm[i][l] + cm[l][i]) for l in range(3)] for i in range(3)]
    a = [half * sum(eps3(m, i, l) * cm[i][l] for i in range(3) for l in range(3))
         for m in range(3)]
    b = [half * sum(eps3(i, j, k) * om[i][j] for i in range(3) for j in range(3))
         for k in range(3)]
    return n, a, b


def eps_reconstruct(n, a, b):
    """(c, omega) with c[i][j][k] = n[i][l] eps_{jkl} - delta_ij a_k +
    delta_ik a_j and omega_ij = eps_ijk b^k, every term summed."""
    c = [[[sum(n[i][l] * eps3(j, k, l) for l in range(3))
           - (a[k] if i == j else 0) + (a[j] if i == k else 0)
           for k in range(3)] for j in range(3)] for i in range(3)]
    om = [[sum(eps3(i, j, k) * b[k] for k in range(3)) for j in range(3)]
          for i in range(3)]
    return c, om


def dense_transport(spec, p):
    """(c, omega) after the basis change e'_j = p[q][j] e_q, every term of
    c'[i][j][k] = inv(p)[i][q] c[q][r][s] p[r][j] p[s][k] and
    omega'[i][j] = p[w][i] p[v][j] omega[w][v] summed; inv(p) is the
    permutation-expanded adjugate over the determinant.  ``spec`` is an
    AlgebraSpec or a dense (c, omega) pair, whose entries (floats too) and
    those of the rows ``p`` set the scalar type of the result."""
    c, om = (c_tensor(spec), omega_matrix(spec)) if isinstance(spec, AlgebraSpec) else spec
    n = len(om)
    det = perm_det(p)
    pinv = [[x / det for x in row] for row in perm_adjugate(p)]
    rng = range(n)
    u = [[[sum(c[q][r][s] * p[r][j] * p[s][k] for r in rng for s in rng)
           for k in rng] for j in rng] for q in rng]
    c_new = [[[sum(pinv[i][q] * u[q][j][k] for q in rng) for k in rng] for j in rng]
             for i in rng]
    om_new = [[sum(p[w][i] * p[v][j] * om[w][v] for w in rng for v in rng) for j in rng]
              for i in rng]
    return c_new, om_new


def fraction_decompose(spec: AlgebraSpec) -> NabTriple:
    """(n, a, b) of a dim-3 spec computed in Fractions, one cyclic entry at a
    time: the library's ``decompose`` reads the same values off an int view
    of the store and must return exactly this."""
    cyclic = ((1, 2), (2, 0), (0, 1))

    def at(store, j, k, *plane):
        # the value at (j, k) of an i < j store
        if j < k:
            return store.get((j, k, *plane), Fraction(0))
        return -store.get((k, j, *plane), Fraction(0))

    cm = [[at(spec.c_upper, j, k, i) for j, k in cyclic] for i in range(3)]
    half = Fraction(1, 2)
    n = [[half * (cm[i][l] + cm[l][i]) for l in range(3)] for i in range(3)]
    a = [half * (cm[i][l] - cm[l][i]) for i, l in cyclic]
    b = [at(spec.omega_upper, j, k) for j, k in cyclic]
    return NabTriple(Matrix(n), tuple(a), tuple(b))


def fraction_t_vector(trip: NabTriple) -> tuple:
    """t = 4 n a + 2 b summed in Fractions, the reference of ``t_of``."""
    na = [sum((x * y for x, y in zip(row, trip.a)), Fraction(0)) for row in trip.n.rows]
    return tuple(4 * x + 2 * y for x, y in zip(na, trip.b))


def reconstructed_row(label, param=None):
    """The canonical spec of a table row as ``reconstruct`` of (diag(nd),
    a = p apat, forced b), in Fractions: the library's ``generate`` writes
    the same store on ints and must return exactly this."""
    nd, apat, _ = table_row(label)
    n = diagonal(nd)
    a = tuple(x * Fraction(1 if param is None else param) for x in apat)
    return reconstruct(NabTriple(n, a, forced_b(n, a)))


def fraction_orbit_sample(label, param=None, *, seed):
    """The orbit sample transported by the ``Matrix`` of Fraction draws
    r / d, drawn row by row and redrawn while singular: the library's
    ``orbit_sample`` draws the same ints and must return exactly this."""
    base = reconstructed_row(label, param)
    rng = random.Random(seed)
    while True:
        p = Matrix(tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
            for _ in range(3)))
        try:
            return transport(base, p)
        except SingularMatrixError:
            pass


def fraction_congruence_diagonalize(m):
    """(p, d, det(p)) with m = p diag(d) p^T, eliminated in Fractions step by
    step: the library's ``int_congruence`` makes the same swaps, splits and
    shears fraction-free on the int rows and must return exactly this."""
    n = m.dim
    a = [list(r) for r in m.rows]
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    det = 1

    def swap(i, j):
        nonlocal det
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in p:
            row[i], row[j] = row[j], row[i]
        det = -det

    def add_row(dst, src, f=1):
        # e_dst -> e_dst + f e_src congruently on a; p: column src -= f column dst
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in a:
            row[dst] = row[dst] + f * row[src]
        for row in p:
            row[src] = row[src] - f * row[dst]

    for i in range(n):
        if a[i][i] == 0:
            cand = next((q for q in range(i + 1, n) if a[q][q] != 0), None)
            if cand is not None:
                swap(i, cand)
            else:
                pair = next(((q, r) for q in range(i, n) for r in range(q + 1, n)
                             if a[q][r] != 0), None)
                if pair is None:
                    break  # trailing block is identically zero
                q, r = pair
                add_row(q, r)
                if q != i:
                    swap(i, q)
        piv = a[i][i]
        for q in range(i + 1, n):
            if a[q][i]:
                add_row(q, i, -a[q][i] / piv)
    return Matrix(p), tuple(a[i][i] for i in range(n)), det


# --- the hand-written dim-3 label chain ---------------------------------------
# What classify3d ran before it looked labels up in the map built from its
# table: rank, inertia, the kernel test and the sign of q decide the label by
# hand, and each parametric row fixes its parameter's sign.  Copied verbatim,
# with the B(v, v) and the sign counts (once ``Inertia.of_diagonal``) it reads.


def _form(d, v):
    # B(v, v) = v^T diag(d) v, preserved by every stabiliser of n
    return sum(x * y * y for x, y in zip(d, v))


def of_diagonal(d) -> Inertia:
    """Sign counts of a congruence diagonal (Sylvester's law of inertia)."""
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    return Inertia(pos, neg, len(d) - pos - neg)


_AZERO_LABELS = {(0, 0, 3): "I", (1, 0, 2): "II", (1, 1, 1): "VI0",
                 (2, 0, 1): "VII0", (2, 1, 0): "VIII", (3, 0, 0): "IX"}


def _discrete_classify(d, a):
    """Label, squared parameter (num, den) and certificates, read off n = p diag(d) p^T, a = p^T a."""
    (d, dd), (a, ad) = d, a
    inert = of_diagonal(d)
    praw, qraw = inert.positive, inert.negative
    canon = Inertia(max(praw, qraw), min(praw, qraw), inert.zero)
    rank = canon.rank
    a_zero = all(x == 0 for x in a)
    kernel_only = (not a_zero) and all(x * y == 0 for x, y in zip(d, a))
    qf = _form(d, a)  # a^T n a times dd ad^2 > 0
    if a_zero:
        causal = "zero"
    elif kernel_only:
        causal = "kernel-only"
    else:
        if rank == 3:
            flip = praw < qraw
        elif rank == 2:
            flip = (qf < 0) if praw == qraw else (praw == 0)
        else:
            flip = praw == 0
        qc = -qf if flip else qf
        causal = "spacelike" if qc > 0 else ("timelike" if qc < 0 else "null")

    # each ratio below is the invariant times (ad / dd)^2
    param2 = None
    if a_zero:
        label = _AZERO_LABELS[canon.as_tuple()]
    elif rank == 0:
        label = "V"
    elif rank == 1:
        label = "IV" if kernel_only else "IV_x"
    elif rank == 2:
        if kernel_only:
            # a x a = rho adjugate(n), a full orbit invariant; a = a_k p^-T e_k
            # and adjugate(n) = d_i d_j (p^-T e_k)(p^-T e_k)^T, k the zero of d
            rho = (sum(x * x for x in a), math.prod(x for x in d if x))
            if canon.as_tuple() == (1, 1, 1):
                label, param2 = "VI_a", (-rho[0], rho[1])
            else:
                label, param2 = "VII_a", rho
        elif canon.as_tuple() == (1, 1, 1):
            label = "VI_n" if qf == 0 else "VI_x"
        else:
            label = "VII_x"
    else:
        det = math.prod(d)  # r = qf / det
        if canon.as_tuple() == (3, 0, 0):
            label, param2 = "IX_a", (qf, det)
        elif qf * det > 0:
            label, param2 = "VIII_a", (qf, det)
        elif qf * det < 0:
            label, param2 = "VIII_xa", (-qf, det)
        else:
            label = "VIII_na"
    if param2 is not None:
        param2 = (param2[0] * dd * dd, param2[1] * ad * ad)
        if param2[0] * param2[1] <= 0:
            raise AssertionError(f"parameter invariant lost positivity for {label}: {param2}")
    return label, param2, ExactCertificates(canon, a_zero, causal)


# --- the generic dim-3 kernels ------------------------------------------------
# What classify3d ran before its frame arithmetic was written out for dimension 3:
# sum over generator expressions, zip comprehensions and the n-ary _join, each
# copied verbatim (with the _form above and decomp3d's _triple).  _recombine
# reads e'_m as (q, k) terms where the library reads a coefficient triple.
# They call the library's unchanged _root, _half_log2, _adjugate3 and _TABLE,
# and _exact_head reads its label off the hand-written chain above.


def int_congruence(rows) -> tuple[list, list, list, int]:
    """(cols, dens, d, det) with M = p diag(d) p^T for a symmetric int matrix
    M given as rows, by symmetric elimination with swaps and unit shears: p
    collects their inverses as column operations, column j of p is the int
    vector cols[j] over its pivot dens[j], d[i] = piv_i / prev_i is given as
    that pair ((0, 1) past the last pivot), and det(p) = +-1 is the swap
    parity.  When every remaining diagonal entry vanishes but some
    off-diagonal entry q,r is nonzero, the split e_q -> e_q + e_r exposes the
    pivots 2m and -m/2.

    Fraction-free (Bareiss 1968): the trailing block after a pivot b is B / b
    with B integer (the next step divides exactly by b), and a pivot column
    of p is an integer vector over its pivot."""
    a, n = [list(r) for r in rows], len(rows)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]  # cols[j]: column j of p
    dens, d = [1] * n, [(0, 1)] * n
    det, prev = 1, 1

    def swap(i, j):
        nonlocal det
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]
        cols[i], cols[j] = cols[j], cols[i]
        det = -det

    for i in range(n):
        if a[i][i] == 0:
            cand = next((q for q in range(i + 1, n) if a[q][q] != 0), None)
            if cand is not None:
                swap(i, cand)
            else:
                pair = next(((q, r) for q in range(i, n) for r in range(q + 1, n)
                             if a[q][r] != 0), None)
                if pair is None:
                    break  # trailing block is identically zero
                q, r = pair
                # e_q -> e_q + e_r congruently on a; p: column r -= column q
                a[q] = [x + y for x, y in zip(a[q], a[r])]
                for row in a:
                    row[q] += row[r]
                cols[r] = [x - y for x, y in zip(cols[r], cols[q])]
                if q != i:
                    swap(i, q)
        piv, rest = a[i][i], range(i + 1, n)
        # e_q -> e_q - (a_qi / piv) e_i for q > i; p: column i += (a_qi / piv) column q
        cols[i] = [piv * x + sum(a[q][i] * cols[q][k] for q in rest)
                   for k, x in enumerate(cols[i])]
        dens[i], d[i] = piv, (piv, prev)
        for q in rest:
            a[q][i + 1:] = [(piv * x - a[q][i] * y) // prev
                            for x, y in zip(a[q][i + 1:], a[i][i + 1:])]
        prev = piv
    return cols, dens, d, det


def _invariants(d, a):
    """Certificates of n = diag(d) and a, and the row's ratio (num, den): the
    invariant a x a / adjugate(n) on rank 2 with a in ker n, a^T n a / det(n)
    on rank 3, None otherwise; scaling d and a scales it by a positive square."""
    inert = of_diagonal(d)
    praw, qraw = inert.positive, inert.negative
    canon = Inertia(max(praw, qraw), min(praw, qraw), inert.zero)
    rank = canon.rank
    a_zero = all(x == 0 for x in a)
    kernel_only = (not a_zero) and all(x * y == 0 for x, y in zip(d, a))
    qf = _form(d, a)  # a^T n a times dd ad^2 > 0
    if a_zero:
        causal = "zero"
    elif kernel_only:
        causal = "kernel-only"
    else:
        if rank == 3:
            flip = praw < qraw
        elif rank == 2:
            flip = (qf < 0) if praw == qraw else (praw == 0)
        else:
            flip = praw == 0
        qc = -qf if flip else qf
        causal = "spacelike" if qc > 0 else ("timelike" if qc < 0 else "null")
    ratio = None
    if rank == 2 and kernel_only:
        # a = a_k p^-T e_k and adjugate(n) = d_i d_j (p^-T e_k)(p^-T e_k)^T,
        # k the zero of d
        ratio = (sum(x * x for x in a), math.prod(x for x in d if x))
    elif rank == 3:
        ratio = (qf, math.prod(d))
    return ExactCertificates(canon, a_zero, causal), ratio


def _join(pairs):
    # the rational vector of the (num, den) pairs: one denominator, one gcd
    lcm = math.lcm(*(m for _, m in pairs))
    nums = [x * (lcm // m) for x, m in pairs]
    g = math.gcd(*nums, lcm)
    return [x // g for x in nums], lcm // g


def _parity(order) -> int:
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if order[i] > order[j])
    return -1 if inversions % 2 else 1


def _permute(frame, order, signs):
    # e'_j = signs[j] e_order[j]; n stays diagonal with d'_j = det(Q) d_order[j]
    (d, dd), (a, ad), cols = frame
    q = _parity(order) * signs[0] * signs[1] * signs[2]
    return (([q * d[o] for o in order], dd), ([sg * a[o] for o, sg in zip(order, signs)], ad),
            [([sg * x for x in cols[o][0]], cols[o][1]) for o, sg in zip(order, signs)])


def _scale(frame, nums, dens=(1, 1, 1)):
    # e'_i = lam_i e_i, lam_i = nums[i] / dens[i]; d'_i = det(Q) d_i / lam_i^2
    (d, dd), (a, ad), cols = frame
    qn, qd = math.prod(nums), math.prod(dens)
    return (_join([(qn * x * m * m, qd * dd * k * k) for x, k, m in zip(d, nums, dens)]),
            _join([(k * x, m * ad) for x, k, m in zip(a, nums, dens)]),
            [_join([(k * x, m * s) for x in col]) for (col, s), k, m in zip(cols, nums, dens)])


def _recombine(frame, new):
    # e'_m = sum of k e_q / den over (q, k) in terms, (terms, den) = new[m], the
    # others stay; Q has determinant 1 and fixes n (Q^-1 n Q^-T = n), so d stays
    d, (a, ad), cols = frame
    a2, cols2 = [(x, ad) for x in a], list(cols)
    for m, (terms, den) in new.items():
        a2[m] = (sum(k * a[q] for q, k in terms), den * ad)
        lcm = math.lcm(*(cols[q][1] for q, _ in terms))
        cols2[m] = _join([(sum(k * (lcm // cols[q][1]) * cols[q][0][r] for q, k in terms),
                           den * lcm) for r in range(3)])
    return d, _join(a2), cols2


def _plane_map(frame, f, g, tf, tg, den):
    # T = I + sum over v of (T v - v) (diag(d) v)^T / B(v, v), T v = tv . (f, g) / den
    # for int vectors f and g: e'_m = e_m + sum over v, q of w_vm d_q v_q e_q / (den B(v, v)),
    # w_vm = den (T v - v)_m, over the one denominator den B(f, f) B(g, g)
    d = frame[0][0]
    bf, bg = _form(d, f), _form(d, g)
    ws = [[c * x + e * y - den * t for x, y, t in zip(f, g, v)]
          for v, (c, e) in ((f, tf), (g, tg))]
    return _recombine(frame, {
        m: ([(q, (m == q) * den * bf * bg + (wf * f[q] * bg + wg * g[q] * bf) * d[q])
             for q in range(3)], den * bf * bg)
        for m, (wf, wg) in enumerate(zip(*ws)) if wf or wg})


def _certify(frame, view, label: str):
    """Integer equality of P diag(d) P^T = det(P) n, with det(P) read off the
    columns, and of P^T a = a_frame, both cross-multiplied against the view's
    n = N / 2lc and a = A / 2lc (with b forced, they carry the input onto the
    frame), and the row's sign patterns of d and of a on ker n."""
    (d, dd), (af, ad), cols = frame
    nv, av, _, lc, _ = view
    c, s = zip(*cols)
    det = _adjugate3(c)[1]
    prod = s[0] * s[1] * s[2]  # det(P) = det / prod; below, times prod^2 dd 2lc
    t = [x * (prod // y) ** 2 * 2 * lc for x, y in zip(d, s)]
    nd, apat, _ = _TABLE[label]
    if (any(sum(c[k][i] * t[k] * c[k][j] for k in range(3)) != det * prod * dd * nv[i][j]
            for i in range(3) for j in range(i, 3))
            or any(ad * sum(x * y for x, y in zip(col, av)) != y * sk * 2 * lc
                   for col, sk, y in zip(c, s, af))
            or tuple((x > 0) - (x < 0) for x in d) != nd
            or any((af[i] != 0) != (apat[i] != 0) for i in range(3) if d[i] == 0)):
        raise AssertionError(f"the exact reduction to {label} failed its certificate")


def _sort_signs(frame):
    # positives, then negatives, then zeros; an odd order negates the last
    # new vector, so det = +1 and the diagonal of n just permutes
    d = frame[0][0]
    order = sorted(range(3), key=lambda i: 0 if d[i] > 0 else (1 if d[i] < 0 else 2))
    if order == [0, 1, 2]:
        return frame
    return _permute(frame, order, (1, 1, _parity(order)))


def _boost(frame):
    """The boost of VI_x, VIII_a or VIII_xa that zeroes the smaller part of a,
    done exactly.  With a = f + g on the positive and negative d_i, f the
    larger (p, q = B(f, f), B(g, g)), the Cayley boost T f = ((1 - u) f -
    2 s g / q) / (1 + u), T g = (2 s f / p + (1 - u) g) / (1 + u), u = s^2 / (p q),
    zeroes g at s = q / (1 + sqrt(1 + q / p)).  A root rounded up keeps s
    rational and leaves T a = alpha f + beta g, 0 < beta |g| of about
    2^-55 |T a| at any cosh^2 = p / (p + q): the float tail's VIII_a rotation
    then reads g's own direction off a.  With that root r / k and w = r + k, the
    coefficients are ints over p w^2 + q k^2 and depend on q / p alone."""
    d, a = frame[0][0], frame[1][0]
    f, g = ([x if y > 0 else 0 for x, y in zip(a, d)], [x if y < 0 else 0 for x, y in zip(a, d)])
    p, q = _form(d, f), _form(d, g)
    if p + q < 0:
        f, g, p, q = g, f, q, p
    if q == 0:
        return frame
    r, k = _root(p + q, p, up=True)
    w = r + k
    c = p * w * w - q * k * k
    return _plane_map(frame, f, g, (c, -2 * p * k * w), (2 * q * k * w, c), p * w * w + q * k * k)


def _null_boost(frame):
    """Scale the null a of VIII_na by 2^-k, r = |a_3| / sqrt(d_1 d_2) into
    [1/2, 2): the float boost from (r, 0, r) to (1, 0, 1) loses about
    r^2 2^-53.  With b = e_3 - a / (2 a_3) null too, a -> lam a, b -> b / lam
    is a rational boost of the plane of a +- b, here of 2 a_3 (a +- b) on
    a's integer entries."""
    (d, dd), (a, ad) = frame[0], frame[1]
    k = _half_log2(a[2] * a[2] * dd * dd, ad * ad * d[0] * d[1])
    if k == 0:
        return frame
    n, m = (1, 1 << k) if k > 0 else (1 << -k, 1)  # lam = n / m = 2^-k
    b = (-a[0], -a[1], a[2])  # 2 a_3 b
    f, g = ([2 * a[2] * x + sg * ad * y for x, y in zip(a, b)] for sg in (1, -1))
    ch, sh = n * n + m * m, n * n - m * m  # 2 n m cosh and sinh of the boost
    return _plane_map(frame, f, g, (ch, sh), (sh, ch), 2 * n * m)


def _exact_stages(frame, label: str):
    """The exact head: P diag(d) P^T = det(P) n, P^T a_input = a, nonzero |d_i| in [1/2, 4)."""
    frame = _sort_signs(frame)
    if sum((x > 0) - (x < 0) for x in frame[0][0]) < 0:  # more negatives than positives
        frame = _sort_signs(_scale(frame, (1, 1, -1)))  # determinant -1 flips every sign of n

    a, ad = frame[1]
    if label == "V":
        i0 = max(range(3), key=lambda i: abs(a[i]))
        others = [j for j in range(3) if j != i0]
        sign = _parity(others + [i0])
        new = {m: (((j, a[i0]), (i0, -a[j])), a[i0]) for m, j in enumerate(others)}
        new[2] = (((i0, sign),), 1)
        # a -> (0, 0, 1); n = 0 is unconstrained
        frame = _scale(_recombine(frame, new), (1, 1, sign * ad), (1, 1, a[i0]))
    elif label == "IV":
        a2, a3 = a[1], a[2]
        if a3 != 0:
            new = {1: (((1, a3), (2, -a2)), ad), 2: (((2, ad),), a3)}
        else:
            new = {1: (((2, -a2),), ad), 2: (((1, ad),), a2)}
        frame = _recombine(frame, new)  # unimodular on the kernel plane: (a2, a3) -> (0, 1)
    elif label == "IV_x":
        a1 = a[0]
        frame = _recombine(frame, {1: (((1, a1), (0, -a[1])), a1), 2: (((2, a1), (0, -a[2])), a1)})
        frame = _scale(frame, (ad, ad, 1), (a1, a1, 1))
    elif label in ("VI_a", "VII_a"):
        if a[2] < 0:
            frame = _scale(frame, (1, -1, -1))
    elif label in ("VI_x", "VI_n", "VII_x"):
        if a[2] != 0:  # shear the kernel component away along the larger entry
            src = 0 if abs(a[0]) >= abs(a[1]) else 1
            frame = _recombine(frame, {2: (((2, a[src]), (src, -a[2])), a[src])})
        d, a = frame[0][0], frame[1][0]
        if label == "VI_x" and _form(d, a) < 0:
            frame = _permute(frame, (1, 0, 2), (1, 1, 1))  # VI_y -> VI_x gauge
        if label == "VI_n" and a[0] * a[1] < 0:
            frame = _scale(frame, (1, -1, -1))
    elif label in ("VIII_a", "VIII_na") and a[2] < 0:
        frame = _scale(frame, (1, -1, -1))
    if label == "VIII_na":
        frame = _null_boost(frame)
    elif label in ("VI_x", "VIII_a", "VIII_xa"):
        frame = _boost(frame)
    # e_i -> 2^(k_i - K) e_i, K the sum of the k_i, sends d_i to d_i / 4^k_i
    d, dd = frame[0]
    ks = [_half_log2(x, dd) if x else 0 for x in d]
    if any(ks):
        es = [k - sum(ks) for k in ks]
        frame = _scale(frame, [1 << max(e, 0) for e in es], [1 << max(-e, 0) for e in es])
    a, ad = frame[1]  # the last rescalings of a that keep d, as far as they are rational
    if label == "IV":
        frame = _scale(frame, (ad, 1, ad), (a[2], 1, a[2]))
    elif label in ("VI_x", "VI_n", "VII_x"):
        m = max(abs(a[0]), abs(a[1]))
        frame = _scale(frame, (ad, ad, 1), (m, m, 1))
    return frame


def _exact_head(view):
    """Label, squared parameter, certificates and the certified frame of the
    view's n = N / 2lc and a = A / 2lc."""
    nv, av, _, lc, _ = view
    cols, dens, d, det = int_congruence(nv)
    a = _join([(sum(x * y for x, y in zip(col, av)), 2 * lc * s) for col, s in zip(cols, dens)])
    d = _join([(det * x, 2 * lc * y) for x, y in d])
    label, param2, certs = _discrete_classify(d, a)
    frame = _exact_stages((d, a, [_join([(x, s) for x in col]) for col, s in zip(cols, dens)]),
                          label)
    _certify(frame, view, label)
    return label, param2, certs, frame


def _float_scale(frame, lams):
    # _scale on a float frame (a, cols, det) of the tail, which tracks det
    a, cols, det = frame
    q = lams[0] * lams[1] * lams[2]
    return ([lam * x for x, lam in zip(a, lams)],
            [[lam * x for x in col] for col, lam in zip(cols, lams)],
            q * det)


def _float_recombine(frame, new):
    # e'_m = sum of coef e_q over (q, coef) in new[m] on a float frame
    a, cols, det = frame
    a2, cols2 = list(a), list(cols)
    for m, terms in new.items():
        a2[m] = sum(coef * a[q] for q, coef in terms)
        cols2[m] = [sum(coef * cols[q][r] for q, coef in terms) for r in range(3)]
    return a2, cols2, det


def _plane(i, j, c, s, t):
    # e'_i = c e_i + s e_j and e'_j = t e_i + c e_j: a rotation for t = -s,
    # a boost for t = s
    return {i: ((i, c), (j, s)), j: ((i, t), (j, c))}


def _float_tail(frame, label: str):
    """The float tail: the float frame (a, columns of Q, det Q) that carries
    the exact frame's (d, a), from Q = identity, onto the canonical row."""
    (d_exact, dd), (a_exact, ad) = frame[0], frame[1]
    nz = [abs(x) for x in d_exact if x]
    # mu_i = sqrt(|d_i|) / g with g = prod sqrt(|d_i|) normalizes n to signs
    mu = [x / y for x, y in (_root((abs(v) or dd) * dd ** len(nz), dd * math.prod(nz))
                             for v in d_exact)]
    frame = _float_scale(([x / ad for x in a_exact],
                          [[float(i == j) for i in range(3)] for j in range(3)], 1.0), mu)
    a = frame[0]
    if label in ("VII_x", "VIII_a", "VIII_xa", "VIII_na") and (a[0] != 0.0 or a[1] != 0.0):
        rho = math.hypot(a[0], a[1])
        frame = _float_recombine(frame, _plane(0, 1, a[0] / rho, a[1] / rho, -a[1] / rho))
    if label == "IV":
        r = a[2]
        frame = _float_scale(frame, (1.0 / r, 1.0, 1.0 / r))
    elif label == "VIII_na":  # the null (r, 0, r) goes to (1, 0, 1) at rapidity -ln r
        r = _root(a_exact[2] * a_exact[2] * dd * dd, ad * ad * d_exact[0] * d_exact[1])
        r = r[0] / r[1]
        frame = _float_recombine(frame, _plane(0, 2, (1 / r + r) / 2, (1 / r - r) / 2, (1 / r - r) / 2))
    elif label == "IX_a":
        norm = math.hypot(*a)  # a squared can leave the float range
        w = tuple(x / norm for x in a)
        m = min(range(3), key=lambda i: abs(w[i]))
        seed_vec = [0.0, 0.0, 0.0]
        seed_vec[m] = 1.0
        dot = sum(seed_vec[i] * w[i] for i in range(3))
        u = [seed_vec[i] - dot * w[i] for i in range(3)]
        un = math.sqrt(sum(x * x for x in u))
        u = [x / un for x in u]
        v = (w[1] * u[2] - w[2] * u[1], w[2] * u[0] - w[0] * u[2], w[0] * u[1] - w[1] * u[0])
        # (u, v, w) is an SO(3) frame
        frame = _float_recombine(frame, {0: tuple(enumerate(u)), 1: tuple(enumerate(v)),
                                         2: tuple(enumerate(w))})
    if label in ("VI_n", "VI_x", "VII_x"):
        t = 1.0 / frame[0][0]
        frame = _float_scale(frame, (t, t, 1.0))
    return frame


def _tail_error(frame, tail, label: str, parameter) -> tuple:
    """Largest entry of Q n_c Q^T - det(Q) diag(d), Q^T a - a_c, Q b_c - det(Q) b:
    zero iff the float tail Q carries the frame (diag(d), a, b) onto the row.
    Returns it as is and on the rows' own scale: the a and b rows, which grow
    with a_c, divided by max(1, parameter)."""
    nd, apat, _ = _TABLE[label]
    ac = [x * (1.0 if parameter is None else parameter) for x in apat]
    d, a = ([x / den for x in nums] for nums, den in frame[:2])
    q, det = tail[1], tail[2]  # q[j] is column j of Q
    devs = [sum(q[k][i] * nd[k] * q[k][j] for k in range(3)) - (det * d[i] if i == j else 0.0)
            for i in range(3) for j in range(i, 3)]
    devs += [sum(x * y for x, y in zip(col, a)) - c for col, c in zip(q, ac)]
    devs += [2 * det * d[i] * a[i] - 2 * sum(q[k][i] * nd[k] * ac[k] for k in range(3))
             for i in range(3)]
    scale = max(1.0, parameter or 1.0)
    return max(map(abs, devs)), max(map(abs, devs[:6] + [x / scale for x in devs[6:]]))


def _reported(num, den: int = 1) -> float:
    # a reported float num / den: nonzero outside the normal float range is an
    # error; the exact num decides this before any rounding to 0.0 or a subnormal
    f = num / den  # OverflowError past the float range
    if num and not sys.float_info.min <= abs(f) < math.inf:
        raise OverflowError
    return f


def _triple(view) -> NabTriple:
    # n's lower triangle, and above it the same Fractions: is_symmetric then
    # compares each entry with itself, and tuple equality skips __eq__ for that
    n, a, b, lc, lw = view
    low = [[Fraction(x, 2 * lc) for x in r[:i + 1]] for i, r in enumerate(n)]
    rows = [r + [low[j][i] for j in range(i + 1, 3)] for i, r in enumerate(low)]
    return NabTriple(Matrix(rows),
                     tuple(Fraction(x, 2 * lc) for x in a), tuple(Fraction(x, lw) for x in b))


# --- helpers only tests use ---------------------------------------------------

def basis(dim):
    """The standard basis e_1 .. e_dim as int tuples."""
    return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))


def diagonal(values):
    """The diagonal Matrix with these entries."""
    n = len(values)
    return Matrix(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))


def identity(n):
    """The n x n identity Matrix."""
    return diagonal((1,) * n)


def scale(m, s):
    """The Matrix s * m."""
    return Matrix(tuple(tuple(s * x for x in r) for r in m.rows))


def transpose(m):
    """The transposed Matrix."""
    return Matrix(tuple(zip(*m.rows)))


def mat_vec(m, v):
    """The product m v as a tuple, every term summed."""
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m.rows)


def adjugate(m):
    """Adjugate (transposed cofactor matrix); satisfies m @ adj(m) = det(m) I."""
    n = m.dim
    if n == 1:
        return Matrix(((1,),))

    def minor_det(rows, skip_r, skip_c):
        sub = [[rows[r][c] for c in range(n) if c != skip_c] for r in range(n) if r != skip_r]
        return Matrix(sub).det()

    cof = [[(-1) ** (r + c) * minor_det(m.rows, r, c) for c in range(n)] for r in range(n)]
    return transpose(Matrix(cof))


def inverse(m):
    """inv(m) = den adj(M) / det(M) for m = M / den with M integer, off the
    library's ``int_adjugate``; SingularMatrixError when det(M) = 0."""
    rows, den = m.int_rows()
    adj, det = int_adjugate(rows)
    return Matrix(tuple(tuple(Fraction(den * x, det) for x in r) for r in adj))


def inertia(m):
    """Signature (positive, negative, zero) of a symmetric rational matrix."""
    return of_diagonal(fraction_congruence_diagonalize(m)[1])


def dual_c(c):
    """Dual matrix of a dense 3d skew bracket: c^{il} = (1/2) c[i][j][k] eps^{jkl}.

    For skew c the sum is one entry, c^{il} = c[i][l+1][l+2] (indices mod 3).
    """
    if len(c) != 3:
        raise ValueError("dual_c requires a 3-dimensional bracket")
    pairs = ((1, 2), (2, 0), (0, 1))
    return Matrix(tuple(tuple(ci[j][k] for j, k in pairs) for ci in c))


def dual_forced_b(spec):
    """(forced b, whether b is it) of a dim-3 spec: -2 n a summed in Fractions
    off ``fraction_decompose``, against the spec's own b."""
    trip = fraction_decompose(spec)
    fb = tuple(-2 * x for x in mat_vec(trip.n, trip.a))
    return fb, trip.b == fb


def dual_forced(spec):
    """The dim-3 spec with its omega replaced through the dual route:
    ``reconstruct(NabTriple(n, a, -2 n a))`` of ``fraction_decompose``'s (n, a)."""
    trip = fraction_decompose(spec)
    return reconstruct(NabTriple(trip.n, trip.a, dual_forced_b(spec)[0]))


def forced_omega(c):
    """The unique compatible 2-form of a dense 3d skew bracket, as a full matrix."""
    return omega_matrix(dual_forced(spec_from_dense(c, omega_matrix(AlgebraSpec.from_entries(3)))))


def trace_split(spec):
    """(a, alpha) of a spec's bracket, dim >= 2, dense: the trace covector
    a_k = sum_i c[i][i][k] / (dim - 1) and the trace-free part
    alpha[i][j][k] = c[i][j][k] - a_k delta_ij + a_j delta_ik."""
    n, c = spec.dim, c_tensor(spec)
    a = tuple(sum(c[i][i][k] for i in range(n)) / Fraction(n - 1) for k in range(n))
    alpha = tuple(tuple(tuple(c[i][j][k] - (a[k] if i == j else 0) + (a[j] if i == k else 0)
                              for k in range(n)) for j in range(n)) for i in range(n))
    return a, alpha


def trace_omega(spec):
    """The trace candidate omega_jk = (dim-1)/(dim-2) a_i alpha[i][j][k] of a
    spec's bracket, dim >= 3, built from ``trace_split``: an omega store."""
    n = spec.dim
    a, alpha = trace_split(spec)
    omega = {(j, k): Fraction(n - 1, n - 2) * sum(a[i] * alpha[i][j][k] for i in range(n))
             for j in range(n) for k in range(j + 1, n)}
    return {jk: v for jk, v in omega.items() if v}


def deformability_equations(spec):
    """(unknowns, rows): the deformed Jacobi identity as linear equations in
    the dim(dim-1)/2 unknowns omega_pq, p < q, built from the c store.

    On (e_l, e_j, e_k), l < j < k, the e_m component of the identity reads
    omega_jk delta_ml + omega_lj delta_mk - omega_lk delta_mj = J_m, with
    J = [e_l,[e_j,e_k]] + [e_k,[e_l,e_j]] + [e_j,[e_k,e_l]] summed densely.
    Each row is the coefficient list followed by the right side J_m."""
    n, c = spec.dim, c_tensor(spec)
    unknowns = [(p, q) for p in range(n) for q in range(p + 1, n)]
    col = {pq: i for i, pq in enumerate(unknowns)}
    rows = []
    for l in range(n):
        for j in range(l + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    row = [_ZERO] * (len(unknowns) + 1)  # Fractions: no division floats
                    if m == l:
                        row[col[j, k]] = Fraction(1)
                    elif m == k:
                        row[col[l, j]] = Fraction(1)
                    elif m == j:
                        row[col[l, k]] = Fraction(-1)
                    row[-1] = sum(c[m][l][i] * c[i][j][k] + c[m][k][i] * c[i][l][j]
                                  + c[m][j][i] * c[i][k][l] for i in range(n))
                    rows.append(row)
    return unknowns, rows


def solve_exactly(rows, width):
    """(solution, free) of the augmented rows in ``width`` unknowns by
    Gauss-Jordan elimination in Fractions: solution None when the system is
    inconsistent, else a list with every free unknown set to 0; free counts
    the unknowns no pivot determines."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        piv = next((r for r in range(len(pivots), len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        top = len(pivots)
        rows[top], rows[piv] = rows[piv], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col]:
                f = row[col]
                rows[r] = [x - f * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        return None, width - len(pivots)
    solution = [_ZERO] * width
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    return solution, width - len(pivots)


def linear_deformability(spec):
    """(omega store or None, free unknowns) of ``spec``'s bracket, by solving
    ``deformability_equations`` exactly; the store keeps the nonzero values."""
    unknowns, rows = deformability_equations(spec)
    solution, free = solve_exactly(rows, len(unknowns))
    if solution is None:
        return None, free
    return {pq: v for pq, v in zip(unknowns, solution) if v}, free


def deformability(spec):
    """The omega store of the unique 2-form making the bracket of ``spec``
    valid, or None, read off the linear system (``linear_deformability``)."""
    omega, free = linear_deformability(spec)
    if free:
        raise ValueError(f"{free} unknowns of omega are free: no unique 2-form")
    return omega


def omega_rhs_is_identically_zero(omega):
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


def exact_witness_holds(trip, nf):
    """Whether the exact transform P of ``nf`` is all Fractions and carries
    the decomposition ``trip`` onto the frame of its table row: det(P)
    P^-1 n P^-T = adj(P) n adj(P)^T / det(P) is diagonal with the row's
    signs, and on the kernel of n only the row's own components of P^T a
    survive."""
    pm = nf.exact_transform
    if not all(type(x) is Fraction for r in pm.rows for x in r):
        return False
    rows = [list(r) for r in pm.rows]
    adj = Matrix(perm_adjugate(rows))
    moved_n = scale(adj @ trip.n @ transpose(adj), 1 / perm_det(rows))
    d = tuple(moved_n[i][i] for i in range(3))
    a = mat_vec(transpose(pm), trip.a)
    nd, apat, _ = table_row(nf.label.name)
    return (moved_n == diagonal(d) and tuple((x > 0) - (x < 0) for x in d) == nd
            and all((a[i] != 0) == (apat[i] != 0) for i in range(3) if d[i] == 0))


def transport_error(spec, nf):
    """Largest deviation of the transport of the whole input by the reported
    float transform from the canonical row, both dense: the check classify
    made before it certified its exact head and checked floats on the 3x3
    frame only.  The transform's floats are read as the rationals they are
    (``Fraction`` of a float is exact), the input is transported by them and
    compared with the row exactly, and the deviation is rounded once: a
    near-singular transform is inverted by its exact determinant, never by a
    rounded one, and one that rounds to a singular matrix reads inf.  It does
    not call the library's ``transport``."""
    pm = [[Fraction(x) for x in row] for row in nf.transform]
    if perm_det(pm) == 0:
        return math.inf
    moved = dense_transport(spec, pm)
    nd, apat, _ = table_row(nf.label.name)
    a = [x * Fraction(1 if nf.parameter is None else nf.parameter) for x in apat]
    n = [[nd[i] if i == j else 0 for j in range(3)] for i in range(3)]
    target = eps_reconstruct(n, a, [-2 * nd[i] * a[i] for i in range(3)])
    return float(max(abs(x - y) for x, y in zip(flat(moved), flat(target))))


def flat(x):
    """The scalars of a nested tuple or list, in order."""
    return [z for y in x for z in flat(y)] if isinstance(x, (tuple, list)) else [x]
