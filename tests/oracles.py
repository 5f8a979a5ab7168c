"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: permutation expansions for
determinants, characteristic polynomial + Descartes' rule of signs for
inertia, direct evaluation of the deformed Jacobi identity on basis
triples, the dense O(dim^5) component formula of the residual tensor,
the 27-term Levi-Civita sums of the dimension-3 dictionary, the dense
basis change of a spec, the dim-3 decomposition, its defect t and
symmetric elimination in Fractions, the hand-written label chain of the
dim-3 classification, and the table rows and orbit samples built through
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
from fractions import Fraction
from itertools import permutations

from omegalie import (AlgebraSpec, ExactCertificates, Inertia, Matrix, NabTriple,
                      SingularMatrixError, forced_b, jacobiator, omega_rhs,
                      reconstruct, table_row, transport)
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
# with the B(v, v) it reads.


def _form(d, v):
    # B(v, v) = v^T diag(d) v, preserved by every stabiliser of n
    return sum(x * y * y for x, y in zip(d, v))


_AZERO_LABELS = {(0, 0, 3): "I", (1, 0, 2): "II", (1, 1, 1): "VI0",
                 (2, 0, 1): "VII0", (2, 1, 0): "VIII", (3, 0, 0): "IX"}


def _discrete_classify(d, a):
    """Label, squared parameter (num, den) and certificates, read off n = p diag(d) p^T, a = p^T a."""
    (d, dd), (a, ad) = d, a
    inert = Inertia.of_diagonal(d)
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
    return Inertia.of_diagonal(fraction_congruence_diagonalize(m)[1])


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
