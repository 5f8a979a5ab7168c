"""Bianchi-style classification of 3-dimensional omega-deformed Lie algebras.

Every valid spec lands on exactly one row of the two normal-form tables (the
undeformed a = 0 family and the thirteen a != 0 rows).  Labels, certificates
and the continuous parameters are decided in exact rational arithmetic:

* inertia of n, invariant up to a (p, q) swap because a basis change of
  determinant D carries n to D * congruence(n);
* the kernel test n a = 0 and the quadratic form q = a^T n a;
* for rank-3 n the fully invariant ratio q / det(n);
* for rank-2 n with a in its kernel the ratio (a x a) / adjugate(n), which
  is invariant because the adjugate transforms by plain congruence.

The label is looked up by (inertia, causal character) in a map that runs the
same invariants on the table's own rows at import; the sign of the row's
ratio there gives the parameter's.  VI_x and VI_y share a key, and VIII_na's
ratio q / det(n) is zero, so it takes no parameter.

``classify`` reads the decomposition once as ints, n = N / 2lc and
a = A / 2lc, diagonalizes N = p diag(d) p^T once (``int_congruence``) and
reads ``Inertia`` and the other invariants off (d, p^T a).  Every reduction
stage acts on one frame (d, a, P) by index, and the frame arithmetic is
written out for dimension 3, on named components in three-term sums.  The
exact head (sign sorting, shears, gauge swap, scalings, and rational Cayley
and null boosts) runs on ints, each vector an int list over one denominator,
and certifies P by integer equalities cross-multiplied against N, A and 2lc;
Fractions are built only for the results ``exact_transform`` and
``decomposition``.  The float tail is a 3x3 Q on that frame.  The transform
is P Q; ``transform_error`` checks Q.

VI_y and every VIII_na parameter are not orbits of their own: both report
on a canonical representative (VI_x, VIII_na at parameter 1) with a note
giving the exact witness basis change.

The table rows, ``generate`` and ``orbit_sample`` live in ``decomp3d``, which
every command loads; this module, the reduction, is loaded on first use.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .algebra_core import AlgebraSpec
from .decomp3d import _TABLE, _adjugate3, _t, _triple, _view
from .tensor_core import Matrix, _Record


class NotAnAlgebraError(ValueError):
    """The supplied omega is incompatible with the bracket."""

    def __init__(self, t):
        self.t = tuple(t)
        ts = ", ".join(_brief(x) for x in self.t)
        super().__init__(
            f"omega does not satisfy the deformed Jacobi identity: t = 4 n a + 2 b = ({ts}); "
            "the unique compatible choice is b = -2 n a")


class FloatRangeError(ValueError):
    """A classification's parameter, canonical row or transform lies outside the float range."""


def _brief(x) -> str:
    # t can pass the int-to-text digit limit on inputs within it
    try:
        return str(x)
    except ValueError:
        return "<more digits than the int-to-text limit>"


FLOAT_TOL = 1e-9  # bound on transform_error before classify adds a note
_FLOAT_MIN = sys.float_info.min  # the least positive normal float

_COLLAPSE_NOTES = {
    "VI_x": "VI_x and VI_y lie on one orbit: the basis swap e1 <-> e2 (determinant -1) "
            "preserves n = diag(1, -1, 0) and exchanges their a data; VI_x is the "
            "canonical representative reported here.",
    "VIII_na": "VIII_na rows of every parameter lie on one orbit: the boost "
               "[[5/4, 0, 3/4], [0, 1, 0], [3/4, 0, 5/4]] (determinant 1) preserves "
               "n = diag(1, 1, -1) and doubles the null a = (p, 0, p); VIII_na at "
               "parameter 1 is the canonical representative reported here.",
}


class Inertia(_Record):
    """Sylvester signature counts of a symmetric matrix: ``positive``, ``negative``, ``zero``."""

    __slots__ = ("positive", "negative", "zero")

    @property
    def rank(self) -> int:
        return self.positive + self.negative

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


class BianchiLabel(_Record):
    """A table row's ``name`` plus its continuous ``parameter`` when the row has one."""

    __slots__ = ("name", "parameter")

    def __init__(self, name: str, parameter: float | None = None):
        if name not in _TABLE:
            raise ValueError(f"unknown label {name!r}")
        if parameter is not None and not parameter > 0:
            raise ValueError("parameter must be positive")
        super().__init__(name, parameter)

    def __str__(self):
        if self.parameter is None:
            return self.name
        return f"{self.name}({self.parameter:.12g})"


class ExactCertificates(_Record):
    """Rational-arithmetic invariants backing a classification, the fields in order:
    ``n_inertia`` in canonical orientation (positive >= negative), ``a_is_zero`` and
    ``causal``, the causal character of a: zero, kernel-only, spacelike, timelike or null."""

    __slots__ = ("n_inertia", "a_is_zero", "causal")


class NormalForm(_Record):
    """Classification outcome: label, exact and float basis transforms.

    The fields, in order: ``label``; ``exact_transform``, the certified exact
    head P; ``transform``, the float rows of P Q, the basis change onto the
    canonical row; ``certificates``; ``notes``; ``transform_error``, the
    deviation of the float tail Q on the frame; ``decomposition``, the exact
    (n, a, b) of the input.
    """

    __slots__ = ("label", "exact_transform", "transform", "certificates", "notes",
                 "transform_error", "decomposition")

    @property
    def parameter(self):
        return self.label.parameter


# ---------------------------------------------------------------------------
# exact discrete classification


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
    cols = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # cols[j]: column j of p
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
        ai, piv = a[i], a[i][i]
        # e_q -> e_q - (a_qi / piv) e_i for q > i; p: column i += (a_qi / piv) column q
        col = [piv * x for x in cols[i]]
        for q in range(i + 1, n):
            aq = a[q]
            f = aq[i]
            if f:
                cq = cols[q]
                for k in range(n):
                    col[k] += f * cq[k]
            for k in range(i + 1, n):
                aq[k] = (piv * aq[k] - f * ai[k]) // prev
        cols[i], dens[i], d[i] = col, piv, (piv, prev)
        prev = piv
    return cols, dens, d, det


def _form(d, v):
    # B(v, v) = v^T diag(d) v, preserved by every stabiliser of n
    (d0, d1, d2), (v0, v1, v2) = d, v
    return d0 * v0 * v0 + d1 * v1 * v1 + d2 * v2 * v2


def _invariants(d, a):
    """Certificates of n = diag(d) and a, and the row's ratio (num, den): the
    invariant a x a / adjugate(n) on rank 2 with a in ker n, a^T n a / det(n)
    on rank 3, None otherwise; scaling d and a scales it by a positive square."""
    (d0, d1, d2), (a0, a1, a2) = d, a
    praw, qraw = (d0 > 0) + (d1 > 0) + (d2 > 0), (d0 < 0) + (d1 < 0) + (d2 < 0)
    canon = Inertia(max(praw, qraw), min(praw, qraw), 3 - praw - qraw)
    rank = praw + qraw
    a_zero = not (a0 or a1 or a2)
    kernel_only = not (a_zero or d0 * a0 or d1 * a1 or d2 * a2)
    qf = d0 * a0 * a0 + d1 * a1 * a1 + d2 * a2 * a2  # a^T n a times dd ad^2 > 0
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
        ratio = (a0 * a0 + a1 * a1 + a2 * a2, (d0 or 1) * (d1 or 1) * (d2 or 1))
    elif rank == 3:
        ratio = (qf, d0 * d1 * d2)
    return ExactCertificates(canon, a_zero, causal), ratio


def _sign(ratio) -> int:
    return 0 if ratio is None else (ratio[0] * ratio[1] > 0) - (ratio[0] * ratio[1] < 0)


def _label_map():
    # (n_inertia, causal) -> (label, sign of the row's ratio), off the table's
    # own rows; the first row of a key represents it: VI_y shares VI_x's key
    labels = {}
    for label, (nd, apat, _) in _TABLE.items():
        certs, ratio = _invariants(nd, apat)
        labels.setdefault((certs.n_inertia, certs.causal), (label, _sign(ratio)))
    return labels


_LABELS = _label_map()


def _discrete_classify(d, a):
    """Label, squared parameter (num, den) and certificates, read off n = p diag(d) p^T, a = p^T a."""
    (d, dd), (a, ad) = d, a
    certs, ratio = _invariants(d, a)
    label, sign = _LABELS[certs.n_inertia, certs.causal]
    if _sign(ratio) != sign:
        raise AssertionError(f"the ratio of {label} lost its sign: {ratio}")
    # the ratio is the invariant times (ad / dd)^2
    param2 = (sign * ratio[0] * dd * dd, ratio[1] * ad * ad) if sign else None
    return label, param2, certs


# ---------------------------------------------------------------------------
# canonical basis transform


# A frame (d, a, cols): n = diag(d) and a in the current basis, cols[j] its
# j-th vector in the starting coordinates (column j of P), each a rational vector
# (nums, den): ints over one positive denominator, in lowest terms.  A basis
# change e'_j = Q[q][j] e_q sends n to det(Q) Q^-1 n Q^-T, a to Q^T a.


def _join(x0, m0, x1, m1, x2, m2):
    # the rational vector (x0 / m0, x1 / m1, x2 / m2): one denominator, one gcd
    lcm = math.lcm(m0, m1, m2)
    x0, x1, x2 = x0 * (lcm // m0), x1 * (lcm // m1), x2 * (lcm // m2)
    g = math.gcd(x0, x1, x2, lcm)
    return [x0 // g, x1 // g, x2 // g], lcm // g


def _times(vec, k, m):
    # the rational vector vec k / m; vec is in lowest terms, so k / m = +-1 needs no gcd
    (x0, x1, x2), s = vec
    if k == m or k == -m:
        return ([x0, x1, x2] if k == m else [-x0, -x1, -x2]), s
    return _join(k * x0, m * s, k * x1, m * s, k * x2, m * s)


def _half_log2(num, den) -> int:
    # half the bit-length difference of num / den in lowest terms, rounded down
    g = math.gcd(num, den)
    return ((num // g).bit_length() - (den // g).bit_length()) // 2


def _parity(order) -> int:
    o0, o1, o2 = order
    return -1 if ((o0 > o1) + (o0 > o2) + (o1 > o2)) % 2 else 1


def _permute(frame, order, signs):
    # e'_j = signs[j] e_order[j]; n stays diagonal with d'_j = det(Q) d_order[j]
    (d, dd), (a, ad), cols = frame
    (o0, o1, o2), (s0, s1, s2) = order, signs
    q = _parity(order) * s0 * s1 * s2
    return (([q * d[o0], q * d[o1], q * d[o2]], dd), ([s0 * a[o0], s1 * a[o1], s2 * a[o2]], ad),
            [_times(cols[o0], s0, 1), _times(cols[o1], s1, 1), _times(cols[o2], s2, 1)])


def _scale(frame, nums, dens=(1, 1, 1)):
    # e'_i = lam_i e_i, lam_i = nums[i] / dens[i]; d'_i = det(Q) d_i / lam_i^2
    ((d0, d1, d2), dd), ((a0, a1, a2), ad), (c0, c1, c2) = frame
    (k0, k1, k2), (m0, m1, m2) = nums, dens
    qn, qd = k0 * k1 * k2, m0 * m1 * m2
    return (_join(qn * d0 * m0 * m0, qd * dd * k0 * k0, qn * d1 * m1 * m1, qd * dd * k1 * k1,
                  qn * d2 * m2 * m2, qd * dd * k2 * k2),
            _join(k0 * a0, m0 * ad, k1 * a1, m1 * ad, k2 * a2, m2 * ad),
            [_times(c0, k0, m0), _times(c1, k1, m1), _times(c2, k2, m2)])


def _recombine(frame, new):
    # e'_m = (k0 e_0 + k1 e_1 + k2 e_2) / den for each m: ((k0, k1, k2), den) of new,
    # the others stay; Q has determinant 1 and fixes n (Q^-1 n Q^-T = n), so d stays
    d, ((a0, a1, a2), ad), cols = frame
    ((x0, x1, x2), s0), ((y0, y1, y2), s1), ((z0, z1, z2), s2) = cols
    lcm = math.lcm(s0, s1, s2)
    f0, f1, f2 = lcm // s0, lcm // s1, lcm // s2
    nums, dens, cols = [a0, a1, a2], [ad, ad, ad], list(cols)
    for m, ((k0, k1, k2), den) in new.items():
        nums[m], dens[m] = k0 * a0 + k1 * a1 + k2 * a2, den * ad
        k0, k1, k2 = k0 * f0, k1 * f1, k2 * f2
        den *= lcm
        cols[m] = _join(k0 * x0 + k1 * y0 + k2 * z0, den, k0 * x1 + k1 * y1 + k2 * z1, den,
                        k0 * x2 + k1 * y2 + k2 * z2, den)
    return d, _join(nums[0], dens[0], nums[1], dens[1], nums[2], dens[2]), cols


def _sort_signs(frame):
    # positives, then negatives, then zeros (sort keys 0, 1, 2); an odd order
    # negates the last new vector, so det = +1 and the diagonal of n just permutes
    d0, d1, d2 = frame[0][0]
    k0, k1, k2 = (d0 <= 0) + (d0 == 0), (d1 <= 0) + (d1 == 0), (d2 <= 0) + (d2 == 0)
    if k0 <= k1 <= k2:
        return frame
    order = sorted(range(3), key=(k0, k1, k2).__getitem__)
    return _permute(frame, order, (1, 1, _parity(order)))


def _plane_map(frame, f, g, tf, tg, den):
    # T = I + sum over v of (T v - v) (diag(d) v)^T / B(v, v), T v = tv . (f, g) / den
    # for int vectors f and g: e'_m = e_m + sum over v, q of w_vm d_q v_q e_q / (den B(v, v)),
    # w_vm = den (T v - v)_m, over the one denominator den B(f, f) B(g, g)
    d = d0, d1, d2 = frame[0][0]
    (f0, f1, f2), (g0, g1, g2), (cf, ef), (cg, eg) = f, g, tf, tg
    bf, bg = _form(d, f), _form(d, g)
    one = den * bf * bg
    uf0, uf1, uf2 = f0 * bg * d0, f1 * bg * d1, f2 * bg * d2
    ug0, ug1, ug2 = g0 * bf * d0, g1 * bf * d1, g2 * bf * d2
    new = {}
    for m, fm, gm in ((0, f0, g0), (1, f1, g1), (2, f2, g2)):
        wf, wg = cf * fm + ef * gm - den * fm, cg * fm + eg * gm - den * gm
        if wf or wg:
            k = [wf * uf0 + wg * ug0, wf * uf1 + wg * ug1, wf * uf2 + wg * ug2]
            k[m] += one
            new[m] = k, one
    return _recombine(frame, new)


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
    d = d0, d1, d2 = frame[0][0]
    a0, a1, a2 = frame[1][0]
    f = (a0 if d0 > 0 else 0, a1 if d1 > 0 else 0, a2 if d2 > 0 else 0)
    g = (a0 if d0 < 0 else 0, a1 if d1 < 0 else 0, a2 if d2 < 0 else 0)
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
    (d, dd), ((a0, a1, a2), ad) = frame[0], frame[1]
    k = _half_log2(a2 * a2 * dd * dd, ad * ad * d[0] * d[1])
    if k == 0:
        return frame
    n, m = (1, 1 << k) if k > 0 else (1 << -k, 1)  # lam = n / m = 2^-k
    t = 2 * a2  # f, g = t a +- ad (2 a_3 b), and 2 a_3 b = (-a_1, -a_2, a_3)
    f = (t * a0 - ad * a0, t * a1 - ad * a1, t * a2 + ad * a2)
    g = (t * a0 + ad * a0, t * a1 + ad * a1, t * a2 - ad * a2)
    ch, sh = n * n + m * m, n * n - m * m  # 2 n m cosh and sinh of the boost
    return _plane_map(frame, f, g, (ch, sh), (sh, ch), 2 * n * m)


def _exact_stages(frame, label: str):
    """The exact head: P diag(d) P^T = det(P) n, P^T a_input = a, nonzero |d_i| in [1/2, 4)."""
    frame = _sort_signs(frame)
    d0, d1, d2 = frame[0][0]
    if (d0 > 0) + (d1 > 0) + (d2 > 0) < (d0 < 0) + (d1 < 0) + (d2 < 0):
        # more negatives than positives: determinant -1 flips every sign of n
        frame = _sort_signs(_permute(frame, (0, 1, 2), (1, 1, -1)))

    a, ad = frame[1]
    a0, a1, a2 = a
    if label == "V":
        i0 = max(range(3), key=lambda i: abs(a[i]))
        j0, j1 = [j for j in range(3) if j != i0]
        sign, ai = _parity((j0, j1, i0)), a[i0]
        new = {2: ([sign * (q == i0) for q in range(3)], 1)}
        for m, j in ((0, j0), (1, j1)):
            new[m] = [ai if q == j else (-a[j] if q == i0 else 0) for q in range(3)], ai
        # a -> (0, 0, 1); n = 0 is unconstrained
        frame = _scale(_recombine(frame, new), (1, 1, sign * ad), (1, 1, ai))
    elif label == "IV":  # unimodular on the kernel plane: (a2, a3) -> (0, 1)
        frame = _recombine(frame, {1: ((0, a2, -a1), ad), 2: ((0, 0, ad), a2)} if a2 != 0
                           else {1: ((0, 0, -a1), ad), 2: ((0, ad, 0), a1)})
    elif label == "IV_x":
        frame = _recombine(frame, {1: ((-a1, a0, 0), a0), 2: ((-a2, 0, a0), a0)})
        frame = _scale(frame, (ad, ad, 1), (a0, a0, 1))
    elif label in ("VI_x", "VI_n", "VII_x"):
        if a2 != 0:  # shear the kernel component away along the larger entry
            new = ((-a2, 0, a0), a0) if abs(a0) >= abs(a1) else ((0, -a2, a1), a1)
            frame = _recombine(frame, {2: new})
        d, a = frame[0][0], frame[1][0]
        if label == "VI_x" and _form(d, a) < 0:
            frame = _permute(frame, (1, 0, 2), (1, 1, 1))  # VI_y -> VI_x gauge
        if label == "VI_n" and a[0] * a[1] < 0:
            frame = _permute(frame, (0, 1, 2), (1, -1, -1))
    elif label in ("VI_a", "VII_a", "VIII_a", "VIII_na") and a2 < 0:
        frame = _permute(frame, (0, 1, 2), (1, -1, -1))
    if label == "VIII_na":
        frame = _null_boost(frame)
    elif label in ("VI_x", "VIII_a", "VIII_xa"):
        frame = _boost(frame)
    # e_i -> 2^(k_i - K) e_i, K the sum of the k_i, sends d_i to d_i / 4^k_i
    (d0, d1, d2), dd = frame[0]
    k0, k1, k2 = d0 and _half_log2(d0, dd), d1 and _half_log2(d1, dd), d2 and _half_log2(d2, dd)
    if k0 or k1 or k2:
        e0, e1, e2 = -k1 - k2, -k0 - k2, -k0 - k1
        frame = _scale(frame, (1 << max(e0, 0), 1 << max(e1, 0), 1 << max(e2, 0)),
                       (1 << max(-e0, 0), 1 << max(-e1, 0), 1 << max(-e2, 0)))
    (a0, a1, a2), ad = frame[1]  # the last rescalings of a that keep d, as far as they are rational
    if label == "IV":
        frame = _scale(frame, (ad, 1, ad), (a2, 1, a2))
    elif label in ("VI_x", "VI_n", "VII_x"):
        m = max(abs(a0), abs(a1))
        frame = _scale(frame, (ad, ad, 1), (m, m, 1))
    return frame


def _certify(frame, view, label: str):
    """Integer equality of P diag(d) P^T = det(P) n, with det(P) read off the
    columns, and of P^T a = a_frame, both cross-multiplied against the view's
    n = N / 2lc and a = A / 2lc (with b forced, they carry the input onto the
    frame), and the row's sign patterns of d and of a on ker n."""
    ((d0, d1, d2), dd), ((a0, a1, a2), ad), ((x, s0), (y, s1), (z, s2)) = frame
    ((n00, n01, n02), (_, n11, n12), (_, _, n22)), (v0, v1, v2), _, lc, _ = view
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2), lc2 = x, y, z, 2 * lc
    # det(P) = det / prod, prod = s0 s1 s2; below, P diag(d) P^T times prod^2 dd 2lc
    t0, t1, t2 = d0 * (s1 * s2) ** 2 * lc2, d1 * (s0 * s2) ** 2 * lc2, d2 * (s0 * s1) ** 2 * lc2
    r = _adjugate3((x, y, z))[1] * (s0 * s1 * s2) * dd
    p0, q0, w0 = x0 * t0, y0 * t1, z0 * t2  # row i of P diag(t) is (p_i, q_i, w_i)
    p1, q1, w1 = x1 * t0, y1 * t1, z1 * t2
    p2, q2, w2 = x2 * t0, y2 * t1, z2 * t2
    (e0, e1, e2), (c0, c1, c2), _ = _TABLE[label]
    if (p0 * x0 + q0 * y0 + w0 * z0 != r * n00 or p0 * x1 + q0 * y1 + w0 * z1 != r * n01
            or p0 * x2 + q0 * y2 + w0 * z2 != r * n02 or p1 * x1 + q1 * y1 + w1 * z1 != r * n11
            or p1 * x2 + q1 * y2 + w1 * z2 != r * n12 or p2 * x2 + q2 * y2 + w2 * z2 != r * n22
            or ad * (x0 * v0 + x1 * v1 + x2 * v2) != a0 * s0 * lc2
            or ad * (y0 * v0 + y1 * v1 + y2 * v2) != a1 * s1 * lc2
            or ad * (z0 * v0 + z1 * v1 + z2 * v2) != a2 * s2 * lc2
            or (d0 > 0) - (d0 < 0) != e0 or (d1 > 0) - (d1 < 0) != e1 or (d2 > 0) - (d2 < 0) != e2
            or not d0 and (a0 != 0) != (c0 != 0) or not d1 and (a1 != 0) != (c1 != 0)
            or not d2 and (a2 != 0) != (c2 != 0)):
        raise AssertionError(f"the exact reduction to {label} failed its certificate")


def _exact_head(view):
    """Label, squared parameter, certificates and the certified frame of the
    view's n = N / 2lc and a = A / 2lc."""
    nv, (v0, v1, v2), _, lc, _ = view
    (x, y, z), (s0, s1, s2), ((p0, r0), (p1, r1), (p2, r2)), det = int_congruence(nv)
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2), lc2 = x, y, z, 2 * lc
    d = _join(det * p0, lc2 * r0, det * p1, lc2 * r1, det * p2, lc2 * r2)
    a = _join(x0 * v0 + x1 * v1 + x2 * v2, lc2 * s0, y0 * v0 + y1 * v1 + y2 * v2, lc2 * s1,
              z0 * v0 + z1 * v1 + z2 * v2, lc2 * s2)
    label, param2, certs = _discrete_classify(d, a)
    frame = _exact_stages((d, a, [_join(x0, s0, x1, s0, x2, s0), _join(y0, s1, y1, s1, y2, s1),
                                  _join(z0, s2, z1, s2, z2, s2)]), label)
    _certify(frame, view, label)
    return label, param2, certs, frame


def _root(num: int, den: int, up: bool = False) -> tuple:
    # sqrt(num / den) at any magnitude as a dyadic (root, den) of >= 55 bits:
    # with a sticky bit, so that its float is the correctly rounded root, or,
    # for up, strictly above the root
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    num, den = num // g, den // g
    s = (113 - num.bit_length() + den.bit_length()) // 2
    q, rem = divmod(num << 2 * s, den) if s >= 0 else divmod(num, den << -2 * s)
    root = math.isqrt(q)
    if up:
        root += 1
    elif rem or root * root != q:
        root |= 1
    return (root, 1 << s) if s >= 0 else (root << -s, 1)


# The float tail acts on a float frame (a, cols, det): cols[j] column j of Q,
# det = det(Q).  Its sums are calls of sum on a tuple of the terms in order:
# since Python 3.12 sum compensates its rounding, so a + b + c can differ.


def _float_scale(frame, l0, l1, l2):
    # _scale on a float frame, which tracks det
    (a0, a1, a2), ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)), det = frame
    return ([l0 * a0, l1 * a1, l2 * a2],
            [[l0 * x0, l0 * x1, l0 * x2], [l1 * y0, l1 * y1, l1 * y2], [l2 * z0, l2 * z1, l2 * z2]],
            l0 * l1 * l2 * det)


def _float_plane(frame, i, j, c, s, t):
    # e'_i = c e_i + s e_j and e'_j = t e_i + c e_j on a float frame: a rotation
    # for t = -s, a boost for t = s
    (a, cols, det), a2, cols2 = frame, list(frame[0]), list(frame[1])
    (xi, yi, zi), (xj, yj, zj) = cols[i], cols[j]
    a2[i], a2[j] = sum((c * a[i], s * a[j])), sum((t * a[i], c * a[j]))
    cols2[i] = [sum((c * xi, s * xj)), sum((c * yi, s * yj)), sum((c * zi, s * zj))]
    cols2[j] = [sum((t * xi, c * xj)), sum((t * yi, c * yj)), sum((t * zi, c * zj))]
    return a2, cols2, det


def _float_tail(frame, label: str):
    """The float tail: the float frame (a, columns of Q, det Q) that carries
    the exact frame's (d, a), from Q = identity, onto the canonical row."""
    ((d0, d1, d2), dd), ((a0, a1, a2), ad) = frame[0], frame[1]
    # mu_i = sqrt(|d_i|) / g with g = prod sqrt(|d_i|) normalizes n to signs
    top = dd ** ((d0 != 0) + (d1 != 0) + (d2 != 0))
    bottom = dd * (abs(d0) or 1) * (abs(d1) or 1) * (abs(d2) or 1)
    r0, s0 = _root((abs(d0) or dd) * top, bottom)
    r1, s1 = _root((abs(d1) or dd) * top, bottom)
    r2, s2 = _root((abs(d2) or dd) * top, bottom)
    mu0, mu1, mu2 = r0 / s0, r1 / s1, r2 / s2
    frame = ([mu0 * (a0 / ad), mu1 * (a1 / ad), mu2 * (a2 / ad)],
             [[mu0, 0.0, 0.0], [0.0, mu1, 0.0], [0.0, 0.0, mu2]], mu0 * mu1 * mu2)
    a = frame[0]
    if label in ("VII_x", "VIII_a", "VIII_xa", "VIII_na") and (a[0] != 0.0 or a[1] != 0.0):
        rho = math.hypot(a[0], a[1])
        frame = _float_plane(frame, 0, 1, a[0] / rho, a[1] / rho, -a[1] / rho)
    if label == "IV":
        r = a[2]
        frame = _float_scale(frame, 1.0 / r, 1.0, 1.0 / r)
    elif label == "VIII_na":  # the null (r, 0, r) goes to (1, 0, 1) at rapidity -ln r
        r = _root(a2 * a2 * dd * dd, ad * ad * d0 * d1)
        r = r[0] / r[1]
        frame = _float_plane(frame, 0, 2, (1 / r + r) / 2, (1 / r - r) / 2, (1 / r - r) / 2)
    elif label == "IX_a":
        a0, a1, a2 = a
        norm = math.hypot(a0, a1, a2)  # a squared can leave the float range
        w0, w1, w2 = a0 / norm, a1 / norm, a2 / norm
        m = min(range(3), key=(abs(w0), abs(w1), abs(w2)).__getitem__)
        e0, e1, e2 = float(m == 0), float(m == 1), float(m == 2)
        dot = sum((e0 * w0, e1 * w1, e2 * w2))
        u0, u1, u2 = e0 - dot * w0, e1 - dot * w1, e2 - dot * w2
        un = math.sqrt(sum((u0 * u0, u1 * u1, u2 * u2)))
        u0, u1, u2 = u0 / un, u1 / un, u2 / un
        v0, v1, v2 = w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0
        # (u, v, w) is an SO(3) frame: e'_0 = u . e, e'_1 = v . e and e'_2 = w . e
        # move a and each row (x_r, y_r, z_r) of the columns x, y, z of Q
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = frame[1]
        a, r0, r1, r2 = ((sum((u0 * p, u1 * q, u2 * t)), sum((v0 * p, v1 * q, v2 * t)),
                          sum((w0 * p, w1 * q, w2 * t)))
                         for p, q, t in ((a0, a1, a2), (x0, y0, z0), (x1, y1, z1), (x2, y2, z2)))
        frame = (list(a), [[r0[0], r1[0], r2[0]], [r0[1], r1[1], r2[1]], [r0[2], r1[2], r2[2]]],
                 frame[2])
    if label in ("VI_n", "VI_x", "VII_x"):
        t = 1.0 / frame[0][0]
        frame = _float_scale(frame, t, t, 1.0)
    return frame


def _tail_error(frame, tail, label: str, parameter) -> tuple:
    """Largest entry of Q n_c Q^T - det(Q) diag(d), Q^T a - a_c, Q b_c - det(Q) b:
    zero iff the float tail Q carries the frame (diag(d), a, b) onto the row.
    Returns it as is and on the rows' own scale: the a and b rows, which grow
    with a_c, divided by max(1, parameter)."""
    (n0, n1, n2), (c0, c1, c2), _ = _TABLE[label]
    p = 1.0 if parameter is None else parameter
    c0, c1, c2 = c0 * p, c1 * p, c2 * p
    ((d0, d1, d2), dd), ((a0, a1, a2), ad) = frame[0], frame[1]
    d0, d1, d2, a0, a1, a2 = d0 / dd, d1 / dd, d2 / dd, a0 / ad, a1 / ad, a2 / ad
    ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)), det = tail[1], tail[2]  # column j of Q
    s = max(1.0, parameter or 1.0)
    n = (sum((x0 * n0 * x0, y0 * n1 * y0, z0 * n2 * z0)) - det * d0,
         sum((x0 * n0 * x1, y0 * n1 * y1, z0 * n2 * z1)),
         sum((x0 * n0 * x2, y0 * n1 * y2, z0 * n2 * z2)),
         sum((x1 * n0 * x1, y1 * n1 * y1, z1 * n2 * z1)) - det * d1,
         sum((x1 * n0 * x2, y1 * n1 * y2, z1 * n2 * z2)),
         sum((x2 * n0 * x2, y2 * n1 * y2, z2 * n2 * z2)) - det * d2)
    ab = (sum((x0 * a0, x1 * a1, x2 * a2)) - c0, sum((y0 * a0, y1 * a1, y2 * a2)) - c1,
          sum((z0 * a0, z1 * a1, z2 * a2)) - c2,
          2 * det * d0 * a0 - 2 * sum((x0 * n0 * c0, y0 * n1 * c1, z0 * n2 * c2)),
          2 * det * d1 * a1 - 2 * sum((x1 * n0 * c0, y1 * n1 * c1, z1 * n2 * c2)),
          2 * det * d2 * a2 - 2 * sum((x2 * n0 * c0, y2 * n1 * c1, z2 * n2 * c2)))
    return max(map(abs, n + ab)), max(map(abs, n + tuple(x / s for x in ab)))


def _reported(x0, x1, x2, den: int = 1) -> tuple:
    # the reported floats x_i / den: nonzero outside the normal float range is an
    # error; the exact x_i decides this before any rounding to 0.0 or a subnormal
    f0, f1, f2 = x0 / den, x1 / den, x2 / den  # OverflowError past the float range
    if (x0 and not _FLOAT_MIN <= abs(f0) < math.inf or x1 and not _FLOAT_MIN <= abs(f1) < math.inf
            or x2 and not _FLOAT_MIN <= abs(f2) < math.inf):
        raise OverflowError
    return f0, f1, f2


def classify(spec: AlgebraSpec) -> NormalForm:
    """Classify a valid 3-dimensional spec onto its normal-form table row.

    Raises NotAnAlgebraError (reporting t = 4 n a + 2 b) when the supplied
    omega is not the forced one, ValueError for non-3-dimensional input,
    and FloatRangeError when the parameter, the canonical row or the
    transform cannot be reported as floats.
    """
    view = _view(spec)
    t, nonzero = _t(view)
    if any(nonzero):
        raise NotAnAlgebraError(t)

    label, param2, certs, frame = _exact_head(view)
    (n0, n1, n2), (p0, p1, p2), _ = _TABLE[label]
    ((x0, x1, x2), s0), ((y0, y1, y2), s1), ((z0, z1, z2), s2) = frame[2]
    try:
        parameter = None
        if param2 is not None:  # and the row's b = -2 n a: +-2 parameter where n, a share an axis
            r, s = _root(*param2)
            parameter = _reported(r, 2 * r if n0 * p0 or n1 * p1 or n2 * p2 else 0, 0, s)[0]
        tail = _float_tail(frame, label)
        (q00, q10, q20), (q01, q11, q21), (q02, q12, q22) = tail[1]  # tail[1][j]: column j of Q
        px, py = _reported(x0, x1, x2, s0), _reported(y0, y1, y2, s1)  # the columns of P
        pz = _reported(z0, z1, z2, s2)
        transform = tuple(
            _reported(sum((x * q00, y * q10, z * q20)), sum((x * q01, y * q11, z * q21)),
                      sum((x * q02, y * q12, z * q22))) for x, y, z in zip(px, py, pz))
    except OverflowError:
        raise FloatRangeError("the parameter or transform lies outside the float range") from None
    err, scaled = _tail_error(frame, tail, label, parameter)

    notes = [_COLLAPSE_NOTES[label]] if label in _COLLAPSE_NOTES else []
    if not scaled <= FLOAT_TOL:
        notes.append(f"canonical transform check exceeded tolerance: max deviation {err:.3e}")
    # the floats are exact dyadic rationals: over their largest denominator, one int determinant
    ratios = [x.as_integer_ratio() for row in transform for x in row]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    if not _adjugate3((ints[0:3], ints[3:6], ints[6:9]))[1]:
        notes.append("the float transform rounds to a singular matrix: exact_transform is "
                     "the certified basis change (the exact head P of transform = P Q)")
    exact = ((Fraction(x0, s0), Fraction(y0, s1), Fraction(z0, s2)),
             (Fraction(x1, s0), Fraction(y1, s1), Fraction(z1, s2)),
             (Fraction(x2, s0), Fraction(y2, s1), Fraction(z2, s2)))
    return NormalForm(BianchiLabel(label, parameter), Matrix(exact),
                      transform, certs, tuple(notes), err, _triple(view))
