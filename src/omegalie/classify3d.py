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
stage acts on one frame (d, a, P) by index.  The exact head (sign sorting,
shears, gauge swap, scalings, and rational Cayley and null boosts) runs on
ints, each vector an int list over one denominator, and certifies P by
integer equalities cross-multiplied against N, A and 2lc; Fractions are built
only for the results ``exact_transform`` and ``decomposition``.  The float
tail is a 3x3 Q on that frame.  The transform is P Q; ``transform_error`` checks Q.

VI_y and every VIII_na parameter are not orbits of their own: both report
on a canonical representative (VI_x, VIII_na at parameter 1) with a note
giving the exact witness basis change.

The table rows, ``generate`` and ``orbit_sample`` live in ``decomp3d``, which
every command loads; this module, the reduction, is loaded on first use.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
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
    """A classification's parameter or transform lies outside the float range."""


def _brief(x) -> str:
    # t can pass the int-to-text digit limit on inputs within it
    try:
        return str(x)
    except ValueError:
        return "<more digits than the int-to-text limit>"


FLOAT_TOL = 1e-9  # bound on transform_error before classify adds a note

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

    @classmethod
    def of_diagonal(cls, d: Sequence) -> "Inertia":
        """Sign counts of a congruence diagonal (Sylvester's law of inertia)."""
        pos = sum(1 for x in d if x > 0)
        neg = sum(1 for x in d if x < 0)
        return cls(pos, neg, len(d) - pos - neg)


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


def _form(d, v):
    # B(v, v) = v^T diag(d) v, preserved by every stabiliser of n
    return sum(x * y * y for x, y in zip(d, v))


def _invariants(d, a):
    """Certificates of n = diag(d) and a, and the row's ratio (num, den): the
    invariant a x a / adjugate(n) on rank 2 with a in ker n, a^T n a / det(n)
    on rank 3, None otherwise; scaling d and a scales it by a positive square."""
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
    ratio = None
    if rank == 2 and kernel_only:
        # a = a_k p^-T e_k and adjugate(n) = d_i d_j (p^-T e_k)(p^-T e_k)^T,
        # k the zero of d
        ratio = (sum(x * x for x in a), math.prod(x for x in d if x))
    elif rank == 3:
        ratio = (qf, math.prod(d))
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


def _join(pairs):
    # the rational vector of the (num, den) pairs: one denominator, one gcd
    lcm = math.lcm(*(m for _, m in pairs))
    nums = [x * (lcm // m) for x, m in pairs]
    g = math.gcd(*nums, lcm)
    return [x // g for x in nums], lcm // g


def _half_log2(num, den) -> int:
    # half the bit-length difference of num / den in lowest terms, rounded down
    g = math.gcd(num, den)
    return ((num // g).bit_length() - (den // g).bit_length()) // 2


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


def _sort_signs(frame):
    # positives, then negatives, then zeros; an odd order negates the last
    # new vector, so det = +1 and the diagonal of n just permutes
    d = frame[0][0]
    order = sorted(range(3), key=lambda i: 0 if d[i] > 0 else (1 if d[i] < 0 else 2))
    if order == [0, 1, 2]:
        return frame
    return _permute(frame, order, (1, 1, _parity(order)))


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


def classify(spec: AlgebraSpec) -> NormalForm:
    """Classify a valid 3-dimensional spec onto its normal-form table row.

    Raises NotAnAlgebraError (reporting t = 4 n a + 2 b) when the supplied
    omega is not the forced one, ValueError for non-3-dimensional input,
    and FloatRangeError when the parameter or the transform cannot be
    reported as floats.
    """
    view = _view(spec)
    t, nonzero = _t(view)
    if any(nonzero):
        raise NotAnAlgebraError(t)

    label, param2, certs, frame = _exact_head(view)
    try:
        parameter = None if param2 is None else _reported(*_root(*param2))
        tail = _float_tail(frame, label)
        pf = [[_reported(x, s) for x in col] for col, s in frame[2]]  # pf[k][r] = P[r][k]
        transform = tuple(
            tuple(_reported(sum(pf[k][r] * tail[1][j][k] for k in range(3))) for j in range(3))
            for r in range(3))
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
    exact = tuple(tuple(Fraction(col[r], s) for col, s in frame[2]) for r in range(3))
    return NormalForm(BianchiLabel(label, parameter), Matrix(exact),
                      transform, certs, tuple(notes), err, _triple(view))
