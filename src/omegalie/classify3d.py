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

``classify`` decomposes once and runs one congruence diagonalization
s n s^T = diag(d); the discrete label reads its inertia from d, and the
reduction starts from the same (s, d).  Every stage of the reduction acts
on one frame (d, a, P) by index: a signed permutation or diagonal scaling
moves entries and columns, and a recombination by a basis change in the
stabiliser of n (kernel shears, rotations, boosts) leaves n unchanged, so
only a and P change.  The exact stages (sign sorting, the global flip,
kernel shears, the VI_y gauge swap and sign scalings) run in Fractions.
Floats enter only after them, in the same frame: square roots for the +-1
normalization of n, the rotations and boosts, and the reported parameter.

VI_y and every VIII_na parameter are not orbits of their own: both report
on a canonical representative (VI_x, VIII_na at parameter 1) with a note
giving the exact witness basis change.

Canonical commutation relations of every table row (b = -2 n a throughout):

    [e1,e2] = n3 e3 - a2 e1 + a1 e2       omega(e1,e2) = -2 n3 a3
    [e3,e1] = n2 e2 - a1 e3 + a3 e1       omega(e3,e1) = -2 n2 a2
    [e2,e3] = n1 e1 - a3 e2 + a2 e3       omega(e2,e3) = -2 n1 a1
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra_core import AlgebraSpec, transport
from .decomp3d import NabTriple, decompose, forced_b, reconstruct, t_vector
from .tensor_core import (Inertia, Matrix, adjugate, congruence_diagonalize,
                          invert, rational)


class NotAnAlgebraError(ValueError):
    """The supplied omega is incompatible with the bracket."""

    def __init__(self, t):
        self.t = tuple(t)
        ts = ", ".join(_brief(x) for x in self.t)
        super().__init__(
            f"omega does not satisfy the deformed Jacobi identity: t = 4 n a + 2 b = ({ts}); "
            "the unique compatible choice is b = -2 n a")


def _brief(x) -> str:
    # t can pass the int-to-text digit limit on inputs within it
    try:
        return str(x)
    except ValueError:
        return "<more digits than the int-to-text limit>"


# label -> (n diagonal, a pattern, has continuous parameter)
# Parametric labels scale the a pattern by the parameter.
_TABLE = {
    # a = 0 family
    "I":       ((0, 0, 0),  (0, 0, 0), False),
    "II":      ((1, 0, 0),  (0, 0, 0), False),
    "VI0":     ((1, -1, 0), (0, 0, 0), False),
    "VII0":    ((1, 1, 0),  (0, 0, 0), False),
    "VIII":    ((1, 1, -1), (0, 0, 0), False),
    "IX":      ((1, 1, 1),  (0, 0, 0), False),
    # a != 0 family
    "V":       ((0, 0, 0),  (0, 0, 1), False),
    "IV":      ((1, 0, 0),  (0, 0, 1), False),
    "IV_x":    ((1, 0, 0),  (1, 0, 0), False),
    "VI_a":    ((1, -1, 0), (0, 0, 1), True),
    "VI_x":    ((1, -1, 0), (1, 0, 0), False),
    "VI_y":    ((1, -1, 0), (0, 1, 0), False),
    "VI_n":    ((1, -1, 0), (1, 1, 0), False),
    "VII_a":   ((1, 1, 0),  (0, 0, 1), True),
    "VII_x":   ((1, 1, 0),  (1, 0, 0), False),
    "VIII_a":  ((1, 1, -1), (0, 0, 1), True),
    "VIII_xa": ((1, 1, -1), (1, 0, 0), True),
    "VIII_na": ((1, 1, -1), (1, 0, 1), True),
    "IX_a":    ((1, 1, 1),  (0, 0, 1), True),
}

FIRST_TABLE_ORDER = ("I", "II", "VI0", "VII0", "VIII", "IX")
SECOND_TABLE_ORDER = ("V", "IV", "IV_x", "VI_a", "VI_x", "VI_y", "VI_n",
                      "VII_a", "VII_x", "VIII_a", "VIII_xa", "VIII_na", "IX_a")
PARAMETRIC_LABELS = frozenset(l for l, (_, _, p) in _TABLE.items() if p)
FLOAT_TOL = 1e-9  # bound on transform_error before classify adds a note

_VI_COLLAPSE_NOTE = (
    "VI_x and VI_y lie on one orbit: the basis swap e1 <-> e2 (determinant -1) "
    "preserves n = diag(1, -1, 0) and exchanges their a data; VI_x is the "
    "canonical representative reported here.")
_VIII_NA_COLLAPSE_NOTE = (
    "VIII_na rows of every parameter lie on one orbit: the boost "
    "[[5/4, 0, 3/4], [0, 1, 0], [3/4, 0, 5/4]] (determinant 1) preserves "
    "n = diag(1, 1, -1) and doubles the null a = (p, 0, p); VIII_na at "
    "parameter 1 is the canonical representative reported here.")


@dataclass(frozen=True)
class BianchiLabel:
    """A table row name plus its continuous parameter when the row has one."""

    name: str
    parameter: Optional[float] = None

    def __post_init__(self):
        if self.name not in _TABLE:
            raise ValueError(f"unknown label {self.name!r}")
        if self.parameter is not None and not self.parameter > 0:
            raise ValueError("parameter must be positive")

    def __str__(self):
        if self.parameter is None:
            return self.name
        return f"{self.name}({self.parameter:.12g})"


@dataclass(frozen=True)
class ExactCertificates:
    """Rational-arithmetic invariants backing a classification."""

    n_inertia: Inertia     # canonical orientation: positive >= negative
    a_is_zero: bool
    causal: str            # zero / kernel-only / spacelike / timelike / null


@dataclass(frozen=True)
class NormalForm:
    """Classification outcome: label, canonical float spec and basis transform."""

    label: BianchiLabel
    canonical: AlgebraSpec
    transform: Matrix          # float; transport(input, transform) ~ canonical
    certificates: ExactCertificates
    notes: tuple
    transform_error: float     # max deviation of the transform check
    decomposition: NabTriple   # exact (n, a, b) of the input

    @property
    def parameter(self):
        return self.label.parameter


def table_row(label: str) -> tuple:
    """(n diagonal, a pattern, parametric flag) of one table row."""
    if label not in _TABLE:
        raise ValueError(f"unknown label {label!r}; known: {', '.join(sorted(_TABLE))}")
    return _TABLE[label]


def generate(label: str, param=None) -> AlgebraSpec:
    """The exact canonical spec of one table row.

    Parametric rows (VI_a, VII_a, VIII_a, VIII_xa, VIII_na, IX_a) require a
    positive rational parameter; all others refuse one.
    """
    if label not in _TABLE:
        raise ValueError(f"unknown label {label!r}; known: {', '.join(sorted(_TABLE))}")
    nd, apat, parametric = _TABLE[label]
    if parametric:
        if param is None:
            raise ValueError(f"label {label} requires a positive parameter")
        p = rational(param)
        if p <= 0:
            raise ValueError(f"parameter for {label} must be positive, got {param}")
    else:
        if param is not None:
            raise ValueError(f"label {label} does not take a parameter")
        p = Fraction(1)
    n = Matrix.diagonal(tuple(rational(x) for x in nd))
    a = tuple(rational(x) * p for x in apat)
    return reconstruct(NabTriple(n, a, forced_b(n, a)))


def orbit_sample(label: str, param=None, *, seed: int) -> AlgebraSpec:
    """A pseudorandom point on the orbit of generate(label, param).

    Transports the canonical spec by an invertible rational matrix whose
    entries come from a generator seeded with ``seed``; deterministic per
    seed, resampling on singular draws.
    """
    base = generate(label, param)
    rng = random.Random(seed)
    while True:
        p = Matrix(tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
            for _ in range(3)))
        if p.det() != 0:
            return transport(base, p)


# ---------------------------------------------------------------------------
# exact discrete classification


def _adjugate_ratio(n: Matrix, a) -> Fraction:
    # For rank-2 n and a in its kernel, a x a = rho * adjugate(n); rho is a
    # full orbit invariant (both sides transform by plain congruence).
    adj = adjugate(n)
    best = max(((i, j) for i in range(3) for j in range(3)),
               key=lambda ij: abs(adj[ij[0]][ij[1]]))
    i, j = best
    if adj[i][j] == 0:
        raise ValueError("adjugate vanished; n does not have rank 2")
    return Fraction(a[i] * a[j]) / adj[i][j]


_AZERO_LABELS = {(0, 0, 3): "I", (1, 0, 2): "II", (1, 1, 1): "VI0",
                 (2, 0, 1): "VII0", (2, 1, 0): "VIII", (3, 0, 0): "IX"}


def _discrete_classify(n: Matrix, a, d):
    """Label, squared-parameter invariant, and exact certificates of (n, a);
    d is a congruence diagonal of n."""
    inert = Inertia.of_diagonal(d)
    praw, qraw = inert.positive, inert.negative
    canon = Inertia(max(praw, qraw), min(praw, qraw), inert.zero)
    rank = canon.rank
    a_zero = all(x == 0 for x in a)
    na = n.apply(a)
    kernel_only = (not a_zero) and all(x == 0 for x in na)
    qf = sum(x * y for x, y in zip(a, na))
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

    param2 = None
    if a_zero:
        label = _AZERO_LABELS[canon.as_tuple()]
    elif rank == 0:
        label = "V"
    elif rank == 1:
        label = "IV" if kernel_only else "IV_x"
    elif rank == 2:
        if kernel_only:
            rho = _adjugate_ratio(n, a)
            if canon.as_tuple() == (1, 1, 1):
                label, param2 = "VI_a", -rho
            else:
                label, param2 = "VII_a", rho
        elif canon.as_tuple() == (1, 1, 1):
            label = "VI_n" if qf == 0 else "VI_x"
        else:
            label = "VII_x"
    else:
        r = Fraction(qf) / n.det()
        if canon.as_tuple() == (3, 0, 0):
            label, param2 = "IX_a", r
        elif r > 0:
            label, param2 = "VIII_a", r
        elif r < 0:
            label, param2 = "VIII_xa", -r
        else:
            label = "VIII_na"
    if param2 is not None and param2 <= 0:
        raise AssertionError(f"parameter invariant lost positivity for {label}: {param2}")
    return label, param2, ExactCertificates(canon, a_zero, causal)


# ---------------------------------------------------------------------------
# canonical basis transform


# The reduction acts on a frame (d, a, cols): n is diag(d) and a the
# covector in the current basis, and cols[j] is the j-th current basis
# vector in input coordinates, i.e. column j of the accumulated transform P.
# A basis change e'_j = Q[q][j] e_q sends n to det(Q) Q^-1 n Q^-T and a to
# Q^T a; each stage below applies that by index for its kind of Q.


def _parity(order) -> int:
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if order[i] > order[j])
    return -1 if inversions % 2 else 1


def _permute(frame, order, signs):
    # e'_j = signs[j] e_order[j]; n stays diagonal with d'_j = det(Q) d_order[j]
    d, a, cols = frame
    det = _parity(order) * signs[0] * signs[1] * signs[2]
    return ([det * d[o] for o in order],
            [sg * a[o] for o, sg in zip(order, signs)],
            [[sg * x for x in cols[o]] for o, sg in zip(order, signs)])


def _scale(frame, lams):
    # e'_i = lams[i] e_i; d'_i = det(Q) d_i / lams[i]^2
    d, a, cols = frame
    det = lams[0] * lams[1] * lams[2]
    return ([det * x / (lam * lam) if x else x for x, lam in zip(d, lams)],
            [lam * x for x, lam in zip(a, lams)],
            [[lam * x for x in col] for col, lam in zip(cols, lams)])


def _recombine(frame, new):
    # e'_m = sum of coef e_q over (q, coef) in new[m]; the other vectors stay.
    # Callers pass a Q in the stabiliser of n (det(Q) Q^-1 n Q^-T = n), so
    # d is unchanged.
    d, a, cols = frame
    a2, cols2 = list(a), list(cols)
    for m, terms in new.items():
        a2[m] = sum(coef * a[q] for q, coef in terms)
        cols2[m] = [sum(coef * cols[q][r] for q, coef in terms) for r in range(3)]
    return d, a2, cols2


def _plane(i, j, c, s, t):
    # e'_i = c e_i + s e_j and e'_j = t e_i + c e_j: a rotation for t = -s,
    # a boost for t = s
    return {i: ((i, c), (j, s)), j: ((i, t), (j, c))}


def _sort_signs(frame):
    # positives, then negatives, then zeros; an odd order negates the last
    # new vector, so det = +1 and the diagonal of n just permutes
    d = frame[0]
    order = sorted(range(3), key=lambda i: 0 if d[i] > 0 else (1 if d[i] < 0 else 2))
    if order == [0, 1, 2]:
        return frame
    return _permute(frame, order, (1, 1, _parity(order)))


def _exact_stages(a, label: str, s: Matrix, d):
    """Exact part of the reduction of (n, a), given s n s^T = diag(d).

    Returns the frame (d, a, cols) in Fractions, cols the columns of a P
    with det(P) P^-1 n P^-T = diag(d) and P^T a_input = a: n diagonal with
    its signs sorted, positives >= negatives, then the per-label shears,
    gauge swap and sign scalings.
    """
    p = invert(s)  # the transport by s^-1 carries n to diag(d) / det(s)
    det_s = s.det()
    cols = [list(col) for col in zip(*p.rows)]
    frame = ([x / det_s for x in d],
             [sum(x * y for x, y in zip(col, a)) for col in cols],
             cols)
    frame = _sort_signs(frame)
    d = frame[0]
    if sum(1 for x in d if x > 0) < sum(1 for x in d if x < 0):
        frame = _sort_signs(_scale(frame, (1, 1, -1)))  # determinant -1 flips every sign of n

    a = frame[1]
    if label == "V":
        i0 = max(range(3), key=lambda i: abs(a[i]))
        others = [j for j in range(3) if j != i0]
        new = {m: ((j, 1), (i0, -a[j] / a[i0])) for m, j in enumerate(others)}
        new[2] = ((i0, 1 / a[i0]),)
        frame = _recombine(frame, new)  # a -> (0, 0, 1); n = 0 is unconstrained
    elif label == "IV":
        a2, a3 = a[1], a[2]
        if a3 != 0:
            new = {1: ((1, a3), (2, -a2)), 2: ((2, 1 / a3),)}
        else:
            new = {1: ((2, -a2),), 2: ((1, 1 / a2),)}
        frame = _recombine(frame, new)  # unimodular on the kernel plane: (a2, a3) -> (0, 1)
    elif label == "IV_x":
        a1 = a[0]
        frame = _recombine(frame, {1: ((1, 1), (0, -a[1] / a1)), 2: ((2, 1), (0, -a[2] / a1))})
        frame = _scale(frame, (1 / a1, 1 / a1, 1))
    elif label in ("VI_a", "VII_a"):
        if a[2] < 0:
            frame = _scale(frame, (1, -1, -1))
    elif label in ("VI_x", "VI_n", "VII_x"):
        if a[2] != 0:  # shear the kernel component away along the larger entry
            src = 0 if abs(a[0]) >= abs(a[1]) else 1
            frame = _recombine(frame, {2: ((2, 1), (src, -a[2] / a[src]))})
        d, a, _ = frame
        if label == "VI_x" and sum(d[i] * a[i] * a[i] for i in range(3)) < 0:
            frame = _permute(frame, (1, 0, 2), (1, 1, 1))  # VI_y -> VI_x gauge
        if label == "VI_n" and a[0] * a[1] < 0:
            frame = _scale(frame, (1, -1, -1))
    elif label in ("VIII_a", "VIII_na") and a[2] < 0:
        frame = _scale(frame, (1, -1, -1))

    return frame


def _reduce(a, label: str, s: Matrix, d) -> Matrix:
    """Float basis transform P carrying (n, a) onto its canonical table data.

    The exact stages (``_exact_stages``) run first, in Fractions.  Floats
    appear afterwards, on the same frame, for the +-1 normalization of n and
    the rotation / boost / rescale stages; boost magnitudes are computed
    from exact discriminants so their domain constraints cannot be lost to
    rounding.
    """
    d_exact, a_exact, cols = _exact_stages(a, label, s, d)

    # normalize n to signs: mu_i = sqrt(|d_i|)/g with g = prod sqrt(|d_i|)
    g2 = Fraction(1)
    for x in d_exact:
        if x != 0:
            g2 *= abs(x)
    g = math.sqrt(g2)
    mu = tuple((math.sqrt(abs(x)) if x != 0 else 1.0) / g for x in d_exact)
    # exact squares of the normalized a components, for boost discriminants
    asq = tuple(a_exact[i] ** 2 * (abs(d_exact[i]) if d_exact[i] != 0 else 1) / g2
                for i in range(3))

    frame = _scale(([float(x) for x in d_exact], [float(x) for x in a_exact],
                    [[float(x) for x in col] for col in cols]), mu)
    a = frame[1]
    if label == "IV":
        r = a[2]
        frame = _scale(frame, (1.0 / r, 1.0, 1.0 / r))
    elif label == "VI_x":
        tau2 = asq[1] / asq[0]  # < 1 exactly: the gauge swap made q positive
        if tau2 != 0:
            sign = -1.0 if a[0] * a[1] > 0 else 1.0
            tau = sign * math.sqrt(float(tau2))
            ch = 1.0 / math.sqrt(float(1 - tau2))
            frame = _recombine(frame, _plane(0, 1, ch, tau * ch, tau * ch))
    elif label in ("VII_x", "VIII_a", "VIII_xa", "VIII_na"):
        a1, a2 = a[0], a[1]
        if a1 != 0.0 or a2 != 0.0:
            rho = math.hypot(a1, a2)
            frame = _recombine(frame, _plane(0, 1, a1 / rho, a2 / rho, -a2 / rho))
        if label == "VIII_a":
            tau2 = (asq[0] + asq[1]) / asq[2]
            if tau2 != 0:
                tau = -math.sqrt(float(tau2))  # rotation left a1 >= 0, flip left a3 > 0
                ch = 1.0 / math.sqrt(float(1 - tau2))
                frame = _recombine(frame, _plane(0, 2, ch, tau * ch, tau * ch))
        elif label == "VIII_xa":
            tau2 = asq[2] / (asq[0] + asq[1])
            if tau2 != 0:
                sign = -1.0 if frame[1][2] > 0 else 1.0
                tau = sign * math.sqrt(float(tau2))
                ch = 1.0 / math.sqrt(float(1 - tau2))
                frame = _recombine(frame, _plane(0, 2, ch, tau * ch, tau * ch))
        elif label == "VIII_na":
            # the null a = (r, 0, r) goes to (1, 0, 1) under the boost of rapidity -ln r
            r = math.sqrt(float(asq[2]))
            ch, sh = (1 / r + r) / 2, (1 / r - r) / 2
            frame = _recombine(frame, _plane(0, 2, ch, sh, sh))
    elif label == "IX_a":
        norm = math.sqrt(sum(x * x for x in a))
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
        frame = _recombine(frame, {0: tuple(enumerate(u)), 1: tuple(enumerate(v)),
                                   2: tuple(enumerate(w))})
    if label in ("VI_n", "VI_x", "VII_x"):
        t = 1.0 / frame[1][0]
        frame = _scale(frame, (t, t, 1.0))
    return Matrix(tuple(zip(*frame[2])))


def _canonical_spec(label: str, parameter) -> AlgebraSpec:
    nd, apat, _ = _TABLE[label]
    p = 1.0 if parameter is None else float(parameter)
    nmat = Matrix.diagonal(tuple(float(x) for x in nd))
    a = tuple(float(x) * p for x in apat)
    return reconstruct(NabTriple(nmat, a, forced_b(nmat, a)))


def _max_deviation(s1: AlgebraSpec, s2: AlgebraSpec) -> float:
    err = 0.0
    for mine, other in ((s1.c_upper, s2.c_upper), (s1.omega_upper, s2.omega_upper)):
        for key in mine.keys() | other.keys():
            err = max(err, abs(mine.get(key, 0.0) - other.get(key, 0.0)))
    return err


def classify(spec: AlgebraSpec) -> NormalForm:
    """Classify a valid 3-dimensional spec onto its normal-form table row.

    Raises NotAnAlgebraError (reporting t = 4 n a + 2 b) when the supplied
    omega is not the forced one, and ValueError for non-rational or
    non-3-dimensional input.
    """
    if spec.dim != 3:
        raise ValueError("classify requires dim 3")
    if not _spec_is_rational(spec):
        raise TypeError("classify requires exact rational entries")
    trip = decompose(spec)
    t = t_vector(trip)
    if any(x != 0 for x in t):
        raise NotAnAlgebraError(t)

    s, d = congruence_diagonalize(trip.n)
    label, param2, certs = _discrete_classify(trip.n, trip.a, d)
    p_total = _reduce(trip.a, label, s, d)
    parameter = None if param2 is None else math.sqrt(param2)
    canonical = _canonical_spec(label, parameter)
    err = _max_deviation(transport(spec.astype_float(), p_total), canonical)

    notes = []
    if label == "VI_x":
        notes.append(_VI_COLLAPSE_NOTE)
    if label == "VIII_na":
        notes.append(_VIII_NA_COLLAPSE_NOTE)
    if err > FLOAT_TOL:
        notes.append(f"canonical transform check exceeded tolerance: max deviation {err:.3e}")

    return NormalForm(BianchiLabel(label, parameter), canonical, p_total,
                      certs, tuple(notes), err, trip)


def _spec_is_rational(spec: AlgebraSpec) -> bool:
    def ok(v):
        return isinstance(v, (int, Fraction)) and not isinstance(v, bool)
    return all(map(ok, (spec.zero_value, *spec.c_upper.values(), *spec.omega_upper.values())))
