"""Exact scalars and small dense matrices.

Everything in this module stays in Q: scalars are ``fractions.Fraction``,
matrices are immutable row tuples, and congruence diagonalization / inertia
counting never take square roots.  ``rational`` alone decides the scalar
type: ``Matrix`` passes every entry through it, so a matrix holds only
Fractions (ints are converted, floats and bools raise ``TypeError``), and
``det``, ``invert`` and ``congruence_diagonalize`` divide exactly.
Classification starts from the ``p`` of ``congruence_diagonalize`` (with
``Inertia.of_diagonal`` on its diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Scalar = Fraction


class SingularMatrixError(ValueError):
    """Inversion was attempted on a matrix with zero determinant."""


def rational(value) -> Fraction:
    """Coerce an int, Fraction, or string like ``-3/4`` to an exact Fraction.

    Floats are refused: letting one in would silently contaminate the exact
    arithmetic path.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational scalar")


class Matrix:
    """Immutable square matrix of Fractions.

    Rows are stored as a tuple of tuples with 0-based Python indexing;
    ``m[i][j]`` is the entry in row i, column j.  Every entry passes through
    ``rational`` on construction.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(map(rational, r)) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls(tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({list(map(list, self.rows))!r})"

    def transpose(self) -> "Matrix":
        n = self.dim
        return Matrix(tuple(tuple(self.rows[j][i] for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix) or other.dim != self.dim:
            raise ValueError("dimension mismatch in matrix product")
        n = self.dim
        return Matrix(tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
            for i in range(n)))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, returning a tuple."""
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(sum(row[j] * vec[j] for j in range(self.dim)) for row in self.rows)

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i + 1, n))

    def det(self):
        """Determinant by elimination with partial pivoting (largest |pivot|)."""
        n = self.dim
        a = [list(r) for r in self.rows]
        sign = 1
        result = 1
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
            if a[piv][col] == 0:
                return a[piv][col]
            if piv != col:
                a[piv], a[col] = a[col], a[piv]
                sign = -sign
            result = result * a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] / a[col][col]
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return sign * result


def invert(m: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination with partial pivoting."""
    n = m.dim
    a = [list(r) for r in m.rows]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            inv[piv], inv[col] = inv[col], inv[piv]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Matrix(inv)


def congruence_diagonalize(m: Matrix) -> tuple[Matrix, tuple, int]:
    """(p, d, det(p)) with m = p diag(d) p^T for a symmetric rational m, by
    symmetric elimination with swaps and unit shears: p collects their
    inverses as column operations, and det(p) = +-1 is the swap parity.  When
    every remaining diagonal entry vanishes but some off-diagonal entry q,r
    is nonzero, the split e_q -> e_q + e_r exposes the pivots 2m and -m/2."""
    if not m.is_symmetric():
        raise ValueError("congruence_diagonalize requires a symmetric matrix")
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


@dataclass(frozen=True)
class Inertia:
    """Sylvester signature counts of a symmetric matrix."""

    positive: int
    negative: int
    zero: int

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
