"""Exact scalars and small dense matrices: what every command shares.

Everything in this module stays in Q: scalars are ``fractions.Fraction`` and
matrices are immutable row tuples.  ``rational`` alone decides the scalar
type: ``Matrix`` passes every entry through it, so a matrix holds only
Fractions (ints are converted, floats and bools raise ``TypeError``), and it
alone reads rational text, for documents, ``--param`` and the library alike:
``p`` or ``p/q``, no decimal, exponent, ``+`` or whitespace.  ``_scalars``
reads a matrix row or a vector through it and refuses a str; ``_vector`` reads
vector arguments and keeps a vector of ints and Fractions as it is.
``det`` divides exactly: it reads det(M) of the int matrix M = den m, which
``cleared`` gives, off ``int_adjugate``, the one elimination here, fraction-free
on ints; ``transport`` shares it for adj(M).  ``_Record``, the base of the
package's immutable records (``Matrix``, ``AlgebraSpec``, ...), builds, copies and
pickles them.  The congruence diagonalization and ``Inertia`` live in ``classify3d``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction


_RATIONAL = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


class SingularMatrixError(ValueError):
    """An adjugate elimination or a basis change met a zero determinant."""


def rational(value) -> Fraction:
    """Coerce an int, Fraction, or string ``p`` or ``p/q`` to an exact Fraction.

    Floats are refused: letting one in would silently contaminate the exact
    arithmetic path.
    """
    if isinstance(value, str):  # first: testing a str against Fraction, an ABC, is slow
        if not (match := _RATIONAL.fullmatch(value)):
            raise ValueError(f"malformed rational {value!r}; write 'p' or 'p/q'")
        p, q = match.groups()
        try:  # the terms, not the string, which Fraction would parse again; no gcd for an int
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except ValueError:  # more digits than int() converts from a string
            raise ValueError("rational has too many digits") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r} to an exact rational")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational scalar")


def _scalars(values) -> tuple:
    """The entries of a vector or a matrix row, each through ``rational``.  A str
    is refused, not read as one-character numerals."""
    if isinstance(values, str):
        raise TypeError("a vector is a sequence of scalars, not a str")
    return tuple(map(rational, values))


def _vector(values, dim) -> Sequence:
    """A vector argument of length ``dim``: itself if it holds only ints and Fractions,
    else ``_scalars(values)``, which refuses a str."""
    if not isinstance(values, str):
        if len(values) != dim:
            raise ValueError(f"vector length {len(values)} does not match dim {dim}")
        if all(type(x) is int or type(x) is Fraction for x in values):
            return values
    return _scalars(values)


class _Record:
    """An immutable record whose fields are its class's ``__slots__``, declared there once.

    It is built by position, keyword or both, in slot order, every field given
    once (else TypeError naming the fields); a subclass that checks its input
    passes the checked values on to this ``__init__``.  Records are equal when
    their classes and fields are; the hash is the fields', the repr names each.
    """

    __slots__ = ()

    def __init__(self, *values, **fields):
        slots = self.__slots__
        if fields or len(values) != len(slots):
            given = [*slots[:len(values)], *["<extra>"] * (len(values) - len(slots)), *fields]
            if sorted(given) != sorted(slots):
                raise TypeError(f"{type(self).__qualname__} takes the fields ({', '.join(slots)}); "
                                f"got ({', '.join(given)})")
            values += tuple(map(fields.get, slots[len(values):]))
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle pass (None, {field: value})
        _Record.__init__(self, *map(state[1].get, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


class Matrix(_Record):
    """Immutable square matrix of Fractions, built from its rows: the one field ``rows``.

    Rows are stored as a tuple of tuples with 0-based Python indexing;
    ``m[i][j]`` is the entry in row i, column j.  Each row is read by
    ``_scalars``: its entries pass through ``rational``, and a str is refused.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(_scalars, rows))
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square and non-empty")
        super().__init__(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __repr__(self):
        return f"Matrix({list(map(list, self.rows))!r})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix) or other.dim != self.dim:
            raise ValueError("dimension mismatch in matrix product")
        cols = tuple(zip(*other.rows))
        return Matrix([[sum(x * y for x, y in zip(r, c)) for c in cols] for r in self.rows])

    def is_symmetric(self) -> bool:
        # tuple equality tests identity first: a shared entry costs no __eq__
        return self.rows == tuple(zip(*self.rows))

    def int_rows(self) -> tuple[list, int]:
        """(rows, den): the entries as int rows over their least common denominator."""
        n = self.dim
        nums, den = cleared([x for r in self.rows for x in r])
        return [nums[i:i + n] for i in range(0, n * n, n)], den

    def det(self):
        """Determinant: det(M) / den^n for the int rows M over den."""
        rows, den = self.int_rows()
        try:
            return Fraction(int_adjugate(rows)[1], den ** self.dim)
        except SingularMatrixError:
            return Fraction(0)


def cleared(xs) -> tuple[list, int]:
    """(nums, den), xs[i] = nums[i] / den with den the lcm of the denominators (1 if none)."""
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def int_adjugate(rows) -> tuple[list, int]:
    """(adj(M), det(M)) of an int matrix M given as rows, by fraction-free
    Gauss-Jordan elimination (Bareiss 1968) of [M | I]: after pivot k every
    entry is a minor, so each step divides exactly by the previous pivot, the
    last pivot is det(M) up to the sign of the row swaps, and the right half
    is then that sign times adj(M).  Raises SingularMatrixError on det(M) = 0."""
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            a[piv], a[k] = a[k], a[piv]
            sign = -sign
        pk, p = a[k], a[k][k]
        for row in a[:k] + a[k + 1:]:  # the columns left of k+1 are not read again
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], pk[k + 1:])]
        prev = p
    return [[sign * x for x in r[n:]] for r in a], sign * prev
