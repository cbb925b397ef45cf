"""Exact rational linear algebra: reduced echelon form, rank, span membership.

Everything here computes over arbitrary-precision rationals
(:class:`fractions.Fraction`), which keeps values canonical after every
operation (positive denominator, gcd-reduced), so results are exact, hashable
and structurally comparable.  Matrices are immutable and all operations are
pure, which makes them safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

# Canonical rational scalar.  Fraction already enforces the invariants this
# library needs (denominator > 0, reduced form), so it is used directly.
Rational = Fraction


def as_rational_vector(values: Iterable) -> tuple[Rational, ...]:
    """Coerce an iterable of ints/rationals into a tuple of Rational."""
    return tuple(Rational(v) for v in values)


@dataclass(frozen=True)
class RMatrix:
    """Immutable rows x cols rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} does not match "
                f"{self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RMatrix":
        rows = [as_rational_vector(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), width, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Rational]]:
        return [list(self.row(i)) for i in range(self.rows)]


@dataclass(frozen=True)
class RrefResult:
    """Reduced row echelon form together with its pivot structure."""

    rref: RMatrix
    pivot_columns: tuple[int, ...]
    rank: int


def rref(m: RMatrix) -> RrefResult:
    """Gauss-Jordan elimination with exact arithmetic.

    Pivots are chosen as the first nonzero entry in column order, which keeps
    the result deterministic; no numerical pivoting is needed since there is
    no rounding.
    """
    grid = m.row_lists()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if grid[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        inv = grid[r][c]
        if inv != 1:
            grid[r] = [x / inv for x in grid[r]]
        for i in range(m.rows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    reduced = RMatrix(m.rows, m.cols, tuple(x for row in grid for x in row))
    return RrefResult(reduced, tuple(pivots), r)


def rank(m: RMatrix) -> int:
    return rref(m).rank


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    """Is v a rational linear combination of the given vectors?

    Solves sum(x_i * basis_i) = v by eliminating the matrix whose columns are
    the basis vectors augmented with v; the system is consistent exactly when
    no pivot lands in the augmented column.  The empty combination spans only
    the zero vector.
    """
    v = as_rational_vector(v)
    n = len(v)
    vecs = [as_rational_vector(b) for b in basis]
    for b in vecs:
        if len(b) != n:
            raise DimensionMismatchError(
                f"span member has length {len(b)}, expected {n}"
            )
    if all(x == 0 for x in v):
        return True
    if not vecs:
        return False
    aug = RMatrix.from_rows(
        [[vec[i] for vec in vecs] + [v[i]] for i in range(n)]
    )
    result = rref(aug)
    return len(vecs) not in result.pivot_columns
