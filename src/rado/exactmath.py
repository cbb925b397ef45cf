"""Exact rational linear algebra on one reduced echelon basis.

A basis is a list of ``(pivot, row)`` pairs in ascending pivot order; each
row is 1 at its own pivot and 0 at every other pivot, so a basis built from
some rows is their reduced row echelon form with the zero rows dropped.  That
form is unique for a row space, so it does not depend on the order the rows
are inserted in.  Two operations keep it: :func:`reduce` subtracts the basis
rows from a vector, leaving zero exactly when the vector lies in their span,
and :func:`insert` adds what is left of a vector as a new row.  Rank, span
membership, the columns-condition search and the solution enumeration all
read this one basis.

Entries are :class:`fractions.Fraction` (or ints), so every result is exact.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Basis = list[tuple[int, list[Fraction]]]


def reduce(vec: Sequence, basis: Basis) -> list[Fraction]:
    """`vec` minus its component in the span of `basis`, zero at every pivot."""
    v = list(vec)
    for p, row in basis:
        f = v[p]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def insert(vec: Sequence, basis: Basis) -> None:
    """Add `vec` to the span of `basis`, keeping the basis fully reduced."""
    v = reduce(vec, basis)
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return
    inv = Fraction(v[pivot])
    new = [x / inv for x in v]
    for t, (p, row) in enumerate(basis):
        f = row[pivot]
        if f:
            basis[t] = (p, [a - f * b for a, b in zip(row, new)])
    insort(basis, (pivot, new))


def rref(rows: Iterable[Sequence]) -> Basis:
    """The reduced row echelon form of `rows` as ``(pivot, row)`` pairs.

    Pivots ascend, each row is 1 at its own pivot and 0 at the others, and
    zero rows are dropped, so the length of the result is the rank.
    """
    rows = list(rows)
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatchError("ragged rows")
    basis: Basis = []
    for row in rows:
        insert(row, basis)
    return basis


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def in_span(v: Sequence, vecs: Sequence[Sequence]) -> bool:
    """Is v a rational linear combination of the given vectors?

    The empty combination spans only the zero vector.
    """
    for b in vecs:
        if len(b) != len(v):
            raise DimensionMismatchError(
                f"span member has length {len(b)}, expected {len(v)}"
            )
    return not any(reduce(v, rref(vecs)))
