"""Scalar and vector linear systems, and the columns-condition decision.

A scalar system is an integer matrix A constraining A.x = 0; a vector system
bundles one scalar system per coordinate, all sharing the variable count k.
Dummy variables (used to pad systems to a common k) appear as all-zero columns
in the coordinate matrices that do not constrain them, so all-zero columns are
accepted everywhere and show up as free columns in the rank profile.

The columns condition asks for an ordered partition of the columns into blocks
B_1, ..., B_m such that the entries of B_1 sum to the zero vector and, for
j >= 2, the sum of B_j lies in the rational span of all columns in earlier
blocks.  The subset formulation used here is equivalent to requiring the
blocks to be consecutive after renumbering the columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import NamedTuple, Sequence

from .errors import MalformedPartitionError, SystemFormatError, TooManyColumnsError
from .exactmath import Basis, in_span, insert, reduce, rref

DEFAULT_COLUMN_LIMIT = 12


class EchelonForm(NamedTuple):
    """The reduced row echelon form of A.x = 0, solved for the pivots in integers.

    Pivot row ``(p, scale, coeffs)`` says ``scale * x_p = -sum(c * x_j)`` over
    the free columns j, with one integer c per free column in ``free`` order
    and ``scale`` the least common denominator of the row's free entries.
    ``read`` holds the free columns with a nonzero c in some pivot row.
    """

    rank: int
    free: tuple[int, ...]
    read: tuple[int, ...]
    rows: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ScalarSystem:
    """An l x k integer coefficient matrix for the homogeneous system A.x = 0."""

    coeffs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.coeffs:
            raise SystemFormatError("a system needs at least one equation row")
        width = len(self.coeffs[0])
        if width < 1:
            raise SystemFormatError("a system needs at least one variable column")
        for row in self.coeffs:
            if len(row) != width:
                raise SystemFormatError("ragged coefficient rows")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise SystemFormatError(f"non-integer coefficient {x!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ScalarSystem":
        """The system of these rows; entries pass through unconverted, so a
        float, a string or a bool is refused, not rounded or parsed."""
        return cls(tuple(tuple(row) for row in rows))

    @property
    def equations(self) -> int:
        return len(self.coeffs)

    @property
    def variables(self) -> int:
        return len(self.coeffs[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.coeffs)

    @cached_property
    def echelon(self) -> EchelonForm:
        """The integer echelon form of the matrix, computed once per system."""
        basis = rref(self.coeffs)
        pivots = {p for p, _ in basis}
        free = tuple(j for j in range(self.variables) if j not in pivots)
        rows = []
        for p, row in basis:
            scale = lcm(*(row[j].denominator for j in free))
            rows.append((p, scale, tuple(int(row[j] * scale) for j in free)))
        read = tuple(j for i, j in enumerate(free) if any(c[i] for _, _, c in rows))
        return EchelonForm(len(basis), free, read, tuple(rows))


@dataclass(frozen=True)
class VectorSystem:
    """One scalar system per coordinate, sharing the variable count k."""

    coordinate_systems: tuple[ScalarSystem, ...]

    def __post_init__(self):
        if not self.coordinate_systems:
            raise SystemFormatError("a vector system needs at least one coordinate")
        k = self.coordinate_systems[0].variables
        for i, s in enumerate(self.coordinate_systems):
            if s.variables != k:
                raise SystemFormatError(
                    f"coordinate system {i} has {s.variables} columns, expected {k}"
                )

    @classmethod
    def from_rows(cls, systems: Sequence[Sequence[Sequence[int]]]) -> "VectorSystem":
        return cls(tuple(ScalarSystem.from_rows(rows) for rows in systems))

    @classmethod
    def diagonal(cls, system: ScalarSystem, d: int) -> "VectorSystem":
        """The same scalar system repeated in every coordinate."""
        if d < 1:
            raise SystemFormatError("dimension must be at least 1")
        return cls((system,) * d)

    @property
    def d(self) -> int:
        return len(self.coordinate_systems)

    @property
    def k(self) -> int:
        return self.coordinate_systems[0].variables

    @cached_property
    def column_classes(self) -> tuple[int, ...]:
        """Each column's class: the first column equal to it in every
        coordinate system, computed once per system.  Masked positions of
        one class are twins (see ``lattice._point_sets``)."""
        first: dict[tuple[tuple[int, ...], ...], int] = {}
        return tuple(
            first.setdefault(tuple(s.column(j) for s in self.coordinate_systems), j)
            for j in range(self.k)
        )


@dataclass(frozen=True)
class ColumnsPartition:
    """Ordered blocks of column indices; together they cover [0, k) exactly."""

    blocks: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ColumnsReport:
    satisfies: bool
    witness: ColumnsPartition | None
    rank: int
    full_rank: bool


def check_columns_condition(
    system: ScalarSystem, limit: int = DEFAULT_COLUMN_LIMIT
) -> ColumnsReport:
    """Decide the columns condition; return a witness partition when it holds.

    Greedy: keep an echelon basis of the columns used so far and, while some
    columns are unused, take as the next block the first nonempty subset of
    them, in ascending bitmask order, whose sum lies in the basis's span.  The
    span of no columns is {0}, so the first block sums to zero.  When no
    subset qualifies, the condition fails.

    Keeping the first valid block never loses a witness.  If blocks
    B_1, ..., B_m validly partition the unused columns and B is any valid
    block, then B_1 - B, ..., B_m - B (empty ones dropped) validly partition
    what B leaves: sum(B_j - B) = sum(B_j) - sum(B_j & B), which lies in the
    span of the used columns, B and the earlier B_i - B.  So the loop fails
    exactly when the condition does, and its witness is the first one in
    the order of a backtracking search over the same subsets.
    """
    k = system.variables
    if k > limit:
        raise TooManyColumnsError(k, limit)
    rk = system.echelon.rank
    full_rank = rk == system.equations

    cols = [system.column(j) for j in range(k)]

    # subset sums via lowest-set-bit dynamic programming
    sums: list[tuple[int, ...]] = [(0,) * system.equations] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        rest = sums[mask & (mask - 1)]
        sums[mask] = tuple(a + b for a, b in zip(rest, cols[low]))

    basis: Basis = []
    blocks: list[tuple[int, ...]] = []
    remaining = (1 << k) - 1
    while remaining:
        # submasks of the unused columns, ascending from the lowest bit
        sub = remaining & -remaining
        while any(reduce(sums[sub], basis)):
            sub = (sub - remaining) & remaining
            if not sub:
                return ColumnsReport(False, None, rk, full_rank)
        block = tuple(j for j in range(k) if sub >> j & 1)
        for j in block:
            insert(cols[j], basis)
        blocks.append(block)
        remaining ^= sub
    return ColumnsReport(True, ColumnsPartition(tuple(blocks)), rk, full_rank)


def verify_partition(system: ScalarSystem, partition: ColumnsPartition) -> bool:
    """Check a claimed witness partition directly against the definition."""
    k = system.variables
    seen: set[int] = set()
    for block in partition.blocks:
        if not block:
            raise MalformedPartitionError("empty block")
        for j in block:
            if not 0 <= j < k:
                raise MalformedPartitionError(f"column index {j} out of range")
            if j in seen:
                raise MalformedPartitionError(f"column {j} appears twice")
            seen.add(j)
    if len(seen) != k:
        raise MalformedPartitionError("partition does not cover all columns")

    def block_sum(block: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(system.coeffs[i][j] for j in block) for i in range(system.equations))

    if any(block_sum(partition.blocks[0])):
        return False
    earlier: list[tuple[int, ...]] = [system.column(j) for j in partition.blocks[0]]
    for block in partition.blocks[1:]:
        if not in_span(block_sum(block), earlier):
            return False
        earlier.extend(system.column(j) for j in block)
    return True


def rank_profile(system: VectorSystem) -> list[tuple[int, tuple[int, ...]]]:
    """Per-coordinate (rank, free columns); free columns are the non-pivots."""
    return [(s.echelon.rank, s.echelon.free) for s in system.coordinate_systems]


# --- system file format ------------------------------------------------------
#
# JSON with fixed key order so serialized files are diff-stable:
#   {"d": 2, "k": 4, "systems": [{"rows": [[1, 1, -1, 0]]}, {"rows": [...]}]}


def parse_system(text: str) -> VectorSystem:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to read
        raise SystemFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SystemFormatError("system document must be a JSON object")
    for key in ("d", "k", "systems"):
        if key not in doc:
            raise SystemFormatError(f"missing key {key!r}")
    d, k, systems = doc["d"], doc["k"], doc["systems"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SystemFormatError("d must be a positive integer")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise SystemFormatError("k must be a positive integer")
    if not isinstance(systems, list) or len(systems) != d:
        raise SystemFormatError(f"expected {d} coordinate systems")
    parsed = []
    for i, entry in enumerate(systems):
        if not isinstance(entry, dict) or "rows" not in entry:
            raise SystemFormatError(f"coordinate system {i}: missing 'rows'")
        rows = entry["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SystemFormatError(f"coordinate system {i}: 'rows' must be a list of lists")
        try:
            system = ScalarSystem.from_rows(rows)
        except SystemFormatError as e:
            raise SystemFormatError(f"coordinate system {i}: {e}") from e
        if system.variables != k:
            raise SystemFormatError(f"coordinate system {i}: every row must have k={k} entries")
        parsed.append(system)
    return VectorSystem(tuple(parsed))


def serialize_system(system: VectorSystem) -> str:
    doc = {
        "d": system.d,
        "k": system.k,
        "systems": [
            {"rows": [list(row) for row in s.coeffs]}
            for s in system.coordinate_systems
        ],
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"
