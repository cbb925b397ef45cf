"""Balanced families of power-difference points.

Given strictly increasing positive indices i_1 < ... < i_{k+l}, the point
attached to a pair s < t is

    P(s, t) = (i_t - i_s, i_t^2 - i_s^2, ..., i_t^d - i_s^d).

Chaining consecutive pairs on the left side and on the right side and closing
each chain produces k points and l points whose coordinatewise sums agree
exactly (each coordinate telescopes to i_{k+l}^a - i_1^a).  The checker
verifies this sum identity, the rational independence of the leading points
of each family (a Vandermonde-style property that needs d <= k-1 resp.
d <= l-1), and the disjointness of the two consecutive-pair prefixes, which
is guaranteed by the second coordinates and therefore only meaningful for
d >= 2.

Coordinates use Python's arbitrary-precision integers; i^d outgrows fixed
width quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactmath import rank
from .lattice import Point


@dataclass(frozen=True)
class DifferenceFamilies:
    """Left family of k points and right family of l points with equal sums."""

    left: tuple[Point, ...]
    right: tuple[Point, ...]


@dataclass(frozen=True)
class FamilyReport:
    """Structural checks; None marks a check that does not apply."""

    sums_equal: bool
    left_independent: bool | None
    right_independent: bool | None
    prefix_disjoint: bool | None

    def all_pass(self) -> bool:
        return all(v is not False for v in (
            self.sums_equal,
            self.left_independent,
            self.right_independent,
            self.prefix_disjoint,
        ))


def power_difference_point(lo: int, hi: int, d: int) -> Point:
    return tuple(hi**a - lo**a for a in range(1, d + 1))


def build_difference_families(
    indices: Sequence[int], k: int, l: int, d: int
) -> DifferenceFamilies:
    """Construct the two families from k + l strictly increasing indices."""
    if k < 2 or l < 2:
        raise ValueError("both family sizes must be at least 2")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if len(indices) != k + l:
        raise ValueError(f"expected {k + l} indices, got {len(indices)}")
    for x in indices:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"indices must be positive integers, got {x!r}")
    for a, b in zip(indices, indices[1:]):
        if b <= a:
            raise ValueError("indices must be strictly increasing")

    idx = list(indices)
    left = [power_difference_point(idx[j], idx[j + 1], d) for j in range(k - 1)]
    left.append(power_difference_point(idx[k - 1], idx[k + l - 1], d))
    right = [power_difference_point(idx[k + j], idx[k + j + 1], d) for j in range(l - 1)]
    right.append(power_difference_point(idx[0], idx[k], d))
    return DifferenceFamilies(tuple(left), tuple(right))


def _family_sum(points: Sequence[Point]) -> Point:
    return tuple(sum(cs) for cs in zip(*points))


def check_difference_families(
    families: DifferenceFamilies, d: int, k: int, l: int
) -> FamilyReport:
    sums_equal = _family_sum(families.left) == _family_sum(families.right)

    left_independent = None
    if d <= k - 1:
        left_independent = rank(families.left[:d]) == d
    right_independent = None
    if d <= l - 1:
        right_independent = rank(families.right[:d]) == d

    # single-coordinate points can collide between the prefixes, so the
    # disjointness check only applies for d >= 2
    prefix_disjoint = None
    if d >= 2:
        prefix_disjoint = not (
            set(families.left[: k - 1]) & set(families.right[: l - 1])
        )
    return FamilyReport(sums_equal, left_independent, right_independent, prefix_disjoint)
