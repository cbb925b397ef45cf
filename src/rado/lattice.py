"""Solutions of vector systems inside the box [1,n]^d.

Points are d-tuples of positive integers; a solution tuple is an ordered list
of k points whose i-th coordinate row satisfies the i-th scalar system
exactly.  Enumeration works per coordinate and yields masked rows: the
distinct restrictions of the coordinate's solution rows to the mask, each
weighted by the number of full rows that restrict to it
(``_masked_solutions``).  It reads the coordinate system's integer echelon
form, which the system computes once (``ScalarSystem.echelon``).  A free
column that no pivot reads and the mask leaves out is idle: it multiplies
every weight by n and is not walked, so unmasked dummy columns are counted,
not listed.  Of the other, walked, free columns all but the last are
assigned one by one, and the last runs a whole interval at a time: its
values that make every pivot integral form one progression, whose period P
is fixed per system and mask.  The full mask gives the solution rows
themselves, and the empty mask only their number.  Solution tuples are the
Cartesian product of the coordinate lists (``_coordinate_solutions``),
which the build and the counts read without walking it.  Every enumeration
is guarded by a candidate budget, which also bounds the product, so
oversized requests fail fast instead of running for hours.  The budget
counts the n**f cells of all f free columns, idle ones included, although
only n**(w-1) assignments of the w walked columns are visited.

Degeneracy: a point set is degenerate when all its points have the same
primitive form (point divided by the gcd of its coordinates), i.e. lie on
one ray.  Read by coordinates, k points p_j = m_j * v are degenerate exactly
when all their coordinate rows (p_1[i], ..., p_k[i]) = v[i] * (m_1, ..., m_k)
have the same primitive form, so the tuple counts and the constraint build
group each coordinate list by form (``_by_form``) instead of testing tuples.

Projection (``_point_sets``) turns the product into the masked point sets
that the search's constraints are made of, working on point indices
directly: every masked row is turned once into its contributions to the
masked points' lexicographic indices (``_index_contributions``), and a
tuple's index set is the sum of its rows' contributions.  The contributions
of all coordinate lists but the last are summed once into distinct base
sums (``_base_sums``, shared with ``count_monochromatic``), and each set is
a base plus one row of the last list, kept as a sorted tuple of distinct
indices.  A base's values are base-n digits above the last coordinate, so
multiples of n, while a last-list contribution lies below n: when a base's
values are pairwise distinct, its argsort orders every set built on it, and
only the sets on a tied base are sorted one by one.  In one dimension the
one base is zero, and each set is its row's distinct values less one, made
without contributions; a one-dimensional scan projects only the rows that
the box before lacked (``search._build``).  A base is exactly one
combination of outer rows, so it has at most one form f, and the
degeneracy filter cuts the last list's rows of form f out of the bases whose
outer rows all have form f; in one dimension every tuple is degenerate and
nothing is built.  No set is built and then removed, and no set is decoded
into points.

Masked positions whose columns are equal in every coordinate system are
twins, as x and y are in x + y = z (the system finds its classes of equal
columns once, ``VectorSystem.column_classes``): swapping twin variables in all
coordinates at once maps each solution tuple to one with the same point
set.  So the first list keeps only its rows that do not decrease along each
class of twins.  Every orbit of such swaps still has a tuple whose first
row is so ordered, which projects to the orbit's one set, so no set is
lost, and each set is built once per orbit instead of once per order of its
twin values.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import chain, product, repeat
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Iterator

from .errors import BudgetExceededError, DimensionMismatchError, SystemFormatError
from .systems import ScalarSystem, VectorSystem

DEFAULT_BUDGET = 10**8
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep

Point = tuple[int, ...]
# distinct (masked) coordinate rows, each with its number of full solutions
Rows = dict[tuple[int, ...], int]


def point_index(point: Point, n: int) -> int:
    """Lexicographic index of a point in [1,n]^d: (1,1,..) -> 0, (1,..,2) -> 1."""
    idx = 0
    for c in point:
        idx = idx * n + (c - 1)
    return idx


def index_point(idx: int, n: int, d: int) -> Point:
    coords = []
    for _ in range(d):
        idx, rem = divmod(idx, n)
        coords.append(rem + 1)
    return tuple(reversed(coords))


@dataclass(frozen=True)
class SolutionTuple:
    """k points whose coordinate rows satisfy the per-coordinate systems."""

    points: tuple[Point, ...]


@dataclass(frozen=True)
class Coloring:
    """Total assignment of one of r colors to every point of [1,n]^d.

    Colors are stored flat in lexicographic point order, matching the
    certificate file format.
    """

    n: int
    d: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        n, d, size = self.n, self.d, len(self.colors)
        if n < 1 or d < 1 or self.r < 1:
            raise ValueError("n, d and r must all be positive")
        # n**d >= 2**(d * (bit_length(n) - 1)): a box that large cannot
        # have `size` points, and a power still built is below 4 * size**2
        if d * (n.bit_length() - 1) >= size.bit_length() or n**d != size:
            raise ValueError(
                f"expected n**d color entries for n={n}, d={d}; got {size}"
            )
        for c in self.colors:
            if not 0 <= c < self.r:
                raise ValueError(f"color {c} out of range 0..{self.r - 1}")

    @classmethod
    def constant(cls, n: int, d: int, r: int = 1, color: int = 0) -> "Coloring":
        return cls(n, d, r, (color,) * n**d)


@dataclass(frozen=True)
class DegeneracyReport:
    degenerate: bool
    direction: Point | None
    multipliers: tuple[int, ...] | None


def _primitive(point: Point) -> Point:
    g = gcd(*point)
    return tuple(c // g for c in point)


def _by_form(rows: Iterable[tuple[int, ...]], values: Iterable) -> dict[tuple[int, ...], list]:
    """The values, paired in order with the rows, grouped by their row's form."""
    groups: dict[tuple[int, ...], list] = defaultdict(list)
    for row, value in zip(rows, values):
        groups[_primitive(row)].append(value)
    return groups


def is_degenerate(points: Iterable[Point]) -> DegeneracyReport:
    """Classify a finite point set; carries direction and multipliers when degenerate.

    Points are deduplicated and sorted, so the reported multipliers follow the
    sorted order.  A singleton is always degenerate (it lies on its own ray).
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("empty point set")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatchError("points of mixed dimension")
        if any(c < 1 for c in p):
            raise ValueError(f"point {p} has a coordinate below 1")
    forms = {_primitive(p) for p in pts}
    if len(forms) > 1:
        return DegeneracyReport(False, None, None)
    return DegeneracyReport(True, forms.pop(), tuple(gcd(*p) for p in pts))


def _masked_solutions(
    system: ScalarSystem, n: int, mask: tuple[int, ...], budget: int
) -> Rows:
    """The distinct masked rows of the solutions in [1,n]^k, each mapped to
    its number of full solutions.

    Reads the system's integer echelon form (``ScalarSystem.echelon``), in
    which every pivot is an affine function of the free columns.  A free
    column is idle when no pivot reads it and the mask leaves it out: it
    takes all n values in every solution, so each idle column multiplies
    every weight by n and is not walked.  The other free columns are walked:
    every assignment of all of them but the last one, t, is visited, and
    the values of t that keep every pivot in [1,n] form one interval.  A
    pivot with x_p = -(s + a * t) / scale is integral for t in at most one
    residue class modulo scale / gcd(a, scale), so the t that make all
    pivots integral are one progression t0, t0 + P, ... of the interval (or
    none), where the period P is the lcm of those moduli over the pivots
    that move with t; t0 is found among the interval's first P values.
    Each masked column is then a constant or a progression in step with t,
    and the interval's masked rows are counted in one pass (one row with
    the progression's length when no masked column moves).  The candidate
    grid has n**f cells for f free columns and is refused beyond the
    budget, although only n**(w-1) assignments of the w walked columns are
    visited.
    """
    form = system.echelon
    if form.rank < system.equations:
        # name the first caller outside this package, however deep the call
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "coefficient matrix has dependent rows; using a row basis",
            stacklevel=level,
        )
    if n < 1:
        return {}
    candidates = n ** len(form.free)
    if candidates > budget:
        raise BudgetExceededError(candidates, budget)
    # with full column rank, or a pivot that reads no free column, some
    # column is 0 in every solution
    if not form.free or not all(any(c) for _, _, c in form.rows):
        return {}
    walked = [j for j in form.free if j in form.read or j in mask]
    idle = n ** (len(form.free) - len(walked))
    if not walked:
        return {(): idle}  # no pivot, so every point solves; the mask is empty
    *outer, last = walked
    at = form.free.index
    pivots = [
        (p, scale, tuple(c[at(j)] for j in outer), c[at(last)])
        for p, scale, c in form.rows
    ]
    period = lcm(*(scale // gcd(a, scale) for _, scale, _, a in pivots if a))
    # how far each masked column moves when t moves by one period
    steps = {last: period} | {p: -a * period // scale for p, scale, _, a in pivots}
    columns = [(j, steps.get(j, 0)) for j in mask]
    moves = any(step for _, step in columns)

    out: Counter[tuple[int, ...]] = Counter()
    vec = [0] * system.variables
    for assignment in product(range(1, n + 1), repeat=len(outer)):
        lo, hi = 1, n
        moving = []
        for p, scale, ints, a in pivots:
            s = sum(map(mul, ints, assignment))
            if not a:
                val, rem = divmod(-s, scale)
                if rem or val < 1 or val > n:
                    hi = 0  # no value of t helps
                    break
                vec[p] = val
                continue
            # scale <= -(s + a * t) <= n * scale, solved for t
            low, high = -n * scale - s, -scale - s
            if a < 0:
                low, high = high, low
            lo = max(lo, -(-low // a))
            hi = min(hi, high // a)
            moving.append((p, scale, s, a))
        for t0 in range(lo, min(hi, lo + period - 1) + 1):
            for p, scale, s, a in moving:
                val, rem = divmod(-s - a * t0, scale)
                if rem:
                    break
                vec[p] = val
            else:
                break
        else:
            continue  # no t of the interval makes every pivot integral
        for j, x in zip(outer, assignment):
            vec[j] = x
        vec[last] = t0
        count = (hi - t0) // period + 1
        if moves:
            out.update(zip(*[
                range(vec[j], vec[j] + step * count, step) if step else repeat(vec[j], count)
                for j, step in columns
            ]))
        else:
            out[tuple(vec[j] for j in mask)] += count
    return {row: w * idle for row, w in out.items()}


def enumerate_scalar_solutions(
    system: ScalarSystem, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[int, ...]]:
    """All integer k-tuples in [1,n]^k with A.x = 0, sorted lexicographically.

    These are the masked rows of the full mask (``_masked_solutions``), with
    its budget refusal.
    """
    full = tuple(range(system.variables))
    return sorted(_masked_solutions(system, n, full, budget))


def _coordinate_solutions(
    system: VectorSystem, n: int, mask: tuple[int, ...], budget: int
) -> list[Rows]:
    """Per-coordinate weighted masked rows, computing identical matrices once.

    Their tuple product is refused beyond the budget too, whether or not the
    caller walks it.
    """
    cache: dict[tuple[tuple[int, ...], ...], Rows] = {}
    lists = []
    for s in system.coordinate_systems:
        hit = cache.get(s.coeffs)
        if hit is None:
            hit = _masked_solutions(s, n, mask, budget)
            cache[s.coeffs] = hit
        lists.append(hit)
    total = prod(sum(rows.values()) for rows in lists)
    if total > budget:
        raise BudgetExceededError(total, budget)
    return lists


def _index_contributions(lists: list[Rows], n: int) -> list[Rows]:
    """Each masked coordinate row's contributions to the masked points' indices.

    The index of a point is the sum over coordinates i of
    (coord_i - 1) * n**(d-1-i), so the masked points' indices of a tuple are
    the position-wise sums of its rows' contributions.  A row's weight is
    kept with its contributions.
    """
    d = len(lists)
    out = []
    for i, rows in enumerate(lists):
        place = n ** (d - 1 - i)
        # table[x]: the contribution of coordinate value x, for x in [1, n]
        table = [(x - 1) * place for x in range(n + 1)]
        out.append({tuple(map(table.__getitem__, row)): w for row, w in rows.items()})
    return out


def _base_sums(outer: list[Rows], width: int) -> Counter[tuple[int, ...]]:
    """Position-wise sums of one contribution row from each outer list.

    The lists are folded in one at a time and equal partial sums merged, so
    each distinct base appears once, weighted by the number of full row
    combinations that give it.  With no outer list the one base is zero.
    """
    bases = Counter({(0,) * width: 1})
    for rows in outer:
        step: Counter[tuple[int, ...]] = Counter()
        for base, weight in bases.items():
            for row, w in rows.items():
                step[tuple(map(add, base, row))] += weight * w
        bases = step
    return bases


def _point_sets(
    system: VectorSystem,
    n: int,
    mask: tuple[int, ...],
    lists: list[Rows],
    exclude_degenerate: bool,
) -> dict[tuple[int, ...], None]:
    """Distinct masked point-index sets of the tuples in the product of the
    coordinate lists (``_coordinate_solutions`` of [1,n]^d, or some of its
    rows), as sorted tuples (see the module docstring), keyed in build
    order.

    Of the first list only the rows that do not decrease along each class
    of twin positions (equal columns in every coordinate system, as
    ``VectorSystem.column_classes`` finds once per system) are kept:
    swapping twins in all coordinates keeps a tuple's point set, and every
    orbit of swaps has one tuple so ordered, so no set is lost.  Rows with
    equal twin values stay, and their sets merge as any repeated point
    does.  The first list may be shared with other coordinates, or kept by
    the caller, so it is filtered into a new dict.

    A set is a base plus one row of the last list, summed column by column,
    in the argsort order of the base; only sets on a tied base (masked
    points that share their leading coordinates) are sorted one by one.  In
    one dimension the one base is zero, so each row's set is made directly,
    as its distinct values less one, sorted.  With `exclude_degenerate`, the
    last list's contributions are ordered by their rows' forms, so the
    degenerate tuples on a base of one form f are those completed by one
    span [lo, hi) of them, which that base skips.  Build order is each base's run of sets in
    turn, each set kept where it first occurs: it depends on the enumeration
    alone, never on hashing.
    """
    if exclude_degenerate and len(lists) == 1:
        return {}
    # each masked position paired with the one before it in its class
    classes = system.column_classes
    before: dict[int, int] = {}
    twins = []
    for pos, j in enumerate(mask):
        if classes[j] in before:
            twins.append((before[classes[j]], pos))
        before[classes[j]] = pos
    if twins:
        first = {
            row: w for row, w in lists[0].items() if all(row[p] <= row[q] for p, q in twins)
        }
        lists = [first, *lists[1:]]
    if len(lists) == 1:
        return dict.fromkeys(tuple(sorted({x - 1 for x in row})) for row in lists[0])
    width = len(mask)
    contributions = _index_contributions(lists, n)
    *outer, last = contributions
    if not last:
        return {}
    spans = {}
    if exclude_degenerate:
        # a form's bases are the sums of one same-form contribution per outer list
        *outer_forms, last_forms = map(_by_form, lists, contributions)
        last = []
        for form, contribs in last_forms.items():
            span = (len(last), len(last) + len(contribs))
            last += contribs
            if all(form in groups for groups in outer_forms):
                bases = [(0,) * width]
                for groups in outer_forms:
                    bases = {tuple(map(add, b, c)) for b in bases for c in groups[form]}
                spans.update(dict.fromkeys(bases, span))
    columns = list(zip(*last))

    def run(base: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        cols = columns
        if base in spans:
            lo, hi = spans[base]
            cols = [c[:lo] + c[hi:] for c in columns]
        order = sorted(range(width), key=base.__getitem__)
        sums = zip(*[map(add, repeat(base[j]), cols[j]) for j in order])
        if len(set(base)) < width:
            sums = map(tuple, map(sorted, map(set, sums)))
        return sums

    return dict.fromkeys(chain.from_iterable(map(run, _base_sums(outer, width))))


def enumerate_vector_solutions(
    system: VectorSystem, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[SolutionTuple]:
    """Stream every solution tuple in [1,n]^d, one scalar solution per coordinate.

    Order is deterministic: lexicographic in the tuple of coordinate rows.
    """
    lists = _coordinate_solutions(system, n, tuple(range(system.k)), budget)
    for rows in product(*map(sorted, lists)):
        yield SolutionTuple(tuple(zip(*rows)))


def count_solutions(system: VectorSystem, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """|enumerate_vector_solutions| without materializing the product.

    With the empty mask every coordinate's solutions share one masked row,
    whose weight is their number.  The product is counted, not refused.
    """
    return prod(
        sum(_masked_solutions(s, n, (), budget).values())
        for s in system.coordinate_systems
    )


def _resolve_mask(mask: Iterable[int] | None, k: int) -> tuple[int, ...]:
    if mask is None:
        return tuple(range(k))
    resolved = tuple(sorted(set(mask)))
    if not resolved:
        raise ValueError("mask must be nonempty")
    if resolved[0] < 0 or resolved[-1] >= k:
        raise ValueError(f"mask indices must lie in [0, {k})")
    return resolved


def count_degenerate(
    system: VectorSystem,
    n: int,
    mask: Iterable[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of solution tuples whose masked point set is degenerate.

    A tuple is degenerate exactly when its coordinate rows, restricted to the
    mask, all have the same primitive form (see the module docstring).  Each
    coordinate list's weights are grouped by that form (``_by_form``, which
    the build's degeneracy filter shares), and the count is the sum over
    forms of the product of the lists' group weights: linear in the list
    lengths, without walking the tuple product (whose size the budget still
    bounds).  In one dimension every tuple counts.
    """
    mask = _resolve_mask(mask, system.k)
    lists = _coordinate_solutions(system, n, mask, budget)
    grouped = [_by_form(rows, rows.values()) for rows in lists]
    forms = set(grouped[0]).intersection(*grouped[1:])
    return sum(prod(sum(g[form]) for g in grouped) for form in forms)


def count_monochromatic(
    system: VectorSystem,
    coloring: Coloring,
    mask: Iterable[int] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """Per-color counts of solution tuples whose masked points share that color.

    The contributions of all coordinate lists but the last are summed into
    one base index per masked point (``_base_sums``; tuples with the same
    bases are counted together).  The masked rows of the last list are split
    into classes by weight.  For a masked position, base and class, one
    bitset per color marks the class's rows that complete that point to the
    color; the tuples of a base monochromatic in a color are then the bits
    of the AND of its positions' bitsets, each bit counting the class's
    weight.  The tuple product, which the budget still bounds, is never
    walked.
    """
    if coloring.d != system.d:
        raise DimensionMismatchError(
            f"coloring has dimension {coloring.d}, system has {system.d}"
        )
    mask = _resolve_mask(mask, system.k)
    n = coloring.n
    lists = _coordinate_solutions(system, n, mask, budget)
    *outer, last = _index_contributions(lists, n)
    classes: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for parts, w in last.items():
        classes[w].append(parts)
    # per class and masked position, the last list's index contributions
    offsets = [list(zip(*rows)) for rows in classes.values()]
    palette = range(coloring.r)
    if coloring.r <= 256:
        # one byte per point; translating a row's color bytes with marks[c]
        # spells the row's bitset of color c in binary digits
        marks = [bytes(49 if x == c else 48 for x in range(256)) for c in palette]

        def bitsets(row: Iterable[int]) -> list[int]:
            row = bytes(row)
            # pad after translating: the pad's byte, 48, is also color 48's
            return [int(b"0" + row.translate(m), 2) for m in marks]
    else:

        def bitsets(row: Iterable[int]) -> list[int]:
            row = tuple(row)
            return [int(b"0" + bytes(49 if x == c else 48 for x in row), 2) for c in palette]

    color = coloring.colors.__getitem__

    @cache
    def column(pos: int, base: int) -> list[list[int]]:
        return [bitsets(map(color, map(base.__add__, offs[pos]))) for offs in offsets]

    counts = [0] * coloring.r
    for base, weight in _base_sums(outer, len(mask)).items():
        first, *rest = (column(pos, b) for pos, b in enumerate(base))
        for i, w in enumerate(classes):
            for c in palette:
                both = first[i][c]
                for bits in rest:
                    both &= bits[i][c]
                counts[c] += weight * w * both.bit_count()
    return counts


# --- coloring certificate files ----------------------------------------------
#
# JSON with fixed key order:
#   {"n": 8, "d": 2, "r": 2, "colors": [ ... flat, lexicographic point order ]}


def parse_coloring(text: str) -> Coloring:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to read
        raise SystemFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SystemFormatError("coloring document must be a JSON object")
    for key in ("n", "d", "r", "colors"):
        if key not in doc:
            raise SystemFormatError(f"missing key {key!r}")
    n, d, r, colors = doc["n"], doc["d"], doc["r"], doc["colors"]
    if not isinstance(colors, list):
        raise SystemFormatError("'colors' must be a list")
    for name, value in (("n", n), ("d", d), ("r", r), *(("color", c) for c in colors)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SystemFormatError(f"{name} {value!r} is not an integer")
    try:
        return Coloring(n, d, r, tuple(colors))
    except ValueError as e:
        raise SystemFormatError(str(e)) from e


def serialize_coloring(coloring: Coloring) -> str:
    doc = {
        "n": coloring.n,
        "d": coloring.d,
        "r": coloring.r,
        "colors": list(coloring.colors),
    }
    return json.dumps(doc, separators=(", ", ": ")) + "\n"
