"""The exact avoidability engine for [1,n]^d.

A search problem fixes a vector system, a color count, the mask of solution
points that must share a color, and optional tuple filters (exclude
degenerate masked sets, require the masked points pairwise distinct).
Constraints are the masked point sets of the solution tuples (so a
constraint exists as soon as SOME assignment of the unmasked dummy variables
completes it), as ``lattice._point_sets`` projects them: sorted tuples of
distinct point indices, the degenerate ones left out under that filter.  A
set that contains another set is dropped, because a coloring that splits
the smaller set also splits the larger one; a set is found dominated by
looking up each of its subsets, of every smaller size that occurs, among
the built sets (nothing is dominated when all sets have one size).  The
kept sets come in groups by ascending size, each in build order: the order
in which the projection first makes them, which depends on the enumeration
alone, never on hashing.

Where order is visible, the kept sets are put in lexicographic order within
each size (one stable sort per column, last column first, so the sorts
compare ints rather than tuples): ``build_constraints`` returns them so, and
through it the DIMACS text and the violated set that ``verify_witness``
names.  The search does not sort.  Propagation reaches the same fixpoint,
or the same conflict, whatever order the constraints are visited in, and
the branch points and colors tried depend only on that fixpoint, so the
status and the witness do not depend on constraint order; the search hands
the kernel the sets in build order and reports the lexicographically first
one-point set as the forced one.

The search itself runs in a swappable kernel (see ``kernel``); this module
prepares the constraint hypergraph, the branching order (most-constrained
point first, ties by max-norm then index, i.e. lexicographic position) and
turns kernel results into certified outcomes.  That order
(``_branch_order``) is static; the kernel walks it and branches first on a
point with exactly two colors left when one lies among its next
``_kernel_py.LOOKAHEAD`` entries.  The build's sets are in range and of
distinct points, and the order is a list of points in range, so they meet
the kernel contract (see ``kernel``) and the search calls the kernel
without the public dispatcher.  It selects the kernel, which checks the
color count, before the build, so the count is refused even in a box with
nothing to search.  A witness is checked by its
monochromatic tuple counts (``lattice.count_monochromatic``), which share no
code with the kernels; the constraints are built only to report a violated
set, or to decide when a tuple filter is set.  The DIMACS export joins each
constraint's clauses from tables of its points' literals.

The minimal-n scan skips the boxes that a one-dimensional search proves
avoidable.  A 1-d coloring that avoids coordinate system i, applied to
every point's i-th coordinate, avoids the d-dimensional problem (the lift),
so in two or more dimensions the scan first searches each distinct
coordinate system alone, without tuple filters, and then searches the
d-dimensional boxes fresh from the last one so proven.  When the budget
refuses a box of that scan, the skipped boxes are enumerated, not searched,
to report the first refused box from n = 1 on.

Every one-dimensional scan, lifted or not, reuses box n - 1's kept sets
(``_build``).  In one dimension a point's index is its value less one at
every n, so box n - 1's sets are sets of box n.  Box n is enumerated as
before, with its budget check, but only its masked rows that box n - 1
lacks are projected.  The new sets that contain no set of either box join
the old kept sets that contain no new set.  A new set can lie on old
points when only a dummy column reached n, and then it can dominate an old
kept set: for x + y + 3z = 3w under mask 0,2,3, the new {1,5} drops
{1,5,6} at n = 7.  The kept sets equal a fresh build's as sets, and no
answer depends on their order.  In two or more dimensions a point's index
depends on n, so box n - 1's sets would have to be re-indexed, or every
box indexed in one base fixed for the whole scan.  That base enlarges the
kernel's point range: flagship r=2 n=9 indexed in base 9, 20, 40 and 80
takes 0.38, 0.70, 1.30 and 4.17 ms in the Python kernel, and its branch
order 0.15, 0.24, 0.50 and 1.56 ms.  So those boxes are built fresh.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, groupby, product
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from .errors import BudgetExceededError, DimensionMismatchError
from .kernel import _kernel
from .lattice import (
    DEFAULT_BUDGET,
    Coloring,
    Point,
    Rows,
    _coordinate_solutions,
    _point_sets,
    _resolve_mask,
    count_monochromatic,
    index_point,
)
from .systems import VectorSystem

AVOIDABLE = "avoidable"
UNAVOIDABLE = "unavoidable"
TRIVIALLY_UNAVOIDABLE = "trivially_unavoidable"


@dataclass(frozen=True)
class SearchProblem:
    """System plus coloring constraints: the unit of work for the engine."""

    system: VectorSystem
    colors: int = 2
    mask: tuple[int, ...] | None = None  # None (all k points) is stored as (0, ..., k-1)
    exclude_degenerate: bool = False
    require_distinct: bool = False

    def __post_init__(self):
        if self.colors < 1:
            raise ValueError("at least one color is required")
        object.__setattr__(self, "mask", _resolve_mask(self.mask, self.system.k))


@dataclass(frozen=True)
class ConstraintSet:
    """Deduplicated, minimal point-index sets that must not be monochromatic.

    From ``build_constraints`` they come by size, then in lexicographic
    order; the search's own set holds them by size, in build order (in a
    one-dimensional scan, box n - 1's kept sets first), which no answer
    depends on (see the module docstring).
    """

    n: int
    d: int
    constraints: tuple[tuple[int, ...], ...]

    def decode(self, constraint: Sequence[int]) -> tuple[Point, ...]:
        return tuple(index_point(i, self.n, self.d) for i in constraint)


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: Coloring | None
    forced_constraint: tuple[Point, ...] | None


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violated_constraint: tuple[Point, ...] | None
    color: int | None


@dataclass(frozen=True)
class RadoNumberResult:
    """Outcome of the minimal-n scan.

    When the scan succeeds, `value` is the minimal unavoidable n and `witness`
    is the avoiding coloring found at value - 1 (None when value == 1).  When
    the scan exhausts max_n, `value` is None and `witness` certifies
    avoidability at max_n.
    """

    value: int | None
    searched_to: int
    witness: Coloring | None

    @property
    def found(self) -> bool:
        return self.value is not None


def build_constraints(
    problem: SearchProblem, n: int, budget: int = DEFAULT_BUDGET
) -> ConstraintSet:
    """Masked point sets of all filtered solution tuples in [1,n]^d.

    The kept sets come by size, then in lexicographic order.
    """
    groups = [list(group) for _, group in groupby(_build(problem, n, budget)[0], len)]
    # sets of one size in lexicographic order: a stable sort per column,
    # last column first
    for group in groups:
        for j in reversed(range(len(group[0]))):
            group.sort(key=itemgetter(j))
    return ConstraintSet(n, problem.system.d, tuple(chain.from_iterable(groups)))


# a box's kept sets and the masked rows they were projected from, which a
# one-dimensional scan hands to the build of the next box
_Built = tuple[list[tuple[int, ...]], Rows]


def _build(
    problem: SearchProblem, n: int, budget: int, prev: _Built | None = None
) -> _Built:
    """The sets that no other set dominates, by ascending size, each size in
    build order (see ``lattice._point_sets``), and the box's masked rows.

    `prev` is box n - 1's build, and is given in one dimension only.  There
    a point's index is its value less one at every n, so box n - 1's sets
    are sets of box n too, and only the rows new at n are projected.  The
    kept sets are box n - 1's that properly contain no new set, then the
    new sets that are not box n - 1's and properly contain no set of either
    box: the sets that the fresh build keeps.  A new set holds the new point
    (index n - 1) unless only a dummy column reached n, and only a set
    without it can lie inside an old one, so only those are looked up.
    """
    lists = _coordinate_solutions(problem.system, n, problem.mask, budget)
    rows = lists[0]
    if prev is not None:
        old = dict.fromkeys(prev[0])
        lists = [{row: w for row, w in rows.items() if row not in prev[1]}]
    seen = _point_sets(problem.system, n, problem.mask, lists, problem.exclude_degenerate)
    if problem.require_distinct:
        # the sets with one point per masked position: all of one size, so
        # none dominates another
        seen = dict.fromkeys(s for s in seen if len(s) == len(problem.mask))
    if prev is None:
        if len(set(map(len, seen))) < 2:
            return list(seen), rows  # sets of one size dominate none
        kept = _undominated(seen, seen)
    else:
        kept = _undominated([s for s in seen if s not in old], {**old, **seen})
        # the new sets on old points
        low = dict.fromkeys(s for s in kept if s[-1] < n - 1)
        kept = [*(_undominated(old, low) if low else old), *kept]
    return sorted(kept, key=len), rows


def _undominated(
    sets: Iterable[tuple[int, ...]], known: Collection[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The sets that properly contain no set of `known`, in their order.

    A set's proper subset of `known` has one of the smaller sizes that occur
    there, so each set looks up its subsets of those sizes (the subsets of
    a sorted tuple are sorted tuples, as the sets are).  A set dominated by
    a set of `known` is dominated by a minimal one, so `known` may hold
    dominated sets too.
    """
    sizes = sorted(set(map(len, known)))
    return [
        s
        for s in sets
        if not any(c in known for m in sizes if m < len(s) for c in combinations(s, m))
    ]


def _branch_order(cs: ConstraintSet) -> list[int]:
    """Constrained points, most constraints first; ties by max-norm then lex.

    Lexicographic order of points is index order, so the index breaks the
    last tie.  The key is applied as stable sorts from its last part to its
    first: by index, by max-norm (read from a table of every point's, in
    index order; in one dimension it is the index), then by degree,
    descending (``reverse=True`` keeps the sort stable).
    """
    degree = Counter(chain.from_iterable(cs.constraints))
    order = sorted(degree)
    if cs.d > 1:
        norm = list(map(max, product(range(cs.n), repeat=cs.d)))
        order.sort(key=norm.__getitem__)
    order.sort(key=degree.__getitem__, reverse=True)
    return order


def find_avoiding_coloring(
    problem: SearchProblem,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Exhaustively decide avoidability of [1,n]^d for the given problem.

    Avoidable outcomes carry a witness coloring (points in no constraint get
    color 0).  The search is deterministic, so the witness is too.
    """
    return _search_box(problem, n, budget)[0]


def _search_box(
    problem: SearchProblem, n: int, budget: int, prev: _Built | None = None
) -> tuple[SearchOutcome, _Built]:
    """``find_avoiding_coloring`` on the sets that ``_build`` keeps from
    `prev`, and that build, for the next box of a one-dimensional scan."""
    if n < 1:
        raise ValueError("box side n must be at least 1")
    r = problem.colors
    solve = _kernel(None, r)
    built = kept, _ = _build(problem, n, budget, prev)
    d = problem.system.d
    num_points = n**d
    cs = ConstraintSet(n, d, tuple(kept))
    if not kept:
        outcome = SearchOutcome(AVOIDABLE, Coloring(n, d, r, (0,) * num_points), None)
    elif len(kept[0]) == 1:
        # the sets ascend by size, so the singletons, if any, come first
        forced = min(s for s in kept if len(s) == 1)
        outcome = SearchOutcome(TRIVIALLY_UNAVOIDABLE, None, cs.decode(forced))
    else:
        ok, assignment = solve(num_points, r, cs.constraints, _branch_order(cs))
        if ok:
            outcome = SearchOutcome(AVOIDABLE, Coloring(n, d, r, tuple(assignment)), None)
        else:
            outcome = SearchOutcome(UNAVOIDABLE, None, None)
    return outcome, built


def rado_number(
    problem: SearchProblem,
    max_n: int,
    budget: int = DEFAULT_BUDGET,
) -> RadoNumberResult:
    """Scan n = 1, 2, ... for the smallest unavoidable box.

    Avoidability is monotone (a witness restricts to smaller boxes), so the
    first non-avoidable n is minimal.  The scan skips the boxes that the
    lift proves avoidable: color each point by its i-th coordinate with a
    1-d coloring that leaves no masked solution of coordinate system i
    monochromatic (same mask, no tuple filter); the i-th coordinate row of
    every solution tuple solves system i, so no masked point set is
    monochromatic, with or without tuple filters.  Each distinct coordinate
    system is scanned from the box after the last one proven, and a budget
    refusal ends the lift.  The d-dimensional scan starts at the last proven
    box, which it searches fresh, so its value, `searched_to`, witness and
    budget refusal are those of the scan from n = 1.  Every one-dimensional
    scan, lifted or not, builds each box from the one before (``_scan``).
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    start = 1
    if problem.system.d > 1:
        try:
            for s in dict.fromkeys(problem.system.coordinate_systems):
                lifted = SearchProblem(VectorSystem((s,)), problem.colors, problem.mask)
                value = _scan(lifted, start + 1, max_n, budget).value
                start = max_n if value is None else value - 1
        except BudgetExceededError:
            pass
    try:
        return _scan(problem, start, max_n, budget)
    except BudgetExceededError:
        # a box is refused only in _coordinate_solutions, by its n**f grid
        # cells or its tuple product, and both are non-decreasing in n: the
        # refused boxes are those from some n0 on, so the scan from n = 1
        # raises the first refusal among the skipped boxes, or else this one
        for n in range(1, start):
            _coordinate_solutions(problem.system, n, problem.mask, budget)
        raise


def _scan(
    problem: SearchProblem, start: int, max_n: int, budget: int
) -> RadoNumberResult:
    """Search n = start, ..., max_n until a box is not avoidable.

    In one dimension each box after the first is built from the one before
    (``_build``), whose kept sets are equal, as sets, to a fresh build's, so
    the answers are those of fresh searches: no status or witness depends
    on the order of the sets (see the module docstring).  In two or more
    dimensions a point's index depends on n, so each box is built fresh.
    """
    last_witness = built = None
    reuse = problem.system.d == 1
    for n in range(start, max_n + 1):
        outcome, built = _search_box(problem, n, budget, built if reuse else None)
        if outcome.status != AVOIDABLE:
            return RadoNumberResult(n, n, last_witness)
        last_witness = outcome.witness
    return RadoNumberResult(None, max_n, last_witness)


def verify_witness(
    problem: SearchProblem, witness: Coloring, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Check a claimed avoiding coloring by its monochromatic tuple counts.

    With no monochromatic solution tuple (``count_monochromatic``) the
    coloring passes, and no constraint is built.  Otherwise the constraints
    are built and the first monochromatic one is reported.  With no tuple
    filter some constraint must then be monochromatic: a monochromatic
    tuple's set or a set it contains is built.  A tuple filter may drop the
    only monochromatic tuples (degenerate or with repeated points), so there
    the build decides.
    """
    if witness.d != problem.system.d:
        raise DimensionMismatchError(
            f"witness dimension {witness.d} does not match system dimension "
            f"{problem.system.d}"
        )
    if witness.r > problem.colors:
        raise ValueError(
            f"witness uses {witness.r} colors but the problem allows {problem.colors}"
        )
    if not any(count_monochromatic(problem.system, witness, problem.mask, budget)):
        return VerificationReport(True, None, None)
    cs = build_constraints(problem, witness.n, budget)
    colors = witness.colors
    for con in cs.constraints:
        c0 = colors[con[0]]
        if all(colors[i] == c0 for i in con[1:]):
            return VerificationReport(False, cs.decode(con), c0)
    if not (problem.exclude_degenerate or problem.require_distinct):
        raise RuntimeError("monochromatic tuples counted but no monochromatic constraint built")
    return VerificationReport(True, None, None)


def export_dimacs(
    problem: SearchProblem, n: int, budget: int = DEFAULT_BUDGET
) -> str:
    """CNF text that is satisfiable exactly when the problem is avoidable at n.

    Two colors: one variable per point (true = color 0); every constraint S
    contributes the clauses (OR_{s in S} x_s) and (OR_{s in S} not x_s).
    Other color counts: one-hot variables var(point, color) with at-least-one
    and pairwise at-most-one clauses per point, plus one blocking clause per
    constraint and color.  Variables number points in lexicographic order,
    then colors, so output is bit-exact across runs.  A box side below 1
    gives the empty box: no variables and no clauses.
    """
    cs = build_constraints(problem, n, budget)
    d = problem.system.d
    r = problem.colors
    num_points = max(n, 0) ** d
    lines = [
        "c avoidability of monochromatic constrained solutions",
        f"c box [1,{n}]^{d}, colors {r}, constraints {len(cs.constraints)}",
        "c point index: lexicographic over the box, (1,...,1) -> 0",
    ]
    clauses: list[str] = []
    used = set(chain.from_iterable(cs.constraints))
    if r == 2:
        lines.append("c variable i+1 <-> point i; true = color 0, false = color 1")
        # a constraint's points are not all color 0, and not all color 1
        tables = [{i: str(i + 1) for i in used}, {i: str(-(i + 1)) for i in used}]
        num_vars = num_points
    else:
        lines.append(f"c variable point*{r} + color + 1 <-> point has that color")
        for i in range(num_points):
            base = i * r
            clauses.append(" ".join(str(base + g + 1) for g in range(r)) + " 0")
            for g in range(r):
                for h in range(g + 1, r):
                    clauses.append(f"{-(base + g + 1)} {-(base + h + 1)} 0")
        # a constraint's points do not all have color g
        tables = [{i: str(-(i * r + g + 1)) for i in used} for g in range(r)]
        num_vars = num_points * r
    # one clause per constraint and table of its points' literals
    for con in cs.constraints:
        for lits in tables:
            clauses.append(" ".join(map(lits.__getitem__, con)) + " 0")
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    lines.extend(clauses)
    return "\n".join(lines) + "\n"


def coloring_from_model(n: int, d: int, r: int, model: Sequence[bool]) -> Coloring:
    """Decode a satisfying assignment (1-indexed) of the exported CNF.

    Raises ValueError when n, d or r is below 1, when the model has fewer
    variables than the CNF of the box, or when a point has no true color.
    """
    if n < 1 or d < 1 or r < 1:
        raise ValueError("n, d and r must all be positive")
    num_points = n**d
    num_vars = num_points if r == 2 else num_points * r
    if len(model) <= num_vars:
        raise ValueError(f"model has {max(len(model) - 1, 0)} variables; the CNF has {num_vars}")
    if r == 2:
        colors = tuple(0 if model[i + 1] else 1 for i in range(num_points))
    else:
        colors = tuple(
            next((g for g in range(r) if model[i * r + g + 1]), -1)
            for i in range(num_points)
        )
        if -1 in colors:
            raise ValueError(f"point {colors.index(-1)} has no true color in the model")
    return Coloring(n, d, r, colors)
