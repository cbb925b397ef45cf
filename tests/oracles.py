"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and shares no algorithmic machinery
with the package: ranks come from determinant minors, span membership from
rank equality, partitions from explicit enumeration, colorings from full
(or prefix-pruned) exhaustive search.  The one exception is ``plain_scan``,
the minimal-n scan over the package's own box search, which is the
reference for the boxes ``rado_number`` skips.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

from rado.lattice import DEFAULT_BUDGET
from rado.search import AVOIDABLE, RadoNumberResult, find_avoiding_coloring


def det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += sign * mat[0][j] * det(minor)
        sign = -sign
    return total


def det_rank(rows) -> int:
    """Rank as the largest size of a square submatrix with nonzero determinant."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    for size in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det(sub) != 0:
                    return size
    return 0


def rank_in_span(v, vecs) -> bool:
    """Span membership via rank(B) == rank(B + [v]) with determinant ranks."""
    if all(x == 0 for x in v):
        return True
    if not vecs:
        return False
    base = [list(b) for b in vecs]
    return det_rank(base) == det_rank(base + [list(v)])


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def ordered_set_partitions(items):
    for part in set_partitions(list(items)):
        yield from permutations(part)


def columns_condition_oracle(coeffs) -> bool:
    """Explicit search over every ordered set partition of the columns."""
    rows = [list(r) for r in coeffs]
    k = len(rows[0])
    cols = [tuple(Fraction(row[j]) for row in rows) for j in range(k)]

    def block_sum(block):
        return tuple(sum(cols[j][i] for j in block) for i in range(len(rows)))

    for blocks in ordered_set_partitions(range(k)):
        if any(block_sum(blocks[0])):
            continue
        earlier = [cols[j] for j in blocks[0]]
        ok = True
        for block in blocks[1:]:
            if not rank_in_span(block_sum(block), earlier):
                ok = False
                break
            earlier.extend(cols[j] for j in block)
        if ok:
            return True
    return False


def degenerate_oracle(points) -> bool:
    """Search every candidate direction v and per-point integer multipliers."""
    pts = sorted(set(points))
    d = len(pts[0])
    max_coord = max(c for p in pts for c in p)
    for v in product(range(1, max_coord + 1), repeat=d):
        ok = True
        for p in pts:
            m = p[0] // v[0]
            if m < 1 or any(p[i] != m * v[i] for i in range(d)):
                ok = False
                break
        if ok:
            return True
    return False


def naive_vector_solutions(systems_rows, n):
    """All d x k grids over [1,n]^(d*k) satisfying every coordinate system.

    Remembered per system and n, since several oracles walk the same box.
    """
    return _naive_vector_solutions(
        tuple(tuple(map(tuple, rows)) for rows in systems_rows), n
    )


@cache
def _naive_vector_solutions(systems_rows, n):
    # the coordinates constrain disjoint rows of the grid, so the grids are
    # the product of each coordinate's rows in [1,n]^k, tested one by one
    k = len(systems_rows[0][0])
    per_coordinate = [
        [
            row
            for row in product(range(1, n + 1), repeat=k)
            if all(sum(a * x for a, x in zip(eq, row)) == 0 for eq in eqs)
        ]
        for eqs in systems_rows
    ]
    return tuple(product(*per_coordinate))


def naive_masked_rows(rows, n, mask):
    """Each masked projection of the solutions of one scalar system in
    [1,n]^k, with the number of solutions that project to it."""
    grids = naive_vector_solutions([rows], n)
    return Counter(tuple(grid[0][j] for j in mask) for grid in grids)


def lex_index(point, n):
    """Position of a point in the lexicographic order of [1,n]^d, from 0."""
    flat = 0
    for c in point:
        flat = flat * n + c - 1
    return flat


def masked_points(rows, mask):
    """The points (grid columns) of a solution grid at the masked positions."""
    return [tuple(row[j] for row in rows) for j in mask]


def naive_degenerate_count(systems_rows, n, mask):
    """Solution grids whose masked points lie on one ray, each tested alone."""
    return sum(
        degenerate_oracle(masked_points(rows, mask))
        for rows in naive_vector_solutions(systems_rows, n)
    )


def naive_monochromatic_counts(systems_rows, n, mask, colors, r):
    """Per color, the solution grids whose masked points all have that color.

    colors is flat in lexicographic point order over [1,n]^d.
    """
    counts = [0] * r
    for rows in naive_vector_solutions(systems_rows, n):
        seen = {colors[lex_index(p, n)] for p in masked_points(rows, mask)}
        if len(seen) == 1:
            counts[seen.pop()] += 1
    return counts


def naive_point_sets(systems_rows, n, mask, nondegenerate):
    """Distinct masked point-index sets of all solution grids, built literally.

    Each grid gives the set of its masked points (column j of the grid is
    point j), indexed lexicographically over [1,n]^d, as a sorted tuple.
    """
    sets = set()
    for rows in naive_vector_solutions(systems_rows, n):
        pts = set(masked_points(rows, mask))
        if nondegenerate and degenerate_oracle(pts):
            continue
        sets.add(tuple(sorted(lex_index(p, n) for p in pts)))
    return sets


def naive_constraints(systems_rows, n, mask, distinct, nondegenerate):
    """Minimal sets of ``naive_point_sets``, with one point per masked
    position when `distinct`.

    A set is dropped when some other set is a proper subset of it.  Sorted
    by (size, indices).
    """
    sets = {
        frozenset(s)
        for s in naive_point_sets(systems_rows, n, mask, nondegenerate)
        if not distinct or len(s) == len(mask)
    }
    minimal = [a for a in sets if not any(b < a for b in sets)]
    return tuple(sorted((tuple(sorted(a)) for a in minimal), key=lambda t: (len(t), t)))


def avoidable_all_colorings(num_points, r, constraints) -> bool:
    """Literally try every r-coloring; only viable for tiny instances."""
    for coloring in product(range(r), repeat=num_points):
        if all(len({coloring[i] for i in con}) > 1 for con in constraints):
            return True
    return False


def avoidable_pruned_dfs(num_points, r, constraints) -> bool:
    """Exhaustive DFS in fixed point order with prefix pruning only.

    No propagation, no symmetry breaking, no branching heuristics: a branch
    dies exactly when some fully colored constraint is monochromatic, which
    covers all of its extensions, so the search still visits every coloring
    implicitly.  One loop over the points, backing up a point at a time, so
    no frame is taken per point.
    """
    by_max = [[] for _ in range(num_points)]
    for con in constraints:
        by_max[max(con)].append(tuple(con))
    # colors[i] is the color point i is trying, -1 before its first; points
    # 0..i-1 hold colors that leave no constraint monochromatic
    colors = [-1] * num_points
    i = 0
    while 0 <= i < num_points:
        colors[i] += 1
        if colors[i] == r:
            colors[i] = -1
            i -= 1
            continue
        if not any(
            all(colors[j] == colors[con[0]] for j in con[1:]) for con in by_max[i]
        ):
            i += 1
    return i == num_points


def schur_vector_constraints(n, exclude_degenerate):
    """Point-index constraint sets for p + q = s over [1,n]^2, built naively."""
    cons = set()
    for p in product(range(1, n + 1), repeat=2):
        for q in product(range(1, n + 1), repeat=2):
            s = (p[0] + q[0], p[1] + q[1])
            if s[0] > n or s[1] > n:
                continue
            pts = {p, q, s}
            if exclude_degenerate and degenerate_oracle(pts):
                continue
            cons.add(frozenset((a - 1) * n + (b - 1) for a, b in pts))
    return [tuple(sorted(c)) for c in sorted(cons, key=sorted)]


def schur_triples(n):
    return [
        (x, y, x + y)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
        if x + y <= n
    ]


def progressions(n):
    return [
        (x, x + delta, x + 2 * delta)
        for x in range(1, n + 1)
        for delta in range(1, n)
        if x + 2 * delta <= n
    ]


def plain_scan(problem, max_n, budget=DEFAULT_BUDGET) -> RadoNumberResult:
    """Search every box n = 1, ..., max_n fresh until one is not avoidable."""
    witness = None
    for n in range(1, max_n + 1):
        outcome = find_avoiding_coloring(problem, n, budget)
        if outcome.status != AVOIDABLE:
            return RadoNumberResult(n, n, witness)
        witness = outcome.witness
    return RadoNumberResult(None, max_n, witness)
