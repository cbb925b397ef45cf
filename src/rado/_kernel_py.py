"""Pure-Python avoidability-search kernel.

Decides whether the points 0..num_points-1 can be colored with `colors`
colors so that no constraint (a set of point indices) is monochromatic.
This is the reference implementation; the compiled twin, the hand-written
C extension ``_kernel_c``, must follow the identical decision sequence so
that both return the same status and, on success, the same assignment.
Arguments are validated once, by ``kernel.solve_avoidability``.

Algorithm: depth-first search over the supplied branching order with

* color-symmetry breaking: a branch may only introduce color g when colors
  0..g-1 already occur on the current path (forced assignments keep this
  canonical automatically, since a color can only be forbidden after it has
  been used);
* unit-style propagation: per-constraint counters of colored-with-g and
  uncolored points; when all but one point of a constraint share color g,
  the last point has g forbidden, and a point with only one color left is
  assigned immediately; a fully monochromatic constraint backtracks.

Tried colors ascend, so the search is deterministic.
"""

from __future__ import annotations

import sys
from typing import Sequence


def solve(
    num_points: int,
    colors: int,
    constraints: Sequence[Sequence[int]],
    order: Sequence[int],
) -> tuple[bool, list[int] | None]:
    """Return (avoidable, assignment); assignment colors every point, -1 kept as 0.

    `constraints` must not contain singletons (a singleton is unavoidable and
    should be short-circuited by the caller).  `order` lists the points the
    search may branch on; points outside it are only colored by propagation.
    `colors` lies in 1..62 and every point index in [0, num_points); the
    dispatcher checks both.
    """
    ncon = len(constraints)
    cons = [tuple(c) for c in constraints]
    size = [len(c) for c in cons]
    adj: list[list[int]] = [[] for _ in range(num_points)]
    for ci, c in enumerate(cons):
        for pt in c:
            adj[pt].append(ci)

    color = [-1] * num_points
    forbid = [0] * num_points
    cnt = [[0] * colors for _ in range(ncon)]
    unc = size[:]
    full_mask = (1 << colors) - 1

    assign_stack: list[int] = []
    forb_trail: list[tuple[int, int]] = []
    # number of colors introduced on the current path; mutable cell so that
    # propagation inside assign() can bump it
    introduced = [0]

    def assign(point: int, g: int) -> bool:
        queue = [(point, g)]
        while queue:
            q, h = queue.pop()
            if color[q] >= 0:
                if color[q] != h:
                    return False
                continue
            if forbid[q] >> h & 1:
                return False
            color[q] = h
            if h >= introduced[0]:
                introduced[0] = h + 1
            assign_stack.append(q)
            # on conflict, finish updating every counter of q before failing:
            # undo() walks the full adjacency of each stacked point, so the
            # bookkeeping must stay symmetric
            failed = False
            for ci in adj[q]:
                row = cnt[ci]
                row[h] += 1
                unc[ci] -= 1
                if failed:
                    continue
                if row[h] == size[ci]:
                    failed = True
                    continue
                if unc[ci] == 1 and row[h] == size[ci] - 1:
                    last = -1
                    for x in cons[ci]:
                        if color[x] < 0:
                            last = x
                            break
                    if last < 0:
                        continue
                    bit = 1 << h
                    fb = forbid[last]
                    if not fb & bit:
                        fb |= bit
                        forbid[last] = fb
                        forb_trail.append((last, bit))
                        if fb == full_mask:
                            failed = True
                            continue
                        if fb.bit_count() == colors - 1:
                            forced = (full_mask ^ fb).bit_length() - 1
                            queue.append((last, forced))
            if failed:
                return False
        return True

    def undo(assign_mark: int, forb_mark: int) -> None:
        while len(assign_stack) > assign_mark:
            q = assign_stack.pop()
            h = color[q]
            for ci in adj[q]:
                cnt[ci][h] -= 1
                unc[ci] += 1
            color[q] = -1
        while len(forb_trail) > forb_mark:
            q, bit = forb_trail.pop()
            forbid[q] ^= bit

    olen = len(order)

    def dfs(oi: int) -> bool:
        while oi < olen and color[order[oi]] >= 0:
            oi += 1
        if oi == olen:
            return True
        x = order[oi]
        top = min(introduced[0], colors - 1)
        fb = forbid[x]
        for g in range(top + 1):
            if fb >> g & 1:
                continue
            assign_mark = len(assign_stack)
            forb_mark = len(forb_trail)
            saved_introduced = introduced[0]
            if assign(x, g) and dfs(oi + 1):
                return True
            undo(assign_mark, forb_mark)
            introduced[0] = saved_introduced
        return False

    depth_needed = num_points * 2 + 100
    old_limit = sys.getrecursionlimit()
    if old_limit < depth_needed:
        sys.setrecursionlimit(depth_needed)
    try:
        if dfs(0):
            return True, [c if c >= 0 else 0 for c in color]
        return False, None
    finally:
        if old_limit < depth_needed:
            sys.setrecursionlimit(old_limit)
