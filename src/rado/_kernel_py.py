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
* unit-style propagation on bitsets: every constraint is one int mask of its
  points, and ``notcol[g]`` is the set of points not colored g.  Coloring q
  with g clears q from ``notcol[g]`` and intersects it with each mask of q:
  an empty rest means a monochromatic constraint (backtrack), and a rest of
  one uncolored point has g forbidden there; a point with only one color
  left is assigned immediately.

Each branch point snapshots the coloring, the forbidden colors and the
``notcol`` sets and restores them after a failed color, so nothing is
undone step by step.  Tried colors ascend and each point's constraints are
visited in input order, so the search is deterministic.
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
    bits = [1 << p for p in range(num_points)]
    # masks[p]: the mask of every constraint holding p, in constraint order
    masks: list[list[int]] = [[] for _ in range(num_points)]
    for c in constraints:
        m = 0
        for pt in c:
            m |= bits[pt]
        for pt in c:
            masks[pt].append(m)

    color = [-1] * num_points
    forbid = [0] * num_points
    notcol = [-1] * colors
    full_mask = (1 << colors) - 1
    # number of colors introduced on the current path
    introduced = 0

    def assign(point: int, g: int) -> bool:
        nonlocal introduced
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
            if h >= introduced:
                introduced = h + 1
            nc = notcol[h] ^ bits[q]
            notcol[h] = nc
            bit = 1 << h
            for m in masks[q]:
                rest = m & nc
                if not rest:
                    return False
                if rest & (rest - 1):
                    continue
                last = rest.bit_length() - 1
                fb = forbid[last]
                if color[last] >= 0 or fb & bit:
                    continue
                fb |= bit
                forbid[last] = fb
                if fb == full_mask:
                    return False
                if fb.bit_count() == colors - 1:
                    queue.append((last, (full_mask ^ fb).bit_length() - 1))
        return True

    olen = len(order)

    def dfs(oi: int) -> bool:
        nonlocal introduced
        while oi < olen and color[order[oi]] >= 0:
            oi += 1
        if oi == olen:
            return True
        x = order[oi]
        top = min(introduced, colors - 1)
        fb = forbid[x]
        saved = color[:], forbid[:], notcol[:], introduced
        for g in range(top + 1):
            if fb >> g & 1:
                continue
            if assign(x, g) and dfs(oi + 1):
                return True
            color[:], forbid[:], notcol[:], introduced = saved
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
        # dfs refers to itself, so this cycle would keep the search state,
        # the caller's constraints among it, alive until the next gc collection
        del dfs
