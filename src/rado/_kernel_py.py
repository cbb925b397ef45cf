"""Pure-Python avoidability-search kernel.

Decides whether the points 0..num_points-1 can be colored with `colors`
colors so that no constraint (a set of point indices) is monochromatic.
This is the reference implementation; the compiled twin, the hand-written
C extension ``_kernel_c``, must follow the identical decision sequence so
that both return the same status and, on success, the same assignment.
Arguments are trusted to meet the contract stated in ``kernel``.

Algorithm: depth-first search over the supplied branching order with

* fail-first branching with a short lookahead: at each branch point the
  search takes the first uncolored point with exactly two colors left
  among the next ``LOOKAHEAD`` entries of the order, counted from the first
  uncolored one, and that first uncolored point when none of them has two
  left.  A point with one color left is already colored by propagation,
  and with two colors every uncolored point has two left, so two-color
  searches branch exactly in order.  The window keeps the search near the
  front of the order: on a two-dimensional box the first point with two
  colors left can lie hundreds of entries ahead, and branching there
  slows refutations (see ROADMAP, Baseline);
* color-symmetry breaking: a branch may only introduce color g when colors
  0..g-1 already occur on the current path (forced assignments keep this
  canonical automatically, since a color can only be forbidden after it has
  been used), which stays sound under any branching order;
* unit-style propagation by constraint shape: ``notcol[g]`` is the set of
  points not colored g, as an int bitset.  Coloring q with g clears q from
  ``notcol[g]`` and visits q's constraints: when one uncolored point is left
  that is not colored g, g is forbidden there; a point with only one color
  left is assigned immediately, and a point with none left is the only
  conflict (see ``kernel``).

Each point's constraints are sorted by their number of points into three
lists, each visited in its own loop.  A pair is stored as its other point,
which loses g outright.  Triples and larger sets are int masks of their
points, and most hold no other point colored g, so their rest has two points
or more and they are passed over.  A filter finds them with one ``&`` before
any rest is built: ``seen``, the points already colored g, is taken before q
is cleared, and a mask that shares no bit with it is skipped.  No constraint
ever has all its points colored g, so a triple that passes has exactly one
point left, and larger masks still test for a rest of two points or more.
Propagation reaches the same fixpoint, or a conflict, in any visiting order,
so the shapes change no decision.  A colored point's forbidden colors are
the sentinel -1, every bit set, so "colored, or g already forbidden" is one
``&``; the last point of a rest is its bit length less one, and the one
color a point has left is looked up in a dict.

The search is one loop over an explicit stack, with one entry per open
branch point, so it takes no Python frames however deep it goes.  Each
branch point snapshots the forbidden colors and the ``notcol`` sets before
its first color and restores them before each further one, so nothing is
undone step by step; a branch point with no color left is popped without a
restore, and the next entry down restores its own snapshot before its next
color.  The coloring needs no snapshot: a point is colored exactly when its
forbidden colors are -1, and a color written on an undone branch is never
read, since a point colored again is written again.  The snapshots cost
memory and copy time of depth x points: ``solve(2000, 2, [],
list(range(2000)))`` opens 2,000 branch points and peaks at about 34 MB
(tracemalloc), where the C kernel's trail stays under 1 MB.  A trail here
too was measured and not taken: it made the same decisions on 20,000
random instances and held that solve to 1.1 MB, but each deep-search
kernel call was 12% to 26% slower (2-vCPU VM), and a trail of one int per
entry, kept in per-color segments, 11% to 34% slower.  Tried colors
ascend and each of a point's lists is visited in input order, so the search
is deterministic.
"""

from __future__ import annotations

from typing import Sequence

# how many entries of the order, from the first uncolored one, a branch
# point looks through for a point with two colors left; _kernel_c.c's
# LOOKAHEAD must be equal
LOOKAHEAD = 8


def _point_masks(
    num_points: int, constraints: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Per point, its constraints by shape, each list in constraint order.

    Returns ``(pairs, triples, larger)``: ``pairs[p]`` holds the other point
    of every constraint of two points holding p, ``triples[p]`` and
    ``larger[p]`` the masks of those of three and of four or more points.
    Pairs and triples are unpacked rather than walked.
    """
    bits = [1 << p for p in range(num_points)]
    pairs: list[list[int]] = [[] for _ in range(num_points)]
    triples: list[list[int]] = [[] for _ in range(num_points)]
    larger: list[list[int]] = [[] for _ in range(num_points)]
    for c in constraints:
        size = len(c)
        if size == 2:
            a, b = c
            pairs[a].append(b)
            pairs[b].append(a)
        elif size == 3:
            a, b, e = c
            m = bits[a] | bits[b] | bits[e]
            triples[a].append(m)
            triples[b].append(m)
            triples[e].append(m)
        else:
            m = 0
            for pt in c:
                m |= bits[pt]
            for pt in c:
                larger[pt].append(m)
    return pairs, triples, larger


def solve(
    num_points: int,
    colors: int,
    constraints: Sequence[Sequence[int]],
    order: Sequence[int],
) -> tuple[bool, list[int] | None]:
    """Return (avoidable, assignment); assignment colors every point, -1 kept as 0.

    The arguments meet the contract stated in ``kernel``.  `order` lists the
    points the search may branch on; points outside it are only colored by
    propagation.
    """
    bits = [1 << p for p in range(num_points)]
    all_points = (1 << num_points) - 1
    # per point, by shape: the other point of each pair, the masks of the
    # triples and of the larger sets
    pairs, triples, larger = _point_masks(num_points, constraints)

    # a point is colored exactly when its forbidden colors are -1, all bits
    # set; color[p] is read only then
    color = [0] * num_points
    forbid = [0] * num_points
    notcol = [all_points] * colors
    full_mask = (1 << colors) - 1
    # forced[fb]: the one color a point with forbidden colors fb has left
    forced = {full_mask ^ (1 << g): g for g in range(colors)}
    # number of colors introduced on the current path
    introduced = 0

    def assign(point: int, g: int) -> bool:
        nonlocal introduced
        queue = [(point, g)]
        while queue:
            q, h = queue.pop()
            color[q] = h
            forbid[q] = -1
            if h >= introduced:
                introduced = h + 1
            nc = notcol[h]
            # not ~nc: & with a negative int is slower
            seen = all_points ^ nc
            nc ^= bits[q]
            notcol[h] = nc
            bit = 1 << h
            for other in pairs[q]:
                fb = forbid[other]
                if fb & bit:
                    continue
                fb |= bit
                forbid[other] = fb
                if fb == full_mask:
                    return False
                if fb in forced:
                    queue.append((other, forced[fb]))
            for m in triples[q]:
                if not m & seen:
                    continue
                last = (m & nc).bit_length() - 1
                fb = forbid[last]
                if fb & bit:
                    continue
                fb |= bit
                forbid[last] = fb
                if fb == full_mask:
                    return False
                if fb in forced:
                    queue.append((last, forced[fb]))
            for m in larger[q]:
                if not m & seen:
                    continue
                rest = m & nc
                if rest & (rest - 1):
                    continue
                last = rest.bit_length() - 1
                fb = forbid[last]
                if fb & bit:
                    continue
                fb |= bit
                forbid[last] = fb
                if fb == full_mask:
                    return False
                if fb in forced:
                    queue.append((last, forced[fb]))
        return True

    olen = len(order)
    # two_left: the forbidden colors of a point with two colors left
    two_left = {
        full_mask ^ (1 << a) ^ (1 << b) for a in range(colors) for b in range(a)
    }

    # per open branch point: its point, the order position to resume at, the
    # colors it has still to try as a bitset, and its snapshot
    stack: list[tuple[int, int, int, tuple]] = []
    oi = 0
    while True:
        while oi < olen and forbid[order[oi]] < 0:
            oi += 1
        if oi == olen:
            return True, [c if fb < 0 else 0 for c, fb in zip(color, forbid)]
        x = order[oi]
        # the points before oi are colored, and order[oi] stays uncolored
        # when another point is branched on, so the search resumes at oi
        nxt = oi + 1
        for y in order[oi:oi + LOOKAHEAD]:
            if forbid[y] in two_left:
                if y != x:
                    x = y
                    nxt = oi
                break
        saved = forbid[:], notcol[:], introduced
        # the colors x is not forbidden, up to the first one not yet introduced
        left = ((2 << min(introduced, colors - 1)) - 1) & ~forbid[x]
        while True:
            low = left & -left
            left ^= low
            if assign(x, low.bit_length() - 1):
                break
            # back up to the innermost branch point with a color left
            while not left:
                if not stack:
                    return False, None
                x, nxt, left, saved = stack.pop()
            forbid[:], notcol[:], introduced = saved
        stack.append((x, nxt, left, saved))
        oi = nxt
