"""Backend selection for the avoidability-search kernel.

The compiled extension ``_kernel_c`` (one hand-written C file built by
``setup.py``) is preferred when it imported successfully; pass
``backend="python"`` to ``solve_avoidability`` to run the pure-Python
implementation instead.  When a point is colored h, both reach the same
verdict on each of its constraints, and so the same fixpoint or conflict:
the C kernel visits them in input order and counts each one's points not
colored h, stopping at two, while the Python kernel visits them by shape,
first the pairs, each forbidding h at its other point, then triples and
larger sets as bitsets, passing over those with no other point colored h.
Both search in one loop over an explicit stack of branch points, and
differ only in how they propagate, as above, and in how they restore state:
the Python kernel from a snapshot per branch point, the C kernel from one
trail of every change.  They follow the identical deterministic decision
sequence, so results do not depend on the choice: both branch on the first
uncolored point with exactly two colors left among the next
``_kernel_py.LOOKAHEAD`` entries of the supplied order, and on the next
uncolored point when there is none (see ``_kernel_py``).

The kernels trust their arguments, which must meet one contract: `colors`
lies in 1..62, `order` is a list and `constraints` a sequence, each
constraint a sequence of two or more points, none repeated, and every point
index, in a constraint or in `order`, lies in [0, num_points).
``_kernel`` picks the backend and checks the color count.  The public
``solve_avoidability`` brings any other input to the contract: it keeps
each constraint's distinct points in first-occurrence order, refuses an
empty constraint or an index out of range, and answers a constraint of one
distinct point itself, as unavoidable.  ``search.find_avoiding_coloring``
calls ``_kernel`` directly: its build already meets the contract, and it
reports a singleton before any search.

Under this contract a search fails in one way only: a point loses its last
color, its forbidden colors reaching the full mask.  No other conflict can
arise, so neither kernel tests for one:

* a branch colors an uncolored point with a color it still has; a point
  is queued when one color is left to it, and any later forbid there
  empties it and fails at once, so a point is queued at most once, and it
  is still uncolored, its one color still allowed, when it is popped;
* once every point of a constraint but one is colored h, that last point
  loses h, so no point is ever colored h where that would make one of its
  constraints monochromatic.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Sequence

from . import _kernel_py

try:
    from . import _kernel_c
except ImportError:  # pragma: no cover - depends on the build environment
    _kernel_c = None

_BACKENDS = {"python": _kernel_py.solve}
if _kernel_c is not None:
    _BACKENDS["c"] = _kernel_c.solve


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def default_backend() -> str:
    return "c" if "c" in _BACKENDS else "python"


def _kernel(backend: str | None, colors: int) -> Callable:
    """The selected backend's solve function, once `colors` is in 1..62.

    A point's forbidden colors are one 64-bit word in the compiled kernel.
    """
    name = backend if backend is not None else default_backend()
    try:
        fn = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None
    if not 1 <= colors <= 62:
        raise ValueError(f"colors must be in 1..62, got {colors}")
    return fn


def solve_avoidability(
    num_points: int,
    colors: int,
    constraints: Iterable[Sequence[int]],
    order: Iterable[int],
    backend: str | None = None,
) -> tuple[bool, list[int] | None]:
    """Bring the input to the kernel contract and dispatch to the kernel.

    `constraints` and `order` may be any iterables, each read once, and a
    point repeated within a constraint counts once.  Raises ValueError for
    a color count outside 1..62, an empty constraint, or a point index, in
    a constraint or in `order`, outside [0, num_points).  A constraint of
    one distinct point is monochromatic under every coloring, so it gives
    (False, None) without a search.

    With an `order` that leaves constrained points out, True only means that
    the listed points color without a conflict; points never reached are
    reported as 0.  For example ``solve_avoidability(4, 3, [(0, 1), (0, 2),
    (0, 3), (1, 2), (1, 3), (2, 3)], [])`` returns (True, [0, 0, 0, 0]),
    although no 3-coloring of these four points avoids every pair.
    """
    fn = _kernel(backend, colors)
    constraints = [tuple(dict.fromkeys(c)) for c in constraints]
    order = list(order)
    if not all(constraints):
        raise ValueError("constraints must be non-empty")
    points = list(chain.from_iterable(constraints))
    lo = min(min(points, default=0), min(order, default=0))
    hi = max(max(points, default=-1), max(order, default=-1))
    if lo < 0 or hi >= num_points:
        raise ValueError(
            f"point indices must lie in [0, {num_points}), got {lo}..{hi}"
        )
    if 1 in map(len, constraints):
        return False, None
    return fn(num_points, colors, constraints, order)
