"""Backend selection for the avoidability-search kernel.

The compiled extension is preferred when it imported successfully; pass
``backend="python"`` to ``solve_avoidability`` to run the pure-Python
implementation instead.  Both backends implement the identical deterministic
algorithm, so results do not depend on the choice.
"""

from __future__ import annotations

from typing import Sequence

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


def solve_avoidability(
    num_points: int,
    colors: int,
    constraints: Sequence[Sequence[int]],
    order: Sequence[int],
    backend: str | None = None,
) -> tuple[bool, list[int] | None]:
    """Dispatch to the selected kernel; see ``_kernel_py.solve`` for the contract."""
    name = backend if backend is not None else default_backend()
    try:
        fn = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None
    return fn(num_points, colors, constraints, order)
