"""Structured additive sets built from generator tuples.

An (m,p,c)-set over generators g_1 > ... is the union, over i, of the values
c*g_i + sum of lambda_j*g_j for j > i with each lambda_j in [-p, p] (the empty
sum for i = m).  All values must be positive integers; generator tuples that
produce a non-positive value are rejected rather than filtered, so a generated
set always represents the whole object.

d-dimensional variants are Cartesian products of per-coordinate sets; the
coordinates may use different (m,p,c) parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import BudgetExceededError, DimensionMismatchError, InvalidGeneratorsError
from .lattice import DEFAULT_BUDGET, Coloring, Point
from .systems import ScalarSystem


@dataclass(frozen=True)
class MpcSpec:
    """Parameters: generator count m, coefficient bound p, leading coefficient c."""

    m: int
    p: int
    c: int

    def __post_init__(self):
        for name, value in (("m", self.m), ("p", self.p), ("c", self.c)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


# One MpcSpec per coordinate.
VectorMpcSpec = tuple[MpcSpec, ...]


def uniform_vector_spec(spec: MpcSpec, d: int) -> VectorMpcSpec:
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return (spec,) * d


def _check_generators(spec: MpcSpec, gens: Sequence[int]) -> None:
    if len(gens) != spec.m:
        raise ValueError(f"expected {spec.m} generators, got {len(gens)}")
    for g in gens:
        if not isinstance(g, int) or g < 1:
            raise ValueError(f"generators must be positive integers, got {g!r}")


def _elements(spec: MpcSpec, gens: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """(generator index, coefficient tuple, value) in deterministic order."""
    m, p, c = spec.m, spec.p, spec.c
    for i in range(m):
        tail = gens[i + 1 :]
        base = c * gens[i]
        for lambdas in product(range(-p, p + 1), repeat=m - i - 1):
            value = base
            for lam, g in zip(lambdas, tail):
                value += lam * g
            yield i, lambdas, value


def generate_mpc(spec: MpcSpec, gens: Sequence[int]) -> tuple[int, ...]:
    """The full generated set, deduplicated and sorted ascending."""
    _check_generators(spec, gens)
    values = set()
    for i, lambdas, value in _elements(spec, gens):
        if value < 1:
            raise InvalidGeneratorsError(i, lambdas, value)
        values.add(value)
    return tuple(sorted(values))


def validate_generators(spec: MpcSpec, gens: Sequence[int]) -> None:
    """Raise InvalidGeneratorsError on the first combination with value <= 0."""
    generate_mpc(spec, gens)


def generate_mpc_vector(
    specs: Sequence[MpcSpec], gens_list: Sequence[Sequence[int]]
) -> tuple[Point, ...]:
    """Cartesian product of the per-coordinate sets, as sorted points."""
    if len(specs) != len(gens_list):
        raise DimensionMismatchError(
            f"{len(specs)} coordinate specs but {len(gens_list)} generator tuples"
        )
    sets = []
    for i, (spec, gens) in enumerate(zip(specs, gens_list)):
        try:
            sets.append(generate_mpc(spec, gens))
        except InvalidGeneratorsError as e:
            raise InvalidGeneratorsError(e.index, e.lambdas, e.value, coordinate=i) from e
    return tuple(product(*sets))


def embed_mpc(
    m: int, p: int, c: int, low_exp: int, high_exp: int, gens: Sequence[int]
) -> tuple[int, ...]:
    """Scale generators of an (m, c^(high-low)*p, c^high)-set down one level.

    Returns h_i = c^(high_exp - low_exp) * g_i and checks, by generating both
    sides, that the (m, p, c^low_exp)-set on h is contained in the original
    set on g.  The containment is forced by the algebra (each element of the
    inner set rewrites as an element of the outer set with scaled-up
    coefficients), so a failure indicates a bug and raises RuntimeError.
    """
    if low_exp < 1:
        raise ValueError("low exponent must be at least 1")
    if high_exp <= low_exp:
        raise ValueError("high exponent must exceed low exponent")
    factor = c ** (high_exp - low_exp)
    outer_spec = MpcSpec(m, factor * p, c**high_exp)
    inner_spec = MpcSpec(m, p, c**low_exp)
    outer = generate_mpc(outer_spec, gens)
    scaled = tuple(factor * g for g in gens)
    inner = generate_mpc(inner_spec, scaled)
    if not set(inner) <= set(outer):
        raise RuntimeError(
            "scaled-set containment failed; this contradicts the defining algebra"
        )
    return scaled


def find_mono_mpc(coloring: Coloring, spec: MpcSpec) -> tuple[int, ...] | None:
    """First generator tuple (lexicographic) whose set is monochromatic in [1,n].

    Exhausts g in [1,n]^m; a candidate is abandoned as soon as a generated
    value leaves [1,n] or a second color appears.
    """
    if coloring.d != 1:
        raise DimensionMismatchError("monochromatic set search needs a 1-d coloring")
    n = coloring.n
    colors = coloring.colors
    for gens in product(range(1, n + 1), repeat=spec.m):
        color = -1
        ok = True
        for _i, _lambdas, value in _elements(spec, gens):
            if value < 1 or value > n:
                ok = False
                break
            c = colors[value - 1]
            if color < 0:
                color = c
            elif c != color:
                ok = False
                break
        if ok:
            return gens
    return None


def mpc_contains_solution(
    spec: MpcSpec,
    gens: Sequence[int],
    system: ScalarSystem,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...] | None:
    """First k-tuple over the generated set solving the system, or None."""
    elements = generate_mpc(spec, gens)
    k = system.variables
    total = len(elements) ** k
    if total > budget:
        raise BudgetExceededError(total, budget)
    rows = system.coeffs
    for cand in product(elements, repeat=k):
        if all(sum(a * x for a, x in zip(row, cand)) == 0 for row in rows):
            return cand
    return None
