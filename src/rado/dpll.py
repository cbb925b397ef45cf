"""Small DPLL satisfiability check plus a DIMACS reader.

An independent cross-check for exported CNF instances: it shares no code
with the search kernels and works directly on clause lists.  When a literal
becomes false, each clause that contains it counts its literals that are not
false, stopping at two: a true one means satisfied, none a conflict and one
unassigned a unit to propagate.  Clauses keep no state, so backtracking only
unassigns the trail.  Branching follows a static most-occurrences order with
True tried before False, so results are deterministic.
"""

from __future__ import annotations

import sys
from typing import Sequence


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Read a DIMACS CNF document into (num_vars, clauses)."""
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    saw_header = False
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            saw_header = True
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if not saw_header:
        raise ValueError("missing 'p cnf' header")
    return num_vars, clauses


def solve_cnf(num_vars: int, clauses: Sequence[Sequence[int]]) -> list[bool] | None:
    """Model as a 1-indexed list of bools (index 0 unused), or None if UNSAT.

    Variables absent from every clause are reported False.
    """
    cls: list[list[int]] = []
    for clause in clauses:
        if not clause:
            return None
        lits = sorted(set(int(l) for l in clause))
        for l in lits:
            if l == 0 or abs(l) > num_vars:
                raise ValueError(f"literal {l} out of range for {num_vars} variables")
        cls.append(lits)

    # indexed by literal: -v wraps round to position 2 * num_vars + 1 - v
    occ: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]
    for ci, lits in enumerate(cls):
        for l in lits:
            occ[l].append(ci)
    value: list[bool | None] = [None] * (2 * num_vars + 1)
    trail: list[int] = []

    def assign(lit: int) -> bool:
        """Make lit true and propagate units along the trail; False on a conflict."""
        head = len(trail)
        value[lit], value[-lit] = True, False
        trail.append(lit)
        while head < len(trail):
            lit = trail[head]
            head += 1
            for ci in occ[-lit]:
                unit = 0
                for l in cls[ci]:
                    x = value[l]
                    if x is None:
                        if unit:
                            break
                        unit = l
                    elif x:
                        break
                else:
                    if not unit:
                        return False
                    value[unit], value[-unit] = True, False
                    trail.append(unit)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            value[lit] = value[-lit] = None

    order = sorted(
        (v for v in range(1, num_vars + 1) if occ[v] or occ[-v]),
        key=lambda v: (-(len(occ[v]) + len(occ[-v])), v),
    )

    def dfs(idx: int) -> bool:
        while idx < len(order) and value[order[idx]] is not None:
            idx += 1
        if idx == len(order):
            return True
        v = order[idx]
        mark = len(trail)
        for lit in (v, -v):
            if assign(lit) and dfs(idx + 1):
                return True
            undo(mark)
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, num_vars * 2 + 100))
    try:
        return [value[v] is True for v in range(num_vars + 1)] if dfs(0) else None
    finally:
        sys.setrecursionlimit(old_limit)
