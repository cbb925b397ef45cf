"""Small DPLL satisfiability check plus a DIMACS reader.

An independent cross-check for exported CNF instances: it shares no code
with the search kernels and works directly on clause lists.  When a literal
becomes false, each clause that contains it counts its literals that are not
false, stopping at two: a true one means satisfied, none a conflict and one
unassigned a unit to propagate.  Clauses keep no state, so backtracking only
unassigns the trail.  Branching follows a static most-occurrences order with
True tried before False, so results are deterministic.  The search is one
loop over an explicit stack, one entry per open branch point, so it takes no
Python frames however deep it goes.

Before the search, one pass over all the literals checks the formula, and a
formula that fails it is normalised clause by clause.  Each literal's
occurrence list names a clause once, even where the clause repeats the
literal, so repeats do not change the branching order or the model.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from typing import Iterable


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    """Read a DIMACS CNF document into (num_vars, clauses).

    Comment and header lines are found with one pass of string methods.  The
    literals between two of them are converted together, so a bad literal
    above a bad header is still reported first.  The header's two counts must
    be non-negative integers; the clause count is not checked against the
    clauses read.
    """
    # the closing comment line ends the last stretch of literals
    lines = [*map(str.strip, text.splitlines()), "c"]
    num_vars = 0
    lits: list[int] = []
    saw_header = False
    start = 0
    for i in compress(count(), map(str.startswith, lines, repeat(("c", "p")))):
        lits += _literals(" ".join(lines[start:i]).split())
        start = i + 1
        line = lines[i]
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(map(str.isdecimal, parts[2:])):
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            saw_header = True
    if not saw_header:
        raise ValueError("missing 'p cnf' header")
    clauses: list[list[int]] = []
    current: list[int] = []
    for lit in lits:
        if lit:
            current.append(lit)
        else:
            clauses.append(current)
            current = []
    if current:
        clauses.append(current)
    return num_vars, clauses


def _literals(tokens: list[str]) -> list[int]:
    """The tokens as ints, converting each distinct token once.

    A CNF repeats few distinct literals, and ``int`` is the costly step.
    """
    distinct = set(tokens)
    try:
        table = dict(zip(distinct, map(int, distinct)))
    except ValueError:
        # convert in order instead, to report the first bad token
        table = dict(zip(tokens, map(int, tokens)))
    return list(map(table.__getitem__, tokens))


def _plain_size(num_vars: int, cls: list) -> int | None:
    """The number of literals in cls, or None unless the search can read it as is.

    That takes clauses that are non-empty lists or tuples of exact ints in
    [-num_vars, num_vars], with no 0.
    """
    if not ({*map(type, cls)} <= {list, tuple} and all(cls)):
        return None
    flat = [*chain.from_iterable(cls)]
    if {*map(type, flat)} <= {int}:
        # bool and float literals would merge with int ones in a set
        lits = {*flat}
        if 0 not in lits and -num_vars <= min(lits, default=0) and max(lits, default=0) <= num_vars:
            return len(flat)
    return None


def solve_cnf(num_vars: int, clauses: Iterable[Iterable[int]]) -> list[bool] | None:
    """Model as a 1-indexed list of bools (index 0 unused), or None if UNSAT.

    Variables absent from every clause are reported False.  A formula of
    non-empty list or tuple clauses of exact ints in [-num_vars, num_vars],
    with no 0, passes one check over all its literals and is searched with no
    per-clause copy.  Any other is normalised clause by clause through
    ``int``: an empty clause returns None and a 0 or out-of-range literal
    raises ValueError, whichever comes first.  A repeated literal is listed
    once in its occurrence list and dropped from the clause that repeats it,
    so the model is that of the clauses' sorted distinct literals.
    """
    if num_vars < 0:
        raise ValueError(f"number of variables {num_vars} is negative")
    cls = list(clauses)
    size = _plain_size(num_vars, cls)
    if size is None:
        normalised: list[list[int]] = []
        for clause in cls:
            lits = sorted(set(map(int, clause)))
            if not lits:
                return None
            if lits[0] < -num_vars or lits[-1] > num_vars or 0 in lits:
                bad = next(l for l in lits if l == 0 or abs(l) > num_vars)
                raise ValueError(f"literal {bad} out of range for {num_vars} variables")
            normalised.append(lits)
        cls = normalised

    # indexed by literal: -v wraps round to position 2 * num_vars + 1 - v
    occ: list[list[int]] = [[] for _ in range(2 * num_vars + 1)]
    for ci, lits in enumerate(cls):
        for l in lits:
            occ[l].append(ci)
    if size is not None and sum(map(len, map(set, occ))) < size:
        # a clause that repeats a literal sits in a row in that literal's list
        for i, o in enumerate(occ):
            if len(set(o)) < len(o):
                occ[i] = list(dict.fromkeys(o))
                for ci in {a for a, b in zip(o, o[1:]) if a == b}:
                    cls[ci] = list(dict.fromkeys(cls[ci]))
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

    # per open branch point: its order position, the trail mark before it
    # and the literal being tried there, v before -v
    stack: list[tuple[int, int, int]] = []
    idx = 0
    while True:
        while idx < len(order) and value[order[idx]] is not None:
            idx += 1
        if idx == len(order):
            return [value[v] is True for v in range(num_vars + 1)]
        lit = order[idx]
        mark = len(trail)
        while not assign(lit):
            undo(mark)
            # back up past the branch points that have tried both literals
            while lit < 0:
                if not stack:
                    return None
                idx, mark, lit = stack.pop()
                undo(mark)
            lit = -lit
        stack.append((idx, mark, lit))
        idx += 1
