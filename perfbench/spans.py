"""In-memory spans and counters for the traced run of the benchmark.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and the
index of the enclosing span (-1 for a root).  Counters are summed by name
until ``take_counts`` hands them over.  Nothing is written while the run
measures; ``run.py`` dumps the spans when it ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self._counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self._counts[name] += value

    def take_counts(self) -> dict[str, float]:
        counts, self._counts = dict(self._counts), defaultdict(float)
        return counts


class NullTracer:
    """Stand-in for untraced passes: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Self time of each span from index ``first`` on: its duration minus the
    part covered by its direct children."""
    out = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            out[s[3] - first] -= s[2] - s[1]
    return out


def subtree_self_totals(spans: list[list], root: int, selfs: list[float], first: int) -> dict[str, float]:
    """Self time summed by span name over ``root`` and its descendants.

    Spans are stored in start order, so a subtree is a contiguous run of
    indices starting at its root.
    """
    totals: dict[str, float] = defaultdict(float)
    inside = {root}
    for i in range(root, len(spans)):
        if i != root and spans[i][3] not in inside:
            break
        inside.add(i)
        totals[spans[i][0]] += selfs[i - first]
    return totals
