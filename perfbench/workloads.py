"""Workloads of the benchmark: instance lists, pinned answers, and the
untraced and traced forms of one pass.

Importing this module imports ``rado`` and builds the fixed instances; the
benchmark times that, plus ``make``, as its set-up.

An untraced pass calls the public entry points a user calls.  A traced pass
replays the same work through the layer functions underneath them
(``count_solutions``, ``build_constraints``, ``_branch_order``,
``solve_avoidability``) with a span around each call, and must reach the
same answers.  Pinned answers were taken from the library at the commit that
added the benchmark; they do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import random
import traceback
from dataclasses import dataclass

from rado import (
    AVOIDABLE,
    TRIVIALLY_UNAVOIDABLE,
    UNAVOIDABLE,
    Coloring,
    ScalarSystem,
    SearchProblem,
    VectorSystem,
    available_backends,
    build_constraints,
    coloring_from_model,
    count_degenerate,
    count_monochromatic,
    count_solutions,
    default_backend,
    export_dimacs,
    find_avoiding_coloring,
    rado_number,
    solve_avoidability,
    verify_witness,
)
from rado.dpll import parse_dimacs, solve_cnf
from rado.search import _branch_order

from spans import NullTracer

SCHUR = VectorSystem.from_rows([[[1, 1, -1]]])
AP3 = VectorSystem.from_rows([[[-1, 1, 0, -1], [0, -1, 1, -1]]])
AP4 = VectorSystem.from_rows([[[-1, 1, 0, 0, -1], [0, -1, 1, 0, -1], [0, 0, -1, 1, -1]]])
# the paper's system: first coordinates a + b = c, second coordinates a 3-AP
FLAGSHIP = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])
DIAG_SCHUR = VectorSystem.diagonal(ScalarSystem.from_rows([[1, 1, -1]]), 2)

FLAGSHIP_2 = SearchProblem(FLAGSHIP, colors=2, mask=(0, 1, 2))
FLAGSHIP_3 = SearchProblem(FLAGSHIP, colors=3, mask=(0, 1, 2))
NONDEG_SCHUR_2 = SearchProblem(DIAG_SCHUR, colors=2, exclude_degenerate=True)
AP3_3 = SearchProblem(AP3, colors=3, mask=(0, 1, 2))

# the default backend first: its span is the one kernel.solve_s reports
BACKENDS = (default_backend(),) + tuple(
    b for b in available_backends() if b != default_backend()
)
FAILED = None  # the answer of a call that raised
FLAGSHIP_N16_DEGENERATE = 400  # degenerate tuples of mask 0,1,2 in [1,16]^2


@dataclass(frozen=True)
class Answer:
    """What one call returned; constraints is only known on a traced pass."""

    status: object  # a box's status, or a scan's (value, searched_to)
    witness: Coloring | None
    constraints: int | None = None


def attempt(fn, *args):
    """Run one timed call; a call that raises counts as a failed answer."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return FAILED


def decide(problem: SearchProblem, n: int, tracer) -> Answer:
    """``find_avoiding_coloring`` replayed layer by layer, every backend run."""
    span = tracer.span
    d, r = problem.system.d, problem.colors
    with span("box"):
        with span("lattice.enumerate"):
            tuples = count_solutions(problem.system, n)
        with span("search.build"):
            cs = build_constraints(problem, n)
        cons = cs.constraints
        tracer.count("search.boxes", 1)
        tracer.count("lattice.tuples", tuples)
        tracer.count("search.constraints", len(cons))
        if any(len(c) == 1 for c in cons):
            return Answer(TRIVIALLY_UNAVOIDABLE, None, len(cons))
        if not cons:
            return Answer(AVOIDABLE, Coloring.constant(n, d, r), len(cons))
        with span("search.order"):
            order = _branch_order(cs)
        results = []
        for backend in BACKENDS:
            with span(f"kernel.solve.{backend}"):
                results.append(solve_avoidability(n**d, r, cons, order, backend=backend))
    ok, assignment = results[0]
    if any(res != results[0] for res in results):
        return Answer("backends disagree", None, len(cons))
    if ok:
        return Answer(AVOIDABLE, Coloring(n, d, r, tuple(assignment)), len(cons))
    return Answer(UNAVOIDABLE, None, len(cons))


def _find(problem: SearchProblem, n: int) -> Answer:
    outcome = find_avoiding_coloring(problem, n)
    return Answer(outcome.status, outcome.witness)


def export_and_solve(problem: SearchProblem, n: int, tracer):
    """DIMACS text of the box and the DPLL checker's model (None if UNSAT)."""
    span = tracer.span
    with span("search.dimacs"):
        text = export_dimacs(problem, n)
    tracer.count("search.dimacs_bytes", len(text))
    with span("dpll.parse"):
        num_vars, clauses = parse_dimacs(text)
    with span("dpll.solve"):
        return text, solve_cnf(num_vars, clauses)


def certificate_ok(problem, final_n, witness, refuted, degenerate, tracer) -> bool:
    """Check an answer with code that shares nothing with the kernels.

    A witness must pass ``verify_witness`` and, when no tuple filter is set,
    colour no solution tuple monochromatically.  An unavoidable 2-colour box
    must give an unsatisfiable DIMACS CNF under the DPLL checker.  The
    degenerate-tuple count of the last box must match its pin.
    """
    span = tracer.span
    ok = True
    if witness is not None:
        with span("search.verify"):
            ok &= verify_witness(problem, witness).passed
        if not (problem.exclude_degenerate or problem.require_distinct):
            with span("lattice.count_mono"):
                mono = count_monochromatic(problem.system, witness, problem.mask)
            ok &= mono == [0] * problem.colors
    if refuted and problem.colors == 2:
        ok &= export_and_solve(problem, final_n, tracer)[1] is None
    with span("lattice.count_degenerate"):
        ok &= count_degenerate(problem.system, final_n, problem.mask) == degenerate
    return ok


@dataclass(frozen=True)
class Scan:
    """``rado_number`` up to max_n; value None means not found."""

    label: str
    problem: SearchProblem
    max_n: int
    value: int | None
    constraints: int  # summed over the boxes the scan decides
    degenerate: int  # degenerate tuples in the last box decided

    def __str__(self):
        return self.label

    @property
    def final_n(self) -> int:
        return self.value or self.max_n

    @property
    def refuted(self) -> bool:
        return self.value is not None

    @property
    def pinned(self):
        return (self.value, self.final_n)

    def call(self) -> Answer:
        result = rado_number(self.problem, self.max_n)
        return Answer((result.value, result.searched_to), result.witness)

    def replay(self, tracer) -> Answer:
        """The per-n sequence ``rado_number`` runs."""
        witness, constraints = None, 0
        for n in range(1, self.max_n + 1):
            box = decide(self.problem, n, tracer)
            constraints += box.constraints
            if box.status != AVOIDABLE:
                return Answer((n, n), witness, constraints)
            witness = box.witness
        return Answer((None, self.max_n), witness, constraints)


@dataclass(frozen=True)
class Box:
    """``find_avoiding_coloring`` at n."""

    label: str
    problem: SearchProblem
    final_n: int
    pinned: str  # status
    constraints: int
    degenerate: int

    def __str__(self):
        return self.label

    @property
    def refuted(self) -> bool:
        return self.pinned != AVOIDABLE

    def call(self) -> Answer:
        return _find(self.problem, self.final_n)

    def replay(self, tracer) -> Answer:
        return decide(self.problem, self.final_n, tracer)


class InstanceWorkload:
    """One call per Scan or Box instance; pins checked, certificates on demand."""

    def __init__(self, items):
        self.items = items

    def run_pass(self, order):
        answers = [FAILED] * len(self.items)
        for i in order:
            answers[i] = attempt(self.items[i].call)
        return answers

    def trace_pass(self, order, tracer):
        answers = [FAILED] * len(self.items)
        for i in order:
            with tracer.span("instance"):
                answers[i] = attempt(self.items[i].replay, tracer)
        return answers

    def pinned_ok(self, answers):
        return [
            a is not FAILED
            and a.status == it.pinned
            and a.constraints in (None, it.constraints)
            for it, a in zip(self.items, answers)
        ]

    def certify(self, answers, tracer):
        return [
            a is not FAILED and bool(attempt(
                certificate_ok, it.problem, it.final_n, a.witness,
                it.refuted, it.degenerate, tracer,
            ))
            for it, a in zip(self.items, answers)
        ]


SCAN = (
    Scan("flagship r=2", FLAGSHIP_2, 12, 9, 1246, 81),
    Scan("non-degenerate diagonal Schur r=2", NONDEG_SCHUR_2, 12, 7, 366, 31),
    Scan("Schur r=3", SearchProblem(SCHUR, colors=3), 20, 14, 222, 91),
    Scan("3-AP r=3", AP3_3, 30, 27, 1547, 169),
    Scan("flagship r=3", FLAGSHIP_3, 12, None, 5501, 192),
)

BIG_BOX = (
    Box("flagship r=3 n=16", FLAGSHIP_3, 16, AVOIDABLE, 6720, FLAGSHIP_N16_DEGENERATE),
    Box("non-degenerate diagonal Schur r=2 n=16", NONDEG_SCHUR_2, 16, UNAVOIDABLE, 7056, 288),
)

DEEP_SEARCH = (
    Box("Schur r=4 n=44", SearchProblem(SCHUR, colors=4), 44, AVOIDABLE, 470, 946),
    Box("3-AP r=3 n=27", AP3_3, 27, UNAVOIDABLE, 169, 169),
    Box("weak Schur r=3 n=24", SearchProblem(SCHUR, colors=3, require_distinct=True),
        24, UNAVOIDABLE, 132, 276),
    Box("4-AP r=2 n=35", SearchProblem(AP4, colors=2, mask=(0, 1, 2, 3)),
        35, UNAVOIDABLE, 187, 187),
    Box("flagship r=2 n=9", FLAGSHIP_2, 9, UNAVOIDABLE, 576, 81),
)

# sha256 of export_dimacs output, bit-exact across runs
FLAGSHIP_2_N9_CNF = "4639043c9d3d768be4c65c48192be98bb416b07ef17ce8e42581eabf0eaa4ee9"
FLAGSHIP_3_N12_CNF = "0475d7001cc0f2cdd7da7dbcabe0dd14c5e66f72f509368496854a9d15cd3b52"


class CertifyWorkload:
    """The checking path: DIMACS export, DPLL, witness verification, counts.

    Here the checking calls are the timed work.  The second random colouring
    is the complement of the first, so its monochromatic counts are the
    first's reversed whatever the seed.
    """

    items = ("refute flagship r=2 n=9", "model flagship r=3 n=12",
             "mono counts of random colourings", "degenerate count flagship n=16")

    def __init__(self, seed: int):
        rng = random.Random(f"colourings-{seed}")
        colors = tuple(rng.randrange(2) for _ in range(20 * 20))
        self.colorings = (
            Coloring(20, 2, 2, colors),
            Coloring(20, 2, 2, tuple(1 - c for c in colors)),
        )

    def run_pass(self, order):
        return self._pass(order, NullTracer(), _find)

    def trace_pass(self, order, tracer):
        return self._pass(order, tracer, lambda p, n: decide(p, n, tracer))

    def _pass(self, order, tracer, decider):
        steps = (
            lambda: self._refute(tracer, decider),
            lambda: self._model(tracer),
            lambda: self._mono(tracer),
            lambda: self._degenerate(tracer),
        )
        answers = [FAILED] * len(steps)
        for i in order:
            with tracer.span("instance"):
                answers[i] = attempt(steps[i])
        return answers

    @staticmethod
    def _refute(tracer, decider):
        text, model = export_and_solve(FLAGSHIP_2, 9, tracer)
        return text, model is None, decider(FLAGSHIP_2, 9).status

    @staticmethod
    def _model(tracer):
        text, model = export_and_solve(FLAGSHIP_3, 12, tracer)
        coloring = coloring_from_model(12, 2, 3, model)
        with tracer.span("search.verify"):
            passed = verify_witness(FLAGSHIP_3, coloring).passed
        with tracer.span("lattice.count_mono"):
            mono = count_monochromatic(FLAGSHIP, coloring, FLAGSHIP_3.mask)
        return text, passed, mono

    def _mono(self, tracer):
        with tracer.span("lattice.count_mono"):
            return [count_monochromatic(FLAGSHIP, c, FLAGSHIP_2.mask) for c in self.colorings]

    @staticmethod
    def _degenerate(tracer):
        with tracer.span("lattice.count_degenerate"):
            return count_degenerate(FLAGSHIP, 16, FLAGSHIP_2.mask)

    def pinned_ok(self, answers):
        refute, model, mono, degenerate = answers
        return [
            refute is not FAILED and _sha256(refute[0]) == FLAGSHIP_2_N9_CNF
            and refute[1:] == (True, UNAVOIDABLE),
            model is not FAILED and _sha256(model[0]) == FLAGSHIP_3_N12_CNF
            and model[1:] == (True, [0, 0, 0]),
            mono is not FAILED and mono[1] == mono[0][::-1] and sum(mono[0]) > 0,
            degenerate == FLAGSHIP_N16_DEGENERATE,
        ]

    def certify(self, answers, tracer):
        return [True] * len(answers)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def make(name: str, seed: int):
    if name == "scan":
        return InstanceWorkload(SCAN)
    if name == "big-box":
        return InstanceWorkload(BIG_BOX)
    if name == "deep-search":
        return InstanceWorkload(DEEP_SEARCH)
    if name == "certify":
        return CertifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
