import ast
import gc
import hashlib
import inspect
import random
import re
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from rado import _kernel_py, kernel
from rado.dpll import solve_cnf
from rado.kernel import available_backends, default_backend, solve_avoidability
from rado.search import (
    AVOIDABLE,
    UNAVOIDABLE,
    SearchProblem,
    _branch_order,
    build_constraints,
    find_avoiding_coloring,
)
from rado.systems import ScalarSystem, VectorSystem

from oracles import avoidable_all_colorings

BACKENDS = available_backends()


def whole(message):
    """A pattern that matches exactly this message."""
    return f"^{re.escape(message)}$"


def check_witness(constraints, colors):
    return all(len({colors[i] for i in con}) > 1 for con in constraints)


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernel:
    def test_no_constraints(self, backend):
        ok, colors = solve_avoidability(3, 2, [], [], backend=backend)
        assert ok and colors == [0, 0, 0]

    def test_single_pair(self, backend):
        ok, colors = solve_avoidability(2, 2, [(0, 1)], [0, 1], backend=backend)
        assert ok and colors[0] != colors[1]

    def test_one_color_unavoidable(self, backend):
        ok, _ = solve_avoidability(2, 1, [(0, 1)], [0, 1], backend=backend)
        assert not ok

    def test_triangle_two_colors(self, backend):
        cons = [(0, 1), (1, 2), (0, 2)]
        ok, _ = solve_avoidability(3, 2, cons, [0, 1, 2], backend=backend)
        assert not ok
        ok3, colors = solve_avoidability(3, 3, cons, [0, 1, 2], backend=backend)
        assert ok3 and check_witness(cons, colors)

    def test_pair_colors_partner_outside_order(self, backend):
        # 1 is colored only because its one partner took color 0
        assert solve_avoidability(2, 2, [(0, 1)], [0], backend=backend) == (True, [0, 1])
        cons = [(0, 1), (1, 2), (0, 1, 3)]
        assert solve_avoidability(4, 2, cons, [0], backend=backend) == (True, [0, 1, 0, 0])

    @pytest.mark.parametrize("singleton", [(1,), (1, 1)], ids=["one", "repeated"])
    @pytest.mark.parametrize("order", [[0], [0, 1]], ids=["outside-order", "in-order"])
    def test_singleton_is_unavoidable(self, backend, singleton, order):
        # a set of one distinct point is monochromatic under every coloring,
        # whether or not the search may branch on that point
        assert solve_avoidability(2, 2, [singleton], order, backend=backend) == (False, None)
        cons = [(0, 1), singleton]
        assert solve_avoidability(2, 2, cons, order, backend=backend) == (False, None)

    def test_one_shot_iterables_are_read_once(self, backend):
        # no 2-coloring of a triangle avoids its sides; reading a generator
        # of the sides, or of the order, twice would search an empty copy
        sides = [(0, 1), (1, 2), (0, 2)]
        assert solve_avoidability(
            3, 2, (c for c in sides), [0, 1, 2], backend=backend
        ) == (False, None)
        assert solve_avoidability(
            3, 2, sides, (p for p in [0, 1, 2]), backend=backend
        ) == (False, None)

    def test_color_count_cap(self, backend):
        with pytest.raises(ValueError):
            solve_avoidability(1, 63, [], [], backend=backend)

    @pytest.mark.parametrize(
        "num_points, colors, constraints, order, message",
        [
            (2, 2, [(0, 1)], [0, 7], "point indices"),  # order index past the last point
            (2, 2, [(0, 5)], [0, 1], "point indices"),  # constraint index past the last point
            (2, 2, [(0, -1)], [0, 1], "point indices"),  # negative index, no wrap-around
            (2, 2, [(0, 1)], [-1], "point indices"),
            (2, 0, [(0, 1)], [0, 1], "colors"),
            (2, -1, [(0, 1)], [0, 1], "colors"),
            (2, 2, [()], [0, 1], "non-empty"),
            # the empty order still counts as 0 at the low end
            (5, 2, [(1, 7)], [], whole("point indices must lie in [0, 5), got 0..7")),
            (5, 2, [(1, 2)], [9], whole("point indices must lie in [0, 5), got 1..9")),
            (5, 2, [(3, 4)], [6, 2], whole("point indices must lie in [0, 5), got 2..6")),
            # 63 colors: test_color_count_cap
        ],
        ids=["order-7", "constraint-5", "constraint-neg", "order-neg",
             "colors-0", "colors-neg", "constraint-empty",
             "range-empty-order", "range-from-order", "range-across-both"],
    )
    def test_rejects_bad_input(
        self, backend, num_points, colors, constraints, order, message
    ):
        with pytest.raises(ValueError, match=message):
            solve_avoidability(num_points, colors, constraints, order, backend=backend)


def test_python_search_state_is_freed_on_return():
    # the 3-term progressions of 0..8: no 2-coloring avoids them all
    aps = [(a, a + s, a + 2 * s) for s in range(1, 5) for a in range(9 - 2 * s)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert solve_avoidability(9, 2, aps, range(9), backend="python") == (False, None)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("limit", [1000, 2 * 1200 + 200], ids=["default", "raised"])
def test_python_kernel_branches_past_the_recursion_limit(limit):
    # 1,200 nested branch points would need more frames than the default
    # limit; the kernel's search takes none per branch point and leaves the
    # limit as it was
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        assert _kernel_py.solve(1200, 2, [], list(range(1200))) == (True, [0] * 1200)
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(old)
    if "c" in BACKENDS:
        got = solve_avoidability(1200, 2, [], range(1200), backend="c")
        assert got == (True, [0] * 1200)


@pytest.mark.parametrize("backend", BACKENDS)
def test_search_runs_800_frames_deep(backend, call_deep):
    got = call_deep(solve_avoidability, 300, 2, [], range(300), backend=backend)
    assert got == (True, [0] * 300)


def test_searches_leave_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"a search set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert _kernel_py.solve(1200, 2, [], list(range(1200))) == (True, [0] * 1200)
    # the formula of test_dpll's deep-formula test
    clauses = [[2 * i + 1, 2 * i + 2] for i in range(1500)]
    model = solve_cnf(3000, clauses)
    assert model is not None
    assert all(model[a] or model[b] for a, b in clauses)


def test_no_function_calls_itself():
    # a call to a function's own name, or to self.name / cls.name inside a
    # method, anywhere in its body (nested functions included)
    recursive = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "rado").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    recursive.append(f"{path.name}:{node.lineno} {fn.name}")
    assert recursive == []


def test_unknown_backend_is_refused():
    message = f"unknown kernel backend 'fortran'; available: {available_backends()}"
    with pytest.raises(ValueError, match=whole(message)):
        solve_avoidability(2, 2, [], [], backend="fortran")


def _compiled_extension_imports():
    try:
        import rado._kernel_c  # noqa: F401
    except ImportError:
        return False
    return True


def test_compiled_backend_is_present():
    # the dispatcher offers and prefers "c" exactly when the extension imports;
    # whether it was built at all is reported by test_compiled_backend_is_built
    compiled = _compiled_extension_imports()
    assert "python" in BACKENDS
    assert ("c" in BACKENDS) == compiled
    assert default_backend() == ("c" if compiled else "python")


def test_compiled_backend_is_built():
    pytest.importorskip(
        "rado._kernel_c",
        reason="compiled kernel not built (needs a C compiler and Python.h)",
    )
    assert "c" in BACKENDS
    assert default_backend() == "c"


needs_c = pytest.mark.skipif("c" not in BACKENDS, reason="compiled kernel not built")


@needs_c
def test_compiled_signature_matches_python():
    import rado._kernel_c

    compiled = inspect.signature(rado._kernel_c.solve).parameters
    assert list(compiled) == list(inspect.signature(_kernel_py.solve).parameters)


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


@needs_c
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_compiled_search_stops_on_signal():
    # weak Schur, 4 colors, n = 66: avoidable, but the C kernel needs about
    # 18 s to find a coloring (2-vCPU x86-64 VM); a handler that raises must
    # stop it long before that, as Ctrl-C does
    schur = VectorSystem((ScalarSystem.from_rows([[1, 1, -1]]),))
    weak_schur = SearchProblem(schur, colors=4, require_distinct=True)
    cs = build_constraints(weak_schur, 66)
    order = _branch_order(cs)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Interrupted):
            solve_avoidability(66, 4, cs.constraints, order, backend="c")
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # without the signal check the handler would run only after the search
    assert elapsed < 2
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert solve_avoidability(3, 2, triangle, [0, 1, 2], backend="c") == (False, None)
    ok, colors = solve_avoidability(3, 3, triangle, [0, 1, 2], backend="c")
    assert ok and check_witness(triangle, colors)


@needs_c
def test_compiled_search_takes_no_c_stack_per_branch_point():
    # one open branch point per point, 200,000 deep: a C frame per branch
    # point overflows the main thread's stack long before that.  Never run
    # these on the Python kernel: its snapshots grow with depth x points
    got = solve_avoidability(200_000, 2, [], range(200_000), backend="c")
    assert got == (True, [0] * 200_000)
    # a 20,000-point chain of pairs at r=3 in a thread with a 512 KiB stack
    chain = [(i, i + 1) for i in range(19_999)]
    got = []
    threading.stack_size(512 * 1024)
    try:
        thread = threading.Thread(
            target=lambda: got.append(
                solve_avoidability(20_000, 3, chain, range(20_000), backend="c")
            )
        )
        thread.start()
        thread.join(timeout=60)
    finally:
        threading.stack_size(0)
    assert not thread.is_alive()
    assert got == [(True, [i % 2 for i in range(20_000)])]


@pytest.mark.parametrize("backend", BACKENDS)
def test_branches_on_a_point_with_two_colors_left(backend):
    # 0 takes color 0, which forbids 0 at 3.  3 now has two colors left, so
    # the search branches on it, not on order[1]: it takes 1 (it may not
    # introduce color 2), which forbids 1 at 2; 2 has two left then and takes
    # 0, which forbids 0 at 1, and 1 takes 1.  The static order would color
    # 1 with 0 next and answer [0, 0, 1, 2].
    cons = [(0, 3), (1, 2), (2, 3)]
    assert solve_avoidability(4, 3, cons, range(4), backend=backend) == (
        True, [0, 1, 0, 1],
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_looks_for_two_colors_left_only_near_the_front(backend):
    # the same constraints with LOOKAHEAD unconstrained points between 2 and
    # 3 in the order: 3 has two colors left after 0 takes 0, but it lies
    # beyond the window, so the search colors 1 with 0 and 2 with 1 in order,
    # which forces 3 to 2, as the static order answers
    pad = _kernel_py.LOOKAHEAD
    cons = [(0, 3), (1, 2), (2, 3)]
    order = [0, 1, 2, *range(4, 4 + pad), 3]
    assert solve_avoidability(4 + pad, 3, cons, order, backend=backend) == (
        True, [0, 0, 1, 2] + [0] * pad,
    )


def test_lookahead_is_equal_in_both_kernels():
    # the window tests would still pass with a smaller C window, so the
    # define itself is compared
    source = Path(__file__).resolve().parent.parent / "src" / "rado" / "_kernel_c.c"
    (value,) = re.findall(r"^#define LOOKAHEAD (\d+)\b", source.read_text(), re.M)
    assert int(value) == _kernel_py.LOOKAHEAD


def fail_first_instances():
    """300 random (num_points, colors, constraints, order) instances.

    Three or four colors, full orders, shuffled: the instances on which the
    fail-first rule can branch away from the order.  Small enough for
    ``avoidable_all_colorings``.
    """
    rng = random.Random(23)
    for _ in range(300):
        r = rng.choice([3, 4])
        num_points = rng.randint(6, 9 if r == 3 else 8)
        cons = [
            tuple(rng.sample(range(num_points), rng.choice([2, 3])))
            for _ in range(rng.randint(2 * num_points, 3 * num_points))
        ]
        yield num_points, r, cons, rng.sample(range(num_points), num_points)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fail_first_branching_keeps_answers_exact(backend):
    # the rule changes which point is branched on, never the status or the
    # validity of a witness
    statuses = set()
    for num_points, r, cons, order in fail_first_instances():
        ok, colors = solve_avoidability(num_points, r, cons, order, backend=backend)
        assert ok == avoidable_all_colorings(num_points, r, cons), (num_points, r, cons, order)
        if ok:
            assert check_witness(cons, colors), (num_points, r, cons, order, colors)
        statuses.add(ok)
    assert statuses == {True, False}


def test_backends_match_brute_force_and_each_other():
    rng = random.Random(4321)
    for _ in range(300):
        num_points = rng.randint(2, 8)
        r = rng.choice([1, 2, 2, 2, 3, 3, 4])
        cons = sorted(
            {
                tuple(sorted(rng.sample(range(num_points), rng.randint(2, min(4, num_points)))))
                for _ in range(rng.randint(1, 10))
            }
        )
        order = list(range(num_points))
        expected = avoidable_all_colorings(num_points, r, cons)
        results = {}
        for backend in BACKENDS:
            ok, colors = solve_avoidability(num_points, r, cons, order, backend=backend)
            assert ok == expected, (num_points, r, cons, backend)
            if ok:
                assert check_witness(cons, colors)
            results[backend] = (ok, colors)
        assert len(set(map(repr, results.values()))) == 1, (
            "backends diverged",
            results,
        )


# sha256 of the repr of the 300 (ok, colors) answers below: every backend
# must give them, so the test checks propagation with one backend too
PROPAGATION_ANSWERS = "37a725f524da9b836011866985d5b9779397541d32bcd3986ade5519c8ea8faa"


def propagation_instances():
    """300 random (num_points, colors, constraints, order) instances.

    The orders are shuffled and often partial: points left out of `order`
    are colored only by propagation, a path that the brute-force test above
    never reaches.
    """
    rng = random.Random(2024)
    for _ in range(300):
        num_points = rng.randint(2, 60)
        r = rng.randint(1, 5)
        cons = [
            tuple(rng.sample(range(num_points), rng.randint(2, min(5, num_points))))
            for _ in range(rng.randint(1, 4 * num_points))
        ]
        order = rng.sample(range(num_points), num_points)
        if rng.random() < 0.5:
            order = order[: rng.randint(0, num_points)]
        yield num_points, r, cons, order


def test_backends_match_on_propagation_and_partial_orders():
    statuses = set()
    propagated = 0
    answers = []
    for num_points, r, cons, order in propagation_instances():
        results = {
            backend: solve_avoidability(num_points, r, cons, order, backend=backend)
            for backend in BACKENDS
        }
        ok, colors = results["python"]
        assert all(res == (ok, colors) for res in results.values()), (
            num_points, r, cons, order, results,
        )
        statuses.add(ok)
        answers.append((ok, colors))
        if ok and any(colors[p] for p in set(range(num_points)) - set(order)):
            propagated += 1
    assert statuses == {True, False}
    assert propagated > 0
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == PROPAGATION_ANSWERS


def repeated_point_instances():
    """300 random (num_points, colors, constraints, order) instances.

    Constraints are drawn with replacement, so they often repeat a point:
    (0, 1, 1) has two distinct points and must propagate as the pair
    (0, 1).  Each has 2 to 5 entries and at least two distinct points.
    Orders are shuffled and half of them partial.  Small enough for
    ``avoidable_all_colorings``.
    """
    rng = random.Random(25)
    for _ in range(300):
        num_points = rng.randint(2, 7)
        r = rng.randint(1, 4)
        draws = [
            tuple(rng.choices(range(num_points), k=rng.randint(2, 5)))
            for _ in range(rng.randint(1, 3 * num_points))
        ]
        cons = [c for c in draws if len(set(c)) > 1]
        order = rng.sample(range(num_points), num_points)
        if rng.random() < 0.5:
            order = order[: rng.randint(0, num_points)]
        yield num_points, r, cons, order


def test_backends_match_on_repeated_points():
    statuses = set()
    repeated = 0
    for num_points, r, cons, order in repeated_point_instances():
        results = {
            backend: solve_avoidability(num_points, r, cons, order, backend=backend)
            for backend in BACKENDS
        }
        ok, colors = results["python"]
        assert all(res == (ok, colors) for res in results.values()), (
            num_points, r, cons, order, results,
        )
        if len(order) == num_points:
            assert ok == avoidable_all_colorings(num_points, r, cons), (
                num_points, r, cons, order,
            )
            if ok:
                assert check_witness(cons, colors), (num_points, r, cons, order, colors)
        statuses.add(ok)
        repeated += any(len(set(c)) < len(c) for c in cons)
    assert statuses == {True, False}
    assert repeated > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_repeated_last_point_loses_the_color(backend):
    # 0 takes 0, and (0, 1, 1) forbids 0 at 1 as the pair (0, 1) would, so
    # 1 has two colors left and takes 1; counting the entries of (0, 1, 1)
    # rather than its distinct points would leave 1 free to take 0 and
    # answer [0, 2, 1]
    cons = [(0, 0, 2), (0, 1, 1), (1, 1, 2)]
    assert solve_avoidability(3, 3, cons, [0, 1, 2], backend=backend) == (
        True, [0, 1, 2],
    )


def test_dispatcher_hands_the_kernel_its_contract(monkeypatch):
    # each constraint reaches the backend as its distinct points in
    # first-occurrence order, and the order as a list
    calls = []

    def record(num_points, colors, constraints, order):
        calls.append((constraints, order))
        return True, [0] * num_points

    monkeypatch.setitem(kernel._BACKENDS, "record", record)
    solve_avoidability(3, 2, [(0, 1, 1), (2, 0, 2, 1)], (2, 0), backend="record")
    assert calls == [([(0, 1), (2, 0, 1)], [2, 0])]


def test_answers_do_not_depend_on_constraint_order():
    # propagation reaches the same fixpoint, or a conflict, whatever order
    # the constraints and their points are visited in, and the branch points
    # and colors tried depend only on that fixpoint; the search relies on
    # this to hand the kernel its sets in build order
    rng = random.Random(22)
    for num_points, r, cons, order in propagation_instances():
        shuffled = [tuple(rng.sample(c, len(c))) for c in rng.sample(cons, len(cons))]
        for backend in BACKENDS:
            expected = solve_avoidability(num_points, r, cons, order, backend=backend)
            got = solve_avoidability(num_points, r, shuffled, order, backend=backend)
            assert got == expected, (num_points, r, cons, shuffled, order, backend)


def test_point_masks_match_a_walk_of_every_constraint():
    # pairs and triples are unpacked, not walked; each point's lists must
    # still hold every constraint of its shape, in constraint order and once
    # per point, as the C kernel visits them.  The kernels take no repeated
    # or one-point constraint, so the draws keep their distinct points, as
    # the dispatcher does, and the one-point ones are dropped.
    rng = random.Random(5)
    for _ in range(300):
        num_points = rng.randint(1, 12)
        cons = [
            tuple(dict.fromkeys(rng.choices(range(num_points), k=rng.randint(1, 5))))
            for _ in range(rng.randint(0, 30))
        ]
        cons = [c for c in cons if len(c) > 1]
        expected = tuple([[] for _ in range(num_points)] for _ in range(3))
        pairs, triples, larger = expected
        for c in cons:
            points = set(c)
            m = sum(1 << p for p in points)
            for p in points:
                if len(points) == 2:
                    (other,) = points - {p}
                    pairs[p].append(other)
                elif len(points) == 3:
                    triples[p].append(m)
                else:
                    larger[p].append(m)
        assert _kernel_py._point_masks(num_points, cons) == expected, cons


SCHUR = VectorSystem.from_rows([[[1, 1, -1]]])
AP3 = VectorSystem.from_rows([[[-1, 1, 0, -1], [0, -1, 1, -1]]])
AP4 = VectorSystem.from_rows([[[-1, 1, 0, 0, -1], [0, -1, 1, 0, -1], [0, 0, -1, 1, -1]]])
FLAGSHIP = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])

# the benchmark's kernel boxes: sha256 of bytes(assignment) for avoidable
# boxes, None for unavoidable ones; every backend must reproduce the
# reference kernel's answer decision for decision
BENCH_KERNEL_ANSWERS = {
    "schur-r4-n44": (
        SearchProblem(SCHUR, colors=4), 44,
        "3af4a2991887abb0e22c935000fa342c996176641713a2eb64f79f6f2d515767",
    ),
    "flagship-r3-mask-0,1,2-n16": (
        SearchProblem(FLAGSHIP, colors=3, mask=(0, 1, 2)), 16,
        "264e87e135b3c406fd367d88555de126fd6ef5f387b13878e0e852bd9ea45632",
    ),
    "3-ap-r3-n27": (SearchProblem(AP3, colors=3, mask=(0, 1, 2)), 27, None),
    "weak-schur-r3-n24": (
        SearchProblem(SCHUR, colors=3, require_distinct=True), 24, None,
    ),
    "4-ap-r2-n35": (SearchProblem(AP4, colors=2, mask=(0, 1, 2, 3)), 35, None),
    "flagship-r2-mask-0,1,2-n9": (
        SearchProblem(FLAGSHIP, colors=2, mask=(0, 1, 2)), 9, None,
    ),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label", BENCH_KERNEL_ANSWERS)
def test_bench_boxes_pinned(backend, label, monkeypatch):
    problem, n, digest = BENCH_KERNEL_ANSWERS[label]
    cs = build_constraints(problem, n)
    ok, colors = solve_avoidability(
        n**problem.system.d, problem.colors, cs.constraints, _branch_order(cs),
        backend=backend,
    )
    if digest is None:
        assert (ok, colors) == (False, None)
    else:
        assert ok and hashlib.sha256(bytes(colors)).hexdigest() == digest
    # the search hands the same backend the sets in build order
    monkeypatch.setattr("rado.kernel.default_backend", lambda: backend)
    outcome = find_avoiding_coloring(problem, n)
    if digest is None:
        assert (outcome.status, outcome.witness) == (UNAVOIDABLE, None)
    else:
        assert outcome.status == AVOIDABLE
        assert hashlib.sha256(bytes(outcome.witness.colors)).hexdigest() == digest

