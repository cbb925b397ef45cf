import hashlib
import itertools
import random
import re
import sys
from collections import Counter

import pytest
from oracles import naive_constraints, naive_point_sets, plain_scan

from rado.dpll import parse_dimacs, solve_cnf
from rado.errors import BudgetExceededError, DimensionMismatchError
from rado.exactmath import rref
from rado.kernel import _kernel, available_backends, solve_avoidability
from rado.lattice import (
    DEFAULT_BUDGET,
    Coloring,
    _coordinate_solutions,
    _point_sets,
    count_monochromatic,
    is_degenerate,
    point_index,
)
from rado.search import (
    AVOIDABLE,
    TRIVIALLY_UNAVOIDABLE,
    UNAVOIDABLE,
    ConstraintSet,
    SearchProblem,
    _branch_order,
    _build,
    _decide,
    _extend,
    _scan,
    build_constraints,
    coloring_from_model,
    export_dimacs,
    find_avoiding_coloring,
    rado_number,
    verify_witness,
)
from rado.systems import ScalarSystem, VectorSystem

SCHUR = ScalarSystem.from_rows([[1, 1, -1]])
PROGRESSION = ScalarSystem.from_rows([[-1, 1, 0, -1], [0, -1, 1, -1]])
MOTIVATING = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])
SCHUR_W = MOTIVATING.coordinate_systems[0]  # a + b = c, with the dummy w free
DIAG_SCHUR = VectorSystem.diagonal(SCHUR, 2)
# x + y = 2z per coordinate: rows such as (2, 4, 3) and (4, 8, 6) share a
# primitive form without being equal, and the degenerate sets dominate many
# others, so excluding them raises the constraint count (64 -> 464 at n = 8)
MIDPOINT = VectorSystem.diagonal(ScalarSystem.from_rows([[1, 1, -2]]), 2)
# the dummy column is tied to the masked ones (w = 2x, w = 3x), so it cannot
# be scaled to match: degeneracy must come from the masked rows' primitive
# form, not the full rows' (which builds 3 sets instead of 2 at n = 3)
TIED_DUMMY = VectorSystem.from_rows([[[1, 1, -1, 0], [2, 0, 0, -1]], [[1, 1, -1, 0], [3, 0, 0, -1]]])
# the flagship's coordinate systems as (sum, progression, sum): the outer
# coordinates differ, so a base's outer rows can have mixed primitive forms
SUM_AP_SUM = VectorSystem((SCHUR_W, PROGRESSION, SCHUR_W))
AP4 = ScalarSystem.from_rows([[-1, 1, 0, 0, -1], [0, -1, 1, 0, -1], [0, 0, -1, 1, -1]])
# x + y + z = w: one class of three twin columns, so each solution tuple
# comes in up to six orders of its summands
SUM3 = ScalarSystem.from_rows([[1, 1, 1, -1]])
DIAG_SUM3 = VectorSystem.diagonal(SUM3, 2)

SCHUR_1D = SearchProblem(VectorSystem((SCHUR,)), colors=2)
VDW = SearchProblem(VectorSystem((PROGRESSION,)), colors=2, mask=(0, 1, 2))
MOTIV = SearchProblem(MOTIVATING, colors=2, mask=(0, 1, 2))


class TestBuildConstraints:
    def test_motivating_at_nine(self):
        cs = build_constraints(MOTIV, 9)
        # 36 first-coordinate sum pairs times 16 proper progressions, all of
        # size three and pairwise incomparable, so nothing collapses
        assert len(cs.constraints) == 576
        assert all(len(con) == 3 for con in cs.constraints)

    def test_empty_below_smallest_solution(self):
        assert build_constraints(SCHUR_1D, 1).constraints == ()

    def test_repeated_point_collapses(self):
        cs = build_constraints(SCHUR_1D, 2)
        assert cs.constraints == ((0, 1),)
        assert cs.decode((0, 1)) == ((1,), (2,))

    def test_dummy_projection_dedupes(self):
        # same masked set regardless of the dummy assignments
        raw = set()
        from rado.lattice import enumerate_vector_solutions

        for sol in enumerate_vector_solutions(MOTIVATING, 9):
            raw.add(tuple(sol.points[j] for j in (0, 1, 2)))
        assert len(raw) == 576

    def test_distinct_filter(self):
        strict = build_constraints(
            SearchProblem(VectorSystem((SCHUR,)), colors=2, require_distinct=True), 4
        )
        # x = y tuples like (1,1,2) are dropped, so only full triples remain
        assert all(len(c) == 3 for c in strict.constraints)
        assert (0, 1, 2) in strict.constraints  # 1 + 2 = 3
        assert (0, 1) not in strict.constraints

    @pytest.mark.parametrize(
        "system, n", [(DIAG_SCHUR, 6), (MIDPOINT, 8)], ids=["diagonal-schur-n6", "midpoint-n8"]
    )
    def test_degeneracy_filter_subset(self, system, n):
        # dropping degenerate sets can undo dominations, so the filtered build
        # need not be a subset of the plain one (midpoint n = 8 shares no set);
        # each filtered set still contains a plain one and is non-degenerate
        plain = build_constraints(SearchProblem(system, colors=2), n)
        nondeg = build_constraints(SearchProblem(system, colors=2, exclude_degenerate=True), n)
        assert any(is_degenerate(plain.decode(c)).degenerate for c in plain.constraints)
        plain_sets = [set(c) for c in plain.constraints]
        for con in nondeg.constraints:
            assert any(p <= set(con) for p in plain_sets)
            assert not is_degenerate(nondeg.decode(con)).degenerate

    def test_superset_elimination(self):
        # 1 + 1 = 2 gives {1, 2}, which lies inside {1, 2, 3} from 1 + 2 = 3;
        # a coloring that splits {1, 2} splits {1, 2, 3}, so only {1, 2} stays
        assert build_constraints(SCHUR_1D, 3).constraints == ((0, 1),)
        cs = build_constraints(SearchProblem(DIAG_SCHUR, colors=2), 5)
        sets = [frozenset(c) for c in cs.constraints]
        for a, b in itertools.combinations(sets, 2):
            assert not (a < b or b < a)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_constraints(MOTIV, 30, budget=10**4)


BUILD_PROBLEMS = {
    "schur": SCHUR_1D,
    "weak-schur": SearchProblem(VectorSystem((SCHUR,)), require_distinct=True),
    "3-ap": VDW,
    "4-ap": SearchProblem(VectorSystem((AP4,)), mask=(0, 1, 2, 3)),
    "diagonal-schur": SearchProblem(DIAG_SCHUR),
    "diagonal-schur-nondegenerate": SearchProblem(DIAG_SCHUR, exclude_degenerate=True),
    "flagship": SearchProblem(MOTIVATING),
    "flagship-mask-0,1,2": MOTIV,
    "flagship-mask-0,3": SearchProblem(MOTIVATING, mask=(0, 3)),
    "flagship-distinct": SearchProblem(MOTIVATING, require_distinct=True),
    "flagship-nondegenerate": SearchProblem(MOTIVATING, exclude_degenerate=True),
    "flagship-mask-0,1,2-nondegenerate": SearchProblem(
        MOTIVATING, mask=(0, 1, 2), exclude_degenerate=True
    ),
    "diagonal-schur-nondegenerate-distinct": SearchProblem(
        DIAG_SCHUR, exclude_degenerate=True, require_distinct=True
    ),
    # in one dimension every set is degenerate, so nothing is built
    "schur-nondegenerate": SearchProblem(VectorSystem((SCHUR,)), exclude_degenerate=True),
    "diagonal-schur-3d-nondegenerate": SearchProblem(
        VectorSystem.diagonal(SCHUR, 3), exclude_degenerate=True
    ),
    "midpoint-nondegenerate": SearchProblem(MIDPOINT, exclude_degenerate=True),
    "tied-dummy-mask-0,1,2-nondegenerate": SearchProblem(
        TIED_DUMMY, mask=(0, 1, 2), exclude_degenerate=True
    ),
    # one masked point: each set is one index
    "flagship-mask-0": SearchProblem(MOTIVATING, mask=(0,)),
    "flagship-mask-3": SearchProblem(MOTIVATING, mask=(3,)),
    "sum-ap-sum-3d-nondegenerate": SearchProblem(SUM_AP_SUM, exclude_degenerate=True),
    "sum-ap-sum-3d-mask-0,1,2-nondegenerate": SearchProblem(
        SUM_AP_SUM, mask=(0, 1, 2), exclude_degenerate=True
    ),
    "flagship-mask-0,1,2-nondegenerate-distinct": SearchProblem(
        MOTIVATING, mask=(0, 1, 2), exclude_degenerate=True, require_distinct=True
    ),
    "sum-of-three": SearchProblem(VectorSystem((SUM3,))),
    "diagonal-sum-of-three": SearchProblem(DIAG_SUM3),
    "diagonal-sum-of-three-nondegenerate": SearchProblem(DIAG_SUM3, exclude_degenerate=True),
    # the mask keeps x but not its twin y, so no twin rule applies
    "schur-mask-0,2": SearchProblem(VectorSystem((SCHUR,)), mask=(0, 2)),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("label", BUILD_PROBLEMS)
def test_empty_box_builds_nothing(label, n):
    # [1,n]^d holds no point for n < 1, so no solution tuple and no set
    problem = BUILD_PROBLEMS[label]
    assert build_constraints(problem, n) == ConstraintSet(n, problem.system.d, ())


# largest n at which the brute-force oracle is compared, per problem
ORACLE_MAX_N = {
    "schur": 12,
    "weak-schur": 12,
    "diagonal-schur": 6,
    "diagonal-schur-nondegenerate": 6,
    "flagship": 4,
    "flagship-mask-0,1,2": 4,
    "flagship-mask-0,3": 4,
    "flagship-distinct": 4,
    "flagship-nondegenerate": 4,
    "flagship-mask-0,1,2-nondegenerate": 4,
    "diagonal-schur-nondegenerate-distinct": 6,
    "schur-nondegenerate": 12,
    "diagonal-schur-3d-nondegenerate": 4,
    "midpoint-nondegenerate": 8,
    "tied-dummy-mask-0,1,2-nondegenerate": 6,
    "flagship-mask-0": 5,
    "flagship-mask-3": 5,
    "sum-ap-sum-3d-nondegenerate": 3,
    "sum-ap-sum-3d-mask-0,1,2-nondegenerate": 4,
    "flagship-mask-0,1,2-nondegenerate-distinct": 5,
    "sum-of-three": 12,
    "diagonal-sum-of-three": 7,
    "diagonal-sum-of-three-nondegenerate": 7,
    "schur-mask-0,2": 12,
}


@pytest.mark.parametrize(
    "label, n",
    [(label, n) for label, top in ORACLE_MAX_N.items() for n in range(1, top + 1)],
    ids=lambda v: v if isinstance(v, str) else f"n{v}",
)
def test_build_matches_oracle(label, n):
    problem = BUILD_PROBLEMS[label]
    rows = [s.coeffs for s in problem.system.coordinate_systems]
    expected = naive_constraints(
        rows, n, problem.mask, problem.require_distinct, problem.exclude_degenerate
    )
    assert build_constraints(problem, n).constraints == expected


@pytest.mark.parametrize("label, n", ORACLE_MAX_N.items())
def test_projection_keeps_every_point_set(label, n):
    # domination can hide a lost set from the build's output, so the
    # projection is compared before it: a twin filter that drops rows of
    # some orbit, or filters a list that another coordinate shares, loses
    # sets that no other set contains
    problem = BUILD_PROBLEMS[label]
    rows = [s.coeffs for s in problem.system.coordinate_systems]
    expected = naive_point_sets(rows, n, problem.mask, problem.exclude_degenerate)
    lists = _coordinate_solutions(problem.system, n, problem.mask, DEFAULT_BUDGET)
    sets = _point_sets(problem.system, n, problem.mask, lists, problem.exclude_degenerate)
    assert set(sets) == expected


# sha256 of repr(build_constraints(problem, n).constraints) for the benchmark's
# problems, as built by the pairwise domination pass; any change to the
# constraint tuples or their order changes them
BUILD_PINS = {
    ("flagship-mask-0,1,2", 9): "17b4bf2f6f0793923766073120dfbf441131ebbcaf0f3dd33705926edf138073",
    ("flagship-mask-0,1,2", 16): "684a7574bb0ed7ad294a006ce8df003cd8a195268ef417d7b17cacde88a24196",
    ("flagship", 9): "6e02cc807c3f59dbed3dff360e6132eba9ac928c7c76d92211004e18283058c3",
    ("flagship", 16): "1414403ab2869977a526898021ffbf2ec28878ca42528bfcacd08df306d70d41",
    ("diagonal-schur-nondegenerate", 9):
        "1f39bb9b20b937c8fa80ab633673923b7af3345c27274e92a378d26c8ed47ffc",
    ("diagonal-schur-nondegenerate", 16):
        "e848a316d94fb20dacaf164bf32dbcd96f43b6e1f3f7a1745880d40fb134cfc4",
    ("schur", 9): "19ec346eca12cf0c8728d70e52a13ae3db93b2f11d8a5c86e78d6dc904ee8459",
    ("schur", 16): "877f0d87573efe86ccc7364b7589ee6103f6fbaa89a2813e9448222549d3a0eb",
    ("3-ap", 9): "64291fa5a5573ea6e0f503815b47c2ac78d8203390280230e57afd627654f526",
    ("3-ap", 16): "2aaa2b585d393ac0ea8aa1a3edd2138feeb615bf57356b2e59d0a893abd5d3fd",
    ("weak-schur", 9): "3cf7270f64f1bf264dc59348c2d398a72685d29a67607f1b420a8bf65624c444",
    ("weak-schur", 16): "eba05fa9b2d7b40be3b1171fc17417990998788bf0f20ac222967db512381696",
    ("4-ap", 9): "4172afeaf20028093787a1404e633b66ab75f87efc5015fe8130788fc9f50d88",
    ("4-ap", 16): "b27b9a49b573846e2a865efa6679b619e733fec2fab6f6b105d44a2bfbea7dd1",
}


@pytest.mark.parametrize(
    "label, n", BUILD_PINS, ids=lambda v: v if isinstance(v, str) else f"n{v}"
)
def test_build_pinned(label, n):
    constraints = build_constraints(BUILD_PROBLEMS[label], n).constraints
    assert hashlib.sha256(repr(constraints).encode()).hexdigest() == BUILD_PINS[label, n]


@pytest.mark.parametrize(
    "label, n",
    [*ORACLE_MAX_N.items(), *BUILD_PINS],
    ids=lambda v: v if isinstance(v, str) else f"n{v}",
)
def test_branch_order(label, n):
    cs = build_constraints(BUILD_PROBLEMS[label], n)
    points = list(itertools.product(range(1, n + 1), repeat=cs.d))
    degree = Counter(i for con in cs.constraints for i in con)
    expected = sorted(degree, key=lambda i: (-degree[i], max(points[i]), points[i]))
    assert _branch_order(cs) == expected


class TestFindAvoidingColoring:
    def test_schur_four_avoidable(self):
        out = find_avoiding_coloring(SCHUR_1D, 4)
        assert out.status == AVOIDABLE
        assert verify_witness(SCHUR_1D, out.witness).passed

    def test_schur_five_unavoidable(self):
        assert find_avoiding_coloring(SCHUR_1D, 5).status == UNAVOIDABLE

    def test_motivating_eight_and_nine(self):
        out8 = find_avoiding_coloring(MOTIV, 8)
        assert out8.status == AVOIDABLE
        assert verify_witness(MOTIV, out8.witness).passed
        assert find_avoiding_coloring(MOTIV, 9).status == UNAVOIDABLE

    def test_trivially_unavoidable(self):
        # x1 = x2 forces the singleton {a} for every a
        equal = VectorSystem((ScalarSystem.from_rows([[1, -1]]),))
        out = find_avoiding_coloring(SearchProblem(equal, colors=2), 1)
        assert out.status == TRIVIALLY_UNAVOIDABLE
        assert out.forced_constraint == (((1,)),)

    @pytest.mark.parametrize(
        "system, mask, n",
        [
            # x + y = z with x = y: the built singletons are (0,), (1,), (2,)
            (SCHUR, (0, 1), 6),
            # 3y = 2x + 2z: the build makes x = 2 before x = 1
            (ScalarSystem.from_rows([[-2, 3, -2]]), (0,), 2),
        ],
    )
    def test_trivially_unavoidable_reports_the_first_singleton(self, system, mask, n):
        out = find_avoiding_coloring(SearchProblem(VectorSystem((system,)), 2, mask), n)
        assert out.status == TRIVIALLY_UNAVOIDABLE
        assert out.forced_constraint == ((1,),)

    def test_no_constraints_avoidable(self):
        out = find_avoiding_coloring(SCHUR_1D, 1)
        assert out.status == AVOIDABLE
        assert out.witness.colors == (0,)

    def test_restriction_monotonicity(self):
        for n in (6, 7, 8):
            out = find_avoiding_coloring(MOTIV, n)
            assert out.status == AVOIDABLE
            w = out.witness
            smaller = n - 1
            restricted = Coloring(
                smaller,
                2,
                w.r,
                tuple(
                    w.colors[point_index(p, n)]
                    for p in itertools.product(range(1, smaller + 1), repeat=2)
                ),
            )
            assert verify_witness(MOTIV, restricted).passed

    def test_color_permutation_soundness(self):
        out = find_avoiding_coloring(MOTIV, 8)
        w = out.witness
        swapped = Coloring(w.n, w.d, w.r, tuple(1 - c for c in w.colors))
        assert verify_witness(MOTIV, swapped).passed

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            find_avoiding_coloring(SCHUR_1D, 0)

    def test_color_count_cap(self):
        # the search calls the kernel without the public dispatcher; the
        # 1..62 check must still run on that path
        problem = SearchProblem(VectorSystem((SCHUR,)), colors=63)
        message = "^" + re.escape("colors must be in 1..62, got 63") + "$"
        with pytest.raises(ValueError, match=message):
            find_avoiding_coloring(problem, 5)
        with pytest.raises(ValueError, match=message):
            rado_number(problem, 5)
        # x = y has a one-point constraint at n = 1, and Schur none at all:
        # the cap does not depend on the box having a search to run
        equal = SearchProblem(VectorSystem.from_rows([[[1, -1]]]), colors=63)
        for p, n in ((equal, 1), (problem, 1)):
            with pytest.raises(ValueError, match=message):
                find_avoiding_coloring(p, n)
        for max_n in (1, 3):
            with pytest.raises(ValueError, match=message):
                rado_number(equal, max_n)


# the search tests' problems at their largest avoidable n, and one above
KERNEL_CASES = {
    "flagship-r2": (MOTIV, 8),
    "schur-r3": (SearchProblem(VectorSystem((SCHUR,)), colors=3), 13),
    "3-ap-r2": (VDW, 8),
}


@pytest.mark.skipif("c" not in available_backends(), reason="compiled kernel not built")
@pytest.mark.parametrize(
    "label, n",
    [(label, n) for label, (_, top) in KERNEL_CASES.items() for n in (top, top + 1)],
    ids=lambda v: v if isinstance(v, str) else f"n{v}",
)
def test_backends_agree_on_search_problems(label, n):
    problem, top = KERNEL_CASES[label]
    cs = build_constraints(problem, n)
    args = (n**problem.system.d, problem.colors, cs.constraints, _branch_order(cs))
    python = solve_avoidability(*args, backend="python")
    assert solve_avoidability(*args, backend="c") == python
    assert python[0] == (n == top)


class TestRadoNumber:
    def test_schur(self):
        result = rado_number(SCHUR_1D, 10)
        assert result.value == 5
        assert result.witness.n == 4
        assert verify_witness(SCHUR_1D, result.witness).passed

    def test_progression(self):
        assert rado_number(VDW, 12).value == 9

    def test_motivating(self):
        assert rado_number(MOTIV, 12).value == 9

    def test_exceeded_max_carries_witness(self):
        result = rado_number(SCHUR_1D, 3)
        assert not result.found
        assert result.value is None
        assert result.searched_to == 3
        assert result.witness.n == 3
        assert verify_witness(SCHUR_1D, result.witness).passed

    def test_nondegenerate_weakening(self):
        base = rado_number(SearchProblem(DIAG_SCHUR, colors=2), 10)
        harder = rado_number(
            SearchProblem(DIAG_SCHUR, colors=2, exclude_degenerate=True), 10
        )
        assert base.value == 5
        assert harder.value >= base.value

    @pytest.mark.parametrize(
        "problem, value",
        [
            # the 2-color Schur number of x_1 + ... + x_{m-1} = x_m is
            # m^2 - m - 1 (Beutelspacher and Brestovansky, 1982), 11 for m = 4
            (SearchProblem(VectorSystem((SUM3,)), colors=2), 11),
            (SearchProblem(DIAG_SUM3, colors=2, exclude_degenerate=True), 13),
        ],
        ids=["sum-of-three", "diagonal-sum-of-three-nondegenerate"],
    )
    def test_sum_of_three(self, problem, value):
        result = rado_number(problem, 14)
        assert result.value == value
        assert verify_witness(problem, result.witness).passed


# perfbench's scan workload: rado_number up to max_n, and the
# d-dimensional boxes it searches once the lift has skipped the others, in
# call order (the witness box last when the scan did not search it)
BENCH_SCANS = {
    "flagship-r2": (MOTIV, 12, [9, 8]),
    "non-degenerate-diagonal-schur-r2": (
        SearchProblem(DIAG_SCHUR, colors=2, exclude_degenerate=True), 12, [5, 6, 7],
    ),
    "schur-r3": (SearchProblem(VectorSystem((SCHUR,)), colors=3), 20, None),
    "3-ap-r3": (SearchProblem(VectorSystem((PROGRESSION,)), colors=3, mask=(0, 1, 2)), 30, None),
    "flagship-r3": (SearchProblem(MOTIVATING, colors=3, mask=(0, 1, 2)), 12, [12]),
}
# x = y beside a + b = c: the first coordinate's 1-d box is trivially
# unavoidable from n = 2 on, so only the second one lifts
EQUAL_W = ScalarSystem.from_rows([[1, -1, 0, 0]])
# the Baseline systems, with S = a + b = c and A = a 3-AP, under mask 0,1,2
LIFT_SYSTEMS = {
    "S,S": (SCHUR_W, SCHUR_W),
    "S,A": (SCHUR_W, PROGRESSION),
    "A,S": (PROGRESSION, SCHUR_W),
    "A,A": (PROGRESSION, PROGRESSION),
    "S,A,S": (SCHUR_W, PROGRESSION, SCHUR_W),
    "A,A,A": (PROGRESSION, PROGRESSION, PROGRESSION),
    "E,S": (EQUAL_W, SCHUR_W),
    "E,E": (EQUAL_W, EQUAL_W),
}
# the 1-d values are 5 (S) and 9 (A) at r=2, 14 and 27 at r=3: max_n runs
# below, at and above the largest m at which a 1-d box is avoidable
LIFT_MAX_N = {2: (1, 3, 8, 11), 3: (1, 3, 6)}


@pytest.mark.parametrize("label", BENCH_SCANS)
def test_bench_scans_match_plain_scan(label):
    problem, max_n, _ = BENCH_SCANS[label]
    assert rado_number(problem, max_n) == plain_scan(problem, max_n)


@pytest.mark.parametrize("exclude_degenerate", [False, True], ids=["all", "non-degenerate"])
@pytest.mark.parametrize(
    "colors, max_n",
    [(r, m) for r, ms in LIFT_MAX_N.items() for m in ms],
    ids=[f"r{r}-max{m}" for r, ms in LIFT_MAX_N.items() for m in ms],
)
@pytest.mark.parametrize("label", LIFT_SYSTEMS)
def test_lifted_scan_matches_plain_scan(label, colors, max_n, exclude_degenerate):
    problem = SearchProblem(
        VectorSystem(LIFT_SYSTEMS[label]), colors=colors, mask=(0, 1, 2),
        exclude_degenerate=exclude_degenerate,
    )
    assert rado_number(problem, max_n) == plain_scan(problem, max_n)


@pytest.fixture()
def searched_boxes(monkeypatch):
    """The d-dimensional boxes that rado.search searches, in call order.

    Such a box is built, then searched, so its build is counted, refused or
    not.  ``find_avoiding_coloring`` builds through the same call, so
    plain_scan, the reference, is given an uncounted one.
    """
    searched = []
    build = _build

    def counted(p, n, budget, prev=None):
        if p.system.d > 1:
            searched.append(n)
        return build(p, n, budget, prev)

    monkeypatch.setattr("rado.search._build", counted)
    monkeypatch.setattr(
        "oracles.find_avoiding_coloring",
        lambda p, n, budget: _decide(p, n, build(p, n, budget).kept, _kernel(None, p.colors)),
    )
    return searched


@pytest.mark.parametrize("label", [k for k, v in BENCH_SCANS.items() if v[2]])
def test_lift_skips_bench_boxes(label, searched_boxes):
    problem, max_n, boxes = BENCH_SCANS[label]
    rado_number(problem, max_n)
    assert searched_boxes == boxes


def test_rado_number_reduces_each_coordinate_system_once(monkeypatch):
    # the scan enumerates every coordinate before each box it builds, but a
    # system's echelon form is computed once and kept
    reduced = []

    def counted(rows):
        reduced.append(rows)
        return rref(rows)

    for name, module in list(sys.modules.items()):
        if name.startswith("rado") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted)
    system = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])
    assert rado_number(SearchProblem(system, colors=2, mask=(0, 1, 2)), 12).value == 9
    assert sorted(reduced) == sorted(s.coeffs for s in system.coordinate_systems)


def test_lifted_scan_refuses_as_plain_scan(searched_boxes):
    # the lift proves boxes up to 12 from the 3-AP coordinate; the plain scan
    # refuses box 8 by its product of coordinate lists, and box 12's product
    # is larger still
    problem = SearchProblem(MOTIVATING, colors=3, mask=(0, 1, 2))
    message = "enumeration refused: 2688 candidate cells exceed the budget of 2000"
    with pytest.raises(BudgetExceededError, match="^" + re.escape(message) + "$"):
        plain_scan(problem, 12, 2000)
    with pytest.raises(BudgetExceededError, match="^" + re.escape(message) + "$"):
        rado_number(problem, 12, 2000)
    # box 12 is the only one searched: box 8's refusal is read from its
    # enumeration, not from a search of boxes 1 to 8
    assert searched_boxes == [12]
    # (A,S): the lift proves boxes up to 8, the d-dimensional scan's first
    # box, 9, is refused, and the plain scan refuses box 7
    searched_boxes.clear()
    problem = SearchProblem(VectorSystem((PROGRESSION, SCHUR_W)), colors=2, mask=(0, 1, 2))
    message = "enumeration refused: 1323 candidate cells exceed the budget of 1000"
    with pytest.raises(BudgetExceededError, match="^" + re.escape(message) + "$"):
        plain_scan(problem, 12, 1000)
    with pytest.raises(BudgetExceededError, match="^" + re.escape(message) + "$"):
        rado_number(problem, 12, 1000)
    assert searched_boxes == [9]
    # here the lift itself is refused: at budget 100 the sum coordinate's
    # box 5 has 125 cells, and the scans must still refuse as the plain one
    for colors, budget in itertools.product((2, 3), (30, 100, 300, 1000)):
        searched_boxes.clear()
        problem = SearchProblem(MOTIVATING, colors=colors, mask=(0, 1, 2))
        with pytest.raises(BudgetExceededError) as plain:
            plain_scan(problem, 12, budget)
        with pytest.raises(BudgetExceededError, match="^" + re.escape(str(plain.value)) + "$"):
            rado_number(problem, 12, budget)
        if (colors, budget) == (2, 100):
            # nothing is lifted, so the d-dimensional scan starts at n = 1
            assert searched_boxes == [1, 2, 3, 4, 5]


# only a dummy column reaches n, so a new set lies on old points, and it
# lies inside a set kept at n - 1: the set, as values, and the first n
# that no longer keeps it
OLD_SET_DOMINATED = {
    "x+y+3z=3w-mask-0,2,3": (
        SearchProblem(VectorSystem.from_rows([[[1, 1, 3, -3]]]), mask=(0, 2, 3)),
        (1, 5, 6),
        7,
    ),
    "x-2y+2z+3w=0-mask-1,2,3": (
        SearchProblem(VectorSystem.from_rows([[[1, -2, 2, 3]]]), mask=(1, 2, 3)),
        (1, 8, 10),
        11,
    ),
}
# the one-dimensional problems whose scans build each box from the one
# before, and the last n compared
REUSE_CASES = {
    **{label: (p, 30) for label, p in BUILD_PROBLEMS.items() if p.system.d == 1},
    **{label: (p, lost_at + 3) for label, (p, _, lost_at) in OLD_SET_DOMINATED.items()},
}


def reused_builds(problem, top):
    """Box n's builds for n = 1, ..., top, each built from box n - 1's as a
    one-dimensional scan builds them."""
    built = None
    for n in range(1, top + 1):
        built = _build(problem, n, DEFAULT_BUDGET, built)
        yield n, built


@pytest.mark.parametrize("label", REUSE_CASES)
def test_reused_build_keeps_the_fresh_sets(label):
    problem, top = REUSE_CASES[label]
    old = []
    for n, (kept, _, new) in reused_builds(problem, top):
        assert sorted(kept) == sorted(build_constraints(problem, n).constraints)
        assert list(map(len, kept)) == sorted(map(len, kept))
        # the kept sets that box n - 1 did not keep, which a scan checks
        assert sorted(new) == sorted(set(kept) - set(old))
        old = kept


@pytest.mark.parametrize("label", OLD_SET_DOMINATED)
def test_reused_build_drops_a_dominated_old_set(label):
    problem, values, lost_at = OLD_SET_DOMINATED[label]
    dominated = tuple(x - 1 for x in values)
    builds = {n: built.kept for n, built in reused_builds(problem, lost_at)}
    assert dominated in builds[lost_at - 1]
    assert dominated not in builds[lost_at]
    # the new set inside it lies on old points: none holds the point n
    assert any(
        set(s) < set(dominated) and lost_at - 1 not in s for s in builds[lost_at]
    )


def test_only_one_dimensional_scans_reuse_the_build(monkeypatch):
    calls = []
    build = _build

    def recorded(problem, n, budget, prev=None):
        calls.append((problem.system.d, n, prev is not None))
        return build(problem, n, budget, prev)

    monkeypatch.setattr("rado.search._build", recorded)
    # the lifted scans of the flagship's two coordinates, then its 2-d boxes:
    # box 9, unavoidable, and box 8, proven by the lift, for the witness
    assert rado_number(MOTIV, 12).value == 9
    assert calls == [
        *[(1, n, n > 1) for n in range(1, 6)],
        *[(1, n, n > 5) for n in range(5, 10)],
        (2, 9, False),
        (2, 8, False),
    ]


# random one- and two-row systems: 3 to 5 columns, coefficients +-1..3, a
# random nonempty mask, 2 to 4 colors, with and without require_distinct
def _random_one_dimensional(seed):
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)] for _ in range(rng.randint(1, 2))]
    mask = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
    return SearchProblem(
        VectorSystem.from_rows([rows]),
        colors=rng.randint(2, 4),
        mask=mask,
        require_distinct=rng.random() < 0.5,
    )


@pytest.fixture()
def extensions(monkeypatch):
    """The colorings that rado.search's scans extend to a box, each with the
    problem scanned, in call order."""
    extended, scanning = [], []

    def scan(problem, *args):
        scanning.append(problem)
        return _scan(problem, *args)

    def extend(colors, r, sets):
        out = _extend(colors, r, sets)
        if out is not None:
            extended.append((scanning[-1], out))
        return out

    monkeypatch.setattr("rado.search._scan", scan)
    monkeypatch.setattr("rado.search._extend", extend)
    return extended


@pytest.fixture()
def decided_boxes(monkeypatch):
    """The boxes that rado.search decides, as (d, n), in call order."""
    decided = []

    def counted(p, n, kept, solve):
        decided.append((p.system.d, n))
        return _decide(p, n, kept, solve)

    monkeypatch.setattr("rado.search._decide", counted)
    return decided


@pytest.mark.parametrize("backend", available_backends())
def test_reused_scans_match_plain_scan(backend, monkeypatch, extensions):
    monkeypatch.setattr("rado.kernel.default_backend", lambda: backend)
    found = after_extended = ended_extended = 0
    for seed in range(300):
        problem = _random_one_dimensional(seed)
        extensions.clear()
        result = rado_number(problem, 12)
        extended = {len(colors) for _, colors in extensions}
        assert result == plain_scan(problem, 12), (seed, problem)
        found += result.found
        # the reported witness is of a box proven by extension
        after_extended += result.found and result.value - 1 in extended
        ended_extended += not result.found and 12 in extended
    assert 60 <= found <= 240, found
    assert after_extended >= 20 and ended_extended >= 20, (after_extended, ended_extended)


# Rado rows for the random multi-dimensional scans, each with a dummy
# column: a + b = c, a 3-AP (its difference is the dummy), x + y = 2z,
# x + 2y = 2z and x = y
SCAN_ROWS = (
    [[1, 1, -1, 0]],
    [[-1, 1, 0, -1], [0, -1, 1, -1]],
    [[1, 1, -2, 0]],
    [[1, 2, -2, 0]],
    [[1, -1, 0, 0]],
)


def _random_multi_dimensional(seed):
    """A random 2- or 3-d problem over SCAN_ROWS, its max_n and its budget:
    a random nonempty mask of the first three columns, 2 or 3 colors,
    random tuple filters, and budgets that refuse some scans."""
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    problem = SearchProblem(
        VectorSystem.from_rows([rng.choice(SCAN_ROWS) for _ in range(d)]),
        colors=rng.choice((2, 2, 2, 3)),
        mask=tuple(sorted(rng.sample(range(3), rng.randint(1, 3)))),
        exclude_degenerate=rng.random() < 0.2,
        require_distinct=rng.random() < 0.3,
    )
    max_n = rng.randint(4, 10) if d == 2 else rng.randint(4, 6)
    return problem, max_n, rng.choice((300, 3000, DEFAULT_BUDGET, DEFAULT_BUDGET))


def _scan_outcome(scan, problem, max_n, budget):
    """The scan's result, or its refusal message."""
    try:
        return scan(problem, max_n, budget)
    except BudgetExceededError as refusal:
        return str(refusal)


@pytest.mark.parametrize("backend", available_backends())
def test_multi_dimensional_scans_match_plain_scan(backend, monkeypatch):
    monkeypatch.setattr("rado.kernel.default_backend", lambda: backend)
    starts = []

    def scan(problem, start, *args):
        if problem.system.d > 1:
            starts.append(start)
        return _scan(problem, start, *args)

    monkeypatch.setattr("rado.search._scan", scan)
    found = refused = lifted = 0
    for seed in range(150):
        problem, max_n, budget = _random_multi_dimensional(seed)
        starts.clear()
        result = _scan_outcome(rado_number, problem, max_n, budget)
        assert result == _scan_outcome(plain_scan, problem, max_n, budget), (seed, problem)
        if isinstance(result, str):
            refused += 1
            continue
        found += result.found
        # the witness box lies before the d-dimensional scan's first box
        lifted += result.witness is not None and result.witness.n < starts[-1]
    assert found >= 80 and refused >= 15 and lifted >= 50, (found, refused, lifted)


# the boxes each bench scan decides, by dimension, in call order: its lifted
# one-dimensional boxes, then its d-dimensional ones, the witness box last
# when no search of the scan decided it.  A one-dimensional box that box
# n - 1's coloring extends to is not decided.
DECIDED_BOXES = {
    "flagship-r2": {1: [1, 4, 5, 5, 8, 9], 2: [9, 8]},
    "non-degenerate-diagonal-schur-r2": {1: [1, 4, 5], 2: [5, 6, 7]},
    "schur-r3": {1: [1, 8, 10, 11, 12, 13, 14]},
    "3-ap-r3": {1: [1, 22, 23, 24, 26, 27]},
    "flagship-r3": {1: [1, 8, 10, 11, 12], 2: [12]},
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("label", BENCH_SCANS)
def test_bench_scans_decide_pinned_boxes(label, backend, monkeypatch, decided_boxes):
    monkeypatch.setattr("rado.kernel.default_backend", lambda: backend)
    problem, max_n, _ = BENCH_SCANS[label]
    rado_number(problem, max_n)
    by_dimension = {}
    for d, n in decided_boxes:
        by_dimension.setdefault(d, []).append(n)
    assert by_dimension == DECIDED_BOXES[label]


@pytest.mark.parametrize(
    "problem, max_n",
    [(p, max_n) for p, max_n, _ in BENCH_SCANS.values()] + list(REUSE_CASES.values()),
    ids=[*BENCH_SCANS, *REUSE_CASES],
)
def test_extended_colorings_pass_verify_witness(problem, max_n, extensions):
    rado_number(problem, max_n)
    assert extensions
    for lifted, colors in extensions:
        coloring = Coloring(len(colors), 1, lifted.colors, colors)
        assert verify_witness(lifted, coloring).passed, (lifted, colors)


# one-dimensional scans whose witness box m was proven by extension: the
# scan ends on the box after it, or on it at max_n
EXTENDED_WITNESSES = {
    "x+2y=2z-r2-unavoidable-at-4": (SearchProblem(VectorSystem.from_rows([[[1, 2, -2]]])), 12, 3),
    "x+2y=2z-r3-unavoidable-at-14": (
        SearchProblem(VectorSystem.from_rows([[[1, 2, -2]]]), colors=3), 20, 13,
    ),
    "schur-r3-max-9": (SearchProblem(VectorSystem((SCHUR,)), colors=3), 9, 9),
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("label", EXTENDED_WITNESSES)
def test_witness_of_an_extended_box_is_searched(
    label, backend, monkeypatch, extensions, decided_boxes
):
    monkeypatch.setattr("rado.kernel.default_backend", lambda: backend)
    problem, max_n, m = EXTENDED_WITNESSES[label]
    result = rado_number(problem, max_n)
    assert m in {len(colors) for _, colors in extensions}
    # box m is decided once, last, for its witness
    assert decided_boxes[-1] == (1, m) and decided_boxes.count((1, m)) == 1
    assert result.searched_to == (m + 1 if result.found else m)
    assert result.witness == find_avoiding_coloring(problem, m).witness


def test_lifted_scans_search_no_witness_box(decided_boxes):
    # (S,S) at r=3: the two coordinates share one system, so one lifted scan
    # runs, avoidable through max_n, and only the 2-d box max_n is searched
    # for the witness
    problem = SearchProblem(VectorSystem((SCHUR_W, SCHUR_W)), colors=3, mask=(0, 1, 2))
    result = rado_number(problem, 9)
    assert decided_boxes == [(1, 1), (1, 8), (2, 9)]
    assert result.witness == find_avoiding_coloring(problem, 9).witness


class TestVerifyWitness:
    def test_constant_coloring_fails_with_report(self):
        report = verify_witness(SCHUR_1D, Coloring.constant(5, 1, r=2))
        assert not report.passed
        assert report.color == 0
        assert report.violated_constraint is not None

    def test_known_schur_witness(self):
        witness = Coloring(4, 1, 2, (0, 1, 1, 0))
        assert verify_witness(SCHUR_1D, witness).passed

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            verify_witness(MOTIV, Coloring.constant(4, 1, r=2))

    def test_too_many_colors_rejected(self):
        with pytest.raises(ValueError):
            verify_witness(SCHUR_1D, Coloring.constant(4, 1, r=3))


# the benchmark's problems, the filtered ones included
BENCH_PROBLEMS = {
    "flagship r=2": MOTIV,
    "flagship r=3": SearchProblem(MOTIVATING, colors=3, mask=(0, 1, 2)),
    "non-degenerate diagonal Schur r=2": SearchProblem(DIAG_SCHUR, exclude_degenerate=True),
    "Schur r=3": SearchProblem(VectorSystem((SCHUR,)), colors=3),
    "Schur r=4": SearchProblem(VectorSystem((SCHUR,)), colors=4),
    "weak Schur r=3": SearchProblem(VectorSystem((SCHUR,)), colors=3, require_distinct=True),
    "3-AP r=3": SearchProblem(VectorSystem((PROGRESSION,)), colors=3, mask=(0, 1, 2)),
    "4-AP r=2": SearchProblem(VectorSystem((AP4,)), mask=(0, 1, 2, 3)),
}


def _first_monochromatic_constraint(problem, coloring):
    """verify_witness's report, from the built constraints alone."""
    cs = build_constraints(problem, coloring.n)
    for con in cs.constraints:
        colors = {coloring.colors[i] for i in con}
        if len(colors) == 1:
            return False, cs.decode(con), colors.pop()
    return True, None, None


@pytest.mark.parametrize("label", BENCH_PROBLEMS)
def test_verify_witness_matches_build_oracle(label):
    problem = BENCH_PROBLEMS[label]
    r, d = problem.colors, problem.system.d
    rng = random.Random(label)
    kinds = Counter()
    for n in range(1, 9):
        size = n**d
        colorings = [
            Coloring(n, d, r, tuple(rng.randrange(r) for _ in range(size))),
            Coloring(n, d, r - 1, tuple(rng.randrange(r - 1) for _ in range(size))),
        ]
        witness = find_avoiding_coloring(problem, n).witness
        for _ in range(2 if witness else 0):
            colors = list(witness.colors)
            i = rng.randrange(size)
            colors[i] = (colors[i] + rng.randrange(1, r)) % r
            colorings.append(Coloring(n, d, r, tuple(colors)))
        for coloring in colorings:
            report = verify_witness(problem, coloring)
            expected = _first_monochromatic_constraint(problem, coloring)
            assert (report.passed, report.violated_constraint, report.color) == expected
            mono = count_monochromatic(problem.system, coloring, problem.mask)
            kinds[report.passed, any(mono)] += 1
    assert kinds[True, False] and kinds[False, True]
    if problem.exclude_degenerate or problem.require_distinct:
        # monochromatic tuples that the filter drops, so the build decides
        assert kinds[True, True]


class TestDimacs:
    def test_bit_exact_output(self):
        assert export_dimacs(MOTIV, 5) == export_dimacs(MOTIV, 5)

    @pytest.mark.parametrize(
        "label, n, digest",
        [
            ("flagship r=2", 9, "4639043c9d3d768be4c65c48192be98bb416b07ef17ce8e42581eabf0eaa4ee9"),
            ("flagship r=3", 12, "0475d7001cc0f2cdd7da7dbcabe0dd14c5e66f72f509368496854a9d15cd3b52"),
            ("non-degenerate diagonal Schur r=2", 5,
             "554b5f4a117357d5912198dc7722cc25d21cf8298decdd51137ef8682e60a775"),
            ("weak Schur r=3", 9, "12c05ee157b86944167d381e8bec328cffae6ee2a0d654e4d5b4901765dba060"),
        ],
    )
    def test_output_pinned(self, label, n, digest):
        # sha256 of the text as the per-literal export of commit c3f1dc5 wrote it
        text = export_dimacs(BENCH_PROBLEMS[label], n)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_no_constraints_yields_no_clauses(self):
        text = export_dimacs(SCHUR_1D, 1)
        num_vars, clauses = parse_dimacs(text)
        assert clauses == []
        assert solve_cnf(num_vars, clauses) is not None

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("colors", [2, 3])
    @pytest.mark.parametrize("system", [VectorSystem((SCHUR,)), MOTIVATING], ids=["schur", "flagship"])
    def test_empty_box_has_no_variables(self, system, colors, n):
        text = export_dimacs(SearchProblem(system, colors=colors), n)
        assert text.splitlines()[-1] == "p cnf 0 0"
        assert parse_dimacs(text) == (0, [])

    def test_engine_agreement_two_colors(self):
        for problem, top in ((SCHUR_1D, 5), (VDW, 9)):
            for n in range(1, top + 1):
                engine = find_avoiding_coloring(problem, n).status == AVOIDABLE
                num_vars, clauses = parse_dimacs(export_dimacs(problem, n))
                model = solve_cnf(num_vars, clauses)
                assert (model is not None) == engine
                if model is not None:
                    decoded = coloring_from_model(n, problem.system.d, problem.colors, model)
                    assert verify_witness(problem, decoded).passed

    def test_engine_agreement_three_colors(self):
        problem = SearchProblem(VectorSystem((SCHUR,)), colors=3)
        for n in (13, 14):
            engine = find_avoiding_coloring(problem, n).status == AVOIDABLE
            num_vars, clauses = parse_dimacs(export_dimacs(problem, n))
            model = solve_cnf(num_vars, clauses)
            assert (model is not None) == engine
            if model is not None:
                decoded = coloring_from_model(n, 1, 3, model)
                assert verify_witness(problem, decoded).passed

    def test_singleton_constraint_unsat(self):
        equal = VectorSystem((ScalarSystem.from_rows([[1, -1]]),))
        problem = SearchProblem(equal, colors=2)
        num_vars, clauses = parse_dimacs(export_dimacs(problem, 2))
        assert solve_cnf(num_vars, clauses) is None

    def test_one_color_agreement(self):
        problem = SearchProblem(VectorSystem((SCHUR,)), colors=1)
        for n in (1, 2):
            engine = find_avoiding_coloring(problem, n).status == AVOIDABLE
            num_vars, clauses = parse_dimacs(export_dimacs(problem, n))
            assert (solve_cnf(num_vars, clauses) is not None) == engine

    @pytest.mark.parametrize(
        "n, d, r, model, message",
        [
            (-1, 2, 2, [None], "n, d and r must all be positive"),
            (0, 3, 3, [None], "n, d and r must all be positive"),
            (2, 2, 2, [None, True, False, True], "model has 3 variables; the CNF has 4"),
            (2, 1, 3, [], "model has 0 variables; the CNF has 6"),
            (1, 1, 3, [None, False, False, False], "point 0 has no true color in the model"),
            (2, 1, 3, [None, False, True, False, False, False, False], "point 1 has no true color in the model"),
        ],
        ids=["n-negative", "n-zero", "short-two-colors", "short-three-colors",
             "no-true-color", "no-true-color-second-point"],
    )
    def test_coloring_from_model_rejects_bad_input(self, n, d, r, model, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            coloring_from_model(n, d, r, model)


class TestSearchProblemValidation:
    def test_mask_normalized(self):
        problem = SearchProblem(MOTIVATING, colors=2, mask=(2, 0, 1, 1))
        assert problem.mask == (0, 1, 2)

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            SearchProblem(MOTIVATING, colors=2, mask=(0, 7))

    def test_colors_positive(self):
        with pytest.raises(ValueError):
            SearchProblem(MOTIVATING, colors=0)
