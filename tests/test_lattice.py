import json
import math
import random
import re
import time
import warnings
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado.errors import BudgetExceededError, DimensionMismatchError, SystemFormatError
from rado.lattice import (
    DEFAULT_BUDGET,
    Coloring,
    _masked_solutions,
    count_degenerate,
    count_monochromatic,
    count_solutions,
    enumerate_scalar_solutions,
    enumerate_vector_solutions,
    index_point,
    is_degenerate,
    parse_coloring,
    point_index,
    serialize_coloring,
)
from rado.search import SearchProblem, build_constraints, verify_witness
from rado.systems import ScalarSystem, VectorSystem

from oracles import (
    degenerate_oracle,
    det_rank,
    naive_degenerate_count,
    naive_masked_rows,
    naive_monochromatic_counts,
    naive_vector_solutions,
)

SCHUR = ScalarSystem.from_rows([[1, 1, -1]])
PROGRESSION = ScalarSystem.from_rows([[-1, 1, 0, -1], [0, -1, 1, -1]])
MOTIVATING = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])
DIAG_SCHUR = VectorSystem.diagonal(SCHUR, 2)
DIAG_SCHUR_3D = VectorSystem.diagonal(SCHUR, 3)
# a dummy column tied to the masked ones: w = 2x, then w = 3x
TIED_DUMMY = VectorSystem.from_rows([[[1, 1, -1, 0], [2, 0, 0, -1]], [[1, 1, -1, 0], [3, 0, 0, -1]]])


class TestPointIndexing:
    def test_lexicographic_order(self):
        pts = list(product(range(1, 4), repeat=2))
        assert pts[0] == (1, 1)
        assert pts[1] == (1, 2)
        assert pts[3] == (2, 1)
        for idx, p in enumerate(pts):
            assert point_index(p, 3) == idx
            assert index_point(idx, 3, 2) == p


class TestEnumerateScalar:
    def test_schur_n3(self):
        assert enumerate_scalar_solutions(SCHUR, 3) == [(1, 1, 2), (1, 2, 3), (2, 1, 3)]

    def test_empty_box(self):
        assert enumerate_scalar_solutions(SCHUR, 0) == []
        assert enumerate_scalar_solutions(SCHUR, 1) == []

    def test_progression_n3(self):
        assert enumerate_scalar_solutions(PROGRESSION, 3) == [(1, 2, 3, 1)]

    def test_exact_satisfaction(self):
        for sol in enumerate_scalar_solutions(PROGRESSION, 6):
            for row in PROGRESSION.coeffs:
                assert sum(a * x for a, x in zip(row, sol)) == 0

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_scalar_solutions(SCHUR, 100, budget=10**3)
        assert exc.value.projected == 100**2

    def test_dependent_rows_warn(self):
        dup = ScalarSystem.from_rows([[1, 1, -1], [2, 2, -2]])
        with pytest.warns(UserWarning, match="dependent rows") as record:
            sols = enumerate_scalar_solutions(dup, 3)
        assert sols == enumerate_scalar_solutions(SCHUR, 3)
        # the warning names the caller, not the library, however deep the
        # library's call to the enumerator
        assert record[0].filename == __file__
        problem = SearchProblem(VectorSystem((dup,)))
        red = Coloring.constant(3, 1, r=2)
        for call in (
            lambda: count_solutions(problem.system, 3),
            lambda: count_monochromatic(problem.system, red),
            lambda: build_constraints(problem, 3),
            lambda: verify_witness(problem, red),
        ):
            with pytest.warns(UserWarning, match="dependent rows") as record:
                call()
            assert [w.filename for w in record] == [__file__] * len(record)

    def test_fractional_pivots_filtered(self):
        # 2x = y over [1,6]: x = y/2 must be integral
        halving = ScalarSystem.from_rows([[2, -1]])
        assert enumerate_scalar_solutions(halving, 6) == [(1, 2), (2, 4), (3, 6)]


def _masked_outcome(system, n, mask, budget):
    try:
        return dict(_masked_solutions(system, n, mask, budget))
    except BudgetExceededError as e:
        return ("refused", e.projected, e.budget)


def _oracle_outcome(rows, n, mask, budget):
    free = len(rows[0]) - det_rank(rows)
    if n >= 1 and n**free > budget:
        return ("refused", n**free, budget)
    return dict(naive_masked_rows(rows, n, mask))


def _seeded_scalar_case(seed):
    """1-3 rows, 1-5 columns, entries -4..4, n = 0..9; one budget in four
    refuses more.  Most such systems have no solution in the box, so odd
    seeds plant one: their rows are drawn until they vanish on a point of it.
    """
    rng = random.Random(seed)
    k, m, n = rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 9)
    planted = [rng.randint(1, max(n, 1)) for _ in range(k)]
    rows = []
    while len(rows) < m:
        row = [rng.randint(-4, 4) for _ in range(k)]
        if seed % 2 == 0 or sum(a * x for a, x in zip(row, planted)) == 0:
            rows.append(row)
    budget = rng.choice((DEFAULT_BUDGET, DEFAULT_BUDGET, DEFAULT_BUDGET, 60))
    return pytest.param(rows, n, budget, id=f"seed{seed}")


MASKED_CASES = [
    pytest.param([[2, -1]], 9, DEFAULT_BUDGET, id="rational-pivot"),
    pytest.param([[1, 1, -1, 0]], 7, DEFAULT_BUDGET, id="zero-column"),
    pytest.param([[0, 0, 0]], 4, DEFAULT_BUDGET, id="zero-row"),
    pytest.param(PROGRESSION.coeffs, 9, DEFAULT_BUDGET, id="progression"),
    # x2 = x3 / 2 moves with the last free column x3; x0 = x1 does not
    pytest.param(
        [[1, -1, 0, 0], [0, 0, 2, -1]], 9, DEFAULT_BUDGET, id="collapse-by-scale-2"
    ),
    # x0 = x1 / 2 is fixed while the last free column x2 runs
    pytest.param([[2, -1, 0]], 9, DEFAULT_BUDGET, id="collapse-beside-scale-2"),
    # x0 = t / 2 and x1 = t / 3 both move with t, so t steps by P = 6
    pytest.param([[2, 0, -1], [0, 3, -1]], 20, DEFAULT_BUDGET, id="period-6"),
    # x0 = (x1 + 2t) / 2: t's coefficient is integral, the offset x1 / 2 not
    pytest.param([[2, -1, -2]], 20, DEFAULT_BUDGET, id="fractional-offset"),
] + [_seeded_scalar_case(seed) for seed in range(200)]


@pytest.mark.parametrize("rows, n, budget", MASKED_CASES)
def test_masked_solutions_match_oracle(rows, n, budget):
    # every mask, the empty and the full one among them: the distinct masked
    # projections, each counted as often as the brute-force grid has it
    system = ScalarSystem.from_rows(rows)
    k = system.variables
    total = len(naive_vector_solutions([rows], n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero or dependent rows
        for size in range(k + 1):
            for mask in combinations(range(k), size):
                got = _masked_outcome(system, n, mask, budget)
                assert got == _oracle_outcome(rows, n, mask, budget), mask
                if isinstance(got, dict):
                    assert sum(got.values()) == total


def test_flagship_dummy_column_is_counted():
    # a + b = c with the free dummy w: 190 masked rows, each for every w
    schur = MOTIVATING.coordinate_systems[0]
    rows = _masked_solutions(schur, 20, (0, 1, 2), DEFAULT_BUDGET)
    assert len(rows) == 190
    assert set(rows.values()) == {20}
    assert count_solutions(MOTIVATING, 20) == 3800 * 90 == 342_000


class TestEnumerateVector:
    def test_motivating_n3(self):
        sols = list(enumerate_vector_solutions(MOTIVATING, 3))
        # one progression row, nine Schur rows (dummy variable free in [1,3])
        assert len(sols) == 9
        for sol in sols:
            assert tuple(zip(*sol.points))[1] == (1, 2, 3, 1)

    def test_d1_matches_scalar(self):
        scalar = enumerate_scalar_solutions(SCHUR, 4)
        vector = [
            tuple(zip(*s.points))[0]
            for s in enumerate_vector_solutions(VectorSystem((SCHUR,)), 4)
        ]
        assert vector == scalar

    def test_diagonal_schur_product(self):
        assert len(list(enumerate_vector_solutions(DIAG_SCHUR, 3))) == 9

    def test_matches_naive_brute_force(self):
        for system, n in ((MOTIVATING, 3), (DIAG_SCHUR, 4), (VectorSystem((SCHUR,)), 4)):
            rows = [s.coeffs for s in system.coordinate_systems]
            expected = sorted(naive_vector_solutions(rows, n))
            got = sorted(
                tuple(zip(*sol.points))
                for sol in enumerate_vector_solutions(system, n)
            )
            assert got == expected

    def test_deterministic_stream_order(self):
        first = [s.points for s in enumerate_vector_solutions(DIAG_SCHUR, 4)]
        second = [s.points for s in enumerate_vector_solutions(DIAG_SCHUR, 4)]
        assert first == second
        rows = [tuple(zip(*s.points)) for s in enumerate_vector_solutions(DIAG_SCHUR, 4)]
        assert rows == sorted(rows)


class TestCounting:
    def test_schur_count(self):
        assert count_solutions(VectorSystem((SCHUR,)), 3) == 3

    def test_diagonal_count_and_degenerate(self):
        assert count_solutions(DIAG_SCHUR, 3) == 9
        # degenerate tuples counted by brute force over all 9 combinations
        expected = 0
        scalars = enumerate_scalar_solutions(SCHUR, 3)
        for a in scalars:
            for b in scalars:
                pts = {(a[j], b[j]) for j in range(3)}
                if degenerate_oracle(pts):
                    expected += 1
        assert count_degenerate(DIAG_SCHUR, 3) == expected

    def test_below_smallest_solution(self):
        assert count_solutions(DIAG_SCHUR, 1) == 0
        assert count_degenerate(DIAG_SCHUR, 1) == 0

    def test_count_matches_enumeration(self):
        assert count_solutions(MOTIVATING, 4) == len(
            list(enumerate_vector_solutions(MOTIVATING, 4))
        )


class TestMonochromatic:
    def test_constant_coloring_counts_everything(self):
        coloring = Coloring.constant(3, 2, r=1)
        assert count_monochromatic(MOTIVATING, coloring) == [
            count_solutions(MOTIVATING, 3)
        ]

    def test_parity_coloring_schur(self):
        # colors {1,3} vs {2}: every Schur triple in [1,3] mixes parities
        coloring = Coloring(3, 1, 2, (0, 1, 0))
        assert count_monochromatic(VectorSystem((SCHUR,)), coloring) == [0, 0]

    def test_masked_constant(self):
        coloring = Coloring.constant(3, 2, r=2, color=1)
        counts = count_monochromatic(MOTIVATING, coloring, mask=(0, 1, 2))
        assert counts == [0, count_solutions(MOTIVATING, 3)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            count_monochromatic(MOTIVATING, Coloring.constant(3, 1, r=1))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            count_monochromatic(MOTIVATING, Coloring.constant(3, 2, r=1), mask=())


# (system, n, mask) for the oracle comparisons of both tuple counts
COUNT_CASES = (
    [(VectorSystem((SCHUR,)), n, None) for n in (1, 3, 6, 10)]
    + [(DIAG_SCHUR, n, None) for n in (2, 4, 6)]
    + [
        (MOTIVATING, n, mask)
        for n in (3, 4)
        for mask in (None, (0, 1, 2), (0, 3), (1,))
    ]
    + [(DIAG_SCHUR_3D, n, None) for n in (3, 4)]
    # d and k equal the flagship's, so these need ids of their own
    + [
        pytest.param((TIED_DUMMY, n, mask), id=f"tied-dummy-n{n}-mask{label}")
        for n in (3, 6)
        for mask, label in ((None, "full"), ((0, 1, 2), "012"))
    ]
)


def _case_id(case):
    system, n, mask = case
    mask = "full" if mask is None else "".join(map(str, mask))
    return f"d{system.d}k{system.k}-n{n}-mask{mask}"


def _seeded_colorings(n, d, seed):
    """Colorings with r = 1, 2, 3, an r=3 one that never uses color 1, and
    two with colors around 48 (the digit "0") and past 255 (one byte)."""
    rng = random.Random(seed)
    size = n**d
    out = [
        Coloring(n, d, r, tuple(rng.randrange(r) for _ in range(size)))
        for r in (1, 2, 3)
    ]
    out.append(Coloring(n, d, 3, tuple(rng.choice((0, 2)) for _ in range(size))))
    out.append(Coloring(n, d, 50, tuple(rng.choice((47, 48, 49)) for _ in range(size))))
    out.append(Coloring(n, d, 300, tuple(rng.choice((0, 48, 255, 256)) for _ in range(size))))
    return out


@pytest.mark.parametrize("case", COUNT_CASES, ids=_case_id)
def test_counts_match_oracles(case):
    system, n, mask = case
    rows = [s.coeffs for s in system.coordinate_systems]
    oracle_mask = range(system.k) if mask is None else mask
    assert count_degenerate(system, n, mask) == naive_degenerate_count(
        rows, n, oracle_mask
    )
    for coloring in _seeded_colorings(n, system.d, n):
        expected = naive_monochromatic_counts(
            rows, n, oracle_mask, coloring.colors, coloring.r
        )
        assert count_monochromatic(system, coloring, mask) == expected, coloring


@pytest.mark.parametrize(
    "system, n, mask, expected",
    [
        (DIAG_SCHUR, 5, None, 12),
        (DIAG_SCHUR, 10, None, 89),
        (DIAG_SCHUR, 20, None, 480),
        (DIAG_SCHUR, 30, None, 1305),
        (MOTIVATING, 16, (0, 1, 2), 400),
        (MOTIVATING, 20, (0, 1, 2), 720),
    ],
)
def test_degenerate_count_pinned(system, n, mask, expected):
    # values of a tuple-by-tuple count
    assert count_degenerate(system, n, mask) == expected


@pytest.mark.parametrize("mask", [(), (0, 7)])
def test_counts_reject_bad_mask(mask):
    with pytest.raises(ValueError):
        count_degenerate(MOTIVATING, 3, mask)
    with pytest.raises(ValueError):
        count_monochromatic(MOTIVATING, Coloring.constant(3, 2), mask)


@pytest.mark.parametrize(
    "call",
    [
        lambda budget: list(enumerate_vector_solutions(DIAG_SCHUR, 10, budget)),
        lambda budget: count_degenerate(DIAG_SCHUR, 10, budget=budget),
        lambda budget: count_monochromatic(
            DIAG_SCHUR, Coloring.constant(10, 2), budget=budget
        ),
        lambda budget: build_constraints(SearchProblem(DIAG_SCHUR), 10, budget),
    ],
    ids=["enumerate", "degenerate", "monochromatic", "build"],
)
def test_tuple_product_budget_refusal(call):
    # each coordinate grid has 10**2 cells, within budget; the 45 * 45 tuple
    # product is not
    with pytest.raises(BudgetExceededError) as exc:
        call(1000)
    assert exc.value.projected == 45**2


def test_tuple_product_counted_beyond_budget():
    # the count reads each coordinate's number of solutions, so a product
    # above the budget is counted, not refused
    assert count_solutions(DIAG_SCHUR, 10, 1000) == 45**2


class TestDegeneracy:
    def test_scaled_points(self):
        report = is_degenerate([(1, 2), (2, 4), (3, 6)])
        assert report.degenerate
        assert report.direction == (1, 2)
        assert report.multipliers == (1, 2, 3)

    def test_multipliers_divide_by_the_primitive_direction(self):
        # the direction's first coordinate is not 1, so a multiplier is the
        # point's gcd, not its first coordinate
        report = is_degenerate([(6, 9), (2, 3), (4, 6)])
        assert report.direction == (2, 3)
        assert report.multipliers == (1, 2, 3)

    def test_non_parallel(self):
        assert not is_degenerate([(1, 1), (2, 2), (3, 5)]).degenerate

    def test_singleton(self):
        report = is_degenerate([(2, 4)])
        assert report.degenerate
        assert report.direction == (1, 2)
        assert report.multipliers == (2,)

    def test_one_dimension_always_degenerate(self):
        report = is_degenerate([(3,), (5,)])
        assert report.degenerate
        assert report.direction == (1,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_degenerate([])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_degenerate([(1, 2), (1,)])

    def test_report_invariant(self):
        report = is_degenerate([(2, 6), (3, 9)])
        assert report.degenerate
        pts = sorted({(2, 6), (3, 9)})
        for p, m in zip(pts, report.multipliers):
            assert p == tuple(m * v for v in report.direction)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(1, 12)] * d), min_size=1, max_size=4
        )
    )
)
def test_degeneracy_matches_oracle(points):
    assert is_degenerate(points).degenerate == degenerate_oracle(points)


class TestColoringFiles:
    def test_round_trip(self):
        coloring = Coloring(2, 2, 2, (0, 1, 1, 0))
        assert parse_coloring(serialize_coloring(coloring)) == coloring

    def test_documented_order(self):
        text = '{"n": 2, "d": 2, "r": 2, "colors": [0, 1, 1, 0]}'
        coloring = parse_coloring(text)
        assert coloring.colors[point_index((1, 1), 2)] == 0
        assert coloring.colors[point_index((1, 2), 2)] == 1
        assert coloring.colors[point_index((2, 1), 2)] == 1

    def test_length_validation(self):
        with pytest.raises(SystemFormatError):
            parse_coloring('{"n": 2, "d": 2, "r": 1, "colors": [0, 0, 0]}')

    def test_color_range_validation(self):
        with pytest.raises(SystemFormatError):
            parse_coloring('{"n": 2, "d": 1, "r": 2, "colors": [0, 2]}')

    @pytest.mark.parametrize(
        "n, d",
        [(10**5, 10**5), (10**6, 10**6), (10**7, 10**7), (3, 10**9), (2, 64), (10**300, 2)],
    )
    def test_huge_declared_box_refused_at_once(self, n, d):
        start = time.perf_counter()
        with pytest.raises(SystemFormatError):
            parse_coloring(f'{{"n": {n}, "d": {d}, "r": 2, "colors": [0]}}')
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("key", ["n", "d", "r"])
    def test_boolean_box_size_refused(self, key):
        doc = {"n": 1, "d": 1, "r": 1, "colors": [0]}
        doc[key] = True
        with pytest.raises(SystemFormatError):
            parse_coloring(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[0, 1]", "coloring document must be a JSON object"),
            ('{"n": 1, "d": 1, "colors": [0]}', "missing key 'r'"),
            ('{"n": 1, "d": 1, "r": 1, "colors": {"0": 0}}', "'colors' must be a list"),
        ],
        ids=["not-an-object", "missing-key", "colors-not-a-list"],
    )
    def test_document_errors(self, doc, message):
        with pytest.raises(SystemFormatError, match=f"^{re.escape(message)}$"):
            parse_coloring(doc)

    def test_integer_too_long_to_read(self):
        with pytest.raises(SystemFormatError):
            parse_coloring('{"n": 1' + "0" * 5000 + ', "d": 1, "r": 2, "colors": [0]}')


class TestGrowthLaw:
    def test_diagonal_schur_doubling_exponent(self):
        small = count_solutions(DIAG_SCHUR, 12)
        big = count_solutions(DIAG_SCHUR, 24)
        assert abs(math.log2(big / small) - 4) < 0.3
