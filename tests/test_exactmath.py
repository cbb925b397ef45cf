from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rado.errors import DimensionMismatchError
from rado.exactmath import in_span, rank, rref

from oracles import det_rank, rank_in_span


class TestRref:
    def test_identity(self):
        result = rref([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert result == [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]

    def test_single_row(self):
        assert rref([[1, 1, -1]]) == [(0, [1, 1, -1])]

    def test_vandermonde_nodes_1_2_3(self):
        # determinant (2-1)(3-1)(3-2) = 2, so full rank
        result = rref([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
        assert result == [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]

    def test_empty_matrix(self):
        assert rref([]) == []

    def test_rational_pivots(self):
        assert rref([[2, 4], [1, 3]]) == [(0, [1, 0]), (1, [0, 1])]

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            rref([[1, 2], [3]])
        with pytest.raises(DimensionMismatchError):
            rank([[0, 0], [1]])

    def test_dependent_rows_dropped_and_fractions_kept(self):
        assert rref([[2, 1, 0], [4, 2, 0], [0, 0, 3]]) == [
            (0, [1, Fraction(1, 2), 0]),
            (2, [0, 0, 1]),
        ]


class TestRank:
    def test_zero_matrix(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_single_row(self):
        assert rank([[1, 1, -1, 0]]) == 1

    def test_progression_matrix(self):
        assert rank([[-1, 1, 0, -1], [0, -1, 1, -1]]) == 2


class TestInSpan:
    def test_standard_basis(self):
        assert in_span((1, 1), [(1, 0), (0, 1)])

    def test_zero_in_empty_span(self):
        assert in_span((0, 0, 0), [])

    def test_nonzero_not_in_empty_span(self):
        assert not in_span((1, 0), [])

    def test_progression_columns(self):
        # needed by the columns-condition witness of the 3-AP matrix
        assert in_span((-1, -1), [(-1, 0), (1, -1), (0, 1)])

    def test_outside_span(self):
        assert not in_span((0, 0, 1), [(1, 0, 0), (0, 1, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            in_span((1, 0), [(1, 0, 0)])


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_matrices(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    return [entries[i * cols : (i + 1) * cols] for i in range(rows)]


@settings(deadline=None, max_examples=80)
@given(small_matrices())
def test_rref_idempotent(rows):
    first = rref(rows)
    assert rref(row for _, row in first) == first


@settings(deadline=None, max_examples=80)
@given(small_matrices())
def test_rref_is_reduced_and_spans_the_rows(rows):
    result = rref(rows)
    pivots = [p for p, _ in result]
    assert pivots == sorted(set(pivots))
    for p, row in result:
        assert [row[q] for q in pivots] == [int(q == p) for q in pivots]
    reduced = [row for _, row in result]
    assert len(result) == det_rank(rows) == det_rank(rows + reduced)


@settings(deadline=None, max_examples=60)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(rows, rng):
    base = rank(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rank(shuffled) == base
    i = rng.randrange(len(rows))
    factor = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
    scaled = [list(r) for r in rows]
    scaled[i] = [factor * x for x in scaled[i]]
    assert rank(scaled) == base


@settings(deadline=None, max_examples=60)
@given(small_matrices(max_rows=3, max_cols=3))
def test_rank_matches_determinant_oracle(rows):
    assert rank(rows) == det_rank(rows)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=0, max_size=3),
    st.lists(small_entries, min_size=3, max_size=3),
)
def test_in_span_agrees_with_rank_comparison(basis, v):
    assert in_span(v, basis) == rank_in_span(v, basis)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(-50, 50), st.integers(1, 30), st.integers(-50, 50), st.integers(1, 30)
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    # cross-multiplication identities hold with zero error
    x = Fraction(a, b)
    y = Fraction(c, d)
    s = x + y
    assert s.numerator * (b * d) == (a * d + c * b) * s.denominator
    p = x * y
    assert p.numerator * (b * d) == (a * c) * p.denominator

