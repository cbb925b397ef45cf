import random
import re

import pytest

from rado.errors import (
    MalformedPartitionError,
    SystemFormatError,
    TooManyColumnsError,
)
from rado.systems import (
    ColumnsPartition,
    ScalarSystem,
    VectorSystem,
    check_columns_condition,
    parse_system,
    rank_profile,
    serialize_system,
    verify_partition,
)

from oracles import columns_condition_oracle

SCHUR = ScalarSystem.from_rows([[1, 1, -1]])
PROGRESSION = ScalarSystem.from_rows([[-1, 1, 0, -1], [0, -1, 1, -1]])
MOTIVATING = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])


def _random_invertible(rng, size):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if size == 1:
            det = m[0][0]
        elif size == 2:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        else:
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
        if det != 0:
            return m


class TestCheckColumnsCondition:
    def test_schur_satisfies(self):
        report = check_columns_condition(SCHUR)
        assert report.satisfies
        assert report.witness.blocks == ((0, 2), (1,))
        assert report.rank == 1
        assert report.full_rank

    def test_all_positive_row_fails(self):
        report = check_columns_condition(ScalarSystem.from_rows([[1, 1]]))
        assert not report.satisfies
        assert report.witness is None

    def test_progression_satisfies(self):
        report = check_columns_condition(PROGRESSION)
        assert report.satisfies
        assert report.witness.blocks == ((0, 1, 2), (3,))
        assert report.rank == 2

    def test_witness_always_verifies(self):
        for system in (SCHUR, PROGRESSION, ScalarSystem.from_rows([[2, -1, -1]])):
            report = check_columns_condition(system)
            if report.satisfies:
                assert verify_partition(system, report.witness)

    def test_column_limit(self):
        wide = ScalarSystem.from_rows([[1] * 13])
        with pytest.raises(TooManyColumnsError):
            check_columns_condition(wide)
        assert check_columns_condition(wide, limit=13).satisfies is False

    def test_invariant_under_column_permutation(self):
        rng = random.Random(7)
        for system in (SCHUR, PROGRESSION):
            expected = check_columns_condition(system).satisfies
            k = system.variables
            for _ in range(20):
                perm = list(range(k))
                rng.shuffle(perm)
                permuted = ScalarSystem.from_rows(
                    [[row[j] for j in perm] for row in system.coeffs]
                )
                assert check_columns_condition(permuted).satisfies == expected

    def test_invariant_under_row_mixing(self):
        rng = random.Random(11)
        for system in (SCHUR, PROGRESSION):
            expected = check_columns_condition(system).satisfies
            rows = [list(r) for r in system.coeffs]
            l = len(rows)
            for _ in range(20):
                mixer = _random_invertible(rng, l)
                mixed = [
                    [
                        sum(mixer[i][t] * rows[t][j] for t in range(l))
                        for j in range(len(rows[0]))
                    ]
                    for i in range(l)
                ]
                assert (
                    check_columns_condition(ScalarSystem.from_rows(mixed)).satisfies
                    == expected
                )

    def test_agrees_with_partition_enumeration(self):
        rng = random.Random(2024)
        for _ in range(120):
            l = rng.randint(1, 2)
            k = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(l)]
            if all(all(x == 0 for x in row) for row in rows):
                continue
            system = ScalarSystem.from_rows(rows)
            report = check_columns_condition(system)
            assert report.satisfies == columns_condition_oracle(rows), rows
            if report.satisfies:
                assert verify_partition(system, report.witness)


class TestVerifyPartition:
    def test_schur_witness(self):
        assert verify_partition(SCHUR, ColumnsPartition(((0, 2), (1,))))

    def test_nonzero_first_block(self):
        assert not verify_partition(SCHUR, ColumnsPartition(((0,), (1, 2))))

    def test_single_block_zero_sum(self):
        system = ScalarSystem.from_rows([[1, -2, 1]])
        assert verify_partition(system, ColumnsPartition(((0, 1, 2),)))

    def test_later_block_outside_the_span(self):
        system = ScalarSystem.from_rows([[1, -1, 0], [0, 0, 1]])
        assert not verify_partition(system, ColumnsPartition(((0, 1), (2,))))

    def test_malformed_partitions(self):
        with pytest.raises(MalformedPartitionError):
            verify_partition(SCHUR, ColumnsPartition(((0, 1),)))
        with pytest.raises(MalformedPartitionError):
            verify_partition(SCHUR, ColumnsPartition(((0, 1), (1, 2))))
        with pytest.raises(MalformedPartitionError):
            verify_partition(SCHUR, ColumnsPartition(((0, 1, 2), ())))
        with pytest.raises(MalformedPartitionError):
            verify_partition(SCHUR, ColumnsPartition(((0, 1, 5),)))


class TestRankProfile:
    def test_motivating_system(self):
        assert rank_profile(MOTIVATING) == [(1, (1, 2, 3)), (2, (2, 3))]

    def test_full_rank_square(self):
        identity = ScalarSystem.from_rows([[1, 0], [0, 1]])
        assert rank_profile(VectorSystem((identity,))) == [(2, ())]

    def test_zero_rows(self):
        zero = ScalarSystem.from_rows([[0, 0, 0]])
        assert rank_profile(VectorSystem((zero,))) == [(0, (0, 1, 2))]


class TestFileFormat:
    def test_motivating_round_trip(self):
        text = serialize_system(MOTIVATING)
        assert parse_system(text) == MOTIVATING
        doc = (
            '{"d": 2, "k": 4, "systems": [{"rows": [[1, 1, -1, 0]]}, '
            '{"rows": [[-1, 1, 0, -1], [0, -1, 1, -1]]}]}'
        )
        assert parse_system(doc) == MOTIVATING

    def test_one_dimensional_file(self):
        system = parse_system('{"d": 1, "k": 3, "systems": [{"rows": [[1, 1, -1]]}]}')
        assert system.d == 1
        assert system.coordinate_systems[0] == SCHUR

    def test_column_count_mismatch_names_coordinate(self):
        doc = '{"d": 2, "k": 4, "systems": [{"rows": [[1, 1, -1, 0]]}, {"rows": [[1, 1, -1]]}]}'
        with pytest.raises(SystemFormatError, match="coordinate system 1"):
            parse_system(doc)

    def test_serialization_is_canonical(self):
        assert serialize_system(MOTIVATING) == serialize_system(
            parse_system(serialize_system(MOTIVATING))
        )

    def test_rejects_non_integer_entries(self):
        with pytest.raises(SystemFormatError):
            parse_system('{"d": 1, "k": 2, "systems": [{"rows": [[1, 1.5]]}]}')

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("[]", "a system needs at least one equation row"),
            ("[[1, 2], [1]]", "ragged coefficient rows"),
            ("[[1, true]]", "non-integer coefficient True"),
            ("[[1, -1], 2]", "'rows' must be a list of lists"),
        ],
        ids=["empty", "ragged", "bool", "not-a-row"],
    )
    def test_row_errors_name_the_coordinate(self, rows, message):
        doc = f'{{"d": 2, "k": 2, "systems": [{{"rows": [[1, -1]]}}, {{"rows": {rows}}}]}}'
        with pytest.raises(SystemFormatError, match=re.escape(f"coordinate system 1: {message}")):
            parse_system(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[1, 2]", "system document must be a JSON object"),
            ('{"d": 1, "systems": []}', "missing key 'k'"),
            ('{"d": 0, "k": 2, "systems": []}', "d must be a positive integer"),
            ('{"d": true, "k": 1, "systems": [{"rows": [[1]]}]}', "d must be a positive integer"),
            ('{"d": 1, "k": -1, "systems": [{"rows": [[1]]}]}', "k must be a positive integer"),
            ('{"d": 1, "k": true, "systems": [{"rows": [[1]]}]}', "k must be a positive integer"),
            ('{"d": 1, "k": 1, "systems": [{"cols": [[1]]}]}', "coordinate system 0: missing 'rows'"),
        ],
        ids=["not-an-object", "missing-key", "d-zero", "d-bool", "k-negative", "k-bool", "no-rows"],
    )
    def test_document_errors(self, doc, message):
        with pytest.raises(SystemFormatError, match=f"^{re.escape(message)}$"):
            parse_system(doc)

    def test_rejects_wrong_system_count(self):
        with pytest.raises(SystemFormatError):
            parse_system('{"d": 2, "k": 2, "systems": [{"rows": [[1, -1]]}]}')

    def test_integer_too_long_to_read(self):
        coeff = "1" + "0" * 5000
        with pytest.raises(SystemFormatError):
            parse_system(f'{{"d": 1, "k": 2, "systems": [{{"rows": [[1, {coeff}]]}}]}}')


class TestValidation:
    def test_dummy_zero_column_accepted(self):
        system = ScalarSystem.from_rows([[1, 1, -1, 0]])
        assert system.column(3) == (0,)

    def test_ragged_rows_rejected(self):
        with pytest.raises(SystemFormatError):
            ScalarSystem.from_rows([[1, 2], [1]])

    @pytest.mark.parametrize("entry", [1.5, "3", True], ids=["float", "str", "bool"])
    def test_from_rows_refuses_non_integer_entries(self, entry):
        message = f"non-integer coefficient {entry!r}"
        with pytest.raises(SystemFormatError, match=re.escape(message)):
            ScalarSystem.from_rows([[entry, 1, -2]])
        with pytest.raises(SystemFormatError, match=re.escape(message)):
            VectorSystem.from_rows([[[1, 1, -1]], [[entry, 1, -2]]])

    def test_vector_system_requires_equal_k(self):
        with pytest.raises(SystemFormatError):
            VectorSystem((SCHUR, ScalarSystem.from_rows([[1, -1]])))

    def test_diagonal_builder(self):
        diag = VectorSystem.diagonal(SCHUR, 3)
        assert diag.d == 3
        assert all(s == SCHUR for s in diag.coordinate_systems)
