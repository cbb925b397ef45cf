import gc
import random
import sys
from itertools import product

import pytest

from rado.dpll import parse_dimacs, solve_cnf


def brute_force_sat(num_vars, clauses):
    for bits in product((False, True), repeat=num_vars):
        assignment = (False,) + bits
        if all(
            any(assignment[l] if l > 0 else not assignment[-l] for l in cl)
            for cl in clauses
        ):
            return True
    return False


class TestSolve:
    def test_empty_formula(self):
        assert solve_cnf(3, []) is not None

    def test_empty_clause(self):
        assert solve_cnf(1, [[1], []]) is None

    def test_unit_conflict(self):
        assert solve_cnf(1, [[1], [-1]]) is None

    def test_simple_model(self):
        model = solve_cnf(2, [[1, 2], [-1, 2]])
        assert model is not None
        assert model[2] is True

    def test_tautological_clause(self):
        assert solve_cnf(1, [[1, -1]]) is not None

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            solve_cnf(1, [[2]])

    @pytest.mark.parametrize(
        "num_vars, clauses, bad",
        [(2, [[3, -5, 1]], -5), (2, [[-1, 0, 2]], 0), (2, [[1, 2, 3]], 3), (2, [[1], [2, -3]], -3)],
    )
    def test_out_of_range_message_names_the_smallest_bad_literal(self, num_vars, clauses, bad):
        with pytest.raises(ValueError, match=f"^literal {bad} out of range for 2 variables$"):
            solve_cnf(num_vars, clauses)

    def test_empty_clause_before_a_bad_literal_is_unsat(self):
        assert solve_cnf(1, [[1], [], [5]]) is None

    def test_empty_generator_clause_is_unsat(self):
        assert solve_cnf(1, [[1], iter([]), [5]]) is None

    def test_bad_literal_before_an_empty_clause_raises(self):
        with pytest.raises(ValueError, match="^literal 5 out of range for 1 variables$"):
            solve_cnf(1, [[1], [5], []])

    def test_negative_variable_count_raises(self):
        with pytest.raises(ValueError, match="number of variables -1 is negative"):
            solve_cnf(-1, [])

    @pytest.mark.parametrize(
        "clauses",
        [
            [[True, 2], [-2]],
            [[1.0, 2.0], [-2.0]],
            [[1, 2], (l for l in [-2])],
            [(l for l in c) for c in [[1, 2], [-2]]],
            iter([[1, 2], [-2]]),
            ([l for l in c] for c in [[1, 2], [-2]]),
        ],
        ids=["bool", "float", "generator clause", "generator clauses", "iterator", "generator of lists"],
    )
    def test_literals_and_clauses_of_other_types(self, clauses):
        assert solve_cnf(2, clauses) == [False, True, False]

    def test_model_ignores_repeats_order_and_tuples(self):
        # the model, not just the verdict, is that of the sorted distinct
        # literals: repeats must not change the branching order
        rng = random.Random(1414)
        models = 0
        for _ in range(300):
            num_vars = rng.randint(1, 12)
            clauses = [
                [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 20))
            ]
            expected = solve_cnf(num_vars, [sorted(set(map(int, c))) for c in clauses])
            models += expected is not None
            variant = []
            for c in clauses:
                c = c + rng.choices(c, k=rng.randint(0, 3))
                rng.shuffle(c)
                variant.append(tuple(c) if rng.random() < 0.5 else c)
            assert solve_cnf(num_vars, variant) == expected, (num_vars, variant)
        assert 50 < models < 250

    def test_search_state_is_freed_on_return(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert solve_cnf(2, [[1, 2], [-1, 2]]) == [False, True, True]
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_deep_formula_raises_the_recursion_limit(self):
        # 1,500 nested branch points take no frame each: the limit stays put
        clauses = [[2 * i + 1, 2 * i + 2] for i in range(1500)]
        limit = sys.getrecursionlimit()
        model = solve_cnf(3000, clauses)
        assert model is not None
        assert all(model[a] or model[b] for a, b in clauses)
        assert sys.getrecursionlimit() == limit

    def test_ring_runs_800_frames_deep(self, call_deep):
        ring = [[v, v % 300 + 1] for v in range(1, 301)]
        assert call_deep(solve_cnf, 300, ring) == [False] + [True] * 300

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(400):
            num_vars = rng.randint(1, 10)
            # literals drawn with replacement, so clauses repeat literals and
            # hold complementary pairs; one clause in five is a unit
            clauses = [
                [rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 14))
            ]
            expected = brute_force_sat(num_vars, clauses)
            model = solve_cnf(num_vars, clauses)
            assert (model is not None) == expected, (num_vars, clauses)
            if model is not None:
                assert all(
                    any(model[l] if l > 0 else not model[-l] for l in cl)
                    for cl in clauses
                )


class TestParse:
    def test_round_trip_format(self):
        text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 3
        assert clauses == [[1, -2], [2, 3]]

    def test_clause_spanning_lines(self):
        num_vars, clauses = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
        assert clauses == [[1, -2]]

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_dimacs("1 2 0\n")

    def test_clauses_split_at_every_zero(self):
        # two clauses on a line, a comment between clauses, tabs, -0, and
        # a last clause with no closing 0
        text = "p cnf 3 3\n1 -2 0 2 0\nc mid\n\t3   -1\t0\n2 -0\n1"
        assert parse_dimacs(text) == (3, [[1, -2], [2], [3, -1], [2], [1]])

    def test_empty_clauses_kept(self):
        assert parse_dimacs("p cnf 1 2\n0\n0 1 0\n") == (1, [[], [], [1]])

    def test_bad_header(self):
        with pytest.raises(ValueError, match="bad DIMACS header: 'p cnf 3'"):
            parse_dimacs("p cnf 3")

    @pytest.mark.parametrize("header", ["p cnf 3 x", "p cnf -3 1", "p cnf x 1", "p cnf 3 -1"])
    def test_header_counts_must_be_non_negative_integers(self, header):
        with pytest.raises(ValueError, match=f"^bad DIMACS header: '{header}'$"):
            parse_dimacs(header + "\n1 0\n")

    @pytest.mark.parametrize(
        "text, token",
        [("p cnf 2 1\n1 x 0 y\n", "x"), ("1 z 0\np cnf 3\n", "z"), ("p cnf 2 1\n1 0\n2 1.5 0\n", "1.5")],
    )
    def test_first_bad_literal_reported(self, text, token):
        # in text order, even above a bad header
        with pytest.raises(ValueError, match=f"invalid literal for int.*'{token}'"):
            parse_dimacs(text)
