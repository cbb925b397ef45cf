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

    def test_deep_formula_raises_the_recursion_limit(self):
        clauses = [[2 * i + 1, 2 * i + 2] for i in range(1500)]
        limit = sys.getrecursionlimit()
        model = solve_cnf(3000, clauses)
        assert model is not None
        assert all(model[a] or model[b] for a, b in clauses)
        assert sys.getrecursionlimit() == limit

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
