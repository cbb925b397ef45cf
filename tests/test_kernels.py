import random

import pytest

from rado.kernel import available_backends, default_backend, solve_avoidability

from oracles import avoidable_all_colorings

BACKENDS = available_backends()


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

    def test_color_count_cap(self, backend):
        with pytest.raises(ValueError):
            solve_avoidability(1, 63, [], [], backend=backend)


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
        reason="compiled kernel not built (needs Cython and a C compiler)",
    )
    assert "c" in BACKENDS
    assert default_backend() == "c"


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
