import hashlib
import json
import random

import pytest
from click.testing import CliRunner

import rado
from rado.cli import main
from rado.lattice import Coloring, parse_coloring, serialize_coloring
from rado.search import SearchProblem, verify_witness
from rado.systems import (
    ColumnsPartition,
    ScalarSystem,
    VectorSystem,
    serialize_system,
    verify_partition,
)

MOTIVATING = VectorSystem.from_rows([[[1, 1, -1, 0]], [[-1, 1, 0, -1], [0, -1, 1, -1]]])
SCHUR = VectorSystem.from_rows([[[1, 1, -1]]])
DIAG_SCHUR = VectorSystem.diagonal(ScalarSystem.from_rows([[1, 1, -1]]), 2)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def system_files(tmp_path):
    motivating = tmp_path / "motivating.json"
    motivating.write_text(serialize_system(MOTIVATING))
    schur = tmp_path / "schur.json"
    schur.write_text(serialize_system(SCHUR))
    diag = tmp_path / "diag.json"
    diag.write_text(serialize_system(DIAG_SCHUR))
    return {
        "motivating": str(motivating),
        "schur": str(schur),
        "diag": str(diag),
        "dir": tmp_path,
    }


class TestCheckColumns:
    def test_schur_json(self, runner, system_files):
        result = runner.invoke(
            main, ["check-columns", "-f", system_files["schur"], "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["all_satisfy"] is True
        report = doc["coordinates"][0]
        assert report["satisfies"] and report["rank"] == 1
        # the emitted witness parses back into a verifiable partition
        partition = ColumnsPartition(tuple(tuple(b) for b in report["witness"]))
        assert verify_partition(ScalarSystem.from_rows([[1, 1, -1]]), partition)

    def test_negative_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1, "k": 2, "systems": [{"rows": [[1, 1]]}]}')
        result = runner.invoke(main, ["check-columns", "-f", str(bad)])
        assert result.exit_code == 1

    def test_over_limit_is_input_error(self, runner, system_files):
        result = runner.invoke(
            main, ["check-columns", "-f", system_files["schur"], "--limit", "2"]
        )
        assert result.exit_code == 2

    def test_malformed_file_is_input_error(self, runner, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        result = runner.invoke(main, ["check-columns", "-f", str(broken)])
        assert result.exit_code == 2


class TestEnumerateAndCount:
    def test_enumerate_json(self, runner, system_files):
        result = runner.invoke(
            main, ["enumerate", "-f", system_files["schur"], "-n", "3", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["total"] == 3
        assert [[1], [1], [2]] in doc["solutions"]

    def test_enumerate_negative_head_is_input_error(self, runner, system_files):
        result = runner.invoke(
            main, ["enumerate", "-f", system_files["schur"], "-n", "3", "--head", "-1"]
        )
        assert result.exit_code == 2
        assert result.output == "error: --head must be at least 0, got -1\n"

    def test_enumerate_head_cuts_the_listing_but_not_the_total(self, runner, system_files):
        args = ["enumerate", "-f", system_files["schur"], "-n", "5", "--json"]
        full = json.loads(runner.invoke(main, args).output)
        result = runner.invoke(main, [*args, "--head", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["total"] == full["total"] == 10
        assert doc["printed"] == 2
        assert doc["solutions"] == full["solutions"][:2]

    def test_count_with_degenerate(self, runner, system_files):
        result = runner.invoke(
            main,
            ["count", "-f", system_files["diag"], "-n", "5", "--degenerate", "--json"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["total"] == 100  # ten scalar sum triples in [1,5], squared
        assert doc["degenerate"] == 12

    def test_count_monochromatic(self, runner, system_files, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text(serialize_coloring(Coloring.constant(3, 1, r=2)))
        result = runner.invoke(
            main,
            [
                "count",
                "-f",
                system_files["schur"],
                "-n",
                "3",
                "--coloring",
                str(coloring),
                "--json",
            ],
        )
        doc = json.loads(result.output)
        assert doc["monochromatic"] == [3, 0]

    def test_count_coloring_of_another_box_is_input_error(self, runner, system_files, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text(serialize_coloring(Coloring.constant(8, 2, r=2)))
        result = runner.invoke(
            main,
            ["count", "-f", system_files["motivating"], "-n", "20", "--coloring", str(coloring)],
        )
        assert result.exit_code == 2
        assert result.output == "error: coloring box side 8 does not match -n 20\n"

    def test_count_readme_example_pinned(self, runner, system_files):
        result = runner.invoke(
            main,
            [
                "count",
                "-f",
                system_files["motivating"],
                "-n",
                "20",
                "--degenerate",
                "--mask",
                "0,1,2",
                "--json",
            ],
        )
        assert result.exit_code == 0
        assert result.output == (
            '{\n  "n": 20,\n  "total": 342000,\n  "degenerate": 720\n}\n'
        )

    def test_count_coloring_pinned(self, runner, system_files, tmp_path):
        rng = random.Random(11)
        colors = tuple(rng.randrange(3) for _ in range(144))
        coloring = tmp_path / "c.json"
        coloring.write_text(serialize_coloring(Coloring(12, 2, 3, colors)))
        result = runner.invoke(
            main,
            [
                "count",
                "-f",
                system_files["motivating"],
                "-n",
                "12",
                "--coloring",
                str(coloring),
                "--mask",
                "0,1,2",
            ],
        )
        assert result.exit_code == 0
        assert result.output == "total=23760 monochromatic=[1176, 612, 708]\n"


class TestDegenerate:
    def test_degenerate_exit_zero(self, runner):
        result = runner.invoke(
            main, ["degenerate", "--points", "1,2;2,4;3,6", "--json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc == {"degenerate": True, "direction": [1, 2], "multipliers": [1, 2, 3]}

    def test_non_degenerate_exit_one(self, runner):
        result = runner.invoke(main, ["degenerate", "--points", "1,1;3,5"])
        assert result.exit_code == 1


class TestSearchVerifyRadoNumber:
    def test_flagship_flow(self, runner, system_files):
        witness_path = str(system_files["dir"] / "w8.json")
        result = runner.invoke(
            main,
            [
                "search",
                "-f",
                system_files["motivating"],
                "-n",
                "8",
                "--colors",
                "2",
                "--mask",
                "0,1,2",
                "--emit-witness",
                witness_path,
                "--json",
            ],
        )
        assert result.exit_code == 1  # avoidable is the domain negative
        doc = json.loads(result.output)
        assert doc["status"] == "avoidable"
        emitted = parse_coloring(json.dumps(doc["witness"]))
        problem = SearchProblem(MOTIVATING, colors=2, mask=(0, 1, 2))
        assert verify_witness(problem, emitted).passed

        verify_result = runner.invoke(
            main,
            [
                "verify",
                "-f",
                system_files["motivating"],
                "--witness",
                witness_path,
                "--mask",
                "0,1,2",
            ],
        )
        assert verify_result.exit_code == 0

        unavoidable = runner.invoke(
            main,
            [
                "search",
                "-f",
                system_files["motivating"],
                "-n",
                "9",
                "--mask",
                "0,1,2",
                "--json",
            ],
        )
        assert unavoidable.exit_code == 0
        assert json.loads(unavoidable.output)["status"] == "unavoidable"

    def test_rado_number_prints_value(self, runner, system_files):
        result = runner.invoke(
            main,
            [
                "rado-number",
                "-f",
                system_files["motivating"],
                "--colors",
                "2",
                "--mask",
                "0,1,2",
                "--max-n",
                "12",
            ],
        )
        assert result.exit_code == 0
        assert result.output.strip() == "9"

    def test_rado_number_witness_passes_verify(self, runner, system_files):
        witness_path = str(system_files["dir"] / "w.json")
        args = ["-f", system_files["motivating"], "--mask", "0,1,2"]
        result = runner.invoke(
            main, ["rado-number", *args, "--max-n", "12", "--emit-witness", witness_path]
        )
        assert result.exit_code == 0
        assert result.output == "9\n"
        with open(witness_path, encoding="utf-8") as fh:
            assert parse_coloring(fh.read()).n == 8
        verify_result = runner.invoke(main, ["verify", *args, "--witness", witness_path])
        assert verify_result.exit_code == 0
        assert verify_result.output == "witness passes\n"

    def test_rado_number_exceeded(self, runner, system_files):
        result = runner.invoke(
            main,
            ["rado-number", "-f", system_files["schur"], "--max-n", "3", "--json"],
        )
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["found"] is False
        assert doc["witness"]["n"] == 3

    def test_verify_rejects_bad_witness(self, runner, system_files, tmp_path):
        bad = tmp_path / "bad_witness.json"
        bad.write_text(serialize_coloring(Coloring.constant(5, 1, r=2)))
        result = runner.invoke(
            main,
            ["verify", "-f", system_files["schur"], "--witness", str(bad), "--json"],
        )
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["passed"] is False
        assert doc["violated_constraint"] is not None


class TestProblemOptions:
    """Each search-problem option changes the answer the library gives."""

    @pytest.mark.parametrize(
        "system, flags, status",
        [
            ("schur", [], "unavoidable"),
            ("schur", ["--distinct"], "avoidable"),
            ("schur", ["--colors", "3"], "avoidable"),
            ("diag", [], "unavoidable"),
            ("diag", ["--exclude-degenerate"], "avoidable"),
        ],
    )
    def test_search(self, runner, system_files, system, flags, status):
        result = runner.invoke(
            main, ["search", "-f", system_files[system], "-n", "5", "--json", *flags]
        )
        assert result.exit_code == (1 if status == "avoidable" else 0)
        assert json.loads(result.output)["status"] == status

    @pytest.mark.parametrize(
        "system, flags, value",
        [
            ("schur", [], 5),
            ("schur", ["--distinct"], 9),
            ("diag", [], 5),
            ("diag", ["--exclude-degenerate"], 7),
        ],
    )
    def test_rado_number(self, runner, system_files, system, flags, value):
        result = runner.invoke(
            main, ["rado-number", "-f", system_files[system], "--max-n", "12", *flags]
        )
        assert result.exit_code == 0
        assert result.output.strip() == str(value)

    def test_search_color_count_cap(self, runner, system_files):
        result = runner.invoke(
            main, ["search", "-f", system_files["schur"], "-n", "5", "--colors", "63"]
        )
        assert result.exit_code == 2
        assert "colors must be in 1..62, got 63" in result.output

    @pytest.mark.parametrize("flag", ["--exclude-degenerate", "--distinct"])
    def test_export_dimacs_filters(self, runner, system_files, flag):
        def constraints(*flags):
            result = runner.invoke(
                main, ["export-dimacs", "-f", system_files["diag"], "-n", "5", *flags]
            )
            assert result.exit_code == 0
            box_line = next(l for l in result.output.splitlines() if l.startswith("c box"))
            return int(box_line.rsplit(" ", 1)[1])

        assert constraints() == 51
        assert constraints(flag) < 51

    def test_verify_colors_default_to_witness(self, runner, system_files):
        schur = system_files["schur"]
        witness = str(system_files["dir"] / "w13.json")
        search = runner.invoke(
            main,
            ["search", "-f", schur, "-n", "13", "--colors", "3", "--emit-witness", witness],
        )
        assert search.exit_code == 1
        assert parse_coloring(open(witness).read()).r == 3
        verify = ["verify", "-f", schur, "--witness", witness]
        assert runner.invoke(main, verify).exit_code == 0
        too_few = runner.invoke(main, [*verify, "--colors", "2"])
        assert too_few.exit_code == 2
        assert "witness uses 3 colors" in too_few.output

    @pytest.mark.parametrize(
        "command",
        [["search", "-n", "3"], ["rado-number", "--max-n", "3"], ["export-dimacs", "-n", "3"]],
    )
    def test_bad_mask_is_input_error(self, runner, system_files, command):
        result = runner.invoke(
            main, [*command, "-f", system_files["schur"], "--mask", "0,7"]
        )
        assert result.exit_code == 2
        assert "mask indices must lie in [0, 3)" in result.output

    @pytest.mark.parametrize(
        "command, box",
        [("count", "-3"), ("enumerate", "-2"), ("export-dimacs", "0")],
    )
    def test_empty_box_is_input_error(self, runner, system_files, command, box):
        result = runner.invoke(main, [command, "-f", system_files["motivating"], "-n", box])
        assert result.exit_code == 2
        assert result.output == "error: box side n must be at least 1\n"


class TestExportDimacs:
    def test_stdout_and_json(self, runner, system_files):
        plain = runner.invoke(
            main, ["export-dimacs", "-f", system_files["schur"], "-n", "5"]
        )
        assert plain.exit_code == 0
        assert "p cnf 5" in plain.output
        as_json = runner.invoke(
            main, ["export-dimacs", "-f", system_files["schur"], "-n", "5", "--json"]
        )
        doc = json.loads(as_json.output)
        assert doc["num_vars"] == 5
        assert doc["cnf"] == plain.output

    def test_output_file(self, runner, system_files):
        target = str(system_files["dir"] / "out.cnf")
        result = runner.invoke(
            main,
            ["export-dimacs", "-f", system_files["schur"], "-n", "4", "-o", target],
        )
        assert result.exit_code == 0
        assert "p cnf" in open(target).read()


class TestMpcCommands:
    def test_gen(self, runner):
        result = runner.invoke(
            main,
            ["mpc", "gen", "--m", "2", "--p", "1", "--c", "1", "--gens", "5,1", "--json"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["set"] == [1, 4, 5, 6]

    def test_gen_invalid_is_input_error(self, runner):
        result = runner.invoke(
            main, ["mpc", "gen", "--m", "2", "--p", "1", "--c", "1", "--gens", "1,5"]
        )
        assert result.exit_code == 2

    def test_find_mono(self, runner, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text(serialize_coloring(Coloring.constant(10, 1, r=1)))
        result = runner.invoke(
            main,
            [
                "mpc",
                "find-mono",
                "--coloring",
                str(coloring),
                "--m",
                "2",
                "--p",
                "1",
                "--c",
                "1",
                "--json",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["found"] and len(doc["generators"]) == 2

    def test_find_mono_none(self, runner, tmp_path):
        coloring = tmp_path / "c.json"
        coloring.write_text(serialize_coloring(Coloring(4, 1, 2, (0, 0, 1, 1))))
        result = runner.invoke(
            main,
            [
                "mpc",
                "find-mono",
                "--coloring",
                str(coloring),
                "--m",
                "2",
                "--p",
                "1",
                "--c",
                "1",
            ],
        )
        assert result.exit_code == 1

    def test_embed(self, runner):
        result = runner.invoke(
            main,
            [
                "mpc",
                "embed",
                "--m",
                "1",
                "--p",
                "1",
                "--c",
                "2",
                "--low",
                "1",
                "--high",
                "2",
                "--gens",
                "3",
                "--json",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["generators"] == [6]
        assert doc["contained"] is True
        assert set(doc["inner_set"]) <= set(doc["outer_set"])

    def test_contains(self, runner, system_files):
        result = runner.invoke(
            main,
            [
                "mpc",
                "contains",
                "-f",
                system_files["schur"],
                "--m",
                "2",
                "--p",
                "1",
                "--c",
                "1",
                "--gens",
                "5,1",
                "--json",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        x, y, z = doc["solution"]
        assert x + y == z

    def test_contains_none(self, runner, system_files):
        # 5 + 5 = 10 leaves the set {5}
        args = ["mpc", "contains", "-f", system_files["schur"], "--m", "1", "--p", "1",
                "--c", "1", "--gens", "5"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output == "no solution in the set\n"
        doc = json.loads(runner.invoke(main, [*args, "--json"]).output)
        assert doc == {"found": False, "solution": None}

    def test_contains_coordinate_out_of_range_is_input_error(self, runner, system_files):
        result = runner.invoke(
            main,
            ["mpc", "contains", "-f", system_files["schur"], "--coordinate", "3", "--m", "1",
             "--p", "1", "--c", "1", "--gens", "5"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: coordinate must lie in [0, 1)\n"


class TestObserve:
    def test_passing_report(self, runner):
        result = runner.invoke(
            main,
            ["observe", "--indices", "1,2,4,8,16", "--k", "3", "--l", "2", "--d", "2"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["all_pass"] is True
        assert len(doc["left_points"]) == 3
        assert len(doc["right_points"]) == 2
        left_sum = [sum(p[i] for p in doc["left_points"]) for i in range(2)]
        right_sum = [sum(q[i] for q in doc["right_points"]) for i in range(2)]
        assert left_sum == right_sum

    def test_bad_indices_is_input_error(self, runner):
        result = runner.invoke(
            main,
            ["observe", "--indices", "4,2,1,8", "--k", "2", "--l", "2", "--d", "2"],
        )
        assert result.exit_code == 2


class TestUsage:
    def test_unknown_subcommand(self, runner):
        result = runner.invoke(main, ["frobnicate"])
        assert result.exit_code == 2

    def test_missing_required_flag(self, runner):
        result = runner.invoke(main, ["enumerate", "-n", "3"])
        assert result.exit_code == 2

    def test_determinism_across_runs(self, runner, system_files):
        args = [
            "search",
            "-f",
            system_files["motivating"],
            "-n",
            "8",
            "--mask",
            "0,1,2",
            "--json",
        ]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code



# sha256 of every --help page at 80 columns; a change to any option, its
# order, default or help text, or to a command's docstring, changes one
HELP_PINS = {
    (): "cb934b2dd8039cf0903b2962f1b32a912b52ff0cb906efa981d0d982e8806539",
    ("mpc",): "8ccfee5dec604241410db7809d46b73072216df9e4ba828f8f768d0ab0b698fa",
    ("check-columns",): "5d760b4c6682568b292de2f5a2831539b4f513504729019529cee179a8fe00ff",
    ("enumerate",): "26a6b9862feebcf1feee650f5cdae2202800a1b83f7e29c1254c78df82e5a0dd",
    ("count",): "6da7fe27eb20a13081160038db1cde91ed92351309da3f3f1f6d7b687123170c",
    ("degenerate",): "54f1077c651d582259fabfac814e9620f5697b8f7a396c3a01ed5f9cd30ae28c",
    ("search",): "7e7a5d0c10763b6993199b54f8d93dea82c1688d3035fc287bef9584867876ad",
    ("rado-number",): "d07cf9a5d8abc5e46e927966e4f92c6cbd0c25e33973c7cbed0af40122a35780",
    ("verify",): "bb8acb26ae1465826be7914ad82f200ffacb7a469f34fc7fcb5696dbf935f9bb",
    ("export-dimacs",): "a8fd05f15b0b672d2aaab4639370ab5e20b9f7f5af89d7b2de63acaece96279b",
    ("mpc", "gen"): "455e1bbac7a11df2f754a56784a025b7d563d71948d0bf993b59db849e798867",
    ("mpc", "find-mono"): "78d8d9270199fd63c4899a484225143fa6a3e7cc986ca2253f4b75a210f707bf",
    ("mpc", "embed"): "b38446af36572ef5050b714e5dbcf96a27d10144dbb80e123be93b12f8c8735f",
    ("mpc", "contains"): "ac2dc3c3621c8762bf1fd9b5ec04d45f32feeab503ec1b6545dc00b655558ca9",
    ("observe",): "a8185dca36068bcb8af8c576ca9b4714eb6fb5851d3b7c94c9eda0c31d2c187f",
}


@pytest.mark.parametrize("command", HELP_PINS, ids=lambda c: " ".join(("rado",) + c))
def test_help_pinned(runner, command):
    result = runner.invoke(main, [*command, "--help"], terminal_width=80)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == HELP_PINS[command]


def test_version_needs_no_installed_metadata(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert rado.__version__ in result.output
