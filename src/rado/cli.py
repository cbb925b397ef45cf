"""Command-line surface: `rado <subcommand>`.

Every subcommand supports --json for structured output.  Exit codes: 0 for
success / a positive finding, 1 for a domain negative (condition fails,
coloring avoidable, nothing found, max-n exceeded), 2 for usage or input
errors.  Each command returns ``(doc, text, code)``, and `emits` turns that
into output and an exit code the same way for all of them.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict
from typing import NoReturn

import click

from . import __version__
from .construct import build_difference_families, check_difference_families
from .errors import RadoError
from .lattice import (
    DEFAULT_BUDGET,
    count_degenerate,
    count_monochromatic,
    count_solutions,
    enumerate_vector_solutions,
    is_degenerate,
    parse_coloring,
    serialize_coloring,
)
from .mpc import (
    MpcSpec,
    embed_mpc,
    find_mono_mpc,
    generate_mpc,
    mpc_contains_solution,
)
from .search import (
    AVOIDABLE,
    SearchProblem,
    export_dimacs,
    find_avoiding_coloring,
    rado_number,
    verify_witness,
)
from .systems import (
    DEFAULT_COLUMN_LIMIT,
    check_columns_condition,
    parse_system,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_ints(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(int(tok) for tok in value.split(",") if tok.strip() != "")
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of integers")


def _parse_points(_ctx, _param, value):
    try:
        points = []
        for chunk in value.split(";"):
            chunk = chunk.strip()
            if chunk:
                points.append(tuple(int(tok) for tok in chunk.split(",")))
        return tuple(points)
    except ValueError:
        raise click.BadParameter(
            "points must look like 'x1,x2;y1,y2;...' with integer coordinates"
        )


def _finish(text: str, code: int, err: bool = False) -> NoReturn:
    click.echo(text, err=err)
    sys.exit(code)


def emits(fn):
    """Declare --json, then print the ``(doc, text, code)`` that ``fn`` returns.

    ``doc`` is printed as indented JSON under --json or when ``text`` is None,
    ``text`` otherwise, and the process exits with ``code``.  A library input
    error (`RadoError`, `OSError`, `ValueError`) prints ``error: ...`` to
    stderr and exits 2.
    """

    @click.option("--json", "as_json", is_flag=True, help="Structured output.")
    @functools.wraps(fn)
    def wrapper(*args, as_json, **kwargs):
        try:
            doc, text, code = fn(*args, **kwargs)
        except (RadoError, OSError, ValueError) as e:
            _finish(f"error: {e}", 2, err=True)
        _finish(json.dumps(doc, indent=2) if as_json or text is None else text, code)

    return wrapper


system_option = click.option(
    "-f",
    "--system",
    "system_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="System file (JSON).",
)


def _box_side(_ctx, _param, value):
    # the library answers for the empty box n = 0; a command refuses it
    if value < 1:
        _finish("error: box side n must be at least 1", 2, err=True)
    return value


box_option = click.option(
    "-n", "box", type=int, required=True, callback=_box_side, help="Box side n."
)
budget_option = click.option(
    "--budget",
    type=int,
    default=DEFAULT_BUDGET,
    show_default=True,
    help="Maximum enumeration candidate cells.",
)
mask_option = click.option(
    "--mask",
    callback=_parse_ints,
    default=None,
    help="Comma-separated solution point indices that must share a color "
    "(default: all).",
)
exclude_degenerate_option = click.option(
    "--exclude-degenerate",
    is_flag=True,
    help="Drop solution tuples whose masked point set is degenerate.",
)
distinct_option = click.option(
    "--distinct",
    is_flag=True,
    help="Require the masked points of a solution tuple to be pairwise distinct.",
)


def witness_option(help_text: str):
    return click.option(
        "--emit-witness",
        "witness_path",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help=help_text,
    )


def mpc_options(fn):
    """Declare the required integer parameters --m, --p and --c, in that order."""
    for name in "cpm":
        fn = click.option(f"--{name}", name, type=int, required=True)(fn)
    return fn


def problem_options(fn):
    """Declare the search-problem options and pass ``fn`` a built `SearchProblem`.

    Building the problem reads the system file and validates the mask and the
    color count, so `emits` must wrap this decorator.
    """

    @system_option
    @click.option(
        "--colors", type=int, default=2, show_default=True, help="Number of colors r."
    )
    @mask_option
    @exclude_degenerate_option
    @distinct_option
    @functools.wraps(fn)
    def wrapper(system_path, colors, mask, exclude_degenerate, distinct, **kwargs):
        problem = SearchProblem(
            parse_system(_read(system_path)),
            colors=colors,
            mask=mask,
            exclude_degenerate=exclude_degenerate,
            require_distinct=distinct,
        )
        return fn(problem, **kwargs)

    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Columns-condition checks, lattice enumeration and exact Rado numbers."""


@main.command("check-columns")
@system_option
@click.option(
    "--limit",
    type=int,
    default=DEFAULT_COLUMN_LIMIT,
    show_default=True,
    help="Refuse matrices with more columns than this.",
)
@emits
def cmd_check_columns(system_path, limit):
    """Decide the columns condition for every coordinate matrix."""
    system = parse_system(_read(system_path))
    reports = [check_columns_condition(s, limit) for s in system.coordinate_systems]
    doc = {
        "coordinates": [
            {
                "satisfies": rep.satisfies,
                "rank": rep.rank,
                "full_rank": rep.full_rank,
                "witness": rep.witness.blocks if rep.witness else None,
            }
            for rep in reports
        ],
        "all_satisfy": all(rep.satisfies for rep in reports),
    }
    lines = []
    for i, rep in enumerate(reports):
        blocks = (
            " blocks=" + ";".join(",".join(map(str, b)) for b in rep.witness.blocks)
            if rep.witness
            else ""
        )
        lines.append(
            f"coordinate {i}: satisfies={rep.satisfies} rank={rep.rank}"
            f" full_rank={rep.full_rank}{blocks}"
        )
    return doc, "\n".join(lines), 0 if doc["all_satisfy"] else 1


@main.command("enumerate")
@system_option
@box_option
@click.option("--head", type=int, default=0, help="Print at most this many tuples (0 = all).")
@budget_option
@emits
def cmd_enumerate(system_path, box, head, budget):
    """List solution tuples in [1,n]^d (points as columns)."""
    if head < 0:
        raise ValueError(f"--head must be at least 0, got {head}")
    system = parse_system(_read(system_path))
    tuples = []
    for i, sol in enumerate(enumerate_vector_solutions(system, box, budget)):
        if head and i >= head:
            break
        tuples.append(sol.points)
    total = count_solutions(system, box, budget)
    doc = {"n": box, "total": total, "printed": len(tuples), "solutions": tuples}
    lines = [f"total {total} solution tuples in [1,{box}]^{system.d}"]
    lines += [" ".join("(" + ",".join(map(str, p)) + ")" for p in points) for points in tuples]
    return doc, "\n".join(lines), 0


@main.command("count")
@system_option
@box_option
@click.option("--degenerate", "count_deg", is_flag=True, help="Also count degenerate tuples.")
@mask_option
@click.option(
    "--coloring",
    "coloring_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Also count monochromatic tuples per color of this coloring file.",
)
@budget_option
@emits
def cmd_count(system_path, box, count_deg, mask, coloring_path, budget):
    """Count solution tuples in [1,n]^d."""
    system = parse_system(_read(system_path))
    coloring = parse_coloring(_read(coloring_path)) if coloring_path else None
    if coloring is not None and coloring.n != box:
        raise ValueError(f"coloring box side {coloring.n} does not match -n {box}")
    doc = {"n": box, "total": count_solutions(system, box, budget)}
    if count_deg:
        doc["degenerate"] = count_degenerate(system, box, mask, budget)
    if coloring is not None:
        doc["monochromatic"] = count_monochromatic(system, coloring, mask, budget)
    text = " ".join(f"{key}={doc[key]}" for key in doc if key != "n")
    return doc, text, 0


@main.command("degenerate")
@click.option(
    "--points",
    required=True,
    callback=_parse_points,
    help="Point set, e.g. '1,2;2,4;3,6'.",
)
@emits
def cmd_degenerate(points):
    """Classify a point set; exit 0 when degenerate, 1 otherwise."""
    report = is_degenerate(points)
    doc = {
        "degenerate": report.degenerate,
        "direction": report.direction,
        "multipliers": report.multipliers,
    }
    if not report.degenerate:
        return doc, "non-degenerate", 1
    text = f"degenerate: direction={report.direction} multipliers={report.multipliers}"
    return doc, text, 0


@main.command("search")
@box_option
@witness_option("Write the avoiding coloring to this file when one exists.")
@budget_option
@emits
@problem_options
def cmd_search(problem, box, witness_path, budget):
    """Decide avoidability of [1,n]^d; exit 0 when unavoidable, 1 when avoidable."""
    outcome = find_avoiding_coloring(problem, box, budget)
    doc = {
        "n": box,
        "status": outcome.status,
        "witness": asdict(outcome.witness) if outcome.witness else None,
        "forced_constraint": outcome.forced_constraint,
    }
    text = f"n={box}: {outcome.status}"
    if witness_path and outcome.witness is not None:
        _write(witness_path, serialize_coloring(outcome.witness))
        text += f"\nwitness written to {witness_path}"
    return doc, text, 1 if outcome.status == AVOIDABLE else 0


@main.command("rado-number")
@click.option("--max-n", type=int, required=True, help="Stop the scan at this box side.")
@witness_option("Write the last avoiding coloring found during the scan.")
@budget_option
@emits
@problem_options
def cmd_rado_number(problem, max_n, witness_path, budget):
    """Minimal n whose every coloring has a monochromatic constrained solution."""
    result = rado_number(problem, max_n, budget)
    if result.witness is not None and witness_path:
        _write(witness_path, serialize_coloring(result.witness))
    doc = {
        "found": result.found,
        "value": result.value,
        "searched_to": result.searched_to,
        "witness": asdict(result.witness) if result.witness else None,
    }
    if result.found:
        return doc, str(result.value), 0
    return doc, f"avoidable through n={result.searched_to}", 1


@main.command("verify")
@system_option
@click.option(
    "--witness",
    "witness_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Coloring certificate file.",
)
@click.option(
    "--colors",
    type=int,
    default=None,
    help="Problem colors (default: the witness's color count).",
)
@mask_option
@exclude_degenerate_option
@distinct_option
@budget_option
@emits
def cmd_verify(system_path, witness_path, colors, mask, exclude_degenerate, distinct, budget):
    """Check a coloring certificate; exit 0 when it avoids all constraints."""
    witness = parse_coloring(_read(witness_path))
    problem = SearchProblem(
        parse_system(_read(system_path)),
        colors=colors if colors is not None else witness.r,
        mask=mask,
        exclude_degenerate=exclude_degenerate,
        require_distinct=distinct,
    )
    report = verify_witness(problem, witness, budget)
    doc = {
        "passed": report.passed,
        "violated_constraint": report.violated_constraint,
        "color": report.color,
    }
    if report.passed:
        return doc, "witness passes", 0
    constraint, color = report.violated_constraint, report.color
    return doc, f"witness fails: constraint {constraint} is monochromatic in color {color}", 1


@main.command("export-dimacs")
@box_option
@click.option(
    "-o",
    "--output",
    "output_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the CNF here instead of stdout.",
)
@budget_option
@emits
@problem_options
def cmd_export_dimacs(problem, box, output_path, budget):
    """Emit a CNF that is satisfiable exactly when [1,n]^d is avoidable."""
    text = export_dimacs(problem, box, budget)
    if output_path:
        _write(output_path, text)
        return {"written": output_path}, f"CNF written to {output_path}", 0
    header = next(l for l in text.splitlines() if l.startswith("p cnf"))
    _, _, num_vars, num_clauses = header.split()
    doc = {"num_vars": int(num_vars), "num_clauses": int(num_clauses), "cnf": text}
    # the CNF ends in a newline, which printing adds back
    return doc, text.removesuffix("\n"), 0


@main.group("mpc")
def mpc_group():
    """Structured additive sets."""


@mpc_group.command("gen")
@mpc_options
@click.option("--gens", required=True, callback=_parse_ints, help="Comma-separated generators.")
@emits
def cmd_mpc_gen(m, p, c, gens):
    """Generate the set for given parameters and generators."""
    values = generate_mpc(MpcSpec(m, p, c), gens)
    return {"set": values}, " ".join(map(str, values)), 0


@mpc_group.command("find-mono")
@click.option(
    "--coloring",
    "coloring_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="1-d coloring certificate file.",
)
@mpc_options
@emits
def cmd_mpc_find_mono(coloring_path, m, p, c):
    """Search for generators whose set is monochromatic; exit 1 when none."""
    coloring = parse_coloring(_read(coloring_path))
    spec = MpcSpec(m, p, c)
    gens = find_mono_mpc(coloring, spec)
    doc = {
        "found": gens is not None,
        "generators": gens,
        "set": generate_mpc(spec, gens) if gens else None,
    }
    if gens:
        return doc, "generators " + ",".join(map(str, gens)), 0
    return doc, "no monochromatic set", 1


@mpc_group.command("embed")
@mpc_options
@click.option("--low", "low_exp", type=int, required=True, help="Target power of c.")
@click.option("--high", "high_exp", type=int, required=True, help="Source power of c.")
@click.option("--gens", required=True, callback=_parse_ints)
@emits
def cmd_mpc_embed(m, p, c, low_exp, high_exp, gens):
    """Scale generators down one structure level and check the containment."""
    scaled = embed_mpc(m, p, c, low_exp, high_exp, gens)
    inner = generate_mpc(MpcSpec(m, p, c**low_exp), scaled)
    outer = generate_mpc(MpcSpec(m, c ** (high_exp - low_exp) * p, c**high_exp), gens)
    doc = {
        "generators": scaled,
        "inner_set": inner,
        "outer_set": outer,
        "contained": True,
    }
    return doc, "generators " + ",".join(map(str, scaled)), 0


@mpc_group.command("contains")
@system_option
@click.option("--coordinate", type=int, default=0, show_default=True, help="Which coordinate system to solve.")
@mpc_options
@click.option("--gens", required=True, callback=_parse_ints)
@budget_option
@emits
def cmd_mpc_contains(system_path, coordinate, m, p, c, gens, budget):
    """Search the generated set for a solution tuple; exit 1 when none."""
    system = parse_system(_read(system_path))
    if not 0 <= coordinate < system.d:
        raise ValueError(f"coordinate must lie in [0, {system.d})")
    scalar = system.coordinate_systems[coordinate]
    solution = mpc_contains_solution(MpcSpec(m, p, c), gens, scalar, budget)
    doc = {"found": solution is not None, "solution": solution}
    if solution:
        return doc, " ".join(map(str, solution)), 0
    return doc, "no solution in the set", 1


@main.command("observe")
@click.option("--indices", required=True, callback=_parse_ints, help="Strictly increasing indices.")
@click.option("--k", "k", type=int, required=True, help="Left family size.")
@click.option("--l", "l", type=int, required=True, help="Right family size.")
@click.option("--d", "d", type=int, required=True, help="Dimension.")
@emits
def cmd_observe(indices, k, l, d):
    """Build the power-difference families and print their check report as JSON."""
    families = build_difference_families(indices, k, l, d)
    report = check_difference_families(families, d, k, l)
    doc = {
        "left_points": families.left,
        "right_points": families.right,
        "report": asdict(report),
        "all_pass": report.all_pass(),
    }
    return doc, None, 0 if report.all_pass() else 1


if __name__ == "__main__":
    main()
