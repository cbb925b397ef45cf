"""Command-line surface: `rado <subcommand>`.

Every subcommand supports --json for structured output.  Exit codes: 0 for
success / a positive finding, 1 for a domain negative (condition fails,
coloring avoidable, nothing found, max-n exceeded), 2 for usage or input
errors.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict

import click

from .construct import build_difference_families, check_difference_families
from .errors import RadoError
from .lattice import (
    DEFAULT_BUDGET,
    Coloring,
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
    VectorSystem,
    check_columns_condition,
    parse_system,
)


def _echo_json(doc) -> None:
    click.echo(json.dumps(doc, indent=2))


def _load_system(path: str) -> VectorSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _load_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coloring(fh.read())


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


def domain_errors(fn):
    """Map library input errors to exit code 2."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (RadoError, OSError, ValueError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(2)

    return wrapper


system_option = click.option(
    "-f",
    "--system",
    "system_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="System file (JSON).",
)
json_option = click.option("--json", "as_json", is_flag=True, help="Structured output.")
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


def problem_options(fn):
    """Declare the search-problem options and pass ``fn`` a built `SearchProblem`.

    Building the problem reads the system file and validates the mask and the
    color count, so ``domain_errors`` must wrap this decorator.
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
            _load_system(system_path),
            colors=colors,
            mask=mask,
            exclude_degenerate=exclude_degenerate,
            require_distinct=distinct,
        )
        return fn(problem, **kwargs)

    return wrapper


@click.group()
@click.version_option(package_name="rado-lattice")
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
@json_option
@domain_errors
def cmd_check_columns(system_path, limit, as_json):
    """Decide the columns condition for every coordinate matrix."""
    system = _load_system(system_path)
    reports = [check_columns_condition(s, limit) for s in system.coordinate_systems]
    doc = {
        "coordinates": [
            {
                "satisfies": rep.satisfies,
                "rank": rep.rank,
                "full_rank": rep.full_rank,
                "witness": [list(b) for b in rep.witness.blocks] if rep.witness else None,
            }
            for rep in reports
        ],
        "all_satisfy": all(rep.satisfies for rep in reports),
    }
    if as_json:
        _echo_json(doc)
    else:
        for i, rep in enumerate(reports):
            blocks = (
                " blocks=" + ";".join(",".join(map(str, b)) for b in rep.witness.blocks)
                if rep.witness
                else ""
            )
            click.echo(
                f"coordinate {i}: satisfies={rep.satisfies} rank={rep.rank}"
                f" full_rank={rep.full_rank}{blocks}"
            )
    sys.exit(0 if doc["all_satisfy"] else 1)


@main.command("enumerate")
@system_option
@click.option("-n", "box", type=int, required=True, help="Box side n.")
@click.option("--head", type=int, default=0, help="Print at most this many tuples (0 = all).")
@budget_option
@json_option
@domain_errors
def cmd_enumerate(system_path, box, head, budget, as_json):
    """List solution tuples in [1,n]^d (points as columns)."""
    system = _load_system(system_path)
    tuples = []
    for i, sol in enumerate(enumerate_vector_solutions(system, box, budget)):
        if head and i >= head:
            break
        tuples.append([list(p) for p in sol.points])
    total = count_solutions(system, box, budget)
    doc = {"n": box, "total": total, "printed": len(tuples), "solutions": tuples}
    if as_json:
        _echo_json(doc)
    else:
        click.echo(f"total {total} solution tuples in [1,{box}]^{system.d}")
        for points in tuples:
            click.echo(" ".join("(" + ",".join(map(str, p)) + ")" for p in points))
    sys.exit(0)


@main.command("count")
@system_option
@click.option("-n", "box", type=int, required=True, help="Box side n.")
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
@json_option
@domain_errors
def cmd_count(system_path, box, count_deg, mask, coloring_path, budget, as_json):
    """Count solution tuples in [1,n]^d."""
    system = _load_system(system_path)
    doc = {"n": box, "total": count_solutions(system, box, budget)}
    if count_deg:
        doc["degenerate"] = count_degenerate(system, box, mask, budget)
    if coloring_path:
        coloring = _load_coloring(coloring_path)
        doc["monochromatic"] = count_monochromatic(system, coloring, mask, budget)
    if as_json:
        _echo_json(doc)
    else:
        line = f"total={doc['total']}"
        if "degenerate" in doc:
            line += f" degenerate={doc['degenerate']}"
        if "monochromatic" in doc:
            line += f" monochromatic={doc['monochromatic']}"
        click.echo(line)
    sys.exit(0)


@main.command("degenerate")
@click.option(
    "--points",
    required=True,
    callback=_parse_points,
    help="Point set, e.g. '1,2;2,4;3,6'.",
)
@json_option
@domain_errors
def cmd_degenerate(points, as_json):
    """Classify a point set; exit 0 when degenerate, 1 otherwise."""
    report = is_degenerate(points)
    doc = {
        "degenerate": report.degenerate,
        "direction": list(report.direction) if report.direction else None,
        "multipliers": list(report.multipliers) if report.multipliers else None,
    }
    if as_json:
        _echo_json(doc)
    else:
        if report.degenerate:
            click.echo(
                f"degenerate: direction={report.direction} multipliers={report.multipliers}"
            )
        else:
            click.echo("non-degenerate")
    sys.exit(0 if report.degenerate else 1)


@main.command("search")
@click.option("-n", "box", type=int, required=True, help="Box side n.")
@click.option(
    "--emit-witness",
    "witness_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the avoiding coloring to this file when one exists.",
)
@budget_option
@json_option
@domain_errors
@problem_options
def cmd_search(problem, box, witness_path, budget, as_json):
    """Decide avoidability of [1,n]^d; exit 0 when unavoidable, 1 when avoidable."""
    outcome = find_avoiding_coloring(problem, box, budget)
    if outcome.witness is not None and witness_path:
        _write(witness_path, serialize_coloring(outcome.witness))
    doc = {
        "n": box,
        "status": outcome.status,
        "witness": asdict(outcome.witness) if outcome.witness else None,
        "forced_constraint": (
            [list(p) for p in outcome.forced_constraint]
            if outcome.forced_constraint
            else None
        ),
    }
    if as_json:
        _echo_json(doc)
    else:
        click.echo(f"n={box}: {outcome.status}")
        if witness_path and outcome.witness is not None:
            click.echo(f"witness written to {witness_path}")
    sys.exit(1 if outcome.status == AVOIDABLE else 0)


@main.command("rado-number")
@click.option("--max-n", type=int, required=True, help="Stop the scan at this box side.")
@click.option(
    "--emit-witness",
    "witness_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the last avoiding coloring found during the scan.",
)
@budget_option
@json_option
@domain_errors
@problem_options
def cmd_rado_number(problem, max_n, witness_path, budget, as_json):
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
    if as_json:
        _echo_json(doc)
    elif result.found:
        click.echo(str(result.value))
    else:
        click.echo(f"avoidable through n={result.searched_to}")
    sys.exit(0 if result.found else 1)


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
@json_option
@domain_errors
def cmd_verify(
    system_path,
    witness_path,
    colors,
    mask,
    exclude_degenerate,
    distinct,
    budget,
    as_json,
):
    """Check a coloring certificate; exit 0 when it avoids all constraints."""
    witness = _load_coloring(witness_path)
    problem = SearchProblem(
        _load_system(system_path),
        colors=colors if colors is not None else witness.r,
        mask=mask,
        exclude_degenerate=exclude_degenerate,
        require_distinct=distinct,
    )
    report = verify_witness(problem, witness, budget)
    doc = {
        "passed": report.passed,
        "violated_constraint": (
            [list(p) for p in report.violated_constraint]
            if report.violated_constraint
            else None
        ),
        "color": report.color,
    }
    if as_json:
        _echo_json(doc)
    elif report.passed:
        click.echo("witness passes")
    else:
        click.echo(
            f"witness fails: constraint {report.violated_constraint} "
            f"is monochromatic in color {report.color}"
        )
    sys.exit(0 if report.passed else 1)


@main.command("export-dimacs")
@click.option("-n", "box", type=int, required=True, help="Box side n.")
@click.option(
    "-o",
    "--output",
    "output_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the CNF here instead of stdout.",
)
@budget_option
@json_option
@domain_errors
@problem_options
def cmd_export_dimacs(problem, box, output_path, budget, as_json):
    """Emit a CNF that is satisfiable exactly when [1,n]^d is avoidable."""
    text = export_dimacs(problem, box, budget)
    if output_path:
        _write(output_path, text)
        if as_json:
            _echo_json({"written": output_path})
        else:
            click.echo(f"CNF written to {output_path}")
    elif as_json:
        header = next(l for l in text.splitlines() if l.startswith("p cnf"))
        _, _, num_vars, num_clauses = header.split()
        _echo_json(
            {"num_vars": int(num_vars), "num_clauses": int(num_clauses), "cnf": text}
        )
    else:
        click.echo(text, nl=False)
    sys.exit(0)


@main.group("mpc")
def mpc_group():
    """Structured additive sets."""


@mpc_group.command("gen")
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--c", "c", type=int, required=True)
@click.option("--gens", required=True, callback=_parse_ints, help="Comma-separated generators.")
@json_option
@domain_errors
def cmd_mpc_gen(m, p, c, gens, as_json):
    """Generate the set for given parameters and generators."""
    values = generate_mpc(MpcSpec(m, p, c), gens)
    if as_json:
        _echo_json({"set": list(values)})
    else:
        click.echo(" ".join(map(str, values)))
    sys.exit(0)


@mpc_group.command("find-mono")
@click.option(
    "--coloring",
    "coloring_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="1-d coloring certificate file.",
)
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--c", "c", type=int, required=True)
@json_option
@domain_errors
def cmd_mpc_find_mono(coloring_path, m, p, c, as_json):
    """Search for generators whose set is monochromatic; exit 1 when none."""
    coloring = _load_coloring(coloring_path)
    spec = MpcSpec(m, p, c)
    gens = find_mono_mpc(coloring, spec)
    doc = {
        "found": gens is not None,
        "generators": list(gens) if gens else None,
        "set": list(generate_mpc(spec, gens)) if gens else None,
    }
    if as_json:
        _echo_json(doc)
    elif gens:
        click.echo("generators " + ",".join(map(str, gens)))
    else:
        click.echo("no monochromatic set")
    sys.exit(0 if gens else 1)


@mpc_group.command("embed")
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--c", "c", type=int, required=True)
@click.option("--low", "low_exp", type=int, required=True, help="Target power of c.")
@click.option("--high", "high_exp", type=int, required=True, help="Source power of c.")
@click.option("--gens", required=True, callback=_parse_ints)
@json_option
@domain_errors
def cmd_mpc_embed(m, p, c, low_exp, high_exp, gens, as_json):
    """Scale generators down one structure level and check the containment."""
    scaled = embed_mpc(m, p, c, low_exp, high_exp, gens)
    inner = generate_mpc(MpcSpec(m, p, c**low_exp), scaled)
    outer = generate_mpc(MpcSpec(m, c ** (high_exp - low_exp) * p, c**high_exp), gens)
    doc = {
        "generators": list(scaled),
        "inner_set": list(inner),
        "outer_set": list(outer),
        "contained": True,
    }
    if as_json:
        _echo_json(doc)
    else:
        click.echo("generators " + ",".join(map(str, scaled)))
    sys.exit(0)


@mpc_group.command("contains")
@system_option
@click.option("--coordinate", type=int, default=0, show_default=True, help="Which coordinate system to solve.")
@click.option("--m", "m", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option("--c", "c", type=int, required=True)
@click.option("--gens", required=True, callback=_parse_ints)
@budget_option
@json_option
@domain_errors
def cmd_mpc_contains(system_path, coordinate, m, p, c, gens, budget, as_json):
    """Search the generated set for a solution tuple; exit 1 when none."""
    system = _load_system(system_path)
    if not 0 <= coordinate < system.d:
        raise click.BadParameter(f"coordinate must lie in [0, {system.d})")
    scalar = system.coordinate_systems[coordinate]
    solution = mpc_contains_solution(MpcSpec(m, p, c), gens, scalar, budget)
    doc = {"found": solution is not None, "solution": list(solution) if solution else None}
    if as_json:
        _echo_json(doc)
    elif solution:
        click.echo(" ".join(map(str, solution)))
    else:
        click.echo("no solution in the set")
    sys.exit(0 if solution else 1)


@main.command("observe")
@click.option("--indices", required=True, callback=_parse_ints, help="Strictly increasing indices.")
@click.option("--k", "k", type=int, required=True, help="Left family size.")
@click.option("--l", "l", type=int, required=True, help="Right family size.")
@click.option("--d", "d", type=int, required=True, help="Dimension.")
@json_option
@domain_errors
def cmd_observe(indices, k, l, d, as_json):
    """Build the power-difference families and print their check report as JSON."""
    families = build_difference_families(indices, k, l, d)
    report = check_difference_families(families, d, k, l)
    doc = {
        "left_points": [list(p) for p in families.left],
        "right_points": [list(p) for p in families.right],
        "report": asdict(report),
        "all_pass": report.all_pass(),
    }
    _echo_json(doc)
    sys.exit(0 if report.all_pass() else 1)


if __name__ == "__main__":
    main()
