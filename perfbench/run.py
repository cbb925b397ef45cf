"""End-to-end and per-layer benchmark of the ``rado`` avoidability engine.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

One process, one thread, one caller in a closed loop: the next pass starts
when the previous one has returned.  A pass answers every instance of the
workload's fixed list once (see ``workloads.py``); the seed sets the order of
the instances within each pass and the random colourings of ``certify``.

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics.  Pass times are reported in refs, the time of a fixed
reference loop (``reference``) timed between passes: on a shared host the
speed can drift by a third over minutes, and a pass's wall time drifts with
it.  The wall times themselves go on the stamp line.  Every answer is
checked against pinned values outside the timed interval, and the last
pass's answers are also checked with independent certificates (witness
verification, DPLL refutation, degenerate counts).  ``--trace 1``
alternates an untraced pass with a traced one (plus its certificate
checks, traced too) and reports the per-layer metrics; the spans go to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment stamp and the sample counts.  ``attempted`` counts
instance answers; ``failed`` counts those that raised, missed their pin or
failed their certificate.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer, self_times, subtree_self_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
REF_CALLS = 21  # reference calls between passes; their mean is one ref
CHECK_LAYERS = (
    "search.verify", "search.dimacs", "dpll.parse", "dpll.solve",
    "lattice.count_mono", "lattice.count_degenerate",
)


def setup(name: str, seed: int):
    """Import ``rado`` and the workload definitions afresh and build the inputs."""
    for mod in [m for m in sys.modules if m in ("rado", "workloads") or m.startswith("rado.")]:
        del sys.modules[mod]
    start = perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.make(name, seed)
    return perf_counter() - start, workloads, workload


def tail(times: list[float]) -> float:
    """The third quartile, as ``statistics.quantiles`` gives it.

    A fixed percentile: the highest one with ten passes above it would
    change with the pass count, which the host's speed sets, and 25 s
    gives 7 to 30 passes per run.
    """
    return statistics.quantiles(times, n=4)[2] if len(times) > 1 else times[0]


def reference() -> int:
    """Fixed pure-Python work of the kind the library does (tuples, dicts,
    sets, small ints), 6 to 11 ms on a 2-vCPU Xeon VM.  It shares no code with
    ``rado``, so a change to the library does not move it; only the host does.
    """
    table: dict[tuple[int, int, int], int] = {}
    acc = 0
    for a in range(200):
        for b in range(60):
            key = (a, b, (a * 31 + b) % 17)
            table[key] = table.get(key, 0) + a - b
            acc += len({a % 7, b % 5, key[2]})
    return acc + sum(sorted(table.values())[:100])


def ref_s() -> float:
    """Seconds of one ref: the mean time of REF_CALLS reference calls.  A
    mean, not a median, so a slow moment inside the block counts, as it
    does inside a pass."""
    start = perf_counter()
    for _ in range(REF_CALLS):
        reference()
    return (perf_counter() - start) / REF_CALLS


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """Digest of the library sources: names the code where no .git exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rado").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(rado) -> dict:
    return {
        "default_backend": rado.default_backend(),
        "available_backends": list(rado.available_backends()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def order_of(rng: random.Random, k: int) -> list[int]:
    return rng.sample(range(k), k)


class Tally:
    """Attempted and failed answers; an answer fails when it missed its pin
    or, where checked, its certificate.  Failures are named on stderr."""

    def __init__(self, items):
        self.items = items
        self.attempted = self.failed = 0

    def add(self, pinned: list[bool], certified: list[bool] | None = None) -> None:
        self.attempted += len(pinned)
        for item, p, c in zip(self.items, pinned, certified or pinned):
            if not (p and c):
                self.failed += 1
                print(f"wrong answer: {item}", file=sys.stderr)


def timed_pass(workload, order):
    start = perf_counter()
    answers = workload.run_pass(order)
    return perf_counter() - start, answers


def run_untraced(workload, rng, seconds, tally, set_up, setup_times):
    """Each pass is divided by the mean of the refs timed just before and
    just after it, so a change of host speed moves both alike.  One set-up
    is timed after each pass too, so set-up time is sampled across the run
    as pass time is; the passes keep using the first set-up's workload."""
    times, refs, ratios = [], [ref_s()], []
    deadline = perf_counter() + seconds
    while True:
        elapsed, answers = timed_pass(workload, order_of(rng, len(workload.items)))
        refs.append(ref_s())
        setup_times.append(set_up())
        times.append(elapsed)
        ratios.append(elapsed / ((refs[-2] + refs[-1]) / 2))
        pinned = workload.pinned_ok(answers)
        if perf_counter() >= deadline:
            break
        tally.add(pinned)
    tally.add(pinned, workload.certify(answers, NullTracer()))
    metrics = {
        "pass_p50_ref": (statistics.median(ratios), "ref"),
        "pass_tail_ref": (tail(ratios), "ref"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return metrics, {
        "passes": len(times),
        "pass_p50_s": statistics.median(times),
        "pass_tail_s": tail(times),
        "ref_p50_s": statistics.median(refs),
    }


def traced_pass(workload, order, tracer, tally) -> dict:
    """One traced pass and its traced certificate checks, summed by layer."""
    first = len(tracer.spans)
    with tracer.span("pass"):
        answers = workload.trace_pass(order, tracer)
    check_root = len(tracer.spans)
    with tracer.span("check"):
        certified = workload.certify(answers, tracer)
    tally.add(workload.pinned_ok(answers), certified)
    selfs = self_times(tracer.spans, first)
    root = tracer.spans[first]
    return {
        "pass_s": root[2] - root[1],
        "pass": subtree_self_totals(tracer.spans, first, selfs, first),
        "check": subtree_self_totals(tracer.spans, check_root, selfs, first),
        "counts": tracer.take_counts(),
    }


def run_traced(workload, rng, seconds, tally, tracer, backends):
    """Alternate untraced and traced passes on the same instance order."""
    untraced, rows = [], []
    deadline = perf_counter() + seconds
    while True:
        order = order_of(rng, len(workload.items))
        # swap which goes first each time so drift does not bias the overhead
        for traced in (False, True) if len(rows) % 2 == 0 else (True, False):
            if traced:
                rows.append(traced_pass(workload, order, tracer, tally))
            else:
                elapsed, answers = timed_pass(workload, order)
                untraced.append(elapsed)
                tally.add(workload.pinned_ok(answers))
        if perf_counter() >= deadline:
            break
    metrics, by_backend = layer_metrics(rows, untraced, backends)
    return metrics, {
        "passes": len(rows),
        "untraced_passes": len(untraced),
        "kernel_solve_s_by_backend": by_backend,
    }


def layer_metrics(rows, untraced, backends):
    """Medians over traced passes.  Layer times include the pass's
    certificate checks; shares are of the traced pass alone.  ``backends``
    lists the default kernel backend first."""

    def secs(name):
        return statistics.median(
            r["pass"].get(name, 0.0) + r["check"].get(name, 0.0) for r in rows
        )

    def count(name):
        return statistics.median(r["counts"].get(name, 0.0) for r in rows)

    def share(*names):
        return statistics.median(
            sum(r["pass"].get(x, 0.0) for x in names) / r["pass_s"] for r in rows
        )

    build, enum = secs("search.build"), secs("lattice.enumerate")
    constraints, tuples = count("search.constraints"), count("lattice.tuples")
    traced = statistics.median(r["pass_s"] for r in rows)
    by_backend = {b: secs(f"kernel.solve.{b}") for b in backends}
    return {
        "search.build_s": (build, "s"),
        "search.build_self_s": (build - enum, "s"),
        "search.build_share": (share("search.build"), "ratio"),
        "search.boxes": (count("search.boxes"), "count"),
        "lattice.enumerate_s": (enum, "s"),
        "lattice.tuples": (tuples, "count"),
        "search.constraints": (constraints, "count"),
        "search.constraints_per_tuple": (constraints / tuples, "ratio"),
        "search.order_s": (secs("search.order"), "s"),
        "kernel.solve_s": (by_backend[backends[0]], "s"),
        "kernel.solve_s.python": (by_backend["python"], "s"),
        "kernel.share": (share(f"kernel.solve.{backends[0]}"), "ratio"),
        "search.verify_s": (secs("search.verify"), "s"),
        "search.dimacs_s": (secs("search.dimacs"), "s"),
        "search.dimacs_bytes": (count("search.dimacs_bytes"), "B"),
        "dpll.parse_s": (secs("dpll.parse"), "s"),
        "dpll.solve_s": (secs("dpll.solve"), "s"),
        "lattice.count_mono_s": (secs("lattice.count_mono"), "s"),
        "lattice.count_degenerate_s": (secs("lattice.count_degenerate"), "s"),
        "check.share": (share(*CHECK_LAYERS), "ratio"),
        "trace.overhead_ratio": (traced / statistics.median(untraced) - 1, "ratio"),
    }, by_backend


def write_trace(path: Path, stamp: dict, tracer: Tracer) -> None:
    selfs = self_times(tracer.spans)
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, selfs):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        **stamp,
        "self_s_by_name": totals,
        "spans": tracer.spans,
    }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rado" / "__init__.py").is_file():
        print(f"no rado sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, workloads, workload = setup(args.workload, args.seed)
        setup_times.append(elapsed)
    import rado

    if Path(rado.__file__).resolve().parent != SRC / "rado":
        print(f"imported rado from {rado.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    tally = Tally(workload.items)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(rado),
        "setup_samples": len(setup_times),
    }
    if args.trace:
        tracer = Tracer()
        metrics, info = run_traced(
            workload, rng, args.seconds, tally, tracer, workloads.BACKENDS
        )
        stamp.update(info)
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", stamp, tracer)
    else:
        metrics, info = run_untraced(
            workload, rng, args.seconds, tally,
            lambda: setup(args.workload, args.seed)[0], setup_times,
        )
        stamp.update(info, setup_samples=len(setup_times))
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        )
    print(json.dumps(stamp))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
