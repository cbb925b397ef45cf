"""Smoke check of the benchmark: one pass per workload in each mode.

Usage, from the root of the repository:

    python3 perfbench/smoke.py

For every workload of ``BENCHMARK.json`` it runs ``run.py`` once untraced
and once traced with ``--seconds 0`` (a single pass), and checks that the
last line is the result object, that every answer met its pin, and that the
metrics are exactly the ones ``BENCHMARK.json`` names, with their units.
It also checks that the benchmark fails without printing a result when the
library sources are absent.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != KEYS:
        sys.exit(f"{workload} trace={trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: answers wrong\n{proc.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        sys.exit(f"{workload} trace={trace}: metrics {got} != {wanted}")
    print(f"ok  {workload:12s} trace={trace}  attempted={result['attempted']}")


def check_fails_without_sources(workload: str) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("the benchmark ran without the library sources")
    print("ok  fails without the library sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_fails_without_sources(spec["workloads"][0]["name"])


if __name__ == "__main__":
    main()
