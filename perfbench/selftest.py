"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every CLI command once on a 3-consumer workload and requires its
outputs to pass their checks and to repeat byte for byte.  Then it corrupts
one output file per command and requires the check to catch it.  Exits 0
when the harness behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import CHECKS, digest  # noqa: E402
from run import WORK_ROOT, Bench  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = Workload(
    commands=("pareto", "benchmarks", "renewable", "storage", "simulate"),
    layout="long",
    overrides={
        "consumers": {"count": 3},
        "eta_grid": [0.0, 0.5, 1.0],
        "benchmarks": {"points": 50},
        "storage": {"eta_grid": [0.5], "max_evals": 60},
    },
)


def _edit_cell(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    index = header.index(column)
    cells[index] = f"{change(float(cells[index])):.4f}"
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_row(path: Path) -> None:
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")


# (command, file, corruption): each must make the command's check fail.
CORRUPTIONS = [
    ("pareto", "tradeoff.csv", lambda p: _edit_cell(p, 2, "sw", lambda v: v + 1.0)),
    ("pareto", "tradeoff.csv", lambda p: _edit_cell(p, 3, "price_12", lambda v: v + 0.01)),
    ("benchmarks", "benchmark_cp.csv", lambda p: _edit_cell(p, 25, "rp", lambda v: abs(v) * 2 + 10)),
    ("renewable", "renewable.csv", lambda p: _edit_cell(p, 1, "fraction", lambda v: 1.5)),
    ("renewable", "renewable.csv", lambda p: _edit_cell(p, 4, "delta_rp", lambda v: -abs(v) - 1)),
    ("storage", "storage.csv", lambda p: _edit_cell(p, 1, "cs", lambda v: v + 10.0)),
    ("storage", "storage.csv", lambda p: _edit_cell(p, 1, "rp", lambda v: v + 10.0)),
    ("simulate", "simulate.csv", _drop_last_row),
    ("simulate", "baseline.csv", lambda p: _edit_cell(p, 7, "surplus", lambda v: v - 0.01)),
]


def main() -> int:
    failures = []
    work = WORK_ROOT / f"selftest-{os.getpid()}"
    try:
        bench = Bench(TINY, seed=3, work=work)
        for command in TINY.commands:
            record = bench.run(command)
            if not record["ok"]:
                failures.append(f"{command} on the tiny workload: {record} {bench.problems}")
        rerun = bench.run("pareto")
        if not rerun["ok"]:
            failures.append(f"pareto rerun does not repeat its bytes: {bench.problems}")

        for command, name, corrupt in CORRUPTIONS:
            copy = work / "corrupt" / command
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(work / "out" / command, copy)
            before = digest(copy / name)
            corrupt(copy / name)
            if digest(copy / name) == before:
                failures.append(f"corrupting {name} left its sha256 unchanged")
            problems = CHECKS[command](copy, bench.ctx)
            print(f"{command}/{name}: {problems or 'NOT DETECTED'}")
            if not problems:
                failures.append(f"corrupted {name} passed the {command} check")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for failure in failures:
        print("FAIL:", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
