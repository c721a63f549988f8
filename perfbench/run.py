"""dahp benchmark: one seeded workload through the public CLI entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dahp checkout.  The workload's inputs are generated
from the seed; every command is a call to ``dahp.cli.main`` in this process,
one after another (a closed loop with one client), for about ``--seconds``
seconds after a warm-up round.  Every output is checked and hashed; repeats
at one seed must be byte-identical.  Times are wall times scaled to the
reference machine speed that ``speed.py`` samples through each of them.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The line before it
is a detailed report (per-command times, failures with their stderr line,
output hashes, library versions).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy
import yaml
from checks import CHECKS, Context, digest, read_csv
from speed import Speed
from tracing import Tracer, round_metrics, summarize
from workloads import WORKLOADS, seeded_days, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEMO_CONFIG = ROOT / "configs" / "demo.yaml"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_REPEATS = 9
# The warm-up round runs every command on the workload's own inputs, with at
# most this many consumers and storage search evaluations.
WARMUP_CAP = 100
SETUP_PROBE = (
    "import sys, time, json\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from speed import Speed\n"
    "with Speed() as speed:\n"
    "    t0 = time.perf_counter()\n"
    "    import dahp.cli\n"
    "    t1 = time.perf_counter()\n"
    "    dahp.cli.load_config(sys.argv[1])\n"
    "    t2 = time.perf_counter()\n"
    "print(json.dumps([(t1 - t0) / speed.factor, (t2 - t0) / speed.factor]))\n"
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(config: Path) -> tuple[float, float]:
    """Median (import dahp.cli, import + load_config) seconds at reference
    speed over fresh interpreter processes, run one at a time."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config), str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


class Bench:
    """One workload in one process: runs commands, checks and hashes their
    outputs, and keeps a record per command call."""

    def __init__(self, spec, seed: int, work: Path):
        import dahp.cli  # from the checkout's src/, put on sys.path by main

        self.cli = dahp.cli
        self.commands = spec.commands
        self.timed = spec.timed
        self.work = work
        self.config = write_inputs(spec, seed, DEMO_CONFIG, work / "inputs")
        self.ctx = Context(self.config, *seeded_days(seed))
        self.records: list[dict] = []
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}

    def call(self, command: str, config: Path, tracer=None) -> tuple[int, float, float, str]:
        """Exit code, wall seconds, seconds at reference speed, stderr."""
        out = self.work / "out" / command
        argv = [command, "--config", str(config), "--out", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), Speed() as speed:
            started = time.perf_counter()
            code = self.cli.main(argv) if tracer is None else tracer.span("command", self.cli.main, argv)
            seconds = time.perf_counter() - started
        return code, seconds, seconds / speed.factor, stderr.getvalue().strip()

    def run(self, command: str, tracer=None) -> dict:
        code, wall, seconds, stderr = self.call(command, self.config, tracer)
        record = {"command": command, "seconds": seconds, "wall_s": wall, "exit": code, "ok": False}
        if code != 0:
            record["stderr"] = stderr.splitlines()[-1] if stderr else ""
            if command in self.timed:
                self.problems.append(f"{command} exit {code}: {record['stderr']}")
        else:
            out = self.work / "out" / command
            digests = {p.name: digest(p) for p in sorted(out.iterdir())}
            first = self.digests.get(command)
            if first is None:
                self.digests[command] = digests
                problems = CHECKS[command](out, self.ctx)
            elif digests != first:
                problems = [f"{command}: outputs differ from the first run at this seed"]
            else:
                problems = []
            self.problems += problems
            record["ok"] = not problems
        self.records.append(record)
        return record

    def warm_up(self) -> None:
        """One small round, so lazy imports and first-call costs land outside
        the timed rounds."""
        raw = yaml.safe_load(self.config.read_text())
        raw["consumers"]["count"] = min(raw["consumers"]["count"], WARMUP_CAP)
        raw["storage"]["max_evals"] = min(raw["storage"]["max_evals"], WARMUP_CAP)
        warm = self.config.with_name("warmup.yaml")
        warm.write_text(yaml.safe_dump(raw))
        for command in self.commands:
            self.call(command, warm)

    def csv_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.work / "out").rglob("*.csv"))


def _gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _command_times(records: list[dict]) -> dict[str, dict]:
    """Per command: median, min and max seconds at reference speed over its
    correct calls, the median wall time, and the sample counts."""
    times: dict[str, dict] = {}
    for record in records:
        entry = times.setdefault(record["command"], {"ok": [], "wall": [], "attempted": 0})
        entry["attempted"] += 1
        if record["ok"]:
            entry["ok"].append(record["seconds"])
            entry["wall"].append(record["wall_s"])
    return {
        command: {
            "median_s": statistics.median(t["ok"]) if t["ok"] else None,
            "min_s": min(t["ok"]) if t["ok"] else None,
            "max_s": max(t["ok"]) if t["ok"] else None,
            "wall_median_s": statistics.median(t["wall"]) if t["wall"] else None,
            "samples": len(t["ok"]),
            "attempted": t["attempted"],
        }
        for command, t in times.items()
    }


def _storage_objective(bench: Bench) -> float | None:
    path = bench.work / "out" / "storage" / "storage.csv"
    if "storage" not in bench.commands or not path.exists():
        return None
    _, t = read_csv(path)
    return float(sum(rp + eta * cs for eta, cs, rp in t[:, :3]))


def _environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed_rounds(bench: Bench, seconds: float, tracer=None) -> list[tuple[bool, float, dict]]:
    """Closed-loop rounds of the workload's commands until ``seconds`` have
    passed, and at least two rounds: a storage command alone takes most of
    a run, and one sample of it is at the mercy of the machine's noisiest
    stretch.  With a tracer, rounds alternate traced and untraced, and at
    least two traced rounds and one untraced run, so that the counts can be
    compared between traced rounds and the overhead measured.  Returns
    (traced, round seconds, per-round layer metrics) per round."""
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            round_s = sum(bench.run(command, tracer if traced else None)["seconds"] for command in bench.commands)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, round_s, round_metrics(tracer, bench) if traced else {}))
        traced_rounds = sum(t for t, _, _ in rounds)
        enough = traced_rounds >= 2 and len(rounds) > traced_rounds if tracer else len(rounds) >= 2
        if time.perf_counter() - started >= seconds and enough:
            return rounds


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    bench = Bench(WORKLOADS[name], seed, work)
    import_s, setup_s = measure_setup(bench.config)
    bench.warm_up()

    tracer = Tracer() if trace else None
    rounds = timed_rounds(bench, seconds, tracer)

    per_command = _command_times(bench.records)
    timed = [per_command[c]["median_s"] for c in bench.timed]
    if None in timed:
        raise RuntimeError(f"a timed command of {name} produced no correct output: {bench.problems}")
    failures = [r for r in bench.records if not r["ok"]]
    # The result counts the workload's timed commands, which must all pass;
    # an untimed command's failure is a known defect, shown in the report.
    attempted = [r for r in bench.records if r["command"] in bench.timed]
    report = {
        "records": [(r["command"], r["seconds"], r["wall_s"], r["exit"]) for r in bench.records],
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "commands": {f"{c}_s": v for c, v in per_command.items()},
        "failed_ratio": len(failures) / len(bench.records),
        "failures": sorted({f"{r['command']} exit {r['exit']}: {r.get('stderr', '')}" for r in failures}),
        "problems": bench.problems,
        "storage_objective": _storage_objective(bench),
        "sha256": bench.digests,
        "environment": _environment(),
    }
    if trace:
        metrics = summarize(rounds, import_s, bench.problems)
        report["absent"] = tracer.absent
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "command_s": {"value": _gmean(timed), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": not bench.problems,
        "attempted": len(attempted),
        "failed": sum(not r["ok"] for r in attempted),
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dahp" / "cli.py").is_file() or not DEMO_CONFIG.is_file():
        print(f"perfbench: {ROOT} is not a dahp checkout (need src/dahp and configs/demo.yaml)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    # On SIGTERM, unwind through the finally clauses: they stop a running
    # set-up probe and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
