"""Experiment pipelines behind the CLI commands.

Each command builds the population demand model from the configured
consumers and data, runs one study, and writes schema-stable CSV files plus
a ``manifest.json`` recording the config hash, package and numpy
versions, wall time, and the deterministic solver counters of the run
(``counters``; per-eta search counters for ``storage``).  Float cells are formatted to four decimals;
rerunning a command with the same config and seed reproduces the CSV bytes
exactly (the manifest's wall time is the one intentionally volatile field).
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    SeriesSpec,
    batteries_from_spec,
    config_hash,
    draw_population,
    resolve_eta_grid,
    resolved_dict,
)
from .demand import HOURS_PER_DAY, population_model
from .errors import ConfigError, DataError
from .pricing import WholesaleCost, benchmark_trace, optimal_price, pareto_front
from .renewable import RenewableModel, benefit_split
from .simulate import NOISE_SCHEME, simulate_population_day
from .storage import optimize_price_with_storage
from .timeseries import HourlySeries, load_series, mean_day, synthetic_weather, synthetic_wholesale

COMMANDS = ("pareto", "benchmarks", "renewable", "storage", "simulate")

_PRICE_COLUMNS = [f"price_{i:02d}" for i in range(1, HOURS_PER_DAY + 1)]


@dataclass
class RunSummary:
    out_dir: Path
    files: list[str]
    manifest: Path


def _load_days(spec: SeriesSpec, kind: str) -> list[HourlySeries]:
    if spec.source == "file":
        return load_series(spec.path, kind)
    if kind == "weather":
        return synthetic_weather(spec.days)
    return synthetic_wholesale(spec.days)


def _wholesale_cost(spec: SeriesSpec) -> WholesaleCost:
    """The day's expected wholesale price; every hour's mean must be positive."""
    mean = mean_day(_load_days(spec, "price"))
    hours = (np.flatnonzero(~(mean > 0.0)) + 1).tolist()
    if hours:
        raise DataError(f"{spec.path or 'wholesale'}: mean price is not positive at hours {hours}")
    return WholesaleCost(mean=mean)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns, integer ones as integers and float ones
    to four decimals (``-0.0000`` as ``0.0000``), in one format operation."""
    line = ",".join("%d" if column.dtype.kind in "iu" else "%.4f" for column in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(column.tolist() for column in columns))))
    body = (line * len(columns[0])) % cells
    # %.4f writes a 4-decimal cell, so "-0.0000" only ever occurs as a whole cell
    _write(path, ",".join(header) + "\n" + body.replace("-0.0000", "0.0000"))


@dataclass
class _Workspace:
    """Model and market data shared by the study commands."""

    model: object
    cost: WholesaleCost


def _build_workspace(config: ExperimentConfig) -> _Workspace:
    weather_days = _load_days(config.weather, "weather")
    cost = _wholesale_cost(config.wholesale)
    model = population_model(draw_population(config.consumers, config.seed), mean_day(weather_days))
    return _Workspace(model=model, cost=cost)


def run_pareto(config: ExperimentConfig, out_dir: Path) -> tuple[list[str], dict]:
    ws = _build_workspace(config)
    grid = resolve_eta_grid(config.eta_grid)
    points = pareto_front(ws.model, ws.cost, grid)
    rows = [[p.eta, p.cs, p.rp, p.sw, *p.price] for p in points]
    _write_csv(out_dir / "tradeoff.csv", ["eta", "cs", "rp", "sw", *_PRICE_COLUMNS], np.array(rows, dtype=float).T)
    return ["tradeoff.csv"], {}


def _default_sweeps(ws: _Workspace, points: int, tou_ratio: float) -> dict[str, np.ndarray]:
    """Sweep grids spanning the economically interesting range: from below
    the wholesale level up toward the zero-demand price."""
    lam = ws.cost.mean
    level_hi = float(np.mean(ws.model.zero_demand_price))
    level_lo = 0.5 * float(lam.min())
    gamma_hi = max(2.0, level_hi / float(np.mean(lam)))
    return {
        "cp": np.linspace(level_lo, level_hi, points),
        "tou": np.linspace(level_lo, level_hi / tou_ratio, points),
        "pmp": np.linspace(0.5, gamma_hi, points),
    }


def run_benchmarks(config: ExperimentConfig, out_dir: Path) -> tuple[list[str], dict]:
    ws = _build_workspace(config)
    spec = config.benchmarks
    files = []

    grid = np.linspace(0.0, 1.0, spec.points)
    points = pareto_front(ws.model, ws.cost, grid)
    _write_csv(out_dir / "benchmark_dahp.csv", ["param", "cs", "rp"],
               np.array([[p.eta, p.cs, p.rp] for p in points], dtype=float).T)
    files.append("benchmark_dahp.csv")

    for scheme, sweep in _default_sweeps(ws, spec.points, spec.tou_ratio).items():
        trace = benchmark_trace(
            ws.model, ws.cost, scheme, sweep,
            tou_ratio=spec.tou_ratio, peak_start=spec.peak_start, peak_end=spec.peak_end,
        )
        name = f"benchmark_{scheme}.csv"
        _write_csv(out_dir / name, ["param", "cs", "rp"],
                   np.array([[p.eta, p.cs, p.rp] for p in trace], dtype=float).T)
        files.append(name)
    return files, {}


def run_renewable(config: ExperimentConfig, out_dir: Path) -> tuple[list[str], dict]:
    ws = _build_workspace(config)
    if np.any(ws.cost.mean - config.renewable.marginal_cost <= 0.0):
        raise ConfigError("'renewable.marginal_cost' must stay below every hour's wholesale mean price")
    rows = []
    for eta in resolve_eta_grid(config.eta_grid):
        for capacity in config.renewable.capacity_grid:
            renew = RenewableModel(capacity=float(capacity), marginal_cost=config.renewable.marginal_cost)
            split = benefit_split(ws.model, ws.cost, renew, float(eta))
            rows.append([float(eta), float(capacity), split.delta_cs, split.delta_rp, split.fraction])
    _write_csv(out_dir / "renewable.csv", ["eta", "K", "delta_cs", "delta_rp", "fraction"],
               np.array(rows, dtype=float).T)
    return ["renewable.csv"], {}


def run_storage(config: ExperimentConfig, out_dir: Path) -> tuple[list[str], dict]:
    ws = _build_workspace(config)
    batteries = batteries_from_spec(config.storage)
    rows = []
    searches = []
    for eta in resolve_eta_grid(config.storage.eta_grid, "storage.eta_grid"):
        result = optimize_price_with_storage(
            ws.model, ws.cost, batteries, float(eta), max_evals=config.storage.max_evals
        )
        volume = sum(float(result.plans[b].charge.sum()) for b in batteries)
        rows.append([result.point.eta, result.point.cs, result.point.rp, volume, *result.price])
        searches.append({
            "eta": float(eta),
            "n_evals": result.n_evals,
            "truncated": result.truncated,
            "improved": result.improved,
            "lp_solves": result.lp_solves,
            "lp_pivots": result.lp_pivots,
            "basis_reuses": result.basis_reuses,
        })
    _write_csv(
        out_dir / "storage.csv",
        ["eta", "cs", "rp", "arbitrage_volume", *_PRICE_COLUMNS],
        np.array(rows, dtype=float).T,
    )
    return ["storage.csv"], {"storage_search": searches}


def run_simulate(config: ExperimentConfig, out_dir: Path) -> tuple[list[str], dict]:
    """Per-day population simulation under that day's optimal tariff.

    Alongside the responsive-policy rows, each configured thermostat
    tolerance is replayed on the same per-(consumer, day) noise so the two
    policies are comparable seed-for-seed.  Rows run day by day, consumer by
    consumer (and tolerance by tolerance in ``baseline.csv``).
    """
    weather_days = _load_days(config.weather, "weather")
    cost = _wholesale_cost(config.wholesale)
    population = draw_population(config.consumers, config.seed)
    eta = float(config.simulate.eta)
    tolerances = np.array(config.simulate.thermostat_tolerances, dtype=float)

    payment, discomfort = [], []              # per day: (consumers,)
    base_payment, base_discomfort = [], []    # per day: (tolerances, consumers)
    for day_index, day in enumerate(weather_days):
        prices = optimal_price(population_model(population, day.values), cost, eta)
        (_, pay, disc), baselines = simulate_population_day(
            population, prices, day.values, config.seed, day_index, tolerances.tolist()
        )
        payment.append(pay)
        discomfort.append(disc)
        base_payment.append([pay for _, pay, _ in baselines])
        base_discomfort.append([disc for _, _, disc in baselines])

    consumers, days = len(population), len(weather_days)
    ids, day_ids = np.arange(consumers), np.arange(days)
    pay, disc = np.concatenate(payment), np.concatenate(discomfort)
    _write_csv(
        out_dir / "simulate.csv", ["consumer_id", "day", "payment", "discomfort", "surplus"],
        [np.tile(ids, days), np.repeat(day_ids, consumers), pay, disc, -(disc + pay)],
    )
    files = ["simulate.csv"]
    if len(tolerances):
        pay, disc = (np.array(values).transpose(0, 2, 1).ravel() for values in (base_payment, base_discomfort))
        _write_csv(
            out_dir / "baseline.csv",
            ["tolerance", "consumer_id", "day", "payment", "discomfort", "surplus"],
            [np.tile(tolerances, consumers * days), np.tile(np.repeat(ids, len(tolerances)), days),
             np.repeat(day_ids, consumers * len(tolerances)), pay, disc, -(disc + pay)],
        )
        files.append("baseline.csv")
    # one Philox key per day; consumers read it at their own counter offsets
    return files, {"consumer_days": consumers * days, "substreams": days}


_RUNNERS = {
    "pareto": run_pareto,
    "benchmarks": run_benchmarks,
    "renewable": run_renewable,
    "storage": run_storage,
    "simulate": run_simulate,
}


def run_experiment(config: ExperimentConfig, command: str, out_dir: str | Path) -> RunSummary:
    """Run one CLI command and write its outputs plus the run manifest."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    started = time.perf_counter()
    files, counters = _RUNNERS[command](config, out)
    manifest = {
        "command": command,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "config": resolved_dict(config),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": files,
        "counters": counters,
        **({"noise_scheme": NOISE_SCHEME} if command == "simulate" else {}),
    }
    manifest_path = out / "manifest.json"
    _write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunSummary(out_dir=out, files=files, manifest=manifest_path)
