"""Experiment pipelines behind the CLI commands.

``run_experiment`` reads a run's inputs (the weather days, the wholesale
cost and the drawn population), passes them to one study, a function of
its inputs that returns its tables, and writes those as schema-stable CSV
files plus a ``manifest.json`` recording the config hash, package and numpy
versions, wall time, and the deterministic solver counters of the run
(``counters``; per-eta search counters for ``storage``).  Float cells are
formatted to four decimals; rerunning a command with the same config and
seed reproduces the CSV bytes exactly (the manifest's wall time is the one
intentionally volatile field).  Each benchmark tariff family is a sweep of
``theta`` and a direction ``V``, priced as ``theta * V`` by ``benchmark_trace``.
"""
from __future__ import annotations

import functools
import itertools
import json
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import (
    BenchmarkSpec,
    ExperimentConfig,
    SeriesSpec,
    batteries_from_spec,
    draw_population,
    resolve_eta_grid,
    resolved_dict,
    resolved_hash,
)
from .demand import HOURS_PER_DAY, AffineDemandModel, Population, population_model
from .errors import ConfigError, DataError, NumericalError
from .pricing import WholesaleCost, benchmark_trace, optimal_price, pareto_front
from .renewable import RenewableModel, benefit_split
from .simulate import NOISE_SCHEME, simulate_population_day
from .storage import optimize_price_with_storage
from .timeseries import HourlySeries, load_series, mean_day, synthetic_weather, synthetic_wholesale

_PRICE_COLUMNS = [f"price_{i:02d}" for i in range(1, HOURS_PER_DAY + 1)]

# file name -> (header, equal-length numeric columns)
Tables = dict[str, tuple[Sequence[str], Sequence[np.ndarray]]]


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


def load_inputs(config: ExperimentConfig) -> tuple[Population, list[HourlySeries], WholesaleCost]:
    """A run's inputs: the drawn population, the weather days and the
    wholesale cost, read in the order weather, prices, draw."""
    weather = _load_days(config.weather, "weather")
    cost = _wholesale_cost(config.wholesale)
    return draw_population(config.consumers, config.seed), weather, cost


def _write(path: Path, chunks: Sequence[bytes]) -> None:
    try:
        with path.open("wb") as file:
            file.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_tables(out_dir: Path, tables: Tables) -> list[str]:
    """Write each table into ``out_dir``, integer columns as integers and
    float ones to four decimals (``-0.0000`` as ``0.0000``); return the file
    names.  A column with a nan or an infinity is a failed study: it raises
    ``NumericalError`` before any file is written."""
    for name, (header, columns) in tables.items():
        if not np.isfinite(columns).all():  # one stacked test: a test per column costs ~1 us each
            column = next(column for column, cells in zip(header, columns) if not np.isfinite(cells).all())
            raise NumericalError(f"{out_dir / name}: column {column!r} is not finite")
    for name, (header, columns) in tables.items():
        _write(out_dir / name, [(",".join(header) + "\n").encode(), *_csv_body(columns)])
    return list(tables)


_CHUNK_CELLS = 4096  # cells formatted at a time, so no scratch array exceeds 128 KiB


def _csv_body(columns: Sequence[np.ndarray]) -> list[bytes]:
    """The rows of equal-length integer and float columns as text, in
    chunks of rows.

    When ``_ticks`` certifies every cell, numpy formats the table
    (``_fixed_point_body``); any other table, one with a nan, an infinity, a
    huge value or a value too near a rounding tie, goes through Python's
    ``%`` formatting (``_percent_body``).  Both give the same bytes.
    """
    is_float = np.array([column.dtype.kind == "f" for column in columns])
    step = max(1, _CHUNK_CELLS // len(columns))
    chunks = []
    for start in range(0, len(columns[0]), step):
        ticks = _ticks([column[start:start + step] for column in columns])
        if ticks is None:
            return [_percent_body(columns).encode()]
        chunks.append(_fixed_point_body(ticks, is_float))
    return chunks


def _percent_body(columns: Sequence[np.ndarray]) -> str:
    """The rows as ``%d`` and ``%.4f`` cells, in one format operation."""
    line = ",".join("%d" if column.dtype.kind in "iu" else "%.4f" for column in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*(column.tolist() for column in columns))))
    # %.4f writes a 4-decimal cell, so "-0.0000" only ever occurs as a whole cell
    return ((line * len(columns[0])) % cells).replace("-0.0000", "0.0000")


_TICKS = 10_000        # ticks per unit: cells have four decimals
_TICK_LIMIT = 2.0**40  # |cell * 1e4| below this, so ticks and half-integers are exact


def _ticks(columns: Sequence[np.ndarray]) -> np.ndarray | None:
    """Each cell of equal-length integer and float columns in ticks of
    1e-4, ``rint(x * 1e4)`` (integers held exactly in float64); None unless
    every cell is certified.

    The product is within half an ulp of the exact ``x * 10**4``.  A cell is
    certified when the product is below 2**40 in magnitude and more than
    ``2**-51 |product|`` (at least 2 ulps) from a half-integer: then both
    round to the same integer, the one ``%.4f`` prints (for an integer cell,
    10**4 times the one ``%d`` prints).  nan, infinities, huge values and
    near ties are not certified.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.column_stack(columns).astype(float, copy=False) * _TICKS
        ticks = np.rint(scaled)
        magnitude = np.abs(scaled)
        certified = (magnitude < _TICK_LIMIT) & (0.5 - np.abs(scaled - ticks) > magnitude * 2.0**-51)
    return ticks if certified.all() else None


def _piece(text: bytes) -> np.uint64:
    """Up to 8 bytes of text, NUL-padded, as one uint64 (native order)."""
    return np.frombuffer(text.ljust(8, b"\0"), dtype=np.uint64)[0]


# Pieces add without carries: a digit group fills bytes 1 to 4, a sign or
# point byte 0, a separator after a point and 4 digits byte 5.
_NOTHING, _MINUS, _POINT = _piece(b""), _piece(b"-"), _piece(b".")
_COMMA, _NEWLINE = _piece(b"\0" * 5 + b","), _piece(b"\0" * 5 + b"\n")
_FIRST, _EMPTY = _TICKS, 2 * _TICKS  # offsets into ``_groups()``


@functools.cache
def _groups() -> np.ndarray:
    """The pieces of 4-digit groups: ``[g]`` is g's 4 digits in bytes 1 to
    4, ``[_FIRST + g]`` the same without leading zeros (a number's first
    group) and ``[_EMPTY]`` nothing; read-only, since every call shares it."""
    g = np.arange(_TICKS, dtype=float)
    digits = np.zeros((_EMPTY + 1, 8), dtype=np.uint8)
    for byte, place, shown_from in zip(range(1, 5), (1000.0, 100.0, 10.0, 1.0), (1000.0, 100.0, 10.0, 0.0)):
        digit = np.floor(g / place) - np.floor(g / (10.0 * place)) * 10.0 + ord("0")
        digits[:_FIRST, byte] = digit
        digits[_FIRST:_EMPTY, byte] = np.where(g >= shown_from, digit, 0.0)
    digits.flags.writeable = False
    return digits.view(np.uint64).ravel()


def _fixed_point_body(ticks: np.ndarray, is_float: np.ndarray) -> bytes:
    """The rows of certified ``ticks`` as ``%d`` / ``%.4f`` text.

    A cell is a run of NUL-padded 8-byte pieces: one per 4-digit group of
    its whole part, from its first group on, and a tail with the point,
    the 4 digits of the fraction and the separator (for an integer cell,
    the separator alone); the minus sign leads the first piece.  Every cell
    gets as many pieces as the widest one, in one matrix, and dropping the
    NULs once leaves the text.  A cell is negative only if its ticks are
    nonzero, so no ``-0.0000`` is written.  Below 2**40 ticks every
    quotient here is floored exactly, so float64 holds all the integers.
    """
    groups = _groups()
    magnitude = np.abs(ticks)
    whole = np.floor(magnitude / _TICKS)
    count = -(-len(str(int(whole.max(initial=0)))) // 4)  # groups of the widest whole part
    pieces = np.empty(ticks.shape + (count + 1,), dtype=np.uint64)
    for k in range(count):
        above = np.floor(whole / _TICKS ** (count - 1 - k))  # the groups up to k
        group = above - np.floor(above / _TICKS) * _TICKS
        index = np.where(above < _TICKS, _FIRST + group, group)
        if k < count - 1:
            index = np.where(above > 0.0, index, _EMPTY)
        pieces[..., k] = groups[index.astype(np.intp)]
    pieces[..., 0] += np.where(ticks < 0.0, _MINUS, _NOTHING)
    separators = np.full(ticks.shape[1], _COMMA)
    separators[-1] = _NEWLINE
    fraction = groups[(magnitude - whole * _TICKS).astype(np.intp)] + _POINT
    pieces[..., count] = np.where(is_float, fraction, _NOTHING) + separators
    return pieces.tobytes().translate(None, b"\0")


def run_pareto(config: ExperimentConfig, population: Population, weather: list[HourlySeries],
               cost: WholesaleCost) -> tuple[Tables, dict]:
    model = population_model(population, mean_day(weather))
    front = pareto_front(model, cost, resolve_eta_grid(config.eta_grid))
    columns = [front.param, front.cs, front.rp, front.cs + front.rp, *front.price.T]
    return {"tradeoff.csv": (["eta", "cs", "rp", "sw", *_PRICE_COLUMNS], columns)}, {}


def _benchmark_families(model: AffineDemandModel, cost: WholesaleCost,
                        spec: BenchmarkSpec) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each benchmark family's ``theta`` sweep, from below the wholesale level
    up toward the zero-demand price, and its direction ``V``: 1 (flat), 1
    off-peak and ``tou_ratio`` on ``[peak_start, peak_end)`` (time-of-use),
    or ``lambda`` (proportional markup).  Its tariffs are ``theta * V``."""
    lam = cost.mean
    level_hi = float(np.mean(model.zero_demand_price))
    level_lo = 0.5 * float(lam.min())
    gamma_hi = max(2.0, level_hi / float(np.mean(lam)))
    tou = np.ones(cost.horizon)
    tou[spec.peak_start:spec.peak_end] = spec.tou_ratio
    return {
        "cp": (np.linspace(level_lo, level_hi, spec.points), np.ones(cost.horizon)),
        "tou": (np.linspace(level_lo, level_hi / spec.tou_ratio, spec.points), tou),
        "pmp": (np.linspace(0.5, gamma_hi, spec.points), lam),
    }


def run_benchmarks(config: ExperimentConfig, population: Population, weather: list[HourlySeries],
                   cost: WholesaleCost) -> tuple[Tables, dict]:
    model = population_model(population, mean_day(weather))
    spec = config.benchmarks
    front = pareto_front(model, cost, np.linspace(0.0, 1.0, spec.points))
    tables = {"benchmark_dahp.csv": (["param", "cs", "rp"], [front.param, front.cs, front.rp])}
    for family, (sweep, direction) in _benchmark_families(model, cost, spec).items():
        if not np.isfinite(sweep).all():  # a tou_ratio near 0 puts the TOU sweep's top past 1e308
            raise NumericalError(f"{family} benchmark sweep overflows")
        try:
            trace = benchmark_trace(model, cost, sweep, direction)
        except NumericalError as exc:
            raise NumericalError(f"{family} {exc}") from exc
        tables[f"benchmark_{family}.csv"] = (["param", "cs", "rp"], [trace.param, trace.cs, trace.rp])
    return tables, {}


def run_renewable(config: ExperimentConfig, population: Population, weather: list[HourlySeries],
                  cost: WholesaleCost) -> tuple[Tables, dict]:
    model = population_model(population, mean_day(weather))
    if np.any(cost.mean - config.renewable.marginal_cost <= 0.0):
        raise ConfigError("'renewable.marginal_cost' must stay below every hour's wholesale mean price")
    rows = []
    for eta in resolve_eta_grid(config.eta_grid):
        for capacity in config.renewable.capacity_grid:
            renew = RenewableModel(capacity=float(capacity), marginal_cost=config.renewable.marginal_cost)
            split = benefit_split(model, cost, renew, float(eta))
            rows.append([float(eta), float(capacity), split.delta_cs, split.delta_rp, split.fraction])
    table = (["eta", "K", "delta_cs", "delta_rp", "fraction"], np.array(rows, dtype=float).T)
    return {"renewable.csv": table}, {}


def run_storage(config: ExperimentConfig, population: Population, weather: list[HourlySeries],
                cost: WholesaleCost) -> tuple[Tables, dict]:
    model = population_model(population, mean_day(weather))
    batteries = batteries_from_spec(config.storage)
    rows = []
    searches = []
    for eta in resolve_eta_grid(config.storage.eta_grid, "storage.eta_grid"):
        result = optimize_price_with_storage(
            model, cost, batteries, float(eta), max_evals=config.storage.max_evals
        )
        volume = sum(float(result.plans[b].charge.sum()) for b in batteries)
        rows.append([float(eta), result.cs, result.rp, volume, *result.price])
        searches.append({
            "eta": float(eta),
            "n_evals": result.n_evals,
            "truncated": result.truncated,
            "improved": result.improved,
            "lp_solves": result.lp_solves,
            "lp_pivots": result.lp_pivots,
            "basis_reuses": result.basis_reuses,
        })
    table = (["eta", "cs", "rp", "arbitrage_volume", *_PRICE_COLUMNS], np.array(rows, dtype=float).T)
    return {"storage.csv": table}, {"storage_search": searches}


def run_simulate(config: ExperimentConfig, population: Population, weather: list[HourlySeries],
                 cost: WholesaleCost) -> tuple[Tables, dict]:
    """Per-day population simulation under that day's optimal tariff.

    Each configured thermostat tolerance is replayed on the responsive
    policy's per-(consumer, day) noise, so the policies are comparable
    seed-for-seed.  ``simulate.csv`` is policy 0 of the (days, policies,
    consumers) results and ``baseline.csv`` the rest; rows run day by day,
    consumer by consumer (and tolerance by tolerance in ``baseline.csv``).
    """
    eta = float(config.simulate.eta)
    tolerances = np.array(config.simulate.thermostat_tolerances, dtype=float)

    days, consumers = len(weather), len(population)
    payment, discomfort = np.empty((2, days, 1 + len(tolerances), consumers))
    for day_index, day in enumerate(weather):
        prices = optimal_price(population_model(population, day.values), cost, eta)
        _, payment[day_index], discomfort[day_index] = simulate_population_day(
            population, prices, day.values, config.seed, day_index, tolerances.tolist()
        )
    surplus = -(discomfort + payment)

    day_ids, ids = np.indices((days, consumers))
    tables = {"simulate.csv": (
        ["consumer_id", "day", "payment", "discomfort", "surplus"],
        [ids.ravel(), day_ids.ravel(), *(values[:, 0].ravel() for values in (payment, discomfort, surplus))],
    )}
    if len(tolerances):
        day_ids, ids, tolerance = np.indices((days, consumers, len(tolerances)))
        tables["baseline.csv"] = (
            ["tolerance", "consumer_id", "day", "payment", "discomfort", "surplus"],
            [tolerances[tolerance.ravel()], ids.ravel(), day_ids.ravel(),
             *(values[:, 1:].transpose(0, 2, 1).ravel() for values in (payment, discomfort, surplus))],
        )
    # one Philox key per day; consumers read it at their own counter offsets
    return tables, {"consumer_days": consumers * days, "substreams": days}


_RUNNERS = {
    "pareto": run_pareto,
    "benchmarks": run_benchmarks,
    "renewable": run_renewable,
    "storage": run_storage,
    "simulate": run_simulate,
}
COMMANDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig, command: str, out_dir: str | Path) -> list[Path]:
    """Run one CLI command: read its inputs, run its study, write its
    tables plus the run manifest, and return the tables' paths."""
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    started = time.perf_counter()
    # an overflow surfaces as a non-finite cell, which _write_tables reports
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tables, counters = _RUNNERS[command](config, *load_inputs(config))
        files = _write_tables(out, tables)
    resolved = resolved_dict(config)
    manifest = {
        "command": command,
        "seed": config.seed,
        "config_hash": resolved_hash(resolved),
        "config": resolved,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": files,
        "counters": counters,
        **({"noise_scheme": NOISE_SCHEME} if command == "simulate" else {}),
    }
    _write(out / "manifest.json", [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])
    return [out / name for name in files]
