"""Experiment configuration: one YAML file with a strict key schema.

Unknown keys are errors (typos should never silently fall back to
defaults), required keys are checked eagerly, and every consumer parameter
accepts either a scalar or a two-element ``[lo, hi]`` uniform range drawn
per consumer from the run seed.  ``config_hash`` fingerprints the resolved
configuration so the run manifest changes exactly when a field does.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .demand import HOURS_PER_DAY, Population
from .errors import ConfigError
from .simulate import substream
from .storage import BatteryParams

_POPULATION_KEY = 1  # substream tag for population parameter draws


@dataclass
class SeriesSpec:
    source: str = "synthetic"  # "synthetic" | "file"
    days: int = 1
    path: str | None = None


@dataclass
class PopulationSpec:
    count: int = 10
    alpha: Any = 0.5
    beta: Any = 0.1
    mu: Any = 0.5
    desired_temp: Any = 18.0
    process_noise_var: Any = 0.01
    obs_noise_var: Any = 0.01


@dataclass
class BenchmarkSpec:
    points: int = 200
    tou_ratio: float = 1.2
    peak_start: int = 9
    peak_end: int = 17


@dataclass
class RenewableSpec:
    capacity_grid: list = field(default_factory=lambda: [10.0, 50.0, 200.0])
    marginal_cost: float = 0.0


@dataclass
class StorageSpec:
    count: int = 1
    capacity: float = 10.0
    initial_soc: float = 0.0
    storage_eff: float = 1.0
    charge_eff: float = 0.95
    discharge_eff: float = 0.95
    charge_limit: float = 5.0
    discharge_limit: float = 5.0
    eta_grid: list = field(default_factory=lambda: [0.0, 0.5, 1.0])
    max_evals: int = 1500


@dataclass
class SimulateSpec:
    eta: float = 1.0
    thermostat_tolerances: list = field(default_factory=lambda: [0.0, 2.0])


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str = "runs"
    consumers: PopulationSpec = field(default_factory=PopulationSpec)
    weather: SeriesSpec = field(default_factory=SeriesSpec)
    wholesale: SeriesSpec = field(default_factory=SeriesSpec)
    eta_grid: list = field(default_factory=lambda: [0.0, 1.0, 101])
    benchmarks: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    renewable: RenewableSpec = field(default_factory=RenewableSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    simulate: SimulateSpec = field(default_factory=SimulateSpec)


_SECTION_TYPES = {
    "consumers": PopulationSpec,
    "weather": SeriesSpec,
    "wholesale": SeriesSpec,
    "benchmarks": BenchmarkSpec,
    "renewable": RenewableSpec,
    "storage": StorageSpec,
    "simulate": SimulateSpec,
}


def _build_section(cls, raw: Any, path: str):
    if raw is None:
        return cls()
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be a mapping")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key '{path}.{unknown[0]}'")
    return cls(**raw)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML experiment configuration."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}'")

    kwargs: dict[str, Any] = {}
    for name, cls in _SECTION_TYPES.items():
        if name in raw:
            kwargs[name] = _build_section(cls, raw[name], name)
    for name in ("seed", "output_dir", "eta_grid"):
        if name in raw:
            kwargs[name] = raw[name]
    if "seed" not in kwargs:
        raise ConfigError("config must set 'seed' (reproducibility is mandatory)")
    config = ExperimentConfig(**kwargs)
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    if not _is_int(config.seed) or config.seed < 0:
        raise ConfigError("'seed' must be a nonnegative integer")
    for name in ("weather", "wholesale"):
        spec = getattr(config, name)
        if spec.source not in ("synthetic", "file"):
            raise ConfigError(f"'{name}.source' must be 'synthetic' or 'file'")
        if spec.source == "file":
            if not spec.path:
                raise ConfigError(f"'{name}.path' is required when source is 'file'")
            if not Path(spec.path).exists():
                raise ConfigError(f"'{name}.path' does not exist: {spec.path}")
        elif not (_is_int(spec.days) and spec.days >= 1):
            raise ConfigError(f"'{name}.days' must be a positive integer")
    if not (_is_int(config.consumers.count) and config.consumers.count >= 1):
        raise ConfigError("'consumers.count' must be a positive integer")
    resolve_eta_grid(config.eta_grid, "eta_grid")
    resolve_eta_grid(config.storage.eta_grid, "storage.eta_grid")
    if not (_is_finite(config.simulate.eta) and 0.0 <= config.simulate.eta <= 1.0):
        raise ConfigError("'simulate.eta' must lie in [0, 1]")
    tolerances = config.simulate.thermostat_tolerances
    if not (isinstance(tolerances, list) and all(_is_finite(v) and v >= 0 for v in tolerances)):
        raise ConfigError("'simulate.thermostat_tolerances' must be a list of finite nonnegative numbers")
    grid = config.renewable.capacity_grid
    if not (isinstance(grid, list) and grid and all(_is_finite(v) and v >= 0 for v in grid)):
        raise ConfigError("'renewable.capacity_grid' must be a nonempty list of finite nonnegative numbers")
    cost = config.renewable.marginal_cost
    if not (_is_finite(cost) and cost >= 0):
        raise ConfigError("'renewable.marginal_cost' must be a finite nonnegative number")
    bench = config.benchmarks
    if not (_is_int(bench.points) and bench.points >= 2):
        raise ConfigError("'benchmarks.points' must be an integer >= 2")
    if not (_is_int(bench.peak_start) and _is_int(bench.peak_end)
            and 0 <= bench.peak_start < bench.peak_end <= HOURS_PER_DAY):
        raise ConfigError(
            f"'benchmarks.peak_start' and 'benchmarks.peak_end' must be integers with "
            f"0 <= peak_start < peak_end <= {HOURS_PER_DAY}"
        )
    if not (_is_finite(bench.tou_ratio) and bench.tou_ratio > 0):
        raise ConfigError("'benchmarks.tou_ratio' must be a finite number > 0")
    if not (_is_int(config.storage.max_evals) and config.storage.max_evals >= 1):
        raise ConfigError("'storage.max_evals' must be an integer >= 1")
    if not (_is_int(config.storage.count) and config.storage.count >= 0):
        raise ConfigError("'storage.count' must be a nonnegative integer")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and bool(np.isfinite(value))


def resolve_eta_grid(value: Any, path: str = "eta_grid") -> np.ndarray:
    """A grid is either an explicit list of weights or ``[start, stop, count]``
    with an integer count above 3 (so short explicit lists stay lists)."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"'{path}' must be a nonempty list")
    if len(value) == 3 and isinstance(value[2], int) and value[2] > 3:
        start, stop, count = value
        grid = np.linspace(float(start), float(stop), int(count))
    else:
        try:
            grid = np.asarray([float(v) for v in value], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'{path}' entries must be numbers") from exc
    if np.any(grid < 0.0) or np.any(grid > 1.0) or np.any(np.diff(grid) < 0.0):
        raise ConfigError(f"'{path}' must be ascending weights within [0, 1]")
    return grid


def draw_population(spec: PopulationSpec, seed: int) -> Population:
    """Materialize the consumer population deterministically from the seed.

    Ranged fields are drawn consumer by consumer, each consumer's in the
    order ``desired_temp, alpha, beta, mu, process_noise_var,
    obs_noise_var``: one uniform matrix with a row per consumer.
    """
    values: dict[str, np.ndarray] = {}
    ranged = {}
    for name in ("desired_temp", "alpha", "beta", "mu", "process_noise_var", "obs_noise_var"):
        value = getattr(spec, name)
        if isinstance(value, (int, float)):
            values[name] = np.full(spec.count, float(value))
        elif (isinstance(value, (list, tuple)) and len(value) == 2
              and all(isinstance(v, (int, float)) for v in value) and value[0] <= value[1]):
            ranged[name] = [float(v) for v in value]
        else:
            raise ConfigError(f"'consumers.{name}' must be a number or a [lo, hi] range with lo <= hi")
    if ranged:
        lo, hi = zip(*ranged.values())
        draws = substream(seed, _POPULATION_KEY).uniform(lo, hi, size=(spec.count, len(ranged)))
        values.update(zip(ranged, draws.T))
    values["desired_temp"] = np.repeat(values["desired_temp"][:, None], HOURS_PER_DAY, axis=1)
    try:
        return Population(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid consumer parameters: {exc}") from exc


def batteries_from_spec(spec: StorageSpec) -> list[BatteryParams]:
    try:
        battery = BatteryParams(
            capacity=float(spec.capacity),
            initial_soc=float(spec.initial_soc),
            storage_eff=float(spec.storage_eff),
            charge_eff=float(spec.charge_eff),
            discharge_eff=float(spec.discharge_eff),
            charge_limit=float(spec.charge_limit),
            discharge_limit=float(spec.discharge_limit),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid storage parameters: {exc}") from exc
    return [battery] * int(spec.count)


def resolved_dict(config: ExperimentConfig) -> dict:
    """Plain-dict view of the configuration used for hashing and manifests."""
    return dataclasses.asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
