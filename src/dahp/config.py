"""Experiment configuration: one YAML file checked against one schema.

Each spec field declares its default and its ``Rule`` once, as dataclass
field metadata.  ``load_config`` builds the specs recursively from the YAML
(unknown keys are errors, so typos never fall back to defaults) and checks
every field, whichever command runs; ``validate_config`` adds the rules
that tie fields together.  A consumer parameter is a number or a
``[lo, hi]`` uniform range drawn per consumer from the run seed.
``config_hash`` fingerprints the resolved configuration.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import sys
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import yaml

from .demand import HOURS_PER_DAY, Population
from .errors import ConfigError
from .simulate import POPULATION_STREAM, substream
from .storage import BatteryParams

INF = float("inf")


class Rule(NamedTuple):
    test: Callable[[Any], bool]
    phrase: str  # completes "'<key>' must be ..."


def _is_finite(value: Any) -> bool:
    # compared, not converted: exact for ints beyond the float range too
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def integer(lo: int, hi: float = INF) -> Rule:
    phrase = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer >= {lo}")
    return Rule(lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
                phrase if hi == INF else f"an integer in [{lo}, {hi}]")


def finite(lo: float, hi: float = INF, strict: bool = False) -> Rule:
    phrase = f"in [{lo}, {hi}]" if hi < INF else f"{'>' if strict else '>='} {lo}"
    return Rule(lambda v: _is_finite(v) and (lo < v if strict else lo <= v) and v <= hi,
                f"a finite number {phrase}")


def numbers(nonempty: bool = False) -> Rule:
    return Rule(lambda v: isinstance(v, list) and len(v) >= nonempty and all(_is_finite(x) and x >= 0 for x in v),
                f"a {'nonempty ' if nonempty else ''}list of finite nonnegative numbers")


def choice(*options: str) -> Rule:
    return Rule(lambda v: isinstance(v, str) and v in options, " or ".join(map(repr, options)))


def path_string(optional: bool = False) -> Rule:
    return Rule(lambda v: isinstance(v, str) and "\0" not in v or optional and v is None, "a path string")


CONSUMER_NUMBER = Rule(
    lambda v: _is_finite(v) or (
        isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_finite, v)) and v[0] <= v[1]
    ),
    "a finite number or a [lo, hi] range of finite numbers with lo <= hi",
)
BATTERY_NUMBER = Rule(lambda v: _is_finite(v) or v == INF, "a finite number or .inf")


def _field(default: Any = MISSING, rule: Rule | None = None) -> Any:
    """A spec field: its default (none if required; lists are copied) and its rule."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


@dataclass
class SeriesSpec:
    source: str = _field("synthetic", choice("synthetic", "file"))
    days: int = _field(1, integer(1))
    path: str | None = _field(None, path_string(optional=True))


@dataclass
class PopulationSpec:
    count: int = _field(10, integer(1))
    alpha: Any = _field(0.5, CONSUMER_NUMBER)
    beta: Any = _field(0.1, CONSUMER_NUMBER)
    mu: Any = _field(0.5, CONSUMER_NUMBER)
    desired_temp: Any = _field(18.0, CONSUMER_NUMBER)
    process_noise_var: Any = _field(0.01, CONSUMER_NUMBER)
    obs_noise_var: Any = _field(0.01, CONSUMER_NUMBER)


@dataclass
class BenchmarkSpec:
    points: int = _field(200, integer(2))
    tou_ratio: float = _field(1.2, finite(0, strict=True))
    peak_start: int = _field(9, integer(0))
    peak_end: int = _field(17, integer(1, HOURS_PER_DAY))


@dataclass
class RenewableSpec:
    capacity_grid: list = _field([10.0, 50.0, 200.0], numbers(nonempty=True))
    marginal_cost: float = _field(0.0, finite(0))


@dataclass
class StorageSpec:
    count: int = _field(1, integer(0))
    capacity: float = _field(10.0, BATTERY_NUMBER)
    initial_soc: float = _field(0.0, finite(0))
    storage_eff: float = _field(1.0, BATTERY_NUMBER)
    charge_eff: float = _field(0.95, BATTERY_NUMBER)
    discharge_eff: float = _field(0.95, BATTERY_NUMBER)
    charge_limit: float = _field(5.0, BATTERY_NUMBER)
    discharge_limit: float = _field(5.0, BATTERY_NUMBER)
    eta_grid: list = _field([0.0, 0.5, 1.0])  # checked by resolve_eta_grid
    max_evals: int = _field(4500, integer(1))


@dataclass
class SimulateSpec:
    eta: float = _field(1.0, finite(0, 1))
    thermostat_tolerances: list = _field([0.0, 2.0], numbers())


@dataclass
class ExperimentConfig:
    seed: int = _field(rule=integer(0))
    output_dir: str = _field("runs", path_string())
    consumers: PopulationSpec = field(default_factory=PopulationSpec)
    weather: SeriesSpec = field(default_factory=SeriesSpec)
    wholesale: SeriesSpec = field(default_factory=SeriesSpec)
    eta_grid: list = _field([0.0, 1.0, 101])  # checked by resolve_eta_grid
    benchmarks: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    renewable: RenewableSpec = field(default_factory=RenewableSpec)
    storage: StorageSpec = field(default_factory=StorageSpec)
    simulate: SimulateSpec = field(default_factory=SimulateSpec)


def _build(cls, raw: Any, path: str = ""):
    """Build spec ``cls`` from a YAML mapping, recursing into the fields
    whose default is a spec section."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be a mapping" if path else "config root must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for name, value in raw.items():
        key = f"{path}.{name}" if path else str(name)
        if name not in fields:
            raise ConfigError(f"unknown config key '{key}'")
        section = fields[name].default_factory
        kwargs[name] = _build(section, value, key) if dataclasses.is_dataclass(section) else value
    missing = [name for name, f in fields.items()
               if name not in kwargs and f.default is f.default_factory is MISSING]
    if missing:  # only the root has required fields
        raise ConfigError(f"config must set '{missing[0]}'")
    return cls(**kwargs)


def check_fields(spec: Any, path: str = "") -> None:
    """Check each field of a spec, and of the sections it holds, against its
    declared rule; ``path`` is the spec's dotted key in the config."""
    for f in dataclasses.fields(spec):
        key = f"{path}.{f.name}" if path else f.name
        value, rule = getattr(spec, f.name), f.metadata.get("rule")
        if dataclasses.is_dataclass(value):
            check_fields(value, key)
        elif rule is not None and not rule.test(value):
            raise ConfigError(f"'{key}' must be {rule.phrase}")


def _loader(base: type) -> type:
    """``base``, a safe loader, with YAML 1.2's floats (YAML 1.1 reads ``1e3``
    and ``1e-300`` as strings) and no key repeated within a mapping."""
    def flatten_mapping(self, node) -> None:
        # A mapping's own keys are checked once: ``<<`` merges put in front
        # of them the keys of other mappings, which they override.
        checked, keys = vars(self).setdefault("checked_mappings", set()), {}
        own = [] if node in checked else [key for key, _ in node.value if isinstance(key, yaml.ScalarNode)]
        checked.add(node)
        base.flatten_mapping(self, node)  # drops the merge keys
        for key_node in (key for key in own if key.tag != "tag:yaml.org,2002:merge"):
            key = self.construct_object(key_node)  # a scalar, so hashable
            if keys.setdefault(key, key_node) is not key_node:
                raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}", key_node.start_mark)

    loader = type("_Loader", (base,), {"flatten_mapping": flatten_mapping})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+0123456789."),
    )
    return loader


_Loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))  # libyaml's parser where PyYAML has it


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML experiment configuration."""
    try:
        raw = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    config = _build(ExperimentConfig, raw)
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    """Check every field's rule, then the rules that tie fields together."""
    check_fields(config)
    for name in ("weather", "wholesale"):
        spec = getattr(config, name)
        if spec.source == "file" and not (spec.path and os.path.exists(spec.path)):
            raise ConfigError(f"'{name}.path' must be an existing file when source is 'file', got {spec.path!r}")
    if config.benchmarks.peak_start >= config.benchmarks.peak_end:
        raise ConfigError("'benchmarks.peak_start' must be below 'benchmarks.peak_end'")
    resolve_eta_grid(config.eta_grid, "eta_grid")
    resolve_eta_grid(config.storage.eta_grid, "storage.eta_grid")


def resolve_eta_grid(value: Any, path: str = "eta_grid") -> np.ndarray:
    """A grid is either an explicit list of weights or ``[start, stop, count]``
    with an integer count above 3 (so short explicit lists stay lists)."""
    if not (isinstance(value, (list, tuple)) and value and all(map(_is_finite, value))):
        raise ConfigError(f"'{path}' must be a nonempty list of finite numbers")
    count_form = len(value) == 3 and isinstance(value[2], int) and value[2] > 3
    grid = np.linspace(*value) if count_form else np.asarray(value, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0) or np.any(np.diff(grid) < 0.0):
        raise ConfigError(f"'{path}' must be ascending weights within [0, 1]")
    return grid


def draw_population(spec: PopulationSpec, seed: int) -> Population:
    """Materialize the consumer population deterministically from the seed.

    Ranged fields are drawn consumer by consumer, each consumer's in the
    order ``desired_temp, alpha, beta, mu, process_noise_var,
    obs_noise_var``: one uniform matrix with a row per consumer.  A scalar
    field is one value broadcast to every consumer, as setpoints are to hours.
    """
    check_fields(spec, "consumers")
    order = ("desired_temp", "alpha", "beta", "mu", "process_noise_var", "obs_noise_var")
    ranged = {name: getattr(spec, name) for name in order if np.ndim(getattr(spec, name))}
    values = {name: np.broadcast_to(float(getattr(spec, name)), spec.count) for name in order if name not in ranged}
    if ranged:
        lo, hi = zip(*ranged.values())
        draws = substream(seed, POPULATION_STREAM).uniform(lo, hi, size=(spec.count, len(ranged)))
        values.update(zip(ranged, draws.T))
    values["desired_temp"] = np.broadcast_to(values["desired_temp"][:, None], (spec.count, HOURS_PER_DAY))
    try:
        return Population(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid consumer parameters: {exc}") from exc


def batteries_from_spec(spec: StorageSpec) -> list[BatteryParams]:
    check_fields(spec, "storage")
    try:
        battery = BatteryParams(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(BatteryParams)})
    except ValueError as exc:
        raise ConfigError(f"invalid storage parameters: {exc}") from exc
    return [battery] * spec.count


def resolved_dict(config: ExperimentConfig) -> dict:
    """Plain-dict view of the configuration used for hashing and manifests."""
    return dataclasses.asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(resolved_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
