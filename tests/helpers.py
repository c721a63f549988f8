"""Shared factories for randomized test instances."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import yaml

from dahp import (
    AffineDemandModel,
    BatteryParams,
    Population,
    WholesaleCost,
    aggregate,
    build_consumer_model,
    pareto_front,
    population_model,
)
from dahp.experiments import load_inputs
from dahp.timeseries import mean_day, synthetic_weather, synthetic_wholesale

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
DEFAULT_WEATHER = synthetic_weather(1)[0].values
DEFAULT_WHOLESALE = synthetic_wholesale(1)[0].values

# Battery specs of the basis-reuse and warm-start tests.
REUSE_BATTERIES = {
    "lossless": BatteryParams(capacity=6.0, initial_soc=0.0, charge_limit=2.0, discharge_limit=2.5),
    "lossy": BatteryParams(capacity=8.0, initial_soc=0.0, storage_eff=0.99, charge_eff=0.9,
                           discharge_eff=0.92, charge_limit=3.0, discharge_limit=4.0),
    # starts charged but can recharge fast enough to make up the decay
    "leaky": BatteryParams(capacity=10.0, initial_soc=4.0, storage_eff=0.97, charge_eff=0.95,
                           discharge_eff=0.95, charge_limit=5.0, discharge_limit=5.0),
    "unlimited": BatteryParams(capacity=10.0, initial_soc=0.0, charge_eff=0.95, discharge_eff=0.95),
    "leaky_unlimited": BatteryParams(capacity=5.0, initial_soc=2.0, storage_eff=0.98, charge_eff=0.9),
}


def random_params(rng: np.random.Generator, horizon: int = 24, noisy: bool = True) -> Population:
    """One random consumer, a one-row population."""
    return Population(
        alpha=[rng.uniform(0.2, 0.8)],
        beta=[rng.uniform(0.05, 0.3)],
        mu=[rng.uniform(0.2, 2.0)],
        desired_temp=[rng.uniform(16.0, 24.0) + rng.uniform(-0.5, 0.5, size=horizon)],
        process_noise_var=[rng.uniform(0.001, 0.05) if noisy else 0.0],
        obs_noise_var=[rng.uniform(0.001, 0.05) if noisy else 0.0],
    )


def random_model(
    rng: np.random.Generator, horizon: int = 24, n_consumers: int = 3
) -> tuple[AffineDemandModel, WholesaleCost]:
    weather = DEFAULT_WEATHER[:horizon] if horizon <= 24 else np.resize(DEFAULT_WEATHER, horizon)
    consumers = [
        build_consumer_model(random_params(rng, horizon), weather) for _ in range(n_consumers)
    ]
    model = aggregate(consumers)
    cost = WholesaleCost(mean=np.resize(DEFAULT_WHOLESALE, horizon) * rng.uniform(0.8, 1.2))
    return model, cost


def front_point(model: AffineDemandModel, cost: WholesaleCost, eta: float) -> tuple[np.ndarray, float, float]:
    """``(price, cs, rp)`` of the optimal tariff for one weight, read off a
    one-weight ``pareto_front``."""
    _, (price,), (cs,), (rp,) = pareto_front(model, cost, [eta])
    return price, float(cs), float(rp)


def random_battery(rng: np.random.Generator, lossy: bool = True) -> BatteryParams:
    capacity = rng.uniform(1.0, 10.0)
    return BatteryParams(
        capacity=capacity,
        initial_soc=rng.uniform(0.0, capacity),
        storage_eff=rng.uniform(0.9, 0.999) if lossy else 1.0,
        charge_eff=rng.uniform(0.85, 0.99) if lossy else 1.0,
        discharge_eff=rng.uniform(0.85, 0.99) if lossy else 1.0,
        charge_limit=rng.uniform(0.5, 3.0),
        discharge_limit=rng.uniform(0.5, 3.0),
    )


def one_hour_model(gain: float, intercept: float, cs_constant: float = 0.0) -> AffineDemandModel:
    """Single-hour affine model with hand-set coefficients."""
    return AffineDemandModel(
        gain=np.array([[gain]]),
        intercept_mean=np.array([intercept]),
        intercept_cov=np.zeros((1, 1)),
        cs_constant=cs_constant,
    )


def toy3_params() -> Population:
    """The three-hour worked example used across the suite, a one-row
    population."""
    return Population(
        alpha=[0.5], beta=[0.1], mu=[0.5], desired_temp=[np.full(3, 20.0)],
        process_noise_var=[0.0], obs_noise_var=[0.0],
    )


def toy3_model() -> AffineDemandModel:
    """Three-hour model with the hand-checked gain matrix and a round
    intercept: weather chosen so the zero-price demand is 60 each hour."""
    params = toy3_params()
    # intercept_i = ((1-a) t + a w_i - t)/beta = 60  =>  w_i = t + 60*beta/a
    weather = np.full(3, 20.0 + 60.0 * 0.1 / 0.5)
    consumer = build_consumer_model(params, weather)
    return aggregate([consumer])


_SERIES_HEADERS = {"wide": "date," + ",".join(f"h{h:02d}" for h in range(1, 25)), "long": "timestamp,value"}


def mean_day_market(config):
    """The demand model on the mean day and the wholesale cost that the
    mean-day studies build from ``config``'s inputs, read as a run reads them."""
    population, weather, cost = load_inputs(config)
    return population_model(population, mean_day(weather)), cost


def series_rows(dates, days, layout: str) -> list[str]:
    """The CSV data rows of ``days`` (24 values per date) in the wide or the
    long layout, each value written by ``repr`` so that it reads back bit-equal."""
    if layout == "wide":
        return [f"{day}," + ",".join(repr(float(v)) for v in values) for day, values in zip(dates, days)]
    return [f"{day}T{hour:02d}:00:00,{float(v)!r}" for day, values in zip(dates, days) for hour, v in enumerate(values)]


def write_series(path, layout: str, rows: list[str]):
    """Write a series CSV of ``rows`` under the layout's header; return its path."""
    path.write_text("\n".join([_SERIES_HEADERS[layout], *rows]) + "\n")
    return path


def demo_config(tmp_path, changes=()):
    """``configs/demo.yaml`` cut to three consumers, with dotted keys replaced."""
    config = yaml.safe_load(DEMO_CONFIG.read_text())
    config["consumers"]["count"] = 3
    for key, value in changes:
        *sections, name = key.split(".")
        node = config
        for section in sections:
            node = node[section]
        node[name] = value
    path = tmp_path / "demo.yaml"
    path.write_text(yaml.safe_dump(config))
    return path
