"""Monte Carlo simulation of consumers responding to day-ahead prices.

The simulator rolls the thermal model forward with process and observation
noise while each consumer runs a scalar Kalman filter and applies the
certainty-equivalent hourly policy: drive the predicted indoor temperature
to a price-shifted setpoint.  Thermostat baselines instead apply open-loop
powers planned for a fixed comfort tolerance.  Realized payment,
discomfort, and surplus are reported per day; their sample means validate
the closed-form model in ``dahp.demand``.

Every rollout steps through the hours once with many rows at a time: the
consumers of a population on one day, or replicate days of one consumer.

Randomness comes from counter-based Philox substreams keyed by
``(seed, consumer_id, day)``, so population runs are reproducible and
independent of iteration order.  Each consumer-day's noise is drawn once
and shared by the responsive rollout and every thermostat tolerance, so
the policies are compared on identical disturbances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import ConsumerParams, Population, _estimator_variance_ladder, _pow2, as_forecast, as_prices

Outcome = tuple[np.ndarray, np.ndarray, np.ndarray]  # consumption, payment, discomfort per row


@dataclass(eq=False)
class DayResult:
    """Realized outcome of one simulated day.

    ``surplus`` is computed as ``-(discomfort + payment)`` so the accounting
    identity holds exactly, not merely to rounding.
    """

    consumption: np.ndarray
    payment: float
    discomfort: float
    surplus: float


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic Philox generator for a (seed, *key) coordinate."""
    if seed < 0 or any(k < 0 for k in key):
        raise ValueError("seed and substream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *map(int, key)))))


def _draw_day_noise(gen: np.random.Generator, n_days: int, horizon: int,
                    process_noise_var: float, obs_noise_var: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical noise layout shared by every rollout flavor.

    Order matters for reproducibility: initial reading noise first, then the
    process-noise matrix, then the observation-noise matrix.
    """
    sv = float(np.sqrt(obs_noise_var))
    sw = float(np.sqrt(process_noise_var))
    v0 = gen.normal(0.0, sv, size=n_days) if sv > 0 else np.zeros(n_days)
    w = gen.normal(0.0, sw, size=(n_days, horizon)) if sw > 0 else np.zeros((n_days, horizon))
    v = gen.normal(0.0, sv, size=(n_days, horizon)) if sv > 0 else np.zeros((n_days, horizon))
    return v0, w, v


def _respond_rollout(population: Population, prices: np.ndarray, forecast: np.ndarray,
                     v0: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rollout of filtering consumers over stacked rows.

    Row ``k`` is consumer ``k`` of ``population``, or, for a population of
    one, replicate day ``k``.  Returns (consumption, discomfort).
    """
    alpha, beta, mu = population.alpha, population.beta, population.mu
    t = population.desired_temp
    n = population.horizon
    _, gains = _estimator_variance_ladder(population)

    x = np.full(len(v0), t[:, 0])      # true indoor temperature
    est = t[:, 0] + v0                 # posterior mean, seeded by one reading
    consumption = np.empty((len(v0), n))
    discomfort = np.zeros(len(v0))
    for i in range(1, n + 1):
        pi_next = prices[i] if i < n else 0.0
        target = (prices[i - 1] - (1.0 - alpha) * pi_next) / (2.0 * mu * beta) + t[:, i - 1]
        power = ((1.0 - alpha) * est + alpha * forecast[i - 1] - target) / beta
        consumption[:, i - 1] = power

        x = x + alpha * (forecast[i - 1] - x) - beta * power + w[:, i - 1]
        discomfort += mu * (x - t[:, i - 1]) ** 2

        pred_mean = (1.0 - alpha) * est + alpha * forecast[i - 1] - beta * power
        est = pred_mean + gains[:, i - 1] * (x + v[:, i - 1] - pred_mean)
    return consumption, discomfort


def _baseline_powers(population: Population, forecast: np.ndarray, tolerance: float) -> np.ndarray:
    """Open-loop powers, (consumers, hours), holding the noise-free
    trajectory at the tolerance band edge (above the setpoint when the unit
    cools, below when it heats)."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    alpha, beta = population.alpha[:, None], population.beta[:, None]
    t = population.desired_temp
    band = t + np.where(beta > 0, tolerance, -tolerance)
    previous = np.concatenate([t[:, :1], band[:, :-1]], axis=1)
    return ((1.0 - alpha) * previous + alpha * forecast - band) / beta


def _baseline_rollout(population: Population, powers: np.ndarray, forecast: np.ndarray,
                      w: np.ndarray) -> np.ndarray:
    """Discomfort per row of the noisy evolution under open-loop ``powers``
    (rows as in ``_respond_rollout``)."""
    alpha, beta, mu = population.alpha, population.beta, population.mu
    t = population.desired_temp
    x = np.full(len(w), t[:, 0])
    discomfort = np.zeros(len(w))
    for i in range(population.horizon):
        x = x + alpha * (forecast[i] - x) - beta * powers[:, i] + w[:, i]
        discomfort += mu * _pow2(x - t[:, i])
    return discomfort


def _row_payments(consumption: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """One dot product per row, so a consumer's payment does not depend on
    the batch it ran in (a matrix-vector product rounds differently)."""
    return np.array([row @ prices for row in consumption])


def simulate_population_day(population: Population, prices: Sequence[float], weather: Sequence[float], seed: int,
                            day: int = 0, tolerances: Sequence[float] = (),
                            consumer_ids: Sequence[int] | None = None) -> tuple[Outcome, list[Outcome]]:
    """Simulate one day of every consumer under the optimal hourly policy
    and under a thermostat baseline per tolerance.

    Consumer ``k`` draws its noise once, from the ``(seed, consumer_ids[k],
    day)`` substream (ids default to row indices), and every policy
    experiences it.  Returns ``(responsive, baselines)``: (consumption,
    payment, discomfort) with consumers on the leading axis, and one such
    triple per tolerance.
    """
    pi = as_prices(prices, population.horizon)
    forecast = as_forecast(weather, population.horizon)
    ids = range(len(population)) if consumer_ids is None else consumer_ids
    draws = [
        _draw_day_noise(substream(seed, cid, day), 1, population.horizon, q, r)
        for cid, q, r in zip(ids, population.process_noise_var.tolist(), population.obs_noise_var.tolist())
    ]
    v0, w, v = (np.concatenate(parts) for parts in zip(*draws))

    consumption, discomfort = _respond_rollout(population, pi, forecast, v0, w, v)
    baselines = []
    for tolerance in tolerances:
        powers = _baseline_powers(population, forecast, tolerance)
        baselines.append(
            (powers, _row_payments(powers, pi), _baseline_rollout(population, powers, forecast, w))
        )
    return (consumption, _row_payments(consumption, pi), discomfort), baselines


def _first_row(outcome: Outcome) -> DayResult:
    consumption, payment, discomfort = outcome
    pay, disc = float(payment[0]), float(discomfort[0])
    return DayResult(consumption=consumption[0], payment=pay, discomfort=disc, surplus=-(disc + pay))


def simulate_day(params: ConsumerParams, prices: Sequence[float], weather: Sequence[float], seed: int,
                 consumer_id: int = 0, day: int = 0) -> DayResult:
    """Simulate one consumer-day under the optimal hourly policy."""
    responsive, _ = simulate_population_day(
        Population.of([params]), prices, weather, seed, day, consumer_ids=[consumer_id]
    )
    return _first_row(responsive)


def baseline_thermostat(params: ConsumerParams, tolerance: float, prices: Sequence[float],
                        weather: Sequence[float], seed: int, consumer_id: int = 0, day: int = 0) -> DayResult:
    """Non-responsive benchmark: compute powers from the expected dynamics
    for a fixed comfort tolerance, then experience the noisy evolution.

    Driven by the same noise as ``simulate_day`` with the same
    ``(seed, consumer_id, day)``.
    """
    _, (baseline,) = simulate_population_day(
        Population.of([params]), prices, weather, seed, day, [tolerance], [consumer_id]
    )
    return _first_row(baseline)

