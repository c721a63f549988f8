"""Monte Carlo simulation of consumers responding to day-ahead prices.

The simulator rolls the thermal model forward with process and observation
noise while each consumer runs a scalar Kalman filter and applies the
certainty-equivalent hourly policy: drive the predicted indoor temperature
to a price-shifted setpoint.  Thermostat baselines instead apply open-loop
powers planned for a fixed comfort tolerance.  A day's realized
consumption, payment and discomfort stack the policies on a leading axis,
the optimal one first; their sample means validate the closed-form model in
``dahp.demand``.

Every rollout steps through the hours once with many rows at a time: the
consumers of a population on one day, or replicate days of one consumer;
the thermostat baselines step the consumers of every tolerance at once.
A single consumer is a one-row population: ``simulate_population_day``
with ``consumer_ids=[id]`` simulates its day on its own noise row.

Every random stream of a run is hashed from ``(seed, tag, ...)`` with one
tag per use (the ``*_STREAM`` constants below), so no two uses share a
Philox key.  Noise is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  Each day has one Philox key,
hashed from ``(seed, DAY_NOISE_STREAM, day)``; consumer ``c`` reads the
``W`` words that start at counter ``c * W / 4`` of that key's stream, where
``W`` is the smallest multiple of 4 holding the word pairs of its
``2 * horizon + 1`` normals.  A contiguous run of consumer ids is one
``random_raw`` call, and a consumer's noise depends only on
``(seed, consumer_id, day)``, not on the batch, its size or its order.
Box-Muller turns word pair ``k`` into normals ``2k`` (cosine) and
``2k + 1`` (sine); normal 0 is the initial reading error, the next
``horizon`` the process noise and the last ``horizon`` the reading errors.
Every word is drawn whatever the variances, so a noise-free field does not
shift the others.  Each consumer-day's noise is shared by the responsive
rollout and every thermostat tolerance, so the policies are compared on
identical disturbances.  ``NOISE_SCHEME`` numbers this layout in the
manifest.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .demand import Population, _pow2, as_forecast, as_prices

NOISE_SCHEME = 2  # keyed block noise; scheme 1 drew one substream per consumer-day

# Stream tags, the first key after the seed.  They are nonzero because
# SeedSequence pads short entropy with zeros: (seed, 0) would alias (seed,).
POPULATION_STREAM = 1       # (seed, 1): population parameter draws
DAY_NOISE_STREAM = 2        # (seed, 2, day): a day's noise, consumers as rows
REPLICATE_NOISE_STREAM = 3  # (seed, 3, consumer_id): one consumer's replicate days as rows


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    if seed < 0 or any(k < 0 for k in key):
        raise ValueError("seed and stream keys must be nonnegative integers")
    return np.random.SeedSequence((int(seed), *map(int, key)))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic Philox generator for a (seed, *key) coordinate."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *key)))


def _row_words(horizon: int) -> int:
    """Philox words per noise row: whole 4-word blocks covering the word
    pairs of ``2 * horizon + 1`` normals."""
    return 4 * -(-(2 * horizon + 2) // 4)


def _noise_words(seed: int, stream: tuple[int, ...], rows: Sequence[int], width: int) -> np.ndarray:
    """(len(rows), width) raw words of the Philox stream keyed by
    ``(seed, *stream)``; row ``r`` starts at counter ``r * width / 4``.

    Each contiguous run of row numbers is one ``random_raw`` call, so memory
    scales with the rows asked for, not with the largest row number.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if np.any(rows < 0):
        raise ValueError("noise row numbers must be nonnegative integers")
    key = _seed_sequence(seed, *stream).generate_state(2, np.uint64)
    words = np.empty((len(rows), width), dtype=np.uint64)
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()  # rows >= 0: the first row starts a run
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        philox = np.random.Philox(key=key, counter=[int(rows[a]) * (width // 4), 0, 0, 0])
        words[a:b] = philox.random_raw((b - a) * width).reshape(b - a, width)
    return words


def _box_muller(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` standard normals of each row of words: uniforms
    ``((word >> 11) + 0.5) * 2**-53`` in (0, 1), and pair ``k`` gives normal
    ``2k`` (cosine) and ``2k + 1`` (sine), so each normal depends only on
    its own two words."""
    pairs = -(-count // 2)
    u = ((words[:, :2 * pairs] >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    normals = np.empty((len(words), 2 * pairs))
    normals[:, 0::2] = radius * np.cos(angle)
    normals[:, 1::2] = radius * np.sin(angle)
    return normals[:, :count]


def _noise(population: Population, seed: int, stream: tuple[int, ...],
           rows: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(v0, w, v) of each row from stream ``(seed, *stream)``: initial reading
    errors (rows,), process noise and reading errors (rows, hours), scaled by
    the row's consumer (a population of one scales every row alike)."""
    n = population.horizon
    z = _box_muller(_noise_words(seed, stream, rows, _row_words(n)), 2 * n + 1)
    sv = np.sqrt(population.obs_noise_var)[:, None]
    sw = np.sqrt(population.process_noise_var)[:, None]
    return sv[:, 0] * z[:, 0], sw * z[:, 1:n + 1], sv * z[:, n + 1:]


def _respond_rollout(population: Population, prices: np.ndarray, forecast: np.ndarray,
                     v0: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rollout of filtering consumers over stacked rows.

    Row ``k`` is consumer ``k`` of ``population``, or, for a population of
    one, replicate day ``k``.  Returns (consumption, discomfort).
    """
    alpha, beta, mu = population.alpha, population.beta, population.mu
    t = population.desired_temp
    n = population.horizon
    _, gains = population.estimator_ladder
    keep, scale = 1.0 - alpha, 2.0 * mu * beta

    x = np.full(len(v0), t[:, 0])      # true indoor temperature
    est = t[:, 0] + v0                 # posterior mean, seeded by one reading
    consumption = np.empty((len(v0), n))
    discomfort = np.zeros(len(v0))
    for i in range(1, n + 1):
        pi_next = prices[i] if i < n else 0.0
        target = (prices[i - 1] - keep * pi_next) / scale + t[:, i - 1]
        expected = keep * est + alpha * forecast[i - 1]  # the next estimate at zero power
        power = (expected - target) / beta
        consumption[:, i - 1] = power

        x = x + alpha * (forecast[i - 1] - x) - beta * power + w[:, i - 1]
        discomfort += mu * (x - t[:, i - 1]) ** 2

        pred_mean = expected - beta * power
        est = pred_mean + gains[:, i - 1] * (x + v[:, i - 1] - pred_mean)
    return consumption, discomfort


def _baselines(population: Population, forecast: np.ndarray, tolerances: Sequence[float],
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Powers (tolerances, consumers, hours) and discomfort (tolerances,
    consumers) of each tolerance's thermostat baseline on noise ``w``:
    open-loop powers hold the noise-free trajectory at the band edge (above
    the setpoint when the unit cools, below when it heats).  One hour-major
    (hours, tolerances, consumers) stack rolls out all tolerances, each
    entry with the operations of a lone tolerance's rollout."""
    tol = np.asarray(tolerances, dtype=float)[:, None]
    if np.any(tol < 0):
        raise ValueError("tolerance must be nonnegative")
    alpha, beta, mu, t = population.alpha, population.beta, population.mu, population.desired_temp.T
    band = t[:, None] + np.where(beta > 0, tol, -tol)
    # ((1 - alpha) * previous + alpha * forecast - band) / beta in place; the day starts on the setpoint
    powers = np.concatenate([np.broadcast_to(t[:1, None], band[:1].shape), band[:-1]])
    powers *= 1.0 - alpha
    powers += alpha * forecast[:, None, None]
    powers -= band
    powers /= beta

    x = t[0]  # broadcast to (tolerances, consumers) by the first step
    deviations = np.empty_like(band)
    for i, noise in enumerate(w.T):
        x = x + alpha * (forecast[i] - x) - beta * powers[i] + noise
        deviations[i] = x - t[i]
    discomfort = sum(mu * squares for squares in _pow2(deviations))  # hour by hour, not a pairwise sum
    return powers.transpose(1, 2, 0), discomfort


def _row_payments(consumption: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each row laid out and reduced on its own, so a consumer's payment does
    not depend on the batch or stack it ran in (a matrix-vector product, or
    a sum along strided rows, rounds differently)."""
    return np.multiply(consumption, prices, order="C").sum(axis=-1)


def simulate_population_day(population: Population, prices: Sequence[float], weather: Sequence[float], seed: int,
                            day: int = 0, tolerances: Sequence[float] = (),
                            consumer_ids: Sequence[int] | None = None) -> tuple[np.ndarray, ...]:
    """Simulate one day of every consumer under the optimal hourly policy
    and under a thermostat baseline per tolerance.

    Consumer ``k`` reads its noise once, from row ``consumer_ids[k]`` of the
    day's ``(seed, DAY_NOISE_STREAM, day)`` stream (ids default to row indices), and every
    policy experiences it.  Returns consumption (policies, consumers, hours),
    payment and discomfort (policies, consumers): policy 0 is the optimal
    policy and policy ``1 + j`` the baseline of ``tolerances[j]``.
    """
    pi = as_prices(prices, population.horizon)
    forecast = as_forecast(weather, population.horizon)
    ids = np.arange(len(population)) if consumer_ids is None else consumer_ids
    if len(ids) != len(population):
        raise ValueError(f"expected {len(population)} consumer ids, got {len(ids)}")
    v0, w, v = _noise(population, seed, (DAY_NOISE_STREAM, day), ids)

    consumption, discomfort = _respond_rollout(population, pi, forecast, v0, w, v)
    powers, base_discomfort = _baselines(population, forecast, tolerances, w)
    consumption = np.concatenate([consumption[None], powers])
    return consumption, _row_payments(consumption, pi), np.concatenate([discomfort[None], base_discomfort])
