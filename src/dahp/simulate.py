"""Monte Carlo simulation of consumers responding to day-ahead prices.

The simulator rolls the thermal model forward with process and observation
noise while each consumer runs a scalar Kalman filter and applies the
certainty-equivalent hourly policy: drive the predicted indoor temperature
to a price-shifted setpoint.  Thermostat baselines instead apply open-loop
powers planned for a fixed comfort tolerance.  A day's realized
consumption, payment and discomfort stack the policies on a leading axis,
the optimal one first; their sample means validate the closed-form model in
``dahp.demand``.

One rollout steps every policy through the hours at once, as a
(policies, rows) stack of temperatures: the rows are the consumers of a
population on one day, or replicate days of one consumer.  The baselines'
powers and the optimal policy's targets are planned before the first
hour; each hour sets the optimal policy's powers from its Kalman estimate
and steps every policy in preallocated buffers, squaring deviations with
one multiply; a parameter stored once, as a zero-stride view the way
``draw_population`` stores a config scalar, is read as one broadcast row.

Every random stream of a run is hashed from ``(seed, tag, ...)`` with one
tag per use (the ``*_STREAM`` constants below), so no two uses share a
Philox key.  Noise is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  Each day has one Philox key, hashed
from ``(seed, DAY_NOISE_STREAM, day)``; consumer ``c`` reads the ``W`` words
that start at counter ``c * W / 4`` of that key's stream, where ``W`` is the
smallest multiple of 4 holding the word pairs of its ``2 * horizon + 1``
normals.  A day's rows are one ``random_raw`` call from counter 0, and
consumer ``c``'s noise depends only on ``(seed, c, day)``, not on the
population's size.  Box-Muller turns word pair ``k`` into normals
``2k`` (cosine) and ``2k + 1`` (sine) in the words' own buffer, taking the
cosine and sine from ``tan`` of the half angle (Box and Muller, Ann. Math.
Stat. 1958; no ``cos`` or ``sin`` is called).  Normal 0 is the initial
reading error, the next ``horizon`` the process noise and the last
``horizon`` the reading errors.  Every word is drawn whatever the
variances, so a noise-free field does not shift the others.  Each
consumer-day's noise is shared by the responsive rollout and every
thermostat tolerance, so the policies are compared on identical
disturbances.  ``NOISE_SCHEME`` numbers this layout in the manifest.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .demand import Population, _distinct, as_forecast, as_prices

NOISE_SCHEME = 3  # tan half-angle normals; 2 called cos and sin, 1 drew a substream per consumer-day

# Stream tags, the first key after the seed.  They are nonzero because
# SeedSequence pads short entropy with zeros: (seed, 0) would alias (seed,).
POPULATION_STREAM = 1       # (seed, 1): population parameter draws
DAY_NOISE_STREAM = 2        # (seed, 2, day): a day's noise, consumers as rows
REPLICATE_NOISE_STREAM = 3  # (seed, 3, consumer_id): one consumer's replicate days as rows


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic Philox generator for a (seed, *key) coordinate."""
    if not all(isinstance(k, (int, np.integer)) and k >= 0 for k in (seed, *key)):
        raise ValueError("seed and stream keys must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *map(int, key)))))


def _row_words(horizon: int) -> int:
    """Philox words per noise row: whole 4-word blocks covering the word
    pairs of ``2 * horizon + 1`` normals."""
    return 4 * -(-(2 * horizon + 2) // 4)


def _noise_words(seed: int, stream: tuple[int, ...], count: int, width: int) -> np.ndarray:
    """(count, width) raw words of the Philox stream of ``substream(seed,
    *stream)``, one ``random_raw`` call from counter 0: row ``r`` starts at
    counter ``r * width / 4``."""
    return substream(seed, *stream).bit_generator.random_raw(count * width).reshape(count, width)


def _box_muller(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` standard normals of each row of words, made in
    place in the words' float64 view: uniforms ``((word >> 11) + 0.5) *
    2**-53`` in (0, 1] (the sum rounds to even above 2**52), and pair
    ``(u, v)`` ``k`` gives normal ``2k`` (cosine) and ``2k + 1`` (sine) of
    the angle ``2 * pi * v``, so each normal depends only on its own two
    words.

    Neither ``cos`` nor ``sin`` is called: with ``t = tan(pi * v)`` and
    ``q = 1 + t**2``, the half-angle identities give ``cos = (2 - q) / q``
    and ``sin = 2 * t / q``.  ``tan`` and ``log`` run on one contiguous
    (rows, pairs) scratch buffer, where numpy's SIMD loops are fastest.
    """
    pairs = -(-count // 2)
    words >>= np.uint64(11)
    u = words.view(np.float64)
    cos, sin = u[:, 0:2 * pairs:2], u[:, 1:2 * pairs:2]
    # t in the scratch buffer, parked in the spent sine slots; then the
    # radius in the buffer, and q in the spent cosine slots
    scratch = np.add(words[:, 1:2 * pairs:2], 0.5)
    np.tan(np.multiply(scratch, np.pi * 2.0**-53, scratch), scratch)  # pi * v, as 2**-53 scales exactly
    sin[...] = scratch
    np.add(words[:, 0:2 * pairs:2], 0.5, scratch)
    np.log(np.multiply(scratch, 2.0**-53, scratch), scratch)
    np.sqrt(np.multiply(scratch, -2.0, scratch), scratch)
    np.square(sin, cos)
    cos += 1.0
    scratch /= cos  # radius / q
    np.subtract(2.0, cos, cos)
    cos *= scratch
    sin *= 2.0
    sin *= scratch
    return u[:, :count]


def _noise(population: Population, seed: int, stream: tuple[int, ...], count: int) -> tuple[np.ndarray, ...]:
    """(v0, w, v) of rows 0..count-1 of stream ``(seed, *stream)``: initial
    reading errors (count,), process noise and reading errors (count,
    hours), scaled by the row's consumer (a population of one scales every
    row alike)."""
    n = population.horizon
    z = _box_muller(_noise_words(seed, stream, count, _row_words(n)), 2 * n + 1)
    v0, w, v = z[:, 0], z[:, 1:n + 1], z[:, n + 1:]  # scaled in place
    v0 *= np.sqrt(population.obs_noise_var)
    w *= np.sqrt(population.process_noise_var)[:, None]
    v *= np.sqrt(population.obs_noise_var)[:, None]
    return v0, w, v


def _rollout(population: Population, prices: np.ndarray, forecast: np.ndarray, tolerances: Sequence[float],
             v0: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Consumption (policies, rows, hours) and discomfort (policies, rows)
    of every policy on the same noise.

    Row ``k`` is consumer ``k`` of ``population``, or, for a population of
    one, replicate day ``k``.  Policy 0 is the filtering consumer; policy
    ``1 + j`` is the thermostat baseline of ``tolerances[j]``, whose
    open-loop powers hold the noise-free trajectory at the band edge (above
    the setpoint when the unit cools, below when it heats).  One hour-major
    (hours, policies, rows) stack of powers steps every policy at once.
    """
    tol = np.asarray(tolerances, dtype=float)[:, None]
    if not np.all((tol >= 0) & (tol < np.inf)):
        raise ValueError("tolerance must be finite and nonnegative")
    alpha, beta, mu = (_distinct(x) for x in (population.alpha, population.beta, population.mu))
    t = population.desired_temp.T
    n = population.horizon
    _, gains = population.estimator_ladder
    keep, scale = 1.0 - alpha, 2.0 * mu * beta

    powers = np.empty((n, 1 + len(tol), len(v0)))
    first, planned = powers[:, 0], powers[:, 1:]
    forced, edge = alpha * forecast[:, None], np.where(beta > 0, tol, -tol)
    # ((1 - alpha) * previous band + alpha * forecast - band) / beta in place,
    # a tolerance's band at a time in policy 0's column; the day starts on the setpoint
    planned[0] = t[0]
    np.add(t[:-1, None], edge, planned[1:])
    planned *= keep
    planned += forced[:, None]
    for j, e in enumerate(edge):
        planned[:, j] -= np.add(t, e, first)
    planned /= beta
    # policy 0's targets, (prices[i] - keep * prices[i + 1]) / scale + t[i]
    np.subtract(prices[:, None], np.multiply(keep, np.append(prices[1:], 0.0)[:, None], first), first)
    np.add(np.divide(first, scale, first), t, first)
    # the hour loop turns policy 0's targets into its powers and steps in these buffers
    x = np.broadcast_to(t[0], powers.shape[1:]).copy()  # true indoor temperatures
    d, discomfort = np.empty_like(x), np.zeros_like(x)
    est, expected = t[0] + v0, np.empty(len(v0))  # policy 0's posterior mean, seeded by one reading
    for i, p0 in enumerate(first):
        np.add(np.multiply(keep, est, expected), forced[i], expected)  # the next estimate at zero power
        np.divide(np.subtract(expected, p0, p0), beta, p0)
        x += np.multiply(alpha, np.subtract(forecast[i], x, d), d)
        x -= np.multiply(beta, powers[i], d)
        x += w[:, i]
        discomfort += np.multiply(mu, np.square(np.subtract(x, t[i], d), d), d)  # d * d, then * mu
        expected -= np.multiply(beta, p0, est)  # the predicted mean
        np.subtract(np.add(x[0], v[:, i], est), expected, est)  # the reading's innovation
        est *= gains[:, i]
        est += expected
    return powers.transpose(1, 2, 0), discomfort


def _row_payments(consumption: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each row laid out and reduced on its own, so a consumer's payment does
    not depend on the batch or stack it ran in (a matrix-vector product, or
    a sum along strided rows, rounds differently)."""
    return np.multiply(consumption, prices, order="C").sum(axis=-1)


def simulate_population_day(population: Population, prices: Sequence[float], weather: Sequence[float], seed: int,
                            day: int = 0, tolerances: Sequence[float] = ()) -> tuple[np.ndarray, ...]:
    """Simulate one day of every consumer under the optimal hourly policy
    and under a thermostat baseline per tolerance.

    Consumer ``k`` reads its noise once, from row ``k`` of the day's
    ``(seed, DAY_NOISE_STREAM, day)`` stream, and every policy experiences
    it.  Returns consumption (policies, consumers, hours), payment and
    discomfort (policies, consumers): policy 0 is the optimal policy and
    policy ``1 + j`` the baseline of ``tolerances[j]``.
    """
    pi = as_prices(prices, population.horizon)
    forecast = as_forecast(weather, population.horizon)
    v0, w, v = _noise(population, seed, (DAY_NOISE_STREAM, day), len(population))

    consumption, discomfort = _rollout(population, pi, forecast, tolerances, v0, w, v)
    return consumption, _row_payments(consumption, pi), discomfort
