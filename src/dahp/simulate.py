"""Monte Carlo simulation of consumers responding to day-ahead prices.

The simulator rolls the thermal model forward with process and observation
noise while each consumer runs a scalar Kalman filter and applies the
certainty-equivalent hourly policy: drive the predicted indoor temperature
to a price-shifted setpoint.  Thermostat baselines instead apply open-loop
powers planned for a fixed comfort tolerance.  A day's realized
consumption, payment and discomfort stack the policies on a leading axis,
the optimal one first; their sample means validate the closed-form model in
``dahp.demand``.  ``simulate_population_days`` simulates a stack of days,
each under its own tariff and forecast, and ``simulate_population_day`` is
its one-day case.

One rollout steps every policy of every day through the hours at once, as
a (policies, days, rows) stack of temperatures: the rows are the consumers
of a population, or replicate days of one consumer.  Its noise is
hour-major, (hours, days, rows), so each hour reads one contiguous block;
each day's words and normals are still made in that day's own
cache-sized buffer, and the pass that scales them writes them into the
stack, transposed.  The baselines' powers and the optimal policy's
targets are planned before the first hour; each hour
sets the optimal policy's powers from its Kalman estimate and steps every
policy in preallocated buffers, squaring deviations with one multiply; a
parameter stored once, as a zero-stride view the way ``draw_population``
stores a config scalar, is read as one broadcast row.  Every operation is
elementwise, and payments are summed a day at a time, so a day's bits do
not depend on the days stacked with it.

Every random stream of a run is hashed from ``(seed, tag, ...)`` with one
tag per use (the ``*_STREAM`` constants below), so no two uses share a
Philox key.  Noise is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  Each day has one Philox key, hashed
from ``(seed, DAY_NOISE_STREAM, day)``; consumer ``c`` reads the ``W`` words
that start at counter ``c * W / 4`` of that key's stream, where ``W`` is the
smallest multiple of 4 holding the word pairs of its ``2 * horizon + 1``
normals.  A day's rows are one ``random_raw`` call from counter 0, and
consumer ``c``'s noise depends only on ``(seed, c, day)``, not on the
population's size.  The days of a block are drawn concurrently, one
thread per CPU the process may run on (``os.sched_getaffinity``, else
``os.cpu_count``) and at most one per day; since each day's stream and
slices are its own, the bits do not depend on the thread count.
Box-Muller turns word pair ``k`` into normals
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

import os
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


def _noise_words(generator: np.random.Generator, count: int, width: int) -> np.ndarray:
    """(count, width) raw words of a fresh ``substream`` generator's Philox
    stream, one ``random_raw`` call from counter 0: row ``r`` starts at
    counter ``r * width / 4``."""
    return generator.bit_generator.random_raw(count * width).reshape(count, width)


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


def _noise(population: Population, generator: np.random.Generator, count: int,
           out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """(v0, w, v) of rows 0..count-1 of a fresh ``substream`` generator's
    stream: initial reading errors (count,), process noise and reading
    errors (count, hours), scaled by the row's consumer (a population of
    one scales every row alike).  Given ``out``, a (count,) and two (hours,
    count) buffers, the scaled noise is written there hour-major instead,
    in the pass that scales it."""
    n = population.horizon
    z = _box_muller(_noise_words(generator, count, _row_words(n)), 2 * n + 1)
    normals = z[:, 0], z[:, 1:n + 1].T, z[:, n + 1:].T  # hour-major views, scaled in place without out
    r, q = np.sqrt(population.obs_noise_var), np.sqrt(population.process_noise_var)
    for normal, scale, field in zip(normals, (r, q, r), out or normals):
        np.multiply(normal, scale, field)
    return out or (z[:, 0], z[:, 1:n + 1], z[:, n + 1:])


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _day_noise(population: Population, seed: int, first_day: int, days: int) -> tuple[np.ndarray, ...]:
    """(v0, w, v) of days ``first_day``, ..., ``first_day + days - 1``:
    initial reading errors (days, consumers), and process noise and reading
    errors hour-major, (hours, days, consumers), so the rollout reads each
    hour's rows contiguously.  Each day's words and normals are made in that
    day's own cache-sized buffer by ``_noise``, which scales them into the
    stack, transposed.

    The days are drawn concurrently, one thread per CPU the process may run
    on and at most one per day: this thread and workers started for this
    call, which end with it.  numpy's ufuncs and ``random_raw`` release the
    GIL, and each day writes only its own slices, so the bits do not depend
    on the thread count.  Every day's generator is built here first, so
    ``substream`` runs on this thread only.  Workers run under this
    thread's numpy error state (numpy before 2.0 keeps it per thread, not
    in a context variable), and a worker's exception is raised here."""
    n, count = population.horizon, len(population)
    v0, (w, v) = np.empty((days, count)), np.empty((2, n, days, count))
    generators = [substream(seed, DAY_NOISE_STREAM, first_day + k) for k in range(days)]
    errors = dict(np.geterr(), call=np.geterrcall())

    def draw(part: range) -> None:
        with np.errstate(**errors):
            for k in part:
                _noise(population, generators[k], count, (v0[k], w[:, k], v[:, k]))

    threads = min(days, _cpus())
    parts = [range(start, days, threads) for start in range(threads)]
    if threads == 1:
        draw(parts[0])
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~4 ms at import, paid by simulate alone

        with ThreadPoolExecutor(threads - 1) as pool:
            futures = [pool.submit(draw, part) for part in parts[:-1]]
            draw(parts[-1])  # the smallest part, since this thread also starts the workers
            for future in futures:
                future.result()
    return v0, w, v


def _rollout(population: Population, prices: np.ndarray, forecast: np.ndarray, tolerances: Sequence[float],
             v0: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Consumption (days, policies, rows, hours) and discomfort (days,
    policies, rows) of every policy on the same noise.

    ``prices`` and ``forecast`` are (days, hours), ``v0`` is (days, rows)
    and ``w`` and ``v`` are hour-major, (hours, days, rows).  Row ``k`` is
    consumer ``k`` of ``population``, or, for a population of one,
    replicate ``k``.  Policy 0 is the filtering consumer; policy ``1 + j``
    is the thermostat baseline of ``tolerances[j]``, whose open-loop powers
    hold the noise-free trajectory at the band edge (above the setpoint
    when the unit cools, below when it heats).  One hour-major (hours,
    policies, days, rows) stack of powers steps every policy of every day
    at once.
    """
    tol = np.asarray(tolerances, dtype=float)[:, None]
    if not np.all((tol >= 0) & (tol < np.inf)):
        raise ValueError("tolerance must be finite and nonnegative")
    alpha, beta, mu = (_distinct(x) for x in (population.alpha, population.beta, population.mu))
    t = population.desired_temp.T
    n = population.horizon
    gains = population.estimator_ladder[1].T
    keep, scale = 1.0 - alpha, 2.0 * mu * beta
    outdoor = forecast.T[..., None]  # (hours, days, 1)

    powers = np.empty((n, 1 + len(tol), *v0.shape))
    first, planned = powers[:, 0], powers[:, 1:]
    forced, edge = alpha * outdoor, np.where(beta > 0, tol, -tol)[:, None]
    # ((1 - alpha) * previous band + alpha * forecast - band) / beta in place,
    # a tolerance's band at a time in policy 0's column; the day starts on the setpoint
    planned[0] = t[0]
    np.add(t[:-1, None, None], edge, planned[1:])
    planned *= keep
    planned += forced[:, None]
    for j, e in enumerate(edge):
        planned[:, j] -= np.add(t[:, None], e, first)
    planned /= beta
    # policy 0's targets, (prices[i] - keep * prices[i + 1]) / scale + t[i]
    price = prices.T[..., None]  # (hours, days, 1)
    following = np.zeros_like(price)
    following[:-1] = price[1:]
    np.subtract(price, np.multiply(keep, following, first), first)
    np.add(np.divide(first, scale, first), t[:, None], first)
    # the hour loop turns policy 0's targets into its powers and steps in these buffers
    x = np.broadcast_to(t[0], powers.shape[1:]).copy()  # true indoor temperatures
    d, discomfort = np.empty_like(x), np.zeros_like(x)
    est, expected = t[0] + v0, np.empty(v0.shape)  # policy 0's posterior mean, seeded by one reading
    for i, p0 in enumerate(first):
        np.add(np.multiply(keep, est, expected), forced[i], expected)  # the next estimate at zero power
        np.divide(np.subtract(expected, p0, p0), beta, p0)
        x += np.multiply(alpha, np.subtract(outdoor[i], x, d), d)
        x -= np.multiply(beta, powers[i], d)
        x += w[i]
        discomfort += np.multiply(mu, np.square(np.subtract(x, t[i], d), d), d)  # d * d, then * mu
        expected -= np.multiply(beta, p0, est)  # the predicted mean
        np.subtract(np.add(x[0], v[i], est), expected, est)  # the reading's innovation
        est *= gains[i]
        est += expected
    return powers.transpose(2, 1, 3, 0), discomfort.transpose(1, 0, 2)


def _row_payments(consumption: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each row laid out and reduced on its own, so a consumer's payment does
    not depend on the batch or stack it ran in (a matrix-vector product, or
    a sum along strided rows, rounds differently)."""
    return np.multiply(consumption, prices, order="C").sum(axis=-1)


def simulate_population_days(population: Population, prices: Sequence[Sequence[float]],
                             weather: Sequence[Sequence[float]], seed: int, tolerances: Sequence[float] = (),
                             first_day: int = 0) -> tuple[np.ndarray, ...]:
    """Simulate days ``first_day, first_day + 1, ...`` of every consumer,
    day ``first_day + d`` under row ``d`` of the (days, hours) ``prices``
    and ``weather``, with the optimal hourly policy and a thermostat
    baseline per tolerance.

    Consumer ``k`` reads its noise for day ``first_day + d`` once, from row
    ``k`` of that day's ``(seed, DAY_NOISE_STREAM, first_day + d)`` stream,
    and every policy experiences it; one rollout steps every day at once.
    Returns consumption (days, policies, consumers, hours), payment and
    discomfort (days, policies, consumers): policy 0 is the optimal policy
    and policy ``1 + j`` the baseline of ``tolerances[j]``.  Each day has
    the bits of its own ``simulate_population_day``.
    """
    forecast = as_forecast(weather, population.horizon)
    pi = np.asarray(prices, dtype=float)
    if forecast.ndim != 2 or pi.shape != forecast.shape or not np.isfinite(pi).all():
        raise ValueError(f"expected finite (days, {population.horizon}) prices and weather of one shape, "
                         f"got {pi.shape} and {forecast.shape}")
    noise = _day_noise(population, seed, first_day, len(forecast))
    consumption, discomfort = _rollout(population, pi, forecast, tolerances, *noise)
    # a day at a time, so each day's payments round as that day's own
    payment = np.stack([_row_payments(day, day_prices) for day, day_prices in zip(consumption, pi)])
    return consumption, payment, discomfort


def simulate_population_day(population: Population, prices: Sequence[float], weather: Sequence[float], seed: int,
                            day: int = 0, tolerances: Sequence[float] = ()) -> tuple[np.ndarray, ...]:
    """Simulate one day of every consumer under the optimal hourly policy
    and under a thermostat baseline per tolerance: the one-day case of
    ``simulate_population_days``.

    Returns consumption (policies, consumers, hours), payment and
    discomfort (policies, consumers): policy 0 is the optimal policy and
    policy ``1 + j`` the baseline of ``tolerances[j]``.
    """
    pi = as_prices(prices, population.horizon)
    forecast = as_forecast(weather, population.horizon)
    days = simulate_population_days(population, pi[None], forecast[None], seed, tolerances, day)
    return tuple(values[0] for values in days)
