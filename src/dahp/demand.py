"""Affine demand-response models for thermostatically controlled loads.

A consumer runs an HVAC unit against hourly retail prices.  Indoor
temperature follows the linear thermal model

    x_i = x_{i-1} + alpha * (a_i - x_{i-1}) - beta * p_i + w_i

where ``a_i`` is the outdoor temperature, ``p_i`` the energy drawn in hour
``i``, ``w_i`` process noise, and observations of the indoor temperature
carry white noise.  The consumer trades discomfort ``mu * (x_i - t_i)^2``
against the energy bill, and the resulting expected best-response demand is
affine in the day-ahead price vector:

    E[demand](prices) = -gain @ prices + intercept_mean

``gain`` is symmetric tridiagonal and positive definite.  Each model checks
that once, by a Cholesky decomposition, and then solves against the gain
with numpy's LAPACK (``np.linalg.solve``).  A population's model is the sum
of its consumers' models; ``population_model`` builds it from sums over a
``Population`` of parameter arrays, which caches the terms that do not
depend on the forecast, all taken in one sum, while the intercept is summed
one cache-sized block of consumers at a time.  A single consumer is a
population of one.  A parameter every consumer shares bit for bit is one
row that broadcasting carries to all of them, so per-consumer terms are
(rows, hours), rows 1 or the consumer count; sums run in consumer order.

Conventions used throughout the package:

* the day starts at the first setpoint, ``x_0 = desired_temp[0]``;
* the outdoor forecast is known for the whole day and enters the model
  deterministically (observation noise on outdoor readings is ignored);
* the consumer's estimator is initialized from a noisy reading of the
  initial indoor temperature, so its starting variance equals
  ``obs_noise_var``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericalError
from .optim import check_spd

HOURS_PER_DAY = 24
# Consumers per block of the population intercept: a (1,025, 24) scratch of
# 192 KiB stays in a 2 MiB L2 cache; blocks of 512 and 2,048 were slower.
_BLOCK = 1024


@dataclass(eq=False, frozen=True)
class Population:
    """Physical and preference parameters of consumers as arrays, one row
    per consumer; a single consumer is a population of one row.

    alpha: (consumers,) thermal coupling to outdoor air per hour, in (0, 1).
    beta: (consumers,) temperature change per unit energy (positive = cooling).
    mu: (consumers,) discomfort weight in $ per squared degree.
    desired_temp: (consumers, horizon) hourly setpoints; the width sets the horizon.
    process_noise_var / obs_noise_var: (consumers,) variances of the thermal
        and measurement noise (degrees squared).
    Any field may be a read-only broadcast view, as ``draw_population``'s are.

    ``Population.of`` concatenates populations row-wise, and iterating
    yields each consumer as a one-row population of views into this one.

    A population is immutable: its fields cannot be rebound and each holds a
    read-only view of its array, so the terms it caches on first use (the
    estimator ladder and the forecast-free model terms) cannot go stale as
    long as no caller changes an array it passed in.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    desired_temp: np.ndarray
    process_noise_var: np.ndarray
    obs_noise_var: np.ndarray

    def __post_init__(self):
        for name in _FIELDS:
            # a view, so the caller's array keeps its own flags
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=float).view()))
        rows = self.desired_temp.shape[:1]
        if self.desired_temp.ndim != 2 or 0 in self.desired_temp.shape or any(
            getattr(self, name).shape != rows for name in _PARAM_FIELDS
        ):
            raise ValueError("a population needs (consumers, horizon) setpoints and a value per consumer")
        _check_params(self)

    @classmethod
    def of(cls, populations: Sequence[Population]) -> Population:
        """Concatenate populations row-wise; ``np.concatenate`` rejects an
        empty list and populations whose horizons differ."""
        return cls(**{name: np.concatenate([getattr(p, name) for p in populations]) for name in _FIELDS})

    def __len__(self) -> int:
        return self.alpha.size

    def __iter__(self) -> Iterator[Population]:
        for k in range(len(self)):  # a row of a checked, read-only population skips __init__'s checks
            row = object.__new__(Population)
            row.__dict__.update((name, getattr(self, name)[k:k + 1]) for name in _FIELDS)
            yield row

    @property
    def horizon(self) -> int:
        return self.desired_temp.shape[1]

    @cached_property
    def estimator_ladder(self) -> tuple[np.ndarray, np.ndarray]:
        """Prediction variances and Kalman gains, (rows, hours), of
        ``_estimator_variance_ladder``: computed once per population.  Rows
        is 1 when ``alpha`` and both noise variances are the same for every
        consumer, else the consumer count."""
        return tuple(map(_read_only, _estimator_variance_ladder(self)))

    @cached_property
    def model_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The forecast-free terms of ``population_model``: (gain,
        intercept_cov, cs_constant), computed once per population."""
        return _model_terms(self)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place."""
    array.flags.writeable = False
    return array


_PARAM_FIELDS = ("alpha", "beta", "mu", "process_noise_var", "obs_noise_var")
_FIELDS = (*_PARAM_FIELDS, "desired_temp")


def _distinct(x: np.ndarray) -> np.ndarray:
    """``x`` with every zero-stride (broadcast) axis cut to length 1."""
    return x[tuple(slice(None, 1) if stride == 0 else slice(None) for stride in x.strides)]


def _check_params(p: Population) -> None:
    """Reject invalid parameters of every row at once."""
    alpha, beta, mu, q, r = (_distinct(getattr(p, name)) for name in _PARAM_FIELDS)
    checks = (
        ((0.0 < alpha) & (alpha < 1.0), "alpha must lie strictly in (0, 1)", alpha),
        ((beta != 0.0) & np.isfinite(beta), "beta must be nonzero and finite", beta),
        (mu > 0.0, "mu must be positive", mu),
        ((q >= 0.0) & (r >= 0.0), "noise variances must be nonnegative", np.minimum(q, r)),
    )
    for ok, message, value in checks:
        if not np.all(ok):
            raise ValueError(f"{message}, got {np.extract(~ok, value)[0]}")
    if not np.all(np.isfinite(_distinct(p.desired_temp))):
        raise ValueError("desired_temp must be finite")


def as_forecast(weather: Sequence[float], horizon: int) -> np.ndarray:
    """Validate an hourly outdoor forecast: right length, finite entries."""
    forecast = np.asarray(weather, dtype=float)
    if forecast.shape != (horizon,) or not np.all(np.isfinite(forecast)):
        raise ValueError(f"weather forecast must be {horizon} finite hours, got {forecast.shape}")
    return forecast


def as_prices(prices: Sequence[float], horizon: int) -> np.ndarray:
    """Validate a day-ahead price vector: right length, finite entries."""
    pi = np.atleast_1d(np.asarray(prices, dtype=float))
    if pi.shape != (horizon,):
        raise ValueError(f"expected {horizon} hourly prices, got shape {pi.shape}")
    if not np.isfinite(pi).all():
        raise ValueError("prices must be finite")
    return pi


@dataclass(eq=False)
class AffineDemandModel:
    """Demand model of one consumer or of a population (the entrywise sum of
    its consumers' models)."""

    gain: np.ndarray            # (N, N) price sensitivity, SPD tridiagonal
    intercept_mean: np.ndarray  # (N,) mean demand at zero price
    intercept_cov: np.ndarray   # (N, N) covariance of the demand intercept
    cs_constant: float          # noise-driven constant in expected surplus

    @property
    def horizon(self) -> int:
        return self.intercept_mean.size

    @cached_property
    def _checked_gain(self) -> np.ndarray:
        # Checked once per model: positive definite, so every solve is well posed.
        return check_spd(self.gain)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gain @ x = rhs`` with LAPACK, once the gain is checked."""
        return np.linalg.solve(self._checked_gain, rhs)

    @cached_property
    def zero_demand_price(self) -> np.ndarray:
        """Prices at which mean demand is zero in every hour, ``gain^{-1}
        intercept_mean``: solved once per model, and read-only because every
        caller shares it."""
        price = self.solve(self.intercept_mean)
        price.flags.writeable = False
        return price


def _pow2(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` rounded by libm ``pow`` like Python float ``**``, in which
    these squares were first written.  ``ndarray ** 2`` multiplies instead
    and differs in the last bit for about one value in a thousand."""
    return np.float_power(x, 2.0)


def _shared(x: np.ndarray) -> np.ndarray:
    """``x[:1]`` when every row of ``x`` holds the same bytes (``-0.0`` is not ``0.0``), else ``x``."""
    return x[:1] if x.strides[0] == 0 or x.tobytes() == x[:1].tobytes() * len(x) else x


def _consumer_sum(x: np.ndarray, count: int) -> np.ndarray:
    """Sum over ``count`` consumers of ``x``, (rows, width >= 2) with rows 1
    or ``count``, one consumer after another.

    The same order as adding per-consumer models one by one, also for a
    shared row, which ``count * row`` would round differently.  numpy adds
    a row-major (consumers, width >= 2) array row by row into one row, from
    ``initial`` (``-0.0`` keeps an all ``-0.0`` sum's sign); a single column
    it would add pairwise.
    """
    return np.add.reduce(np.broadcast_to(np.ascontiguousarray(x), (count, x.shape[1])), axis=0, initial=-0.0)


def _estimator_variance_ladder(population: Population) -> tuple[np.ndarray, np.ndarray]:
    """Prediction variances and Kalman gains, (rows, hours): one row when
    ``alpha`` and both noise variances are ``_shared``, else one per consumer.

    Column ``i`` refers to hour ``i+1``; the posterior variance starts at
    ``obs_noise_var`` (estimator seeded from one noisy reading of the known
    initial temperature).
    """
    alpha, q, r = (_shared(getattr(population, name)) for name in ("alpha", "process_noise_var", "obs_noise_var"))
    decay = _pow2(1.0 - alpha)
    pred = np.empty((*np.broadcast_shapes(alpha.shape, q.shape, r.shape), population.horizon))
    gains = np.empty_like(pred)
    post = r
    for i in range(population.horizon):
        pred[:, i] = prior = decay * post + q
        # without noise both variances are 0, and so is the gain
        denom = prior + r
        gains[:, i] = gain = prior / np.where(denom > 0.0, denom, 1.0)
        post = (1.0 - gain) * prior
    return pred, gains


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow raises below
def population_model(population: Population, weather_forecast: Sequence[float]) -> AffineDemandModel:
    """Population demand model under the day's outdoor forecast: the sum of
    every consumer's affine model, computed without building any of them.

    Only the intercept mean depends on the forecast: it is the demand at
    zero price (exact setpoint tracking), summed here ``_BLOCK`` consumers at
    a time in one small scratch, so no (consumers, hours) array is made.  The
    gain, intercept covariance and surplus constant are the population's
    cached ``model_terms`` (see ``_model_terms``), shared read-only by every
    model built from it.  Every sum runs in consumer order.
    """
    n, count = population.horizon, len(population)
    forecast = as_forecast(weather_forecast, n)
    alpha, beta = _shared(population.alpha)[:, None], _shared(population.beta)[:, None]
    # Row 0 carries the earlier blocks' sum (from -0.0, like _consumer_sum), so one add.reduce
    # per block adds every consumer in order: >= 2 columns, as one column it adds pairwise.
    scratch = np.full((min(count, _BLOCK) + 1, max(n, 2)), -0.0)
    for start in range(0, count, _BLOCK):
        a, b, t = (x[start:start + _BLOCK] if len(x) > 1 else x for x in (alpha, beta, population.desired_temp))
        # ((1 - alpha) * previous + alpha * forecast - t) / beta, in place; the day starts on the first setpoint
        demand = scratch[1:len(t) + 1, :n]
        demand[:, 0], demand[:, 1:] = t[:, 0], t[:, :-1]
        demand *= 1.0 - a
        demand += a * forecast
        demand -= t
        demand /= b
        scratch[0] = intercept = np.add.reduce(scratch[:len(t) + 1], axis=0)
    gain, cov, cs_constant = population.model_terms
    if not all(np.isfinite(x).all() for x in (intercept, cov, cs_constant)):
        raise NumericalError("population model overflowed: intercept, covariance or surplus constant not finite")
    return AffineDemandModel(
        gain=gain, intercept_mean=intercept[:n], intercept_cov=cov, cs_constant=cs_constant
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # population_model raises on overflow
def _model_terms(population: Population) -> tuple[np.ndarray, np.ndarray, float]:
    """Gain, intercept covariance and surplus constant of the population
    model: the terms that do not depend on the forecast (arrays read-only).

    The gain is the closed-form tridiagonal price sensitivity, fixed by
    three sums over consumers: of u, (1 + (1-alpha)^2) u and (alpha - 1) u
    with u = 1 / (2 mu beta^2).  The intercept covariance and surplus
    constant come from the estimator's variance ladder, so they are exact
    for the linear-Gaussian model rather than sampled.  A consumer's
    covariance has entries on the diagonal and in the first row and column
    only, so only those are summed.  A ``_shared`` parameter is one row
    broadcast to every consumer, so each term has one row or one per
    consumer: the columns of one (rows, 2N + 3) stack, summed in consumer order.
    """
    n, count = population.horizon, len(population)
    alpha, beta, mu = (_shared(getattr(population, name)) for name in ("alpha", "beta", "mu"))
    pred, gains = population.estimator_ladder
    r = np.broadcast_to(_shared(population.obs_noise_var), len(pred))
    keep = 1.0 - alpha
    unit = 1.0 / (2.0 * mu * beta * beta)
    terms = np.empty((max(len(unit), len(pred)), 2 * n + 3))
    terms[:, 0], terms[:, 1], terms[:, 2] = unit, (1.0 + _pow2(keep)) * unit, (alpha - 1.0) * unit
    terms[:, 3] = -mu * pred.sum(axis=1)

    # Demand deviations are (1-alpha)/beta times the estimator's deviation
    # from its target one hour earlier.  Those deviations are uncorrelated
    # across hours except against the initial reading, whose error is
    # anti-correlated with the estimate itself.
    scale, keep, gains = _pow2(keep / beta)[:, None], keep[:, None], gains[:, :-1]
    # deviation variance of the estimate entering each hour
    xi_var = np.column_stack([r, _pow2(gains) * (pred[:, :-1] + r[:, None])])
    # Cov(initial deviation, filter error) entering each later hour
    gamma = np.cumprod(np.column_stack([-r, (1.0 - gains[:, :-1]) * keep]), axis=1)
    terms[:, 4:n + 4], terms[:, n + 4:] = scale * xi_var, scale * gains * keep * gamma

    first, diagonal, off, cs_constant, *_ = sums = _consumer_sum(terms, count)
    gain = np.diag(np.full(n, diagonal))
    gain[0, 0] = first
    hours = np.arange(1, n)
    gain[hours, hours - 1] = gain[hours - 1, hours] = off
    cov = np.diag(sums[4:n + 4])
    cov[0, 1:] = cov[1:, 0] = sums[n + 4:]
    return _read_only(gain), _read_only(cov), float(cs_constant)


def build_consumer_model(consumer: Population, weather_forecast: Sequence[float]) -> AffineDemandModel:
    """Affine demand model of one consumer: ``population_model`` of its
    one-row population."""
    return population_model(consumer, weather_forecast)


def aggregate(models: Sequence[AffineDemandModel]) -> AffineDemandModel:
    """Sum consumer models into the population model the retailer prices
    against.  Validates shape agreement and positive definiteness."""
    if len(models) == 0:
        raise ValueError("cannot aggregate an empty population")
    n = models[0].horizon
    for m in models:
        if m.horizon != n or m.gain.shape != (n, n):
            raise ValueError("all consumer models must share one horizon")
    model = AffineDemandModel(
        gain=sum(m.gain for m in models),
        intercept_mean=sum(m.intercept_mean for m in models),
        intercept_cov=sum(m.intercept_cov for m in models),
        cs_constant=float(sum(m.cs_constant for m in models)),
    )
    model._checked_gain  # noqa: B018 -- eager PD check via Cholesky
    return model

