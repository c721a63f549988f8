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

``gain`` is symmetric tridiagonal and positive definite, so one Cholesky
factorization per model serves every downstream linear solve.  A
population's model is the sum of its consumers' models; ``population_model``
builds it from per-population sums over a ``Population`` of parameter
arrays, and a single consumer is a population of one.

Conventions used throughout the package:

* the day starts at the first setpoint, ``x_0 = desired_temp[0]``;
* the outdoor forecast is known for the whole day and enters the model
  deterministically (observation noise on outdoor readings is ignored);
* the consumer's estimator is initialized from a noisy reading of the
  initial indoor temperature, so its starting variance equals
  ``obs_noise_var``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import NumericalError
from .optim import SpdFactorization, spd_factor, spd_solve

HOURS_PER_DAY = 24


class NegativeDemandWarning(UserWarning):
    """Mean demand went negative for at least one hour (price too high)."""


@dataclass(eq=False)
class ConsumerParams:
    """Physical and preference parameters of one consumer.

    alpha: thermal coupling to outdoor air per hour, in (0, 1).
    beta: temperature change per unit energy (positive = cooling).
    mu: discomfort weight in $ per squared degree.
    desired_temp: hourly setpoint vector; its length sets the horizon.
    process_noise_var / obs_noise_var: variances of the thermal and
        measurement noise (degrees squared).
    """

    alpha: float
    beta: float
    mu: float
    desired_temp: np.ndarray
    process_noise_var: float = 0.0
    obs_noise_var: float = 0.0

    def __post_init__(self):
        self.desired_temp = np.atleast_1d(np.asarray(self.desired_temp, dtype=float))
        if self.desired_temp.ndim != 1 or self.desired_temp.size < 1:
            raise ValueError("desired_temp must be a nonempty vector")
        _check_params(self)

    @property
    def horizon(self) -> int:
        return self.desired_temp.size


@dataclass(eq=False)
class Population:
    """Parameters of many consumers as arrays, one row per consumer.

    The fields mean what they do on ``ConsumerParams``: ``desired_temp`` is
    (consumers, horizon) and every other field is (consumers,).  Iterating
    yields each consumer's ``ConsumerParams``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    desired_temp: np.ndarray
    process_noise_var: np.ndarray
    obs_noise_var: np.ndarray

    def __post_init__(self):
        for name in (*_PARAM_FIELDS, "desired_temp"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        rows = self.desired_temp.shape[:1]
        if self.desired_temp.ndim != 2 or 0 in self.desired_temp.shape or any(
            getattr(self, name).shape != rows for name in _PARAM_FIELDS
        ):
            raise ValueError("a population needs (consumers, horizon) setpoints and a value per consumer")
        _check_params(self)

    @classmethod
    def of(cls, consumers: Sequence[ConsumerParams]) -> "Population":
        """Stack single consumers into rows; ``np.stack`` rejects an empty
        list and consumers whose horizons differ."""
        fields = {name: [getattr(c, name) for c in consumers] for name in _PARAM_FIELDS}
        return cls(desired_temp=np.stack([c.desired_temp for c in consumers]), **fields)

    def __len__(self) -> int:
        return self.alpha.size

    def __iter__(self) -> Iterator[ConsumerParams]:
        columns = [getattr(self, name).tolist() for name in _PARAM_FIELDS]
        for row, values in zip(self.desired_temp, zip(*columns)):
            yield ConsumerParams(desired_temp=row, **dict(zip(_PARAM_FIELDS, values)))

    @property
    def horizon(self) -> int:
        return self.desired_temp.shape[1]


_PARAM_FIELDS = ("alpha", "beta", "mu", "process_noise_var", "obs_noise_var")


def _check_params(p: ConsumerParams | Population) -> None:
    """Reject invalid parameters of one consumer or of every row at once."""
    alpha, beta, mu, q, r = (np.asarray(getattr(p, name), dtype=float) for name in _PARAM_FIELDS)
    checks = (
        ((0.0 < alpha) & (alpha < 1.0), "alpha must lie strictly in (0, 1)", alpha),
        ((beta != 0.0) & np.isfinite(beta), "beta must be nonzero and finite", beta),
        (mu > 0.0, "mu must be positive", mu),
        ((q >= 0.0) & (r >= 0.0), "noise variances must be nonnegative", np.minimum(q, r)),
    )
    for ok, message, value in checks:
        if not np.all(ok):
            raise ValueError(f"{message}, got {np.extract(~ok, value)[0]}")
    if not np.all(np.isfinite(p.desired_temp)):
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
    if not np.all(np.isfinite(pi)):
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
    def _factorization(self) -> SpdFactorization:
        # Factored once per model; doubles as the positive-definiteness check.
        return spd_factor(self.gain)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``gain @ x = rhs`` against the cached factorization."""
        return spd_solve(self._factorization, rhs)


def _pow2(x: np.ndarray) -> np.ndarray:
    """``x ** 2`` rounded by libm ``pow`` like Python float ``**``, in which
    these squares were first written.  ``ndarray ** 2`` multiplies instead
    and differs in the last bit for about one value in a thousand."""
    return np.float_power(x, 2.0)


def _consumer_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the consumer axis (axis 0) one consumer after another.

    The same order as adding per-consumer models one by one; numpy's ``sum``
    may add pairwise, which rounds differently.
    """
    return np.cumsum(x, axis=0)[-1]


def _estimator_variance_ladder(population: Population) -> tuple[np.ndarray, np.ndarray]:
    """Prediction variances and Kalman gains, (consumers, hours).

    Column ``i`` refers to hour ``i+1``; the posterior variance starts at
    ``obs_noise_var`` (estimator seeded from one noisy reading of the known
    initial temperature).
    """
    q, r = population.process_noise_var, population.obs_noise_var
    decay = _pow2(1.0 - population.alpha)
    pred = np.empty((len(population), population.horizon))
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

    The gain is the closed-form tridiagonal price sensitivity, fixed by
    three sums over consumers: of u, (1 + (1-alpha)^2) u and (alpha - 1) u
    with u = 1 / (2 mu beta^2).  The intercept mean is the demand at zero
    price (exact setpoint tracking); the intercept covariance and surplus
    constant come from the estimator's variance ladder, so they are exact
    for the linear-Gaussian model rather than sampled.  A consumer's
    covariance has entries on the diagonal and in the first row and column
    only, so only those are summed.  Every sum runs in consumer order.
    """
    n = population.horizon
    forecast = as_forecast(weather_forecast, n)
    alpha, beta, mu = population.alpha, population.beta, population.mu
    r = population.obs_noise_var
    t = population.desired_temp
    keep = 1.0 - alpha
    unit = 1.0 / (2.0 * mu * beta * beta)

    first, diagonal, off = _consumer_sum(
        np.stack([unit, (1.0 + _pow2(keep)) * unit, (alpha - 1.0) * unit], axis=1)
    )
    gain = np.diag(np.full(n, diagonal))
    gain[0, 0] = first
    hours = np.arange(1, n)
    gain[hours, hours - 1] = gain[hours - 1, hours] = off

    previous = np.concatenate([t[:, :1], t[:, :-1]], axis=1)  # day starts on the first setpoint
    intercept = _consumer_sum((keep[:, None] * previous + alpha[:, None] * forecast - t) / beta[:, None])

    pred, gains = _estimator_variance_ladder(population)
    cs_constant = float(_consumer_sum(-mu * pred.sum(axis=1)))

    # Demand deviations are (1-alpha)/beta times the estimator's deviation
    # from its target one hour earlier.  Those deviations are uncorrelated
    # across hours except against the initial reading, whose error is
    # anti-correlated with the estimate itself.
    scale, keep, gains = _pow2(keep / beta)[:, None], keep[:, None], gains[:, :-1]
    # deviation variance of the estimate entering each hour
    xi_var = np.column_stack([r, _pow2(gains) * (pred[:, :-1] + r[:, None])])
    # Cov(initial deviation, filter error) entering each later hour
    gamma = np.cumprod(np.column_stack([-r, (1.0 - gains[:, :-1]) * keep]), axis=1)
    cov = np.diag(_consumer_sum(scale * xi_var))
    cov[0, 1:] = cov[1:, 0] = _consumer_sum(scale * gains * keep * gamma)
    if not all(np.isfinite(x).all() for x in (intercept, cov, cs_constant)):
        raise NumericalError("population model overflowed: intercept, covariance or surplus constant not finite")
    return AffineDemandModel(
        gain=gain, intercept_mean=intercept, intercept_cov=cov, cs_constant=cs_constant
    )


def build_consumer_model(params: ConsumerParams, weather_forecast: Sequence[float]) -> AffineDemandModel:
    """Affine demand model of one consumer: ``population_model`` of a
    population of one."""
    return population_model(Population.of([params]), weather_forecast)


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
    model._factorization  # noqa: B018 -- eager PD check via Cholesky
    return model


def mean_demand(model: AffineDemandModel, prices: Sequence[float]) -> np.ndarray:
    """Expected hourly demand ``-gain @ prices + intercept_mean``.

    Negative entries are legal (prices above the zero-demand level) but
    usually indicate a mis-scaled tariff, so they raise
    ``NegativeDemandWarning`` rather than an error.
    """
    pi = as_prices(prices, model.horizon)
    demand = model.intercept_mean - model.gain @ pi
    if np.any(demand < 0.0):
        warnings.warn(
            "mean demand is negative in at least one hour", NegativeDemandWarning, stacklevel=2
        )
    return demand
