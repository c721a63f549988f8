"""Retail pricing against an affine demand model.

With demand ``d(pi) = -G pi + b`` the retailer's expected quantities have
closed forms:

    consumer surplus   cs(pi) = pi' G pi / 2 - pi' b + c
    retail profit      rp(pi) = (pi - lambda)' (-G pi + b)

where ``lambda`` is the expected wholesale price.  Maximizing
``rp + eta * cs`` over the price vector yields a one-parameter family of
tariffs that traces the surplus/profit Pareto front as the weight ``eta``
runs over [0, 1]: profit-greedy at 0, welfare-maximizing (price at
wholesale cost, zero profit) at 1.  Every optimal tariff blends the
wholesale price with the zero-demand price ``G^{-1} b``, which each model
solves once and caches.

``expected_cs`` and ``expected_rp`` validate their tariffs and call the
only places the two formulas are written, ``_cs`` and ``_rp``, which
callers holding already-checked tariffs (the storage search and the
benchmark traces) call directly.  They take one tariff or a (k, N) stack
of tariffs, so a whole front or benchmark sweep is one evaluator call; a
stacked row gives the same bits as the same tariff alone.  A model of
several days (a (days, N) intercept) broadcasts over its days the same way:
day ``d`` of ``optimal_price``, ``expected_cs`` or ``expected_rp`` has the
bits of that day's own model.  A benchmark
tariff is one member ``theta * V`` of a family given by its direction
``V``; the caller chooses ``V`` and the sweep of ``theta``.
``pareto_front`` and ``benchmark_trace`` return a sweep as a ``Trace`` of
columns: the parameters (k,), the tariffs (k, N), and their cs and rp (k,).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import NumericalError


@dataclass(eq=False)
class WholesaleCost:
    """Expected hourly wholesale price."""

    mean: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if self.mean.ndim != 1 or not np.all(np.isfinite(self.mean)):
            raise ValueError("wholesale mean must be a finite vector")
        if np.any(self.mean <= 0.0):
            raise ValueError("wholesale mean prices must be positive")

    @property
    def horizon(self) -> int:
        return self.mean.size


class Trace(NamedTuple):
    """A surplus/profit trace as columns, one row per tariff."""

    param: np.ndarray  # (k,) pricing weights, or a benchmark's sweep parameters
    price: np.ndarray  # (k, N) tariffs
    cs: np.ndarray     # (k,) expected consumer surplus
    rp: np.ndarray     # (k,) expected retail profit


def _as_tariffs(prices: Sequence[float], horizon: int) -> np.ndarray:
    """One price vector (N,), checked by ``as_prices``, or a stack of
    tariffs (k, N) held to the same rules: N hours, finite entries."""
    pi = np.asarray(prices, dtype=float)
    if pi.ndim != 2:
        return as_prices(pi, horizon)
    if pi.shape[1] != horizon:
        raise ValueError(f"expected {horizon} hourly prices per tariff, got shape {pi.shape}")
    if not np.isfinite(pi).all():
        raise ValueError("prices must be finite")
    return pi


def _per_tariff(values: np.ndarray) -> float | np.ndarray:
    """A float for one tariff, the (k,) array for a stack."""
    return float(values) if values.ndim == 0 else values


# Every product below is a stacked matmul of (1, N) rows and (N, 1) columns.
# Each row rounds like the 1-D product of that tariff alone, so a value does
# not depend on the stack it came in; a (k, N) @ (N, N) product would not.

def _cs(model: AffineDemandModel, pi: np.ndarray) -> np.ndarray:
    """Consumer surplus of checked tariffs (N,) or (k, N): a 0-d or (k,)
    array, broadcast against the days of a stacked model."""
    row, column = pi[..., None, :], pi[..., :, None]
    quadratic = np.matmul(np.matmul(0.5 * row, model.gain), column)
    linear = np.matmul(row, model.intercept_mean[..., :, None])
    return (quadratic - linear)[..., 0, 0] + model.cs_constant


def _rp(model: AffineDemandModel, pi: np.ndarray, cost: WholesaleCost) -> np.ndarray:
    """Retail profit of checked tariffs, shaped as ``_cs``."""
    demand = model.intercept_mean[..., :, None] - np.matmul(model.gain, pi[..., :, None])
    return np.matmul((pi - cost.mean)[..., None, :], demand)[..., 0, 0]


def expected_cs(model: AffineDemandModel, prices: Sequence[float]) -> float | np.ndarray:
    """Expected consumer surplus at one price vector (a float), or at each
    tariff of a (k, N) stack (a (k,) array); a model of several days pairs
    a (days, N) stack with its days."""
    return _per_tariff(_cs(model, _as_tariffs(prices, model.horizon)))


def expected_rp(model: AffineDemandModel, prices: Sequence[float], cost: WholesaleCost) -> float | np.ndarray:
    """Expected retail profit, markup times mean demand, at one price
    vector or at each tariff of a stack (as ``expected_cs``)."""
    pi = _as_tariffs(prices, model.horizon)
    _check_horizon(model, cost)
    return _per_tariff(_rp(model, pi, cost))


def optimal_price(model: AffineDemandModel, cost: WholesaleCost, eta: float | Sequence[float]) -> np.ndarray:
    """Price maximizing ``rp + eta * cs`` for a weight ``eta`` in [0, 1]; a
    vector of k weights gives a (k, N) stack, one tariff per weight.  A
    model of several days gives each day's tariff, (days, N) for one weight
    and (k, days, N) for k.

    The maximizer blends the wholesale price with the zero-demand price
    ``G^{-1} b``; at ``eta = 1`` it is exactly the wholesale mean.
    """
    _check_eta(eta)
    _check_horizon(model, cost)
    eta = np.asarray(eta, dtype=float)
    eta = eta.reshape(eta.shape + (1,) * model.intercept_mean.ndim)
    return (1.0 / (2.0 - eta)) * cost.mean + ((1.0 - eta) / (2.0 - eta)) * model.zero_demand_price


def pareto_front(
    model: AffineDemandModel, cost: WholesaleCost, eta_grid: Sequence[float] | None = None
) -> Trace:
    """Trace the surplus/profit front over a weight grid (default: 101
    uniform points on [0, 1]).  Rows come out sorted by increasing cs."""
    _check_one_day(model)
    grid = np.linspace(0.0, 1.0, 101) if eta_grid is None else np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("eta grid must be a nonempty vector")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("eta grid must be sorted ascending")
    prices = optimal_price(model, cost, grid)
    return Trace(grid, prices, expected_cs(model, prices), expected_rp(model, prices, cost))


def _front_geometry(model: AffineDemandModel, cost: WholesaleCost) -> tuple[float, float]:
    """Scalars (q, k) parametrizing the optimal-tariff front:
    cs*(eta) = q / (2 (2 - eta)^2) + k and rp*(eta) = q (1 - eta) / (2 - eta)^2.
    """
    gap = model.zero_demand_price - cost.mean
    q = float(gap @ model.gain @ gap)
    k = model.cs_constant - 0.5 * float(model.intercept_mean @ model.zero_demand_price)
    return q, k


def _eta_at_cs(q: float, k: float, cs_value: float | np.ndarray) -> float | np.ndarray:
    """Weight whose optimal tariff has surplus ``cs_value``: the inverse of
    ``cs*(eta) = q / (2 (2 - eta)^2) + k``, entrywise."""
    return 2.0 - np.sqrt(q / (2.0 * (cs_value - k)))


@np.errstate(divide="ignore", invalid="ignore")  # in entries np.select does not pick
def profit_upper_bound(model: AffineDemandModel, cost: WholesaleCost,
                       cs_value: float | Sequence[float]) -> float | np.ndarray:
    """Largest expected profit achievable while keeping ``cs >= cs_value``,
    for each entry of ``cs_value`` (a float gives a float).

    Evaluated in closed form from the front geometry: the greedy profit
    ``q / 4`` at and below the greedy surplus ``q / 8 + k``, the profit of
    the optimal tariff with surplus ``cs_value`` above it, and 0 when ``q``
    is 0.  Any tariff whatsoever plots on or below this bound at its own
    cs.  Useful for dominance checks against benchmark tariffs.
    """
    _check_one_day(model)
    q, k = _front_geometry(model, cost)
    cs = np.asarray(cs_value, dtype=float)
    eta = _eta_at_cs(q, k, cs)
    bound = np.select([q <= 0.0, cs <= q / 8.0 + k], [0.0, q / 4.0], q * (1.0 - eta) / np.square(2.0 - eta))
    return float(bound) if bound.ndim == 0 else bound


def benchmark_trace(model: AffineDemandModel, cost: WholesaleCost, sweep: Sequence[float],
                    direction: Sequence[float]) -> Trace:
    """Surplus/profit trace of the one-parameter tariff family
    ``theta * direction`` over a sweep of ``theta``, whose values are the
    trace's ``param``.  A sweep that is not a finite vector, or a direction
    that ``as_prices`` rejects, raises ``ValueError``; a tariff whose
    prices, cs or rp overflow raises ``NumericalError``.
    """
    _check_one_day(model)
    _check_horizon(model, cost)
    direction = as_prices(direction, model.horizon)
    params = np.asarray(sweep, dtype=float)
    if params.ndim != 1 or not np.isfinite(params).all():
        raise ValueError("benchmark sweep must be a finite vector")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        prices = params[:, None] * direction
        cs, rp = _cs(model, prices), _rp(model, prices, cost)
    if np.isfinite(prices).all() and np.isfinite(cs).all() and np.isfinite(rp).all():
        return Trace(params, prices, cs, rp)
    raise NumericalError("benchmark tariffs overflow: a price, cs or rp is not finite")


def _check_eta(eta: float | np.ndarray) -> None:
    eta = np.asarray(eta, dtype=float)
    bad = eta[~((0.0 <= eta) & (eta <= 1.0))]
    if bad.size:
        raise ValueError(f"pricing weight must lie in [0, 1], got {bad[0]}")


def _check_one_day(model: AffineDemandModel) -> None:
    """The front, the profit bound, the benchmark traces, the storage search
    and the renewable tariffs price one day: a stacked model would pair
    their sweeps or grids with its days, or fail inside numpy."""
    if model.intercept_mean.ndim != 1:
        raise ValueError(f"expected a one-day model, got a stack of {len(model.intercept_mean)} days")


def _check_horizon(model, cost: WholesaleCost) -> None:
    if cost.horizon != model.horizon:
        raise ValueError(
            f"wholesale cost covers {cost.horizon} hours but the model has {model.horizon}"
        )
