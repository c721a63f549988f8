"""Retail pricing against an affine demand model.

With demand ``d(pi) = -G pi + b`` the retailer's expected quantities have
closed forms:

    consumer surplus   cs(pi) = pi' G pi / 2 - pi' b + c
    retail profit      rp(pi) = (pi - lambda)' (-G pi + b)

where ``lambda`` is the expected wholesale price.  Maximizing
``rp + eta * cs`` over the price vector yields a one-parameter family of
tariffs that traces the surplus/profit Pareto front as the weight ``eta``
runs over [0, 1]: profit-greedy at 0, welfare-maximizing (price at
wholesale cost, zero profit) at 1.  All solves go through the model's
cached SPD factorization; nothing here inverts a matrix explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import InfeasibleConstraintError
from .optim import TOLERANCES

BENCHMARK_SCHEMES = ("cp", "tou", "pmp")


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


@dataclass(eq=False)
class TradeoffPoint:
    """One point of a surplus/profit trace.

    ``eta`` holds the pricing weight for optimal tariffs and the sweep
    parameter for benchmark tariffs.  ``sw`` is set in ``__post_init__`` as
    ``cs + rp`` so the identity is exact by construction.
    """

    eta: float
    price: np.ndarray
    cs: float
    rp: float
    sw: float = field(init=False)

    def __post_init__(self):
        self.price = np.asarray(self.price, dtype=float)
        self.sw = self.cs + self.rp


def expected_cs(model: AffineDemandModel, prices: Sequence[float]) -> float:
    """Expected consumer surplus at the given price vector."""
    pi = as_prices(prices, model.horizon)
    return float(0.5 * pi @ model.gain @ pi - pi @ model.intercept_mean + model.cs_constant)


def expected_rp(
    model: AffineDemandModel, prices: Sequence[float], cost: WholesaleCost
) -> float:
    """Expected retail profit: markup times mean demand."""
    pi = as_prices(prices, model.horizon)
    _check_horizon(model, cost)
    demand = model.intercept_mean - model.gain @ pi
    return float((pi - cost.mean) @ demand)


def optimal_price(model: AffineDemandModel, cost: WholesaleCost, eta: float) -> np.ndarray:
    """Price maximizing ``rp + eta * cs`` for a weight ``eta`` in [0, 1].

    The maximizer blends the wholesale price with the zero-demand price
    ``G^{-1} b``; at ``eta = 1`` it is exactly the wholesale mean.
    """
    _check_eta(eta)
    _check_horizon(model, cost)
    zero_demand_price = model.solve(model.intercept_mean)
    return (1.0 / (2.0 - eta)) * cost.mean + ((1.0 - eta) / (2.0 - eta)) * zero_demand_price


def tradeoff_point(model: AffineDemandModel, cost: WholesaleCost, eta: float) -> TradeoffPoint:
    """Evaluate the optimal tariff for one weight."""
    pi = optimal_price(model, cost, eta)
    return TradeoffPoint(eta=float(eta), price=pi, cs=expected_cs(model, pi), rp=expected_rp(model, pi, cost))


def pareto_front(
    model: AffineDemandModel, cost: WholesaleCost, eta_grid: Sequence[float] | None = None
) -> list[TradeoffPoint]:
    """Trace the surplus/profit front over a weight grid (default: 101
    uniform points on [0, 1]).  Points come out sorted by increasing cs."""
    grid = np.linspace(0.0, 1.0, 101) if eta_grid is None else np.asarray(eta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("eta grid must be a nonempty vector")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("eta grid must be sorted ascending")
    for eta in (grid[0], grid[-1]):
        _check_eta(eta)
    return [tradeoff_point(model, cost, eta) for eta in grid]


def _front_geometry(model: AffineDemandModel, cost: WholesaleCost) -> tuple[float, float]:
    """Scalars (q, k) parametrizing the optimal-tariff front:
    cs*(eta) = q / (2 (2 - eta)^2) + k and rp*(eta) = q (1 - eta) / (2 - eta)^2.
    """
    zero_demand_price = model.solve(model.intercept_mean)
    gap = zero_demand_price - cost.mean
    q = float(gap @ model.gain @ gap)
    k = model.cs_constant - 0.5 * float(model.intercept_mean @ zero_demand_price)
    return q, k


def _eta_at_cs(q: float, k: float, cs_value: float) -> float:
    """Weight whose optimal tariff has surplus ``cs_value``: the inverse of
    ``cs*(eta) = q / (2 (2 - eta)^2) + k``."""
    return 2.0 - math.sqrt(q / (2.0 * (cs_value - k)))


def profit_upper_bound(model: AffineDemandModel, cost: WholesaleCost, cs_value: float) -> float:
    """Largest expected profit achievable while keeping ``cs >= cs_value``.

    Evaluated in closed form from the front geometry; any tariff whatsoever
    plots on or below this bound at its own cs.  Useful for dominance checks
    against benchmark tariffs.
    """
    q, k = _front_geometry(model, cost)
    if q <= 0.0:
        return 0.0
    cs_greedy = q / 8.0 + k
    if cs_value <= cs_greedy:
        return q / 4.0
    eta = _eta_at_cs(q, k, cs_value)
    return q * (1.0 - eta) / (2.0 - eta) ** 2


def constrained_optimal_price(
    model: AffineDemandModel, cost: WholesaleCost, cs_floor: float
) -> tuple[np.ndarray, float, float]:
    """Maximize profit subject to ``cs >= cs_floor``.

    Equivalent to picking the weight whose optimal tariff meets the floor,
    which the front geometry gives in closed form.  Returns
    ``(price, cs, rp)``.  Floors above the maximum achievable surplus raise
    ``InfeasibleConstraintError`` naming that maximum.
    """
    _check_horizon(model, cost)
    floor = float(cs_floor)
    point0 = tradeoff_point(model, cost, 0.0)
    if floor <= point0.cs:
        return point0.price, point0.cs, point0.rp
    point1 = tradeoff_point(model, cost, 1.0)
    scale = max(1.0, abs(floor))
    if floor > point1.cs + TOLERANCES["surplus_floor_rtol"] * scale:
        raise InfeasibleConstraintError(
            f"surplus floor {floor:.6g} exceeds the maximum achievable "
            f"expected consumer surplus {point1.cs:.6g}"
        )
    if floor >= point1.cs:
        return point1.price, point1.cs, point1.rp
    q, k = _front_geometry(model, cost)
    point = tradeoff_point(model, cost, min(max(_eta_at_cs(q, k, floor), 0.0), 1.0))
    if abs(point.cs - floor) > TOLERANCES["surplus_floor_rtol"] * scale:
        raise InfeasibleConstraintError(
            f"closed-form weight left |cs - floor| = {abs(point.cs - floor):.3e} above tolerance"
        )
    return point.price, point.cs, point.rp


def benchmark_prices(
    scheme: str,
    param: float,
    cost: WholesaleCost,
    tou_ratio: float = 1.2,
    peak_start: int = 9,
    peak_end: int = 17,
) -> np.ndarray:
    """Tariff vector for one benchmark scheme and sweep parameter.

    cp: flat price ``param`` every hour.
    tou: off-peak price ``param``, scaled by ``tou_ratio`` for hours whose
        start lies in ``[peak_start, peak_end)`` (defaults: 9am-5pm, 1.2x).
    pmp: proportional markup ``param * wholesale mean``.
    """
    scheme = scheme.lower()
    n = cost.horizon
    if scheme == "cp":
        return np.full(n, float(param))
    if scheme == "tou":
        if not 0 <= peak_start < peak_end <= n:
            raise ValueError("invalid peak window")
        prices = np.full(n, float(param))
        prices[peak_start:peak_end] *= tou_ratio
        return prices
    if scheme == "pmp":
        return float(param) * cost.mean
    raise ValueError(f"unknown benchmark scheme {scheme!r}; expected one of {BENCHMARK_SCHEMES}")


def benchmark_trace(
    model: AffineDemandModel,
    cost: WholesaleCost,
    scheme: str,
    sweep: Sequence[float],
    tou_ratio: float = 1.2,
    peak_start: int = 9,
    peak_end: int = 17,
) -> list[TradeoffPoint]:
    """Surplus/profit trace of a benchmark tariff over a parameter sweep.

    The ``eta`` field of each point holds the sweep parameter value.
    """
    _check_horizon(model, cost)
    points = []
    for param in np.asarray(sweep, dtype=float):
        pi = benchmark_prices(scheme, param, cost, tou_ratio, peak_start, peak_end)
        points.append(
            TradeoffPoint(eta=float(param), price=pi, cs=expected_cs(model, pi), rp=expected_rp(model, pi, cost))
        )
    return points


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"pricing weight must lie in [0, 1], got {eta}")


def _check_horizon(model, cost: WholesaleCost) -> None:
    if cost.horizon != model.horizon:
        raise ValueError(
            f"wholesale cost covers {cost.horizon} hours but the model has {model.horizon}"
        )
