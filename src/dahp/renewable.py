"""Pricing with an owned renewable resource.

Each hour the retailer first serves demand from a renewable source whose
available output is uniform on ``[0, capacity]``; only the shortfall is
bought at the wholesale price.  Expected profit therefore replaces the
wholesale cost of the full demand with the renewable's marginal cost plus
the expected shortfall cost, where for uniform availability

    E[(d - q)+] = d^2 / (2 K)   for 0 <= d <= K,
                  d - K / 2     for d > K,
                  0             otherwise.

The profit-optimal tariff solves a first-order condition that couples hours
through the demand gain matrix.  The condition is piecewise affine in the
optimal mean demand, so it is solved exactly by iterating on which hours sit
below zero, inside (0, capacity) or at/above capacity (one linear solve per
classification), then mapped back to prices with one SPD solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import NonConvergenceError
from .pricing import WholesaleCost, expected_cs, expected_rp, optimal_price, _check_eta


@dataclass(eq=False)
class RenewableModel:
    """Owned renewable resource: hourly output uniform on [0, capacity].

    ``marginal_cost`` is the per-kWh operating cost, the same every hour.
    """

    capacity: float
    marginal_cost: float = 0.0

    def __post_init__(self):
        self.capacity = float(self.capacity)
        if self.capacity < 0.0 or not np.isfinite(self.capacity):
            raise ValueError("capacity must be finite and nonnegative")
        if np.ndim(self.marginal_cost) != 0:
            raise ValueError("marginal cost must be a scalar")
        self.marginal_cost = float(self.marginal_cost)
        if self.marginal_cost < 0.0 or not np.isfinite(self.marginal_cost):
            raise ValueError("marginal cost must be finite and nonnegative")

    def cost_vector(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self.marginal_cost)


@dataclass(eq=False)
class BenefitSplit:
    """Change in expected surplus and profit from adding the renewable."""

    delta_cs: float
    delta_rp: float
    fraction: float  # consumer share delta_cs / (delta_cs + delta_rp)


def uniform_shortfall_expectation(demand: np.ndarray, capacity: float) -> np.ndarray:
    """Hourly ``E[(demand - q)+]`` for output ``q`` uniform on [0, capacity].

    Quadratic in the demand while it sits inside [0, capacity], linear with
    offset ``capacity / 2`` beyond it, zero when demand is nonpositive.
    """
    d = np.asarray(demand, dtype=float)
    if capacity == 0.0:
        return np.maximum(d, 0.0)
    inside = np.clip(d, 0.0, capacity)
    return inside * inside / (2.0 * capacity) + np.maximum(d - capacity, 0.0)


def _check_renewable(model: AffineDemandModel, cost: WholesaleCost, renew: RenewableModel) -> np.ndarray:
    nu = renew.cost_vector(model.horizon)
    if cost.horizon != model.horizon:
        raise ValueError("wholesale cost horizon does not match the model")
    if np.any(cost.mean - nu <= 0.0):
        raise ValueError("renewable marginal cost must stay below the wholesale price")
    return nu


def expected_rp_renewable(
    model: AffineDemandModel,
    prices: Sequence[float],
    cost: WholesaleCost,
    renew: RenewableModel,
) -> float:
    """Expected retail profit when the renewable serves demand first.

    Zero capacity degenerates to the no-renewable profit.
    """
    if renew.capacity == 0.0:
        return expected_rp(model, prices, cost)
    pi = as_prices(prices, model.horizon)
    nu = _check_renewable(model, cost, renew)
    demand = model.intercept_mean - model.gain @ pi
    shortfall = uniform_shortfall_expectation(demand, renew.capacity)
    return float(pi @ demand - nu @ demand - (cost.mean - nu) @ shortfall)


def optimal_price_renewable(
    model: AffineDemandModel, cost: WholesaleCost, renew: RenewableModel, eta: float
) -> np.ndarray:
    """Tariff maximizing renewable-aware profit plus ``eta`` times surplus.

    The first-order condition, written in terms of the induced mean demand
    ``d``, reads

        (2 - eta) d = b - G nu - G ((lambda - nu) * F(d))

    with ``F`` the uniform availability cdf clipped to [0, 1].  Once every
    hour is classified as below zero, inside (0, capacity) or at/above
    capacity, ``F`` is affine and the condition is one linear system.  The
    solve starts from the no-renewable optimal demand and solves the system
    of its classification; it stops when the solution keeps that
    classification (a semismooth Newton iteration on a piecewise-affine
    equation).  Otherwise it moves along the step only as far as the
    objective, concave and piecewise quadratic in ``d``, keeps rising, and
    reclassifies: full steps alone can jump hours back and forth across a
    narrow (0, capacity) band forever.  When capacity does not exceed the
    lowest optimal demand the start is already exact, and the no-renewable
    tariff is returned as ``optimal_price`` computes it.
    """
    _check_eta(eta)
    if renew.capacity == 0.0:
        return optimal_price(model, cost, eta)
    nu = _check_renewable(model, cost, renew)
    margin = cost.mean - nu
    start = (model.intercept_mean - model.gain @ cost.mean) / (2.0 - eta)
    if renew.capacity <= start.min():
        return optimal_price(model, cost, eta)  # the same bits, so delta_cs is exactly 0

    def availability(d: np.ndarray) -> np.ndarray:
        return np.clip(d / renew.capacity, 0.0, 1.0)

    def foc_residual(d: np.ndarray) -> np.ndarray:
        # the condition minus its value at ``start``, where F = 1 throughout;
        # G^-1 times this is the gradient of the negated objective in ``d``
        return (2.0 - eta) * (d - start) - model.gain @ (margin * (1.0 - availability(d)))

    def regime(d: np.ndarray) -> np.ndarray:
        # 0 below zero, 1 inside [0, capacity), 2 at or above capacity;
        # F is continuous, so a point on a kink is exact in either regime
        return np.digitize(d, (0.0, renew.capacity))

    def step_length(d: np.ndarray, step: np.ndarray, residual: np.ndarray) -> float:
        # the t in (0, 1] maximizing the objective along ``step``; the slope
        # of its negation is increasing and piecewise linear in t, kinked
        # where an hour crosses zero or capacity
        direction = model.solve(step)
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate([-d / step, (renew.capacity - d) / step])
        ts = np.concatenate([[0.0], np.sort(kinks[(kinks > 0.0) & (kinks < 1.0)]), [1.0]])
        slopes = (
            direction @ residual + ts * (2.0 - eta) * (direction @ step)
            + (availability(d + ts[:, None] * step) - availability(d)) @ (margin * step)
        )
        up = int(np.argmax(slopes >= 0.0))
        if up == 0:  # still rising at t = 1 (slopes[0] < 0 unless rounding)
            return 1.0
        t0, s0 = ts[up - 1], slopes[up - 1]
        return float(t0 - s0 * (ts[up] - t0) / (slopes[up] - s0))

    demand, hours = start, regime(start)
    # a step that is not confirmed moves at least one hour across a kink;
    # room for every hour to cross both kinks bounds the work
    max_solves = 2 * model.horizon + 1
    for _ in range(max_solves):
        slope = margin * (hours == 1) / renew.capacity
        jacobian = (2.0 - eta) * np.eye(model.horizon) + model.gain * slope
        residual = foc_residual(demand)
        step = -np.linalg.solve(jacobian, residual)
        if np.array_equal(regime(demand + step), hours):
            return model.solve(model.intercept_mean - (demand + step))
        demand = demand + step_length(demand, step, residual) * step
        hours = regime(demand)
    residual = float(np.abs(foc_residual(demand)).max())
    raise NonConvergenceError(
        f"no consistent demand regime after {max_solves} linear solves "
        f"(first-order residual {residual:.3e})",
        residual=residual,
    )


def benefit_split(
    model: AffineDemandModel, cost: WholesaleCost, renew: RenewableModel, eta: float
) -> BenefitSplit:
    """How the gains from the renewable divide between consumers and the
    retailer at a fixed pricing weight.

    For capacities below the lowest optimal demand the tariff cannot move,
    so the consumer share is zero; as capacity grows the consumer share
    approaches ``1 / (3 - 2 eta)``.
    """
    pi_without = optimal_price(model, cost, eta)
    pi_with = optimal_price_renewable(model, cost, renew, eta)
    delta_cs = expected_cs(model, pi_with) - expected_cs(model, pi_without)
    delta_rp = expected_rp_renewable(model, pi_with, cost, renew) - expected_rp(model, pi_without, cost)
    total = delta_cs + delta_rp
    fraction = delta_cs / total if total > 0.0 else 0.0
    return BenefitSplit(delta_cs=float(delta_cs), delta_rp=float(delta_rp), fraction=float(fraction))
