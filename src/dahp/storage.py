"""Consumer-side battery arbitrage and storage-aware retail pricing.

Under net metering the consumer's HVAC problem and battery problem decouple:
the battery simply buys low and sells high against the day-ahead tariff,
independent of the thermal load.  The arbitrage plan solves a small LP

    maximize  -prices @ (charge - discharge)
    s.t.      soc_{i} = storage_eff * (soc_{i-1} + charge_eff * charge_i
                                        - discharge_i / discharge_eff)
              0 <= soc <= capacity,  terminal soc = initial soc,
              rate limits on charge and discharge,

solved by the package's dense simplex.  The retailer, in turn, prices
against the sum of thermal demand and the batteries' net schedule; that
objective is piecewise smooth in the tariff (plans switch at indifference
prices), so the price search is a derivative-free multi-start pattern
search seeded at the storage-free optimum.  The search result is best
effort: no local move of the final step size improves it, which is not a
global optimality claim.

The search evaluates thousands of nearby tariffs but meets only a few
dozen optimal plans.  The LP's constraints do not depend on the tariff, so
an optimal basis stays feasible everywhere and optimal on the cone of
tariffs where its reduced costs ``d_N = G @ prices`` are nonpositive; G is
read off the optimal tableau and stored sparse.  Within one search, each
distinct battery spec keeps its bases most recently used first, and a
tariff reuses the first one whose reduced costs are all below
``-TOLERANCES["simplex_pivot"]``.  That strict margin makes the optimal
vertex unique, so the cold simplex would return the same plan, up to
rounding in the last bits.  Any other tariff is solved cold, and its
basis is kept when it is strictly optimal there.  The idle tie-break and
the plan validation run on every plan.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import InfeasibleConstraintError
from .optim import TOLERANCES, LpProblem, LpResult, pattern_search, simplex_solve
from .pricing import TradeoffPoint, WholesaleCost, expected_cs, expected_rp, optimal_price


@dataclass(frozen=True)
class BatteryParams:
    """Battery parameters; efficiencies are per-hour multiplicative losses."""

    capacity: float           # usable energy, kWh
    initial_soc: float        # state of charge at the day boundary, kWh
    storage_eff: float = 1.0  # fraction retained per hour (kappa)
    charge_eff: float = 1.0   # energy stored per unit charged
    discharge_eff: float = 1.0  # energy delivered per unit drawn from store
    charge_limit: float = np.inf
    discharge_limit: float = np.inf

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if not 0.0 <= self.initial_soc <= self.capacity:
            raise ValueError("initial soc must lie in [0, capacity]")
        for name in ("storage_eff", "charge_eff", "discharge_eff"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not (self.charge_limit >= 0 and self.discharge_limit >= 0):
            raise ValueError("rate limits must be nonnegative")


@dataclass(eq=False)
class ArbitragePlan:
    """Optimal day-ahead battery schedule against a fixed tariff."""

    charge: np.ndarray     # energy bought into the battery per hour
    discharge: np.ndarray  # energy sold back per hour
    soc: np.ndarray        # state of charge after each hour
    profit: float          # -prices @ (charge - discharge), >= 0 when idle is feasible

    @property
    def net_load(self) -> np.ndarray:
        return self.charge - self.discharge


def _idle_plan_feasible(battery: BatteryParams, horizon: int) -> bool:
    """Doing nothing is feasible only when decay cannot strand the terminal
    constraint: lossless storage or an empty battery."""
    drift = abs(battery.storage_eff ** horizon * battery.initial_soc - battery.initial_soc)
    return drift <= TOLERANCES["plan_feasibility"]


def _idle_plan(battery: BatteryParams, horizon: int) -> ArbitragePlan:
    soc = battery.initial_soc * battery.storage_eff ** np.arange(1, horizon + 1)
    zeros = np.zeros(horizon)
    return ArbitragePlan(charge=zeros, discharge=zeros.copy(), soc=soc, profit=0.0)


def _reduced_cost_map(result: LpResult, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sparse matrix G with ``G @ prices`` = the nonbasic reduced costs of
    the result's optimal basis, at any tariff.

    Only charge and discharge carry a price (-price and +price), so the
    reduced cost of a nonbasic column j is its own price term minus the
    tableau rows whose basic variable is priced:
    d_j = c_j - sum_i c_{B_i} (B^-1 A)_{ij}.  Returns G as (row, hour, value)
    triplets, a row per nonbasic column, and the number of rows.
    """
    n = horizon
    basis = np.asarray(result.basis)
    free = np.ones(result.tableau.shape[1] - 1, dtype=bool)
    free[basis] = False
    free_cols = np.flatnonzero(free)
    priced = np.flatnonzero(basis < 2 * n)
    r, c = np.nonzero(result.tableau[np.ix_(priced, free_cols)])
    basic = basis[priced[r]]
    own = np.flatnonzero(free_cols < 2 * n)
    # the smallest integer type that holds the indices: G is kept per basis
    rows = np.concatenate([c, own]).astype(np.min_scalar_type(free_cols.size))
    hours = np.concatenate([basic % n, free_cols[own] % n]).astype(np.min_scalar_type(n))
    values = np.concatenate([
        np.where(basic < n, 1.0, -1.0) * result.tableau[priced[r], free_cols[c]],
        np.where(free_cols[own] < n, -1.0, 1.0),
    ])
    return rows, hours, values, int(free_cols.size)


def _strictly_optimal(entry: tuple, pi: np.ndarray) -> bool:
    """All reduced costs of a stored basis lie below -tolerance at ``pi``."""
    rows, hours, values, height, _ = entry
    reduced = np.bincount(rows, weights=values * pi[hours], minlength=height)
    return bool(reduced.max() < -TOLERANCES["simplex_pivot"])


class _BatteryLp:
    """One battery spec's arbitrage LP over a fixed horizon, plus the
    optimal bases found for it so far.

    The constraints do not depend on the tariff, so a basis found at one
    tariff stays feasible at every other and is optimal wherever its
    reduced costs ``G @ prices`` are nonpositive.  A stored basis is reused
    only where they are all strictly negative: the optimal vertex is then
    unique, so a cold simplex solve would return the same plan up to
    rounding.  Otherwise the simplex runs, and its basis joins the front of
    the list if it passes the same test; a reused basis moves to the front.
    """

    def __init__(self, battery: BatteryParams, horizon: int):
        n = horizon
        kappa, tau = battery.storage_eff, battery.charge_eff
        rho = battery.discharge_eff
        hours = np.arange(n)
        # Variables: charge (n), discharge (n), soc (n).
        rows = np.zeros((n + 1, 3 * n))
        rows[hours, 2 * n + hours] = 1.0
        rows[hours, hours] = -kappa * tau
        rows[hours, n + hours] = kappa / rho
        rows[hours[1:], 2 * n + hours[:-1]] = -kappa
        rows[n, 3 * n - 1] = 1.0  # terminal soc pinned to the initial one
        rhs = np.zeros(n + 1)
        rhs[0] = kappa * battery.initial_soc
        rhs[n] = battery.initial_soc
        self.battery = battery
        self.horizon = n
        self.eq_matrix = rows
        self.eq_rhs = rhs
        self.lower = np.zeros(3 * n)
        self.upper = np.concatenate([
            np.full(n, battery.charge_limit),
            np.full(n, battery.discharge_limit),
            np.full(n, battery.capacity),
        ])
        self.idle_feasible = _idle_plan_feasible(battery, n)
        self.entries: list[tuple] = []  # (G rows, G hours, G values, G height, x)
        self.lp_solves = 0
        self.basis_reuses = 0

    def plan(self, pi: np.ndarray) -> ArbitragePlan:
        objective = np.concatenate([-pi, pi, np.zeros(self.horizon)])
        for index, entry in enumerate(self.entries):
            if _strictly_optimal(entry, pi):
                self.entries.insert(0, self.entries.pop(index))
                self.basis_reuses += 1
                return self._finish(pi, objective, entry[-1])
        result = simplex_solve(LpProblem(objective, self.eq_matrix, self.eq_rhs, self.lower, self.upper))
        self.lp_solves += 1
        if result.status != "optimal":
            raise InfeasibleConstraintError(
                f"battery arbitrage LP is {result.status}: the terminal state of "
                "charge cannot be met with these losses and rate limits"
            )
        entry = (*_reduced_cost_map(result, self.horizon), result.x)
        # A basis tied at its own tariff is not kept: a lossless battery's
        # ties never break, and each of its solves would lengthen the list
        # that every later tariff scans.  Nor is a basis kept twice: a
        # stored one that passed this test would have been reused.
        if _strictly_optimal(entry, pi):
            self.entries.insert(0, entry)
        return self._finish(pi, objective, result.x)

    def _finish(self, pi: np.ndarray, objective: np.ndarray, x: np.ndarray) -> ArbitragePlan:
        """The plan for an optimal LP point: idle on a zero-profit tie when
        idling is feasible, else the point itself, validated."""
        n = self.horizon
        profit = float(objective @ x)
        if abs(profit) <= 1e-12 * max(1.0, float(np.abs(pi).max())) and self.idle_feasible:
            return _idle_plan(self.battery, n)
        plan = ArbitragePlan(
            charge=x[:n].copy(), discharge=x[n:2 * n].copy(), soc=x[2 * n:].copy(), profit=profit,
        )
        _validate_plan(plan, self.battery)
        return plan


def arbitrage(prices: Sequence[float], battery: BatteryParams, horizon: int | None = None) -> ArbitragePlan:
    """Solve the battery's price-arbitrage LP for one day.

    Raises ``InfeasibleConstraintError`` when the terminal state of charge
    is unreachable (possible for a leaky battery starting charged, since
    idling then decays below the required terminal level).  Ties at zero
    profit resolve to the idle plan whenever idling is feasible.
    """
    n = len(prices) if horizon is None else horizon
    return _BatteryLp(battery, n).plan(as_prices(prices, n))


def _validate_plan(plan: ArbitragePlan, battery: BatteryParams) -> None:
    tol = TOLERANCES["plan_feasibility"]
    prev = np.concatenate([[battery.initial_soc], plan.soc[:-1]])
    expected = battery.storage_eff * (
        prev + battery.charge_eff * plan.charge - plan.discharge / battery.discharge_eff
    )
    if np.any(np.abs(plan.soc - expected) > tol):
        raise InfeasibleConstraintError("arbitrage plan violates the storage balance")
    if abs(plan.soc[-1] - battery.initial_soc) > tol:
        raise InfeasibleConstraintError("arbitrage plan misses the terminal state of charge")
    if np.any(plan.soc < -tol) or np.any(plan.soc > battery.capacity + tol):
        raise InfeasibleConstraintError("arbitrage plan violates capacity bounds")


def consumer_surplus_with_storage(
    model: AffineDemandModel,
    prices: Sequence[float],
    battery: BatteryParams,
) -> float:
    """Expected surplus of a consumer who owns a battery.

    Net metering separates the decision problems, so the total is the
    thermal surplus plus the battery's arbitrage profit.
    """
    return expected_cs(model, prices) + arbitrage(prices, battery, model.horizon).profit


def _net_load(plans: dict[BatteryParams, ArbitragePlan], counts: dict[BatteryParams, int], horizon: int) -> np.ndarray:
    total = np.zeros(horizon)
    for battery, count in counts.items():
        total += count * plans[battery].net_load
    return total


def population_net_load(prices: Sequence[float], batteries: Sequence[BatteryParams], horizon: int) -> np.ndarray:
    """Summed optimal net battery load of a population at one tariff.

    Identical battery specs share a single LP solve.
    """
    counts = Counter(batteries)
    return _net_load({b: arbitrage(prices, b, horizon) for b in counts}, counts, horizon)


def _storage_point(
    model: AffineDemandModel, cost: WholesaleCost, pi: np.ndarray, net: np.ndarray, eta: float
) -> TradeoffPoint:
    """cs and rp at a tariff, the batteries' net load included: it adds
    ``(prices - wholesale) @ net_load`` to profit and subtracts its energy
    bill ``prices @ net_load`` from consumer surplus."""
    return TradeoffPoint(
        eta=float(eta),
        price=pi,
        cs=expected_cs(model, pi) - float(pi @ net),
        rp=expected_rp(model, pi, cost) + float((pi - cost.mean) @ net),
    )


def retailer_objective_with_storage(
    model: AffineDemandModel,
    cost: WholesaleCost,
    batteries: Sequence[BatteryParams],
    prices: Sequence[float],
    eta: float,
) -> float:
    """Weighted retail objective ``rp + eta * cs`` when consumers operate
    batteries."""
    pi = as_prices(prices, model.horizon)
    point = _storage_point(model, cost, pi, population_net_load(pi, batteries, model.horizon), eta)
    return point.rp + eta * point.cs


@dataclass(eq=False)
class StoragePricingResult:
    """Outcome of the storage-aware price search."""

    price: np.ndarray
    point: TradeoffPoint   # cs/rp include the batteries' contribution
    objective: float
    n_starts: int
    n_evals: int
    improved: bool         # beat the storage-free seed tariff
    truncated: bool        # at least one start hit the evaluation budget
    trace: list
    plans: dict            # battery spec -> its ArbitragePlan at ``price``
    lp_solves: int         # battery LPs solved by the simplex
    basis_reuses: int      # battery plans taken from a stored optimal basis


def optimize_price_with_storage(
    model: AffineDemandModel,
    cost: WholesaleCost,
    batteries: Sequence[BatteryParams],
    eta: float,
    step0: float | None = None,
    step_min: float = 1e-4,
    max_evals: int = 4000,
) -> StoragePricingResult:
    """Search for the tariff maximizing the storage-aware objective.

    Deterministic multi-start compass search seeded at the storage-free
    optimal tariff and two scaled variants.  Returns the best point found
    with convergence metadata; see the module docstring for the best-effort
    caveat.  Each distinct battery spec keeps its optimal LP bases for the
    length of this call only.
    """
    seed_price = optimal_price(model, cost, eta)
    if step0 is None:
        step0 = max(0.05 * float(np.abs(seed_price).max()), 1e-3)
    horizon = model.horizon
    counts = Counter(batteries)
    lps = {battery: _BatteryLp(battery, horizon) for battery in counts}

    def evaluate(prices: np.ndarray) -> tuple[TradeoffPoint, dict[BatteryParams, ArbitragePlan]]:
        pi = as_prices(prices, horizon)
        plans = {battery: lp.plan(pi) for battery, lp in lps.items()}
        return _storage_point(model, cost, pi, _net_load(plans, counts, horizon), eta), plans

    def objective(pi: np.ndarray) -> float:
        point, _ = evaluate(pi)
        return point.rp + eta * point.cs

    starts = [seed_price, 1.05 * seed_price, 0.95 * seed_price]
    best = None
    total_evals = 0
    truncated = False
    for start in starts:
        outcome = pattern_search(objective, start, step0=step0, step_min=step_min, max_evals=max_evals)
        total_evals += outcome.n_evals
        truncated = truncated or outcome.truncated
        if best is None or outcome.value > best.value:
            best = outcome

    point, plans = evaluate(best.point)
    seed_value = objective(seed_price)
    return StoragePricingResult(
        price=point.price,
        point=point,
        objective=best.value,
        n_starts=len(starts),
        n_evals=total_evals,
        improved=best.value > seed_value + 1e-12 * max(1.0, abs(seed_value)),
        truncated=truncated,
        trace=best.trace,
        plans=plans,
        lp_solves=sum(lp.lp_solves for lp in lps.values()),
        basis_reuses=sum(lp.basis_reuses for lp in lps.values()),
    )
