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
prices), so the price search is one derivative-free compass search from
the storage-free optimum.  It converges when its step falls below a floor
after no coordinate move of that size improved the tariff, the standard
compass-search stopping test; it is flagged truncated if the evaluation
budget runs out first.  The result is a local optimum, not a global
optimality claim.  At ``eta = 1`` the seed is already optimal, so no
search runs: the storage-free objective peaks at the wholesale mean, the
batteries cannot earn the retailer more than their arbitrage profit at
wholesale prices, and every plan optimal at that tariff earns exactly that.

The search evaluates thousands of nearby tariffs but meets only a few
dozen optimal plans.  The LP's constraints do not depend on the tariff, so
an optimal basis stays feasible everywhere and optimal on the cone of
tariffs where its reduced costs ``d_N = G @ prices`` are nonpositive; G is
read off the optimal tableau and stored sparse.  Within one search, each
distinct battery spec keeps its bases most recently used first, and a
tariff reuses the first one whose reduced costs are all below
``-TOLERANCES["simplex_pivot"]``.  That strict margin makes the optimal
vertex unique, so the cold simplex would return the same plan, up to
rounding in the last bits.  Any other tariff is re-optimized by phase 2
from the last kept basis, feasible at every tariff, and the basis found is
kept if it passes the test; a tie may stop that warm start at another
optimal vertex than a cold solve's, so the cold solve answers then.  The
idle tie-break runs on every plan; a basis's point is validated once, when
the simplex finds it.  Searched tariffs are finite by construction, so cs
and rp come unchecked from the pricing kernels ``_cs`` and ``_rp``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import InfeasibleConstraintError
from .optim import TOLERANCES, LpProblem, LpResult, pattern_search, simplex_solve
from .pricing import TradeoffPoint, WholesaleCost, _cs, _rp, optimal_price


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
        if not (np.isfinite(self.initial_soc) and 0.0 <= self.initial_soc <= self.capacity):
            raise ValueError("initial soc must be finite and lie in [0, capacity]")
        for name in ("storage_eff", "charge_eff", "discharge_eff"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not (self.charge_limit >= 0 and self.discharge_limit >= 0):
            raise ValueError("rate limits must be nonnegative")
        if self.capacity == self.charge_limit == self.discharge_limit == np.inf:
            raise ValueError("an unlimited capacity needs a finite charge or discharge limit")


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
    rounding.  Otherwise the simplex runs from the last kept basis, and a
    basis passing the same test joins the front of the list and becomes
    the next warm start; a reused basis moves to the front.
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
        self.warm: LpResult | None = None  # the latest kept basis's solve
        self.lp_solves = 0
        self.lp_pivots = 0
        self.basis_reuses = 0

    def plan(self, pi: np.ndarray) -> ArbitragePlan:
        objective = np.concatenate([-pi, pi, np.zeros(self.horizon)])
        for index, entry in enumerate(self.entries):
            if _strictly_optimal(entry, pi):
                self.entries.insert(0, self.entries.pop(index))
                self.basis_reuses += 1
                return self._finish(pi, objective, entry[-1])
        problem = LpProblem(objective, self.eq_matrix, self.eq_rhs, self.lower, self.upper)
        self.lp_solves += 1
        # The last kept basis first, then a cold solve.  A basis tied at this
        # tariff is not kept: a tied warm start may sit at another optimal
        # vertex than the cold solve's, and a lossless battery never breaks
        # its ties, so it keeps no basis for later tariffs to scan.  Nor is a
        # basis kept twice: a stored one that passed this would be reused.
        for start in [self.warm, None] if self.warm else [None]:
            result = simplex_solve(problem, start)
            self.lp_pivots += result.pivots
            if result.status != "optimal":
                raise InfeasibleConstraintError(
                    f"battery arbitrage LP is {result.status}: the terminal state of "
                    "charge cannot be met with these losses and rate limits"
                )
            _validate_point(result.x, self.battery)
            entry = (*_reduced_cost_map(result, self.horizon), result.x)
            if _strictly_optimal(entry, pi):
                self.entries.insert(0, entry)
                self.warm = result
                break
        return self._finish(pi, objective, result.x)

    def _finish(self, pi: np.ndarray, objective: np.ndarray, x: np.ndarray) -> ArbitragePlan:
        """The plan for an optimal LP point: idle on a zero-profit tie when
        idling is feasible, else the point itself."""
        n = self.horizon
        profit = float(objective @ x)
        if abs(profit) <= 1e-12 * max(1.0, float(np.abs(pi).max())) and self.idle_feasible:
            return _idle_plan(self.battery, n)
        return ArbitragePlan(
            charge=x[:n].copy(), discharge=x[n:2 * n].copy(), soc=x[2 * n:].copy(), profit=profit,
        )


def arbitrage(prices: Sequence[float], battery: BatteryParams, horizon: int | None = None) -> ArbitragePlan:
    """Solve the battery's price-arbitrage LP for one day.

    Raises ``InfeasibleConstraintError`` when the terminal state of charge
    is unreachable (possible for a leaky battery starting charged, since
    idling then decays below the required terminal level).  Ties at zero
    profit resolve to the idle plan whenever idling is feasible.
    """
    n = len(prices) if horizon is None else horizon
    return _BatteryLp(battery, n).plan(as_prices(prices, n))


def _validate_point(x: np.ndarray, battery: BatteryParams) -> None:
    """Check an LP point (charge, discharge, soc) against the battery."""
    tol = TOLERANCES["plan_feasibility"]
    charge, discharge, soc = np.split(x, 3)
    prev = np.concatenate([[battery.initial_soc], soc[:-1]])
    expected = battery.storage_eff * (
        prev + battery.charge_eff * charge - discharge / battery.discharge_eff
    )
    if np.any(np.abs(soc - expected) > tol):
        raise InfeasibleConstraintError("arbitrage plan violates the storage balance")
    if abs(soc[-1] - battery.initial_soc) > tol:
        raise InfeasibleConstraintError("arbitrage plan misses the terminal state of charge")
    if np.any(soc < -tol) or np.any(soc > battery.capacity + tol):
        raise InfeasibleConstraintError("arbitrage plan violates capacity bounds")


def _net_load(plans: dict[BatteryParams, ArbitragePlan], counts: dict[BatteryParams, int], horizon: int) -> np.ndarray:
    total = np.zeros(horizon)
    for battery, count in counts.items():
        total += count * plans[battery].net_load
    return total


def _storage_point(
    model: AffineDemandModel, cost: WholesaleCost, pi: np.ndarray, net: np.ndarray, eta: float
) -> TradeoffPoint:
    """cs and rp at a checked tariff, the batteries' net load included: it
    adds ``(prices - wholesale) @ net_load`` to profit and subtracts its
    energy bill ``prices @ net_load`` from consumer surplus."""
    return TradeoffPoint(
        eta=float(eta),
        price=pi,
        cs=float(_cs(model, pi)) - float(pi @ net),
        rp=float(_rp(model, pi, cost)) + float((pi - cost.mean) @ net),
    )


@dataclass(eq=False)
class StoragePricingResult:
    """Outcome of the storage-aware price search."""

    price: np.ndarray
    point: TradeoffPoint   # cs/rp include the batteries' contribution
    objective: float
    n_evals: int
    improved: bool         # beat the storage-free seed tariff
    truncated: bool        # the search hit the evaluation budget
    plans: dict            # battery spec -> its ArbitragePlan at ``price``
    lp_solves: int         # battery LPs solved by the simplex
    lp_pivots: int         # simplex pivots over those solves
    basis_reuses: int      # battery plans taken from a stored optimal basis


def optimize_price_with_storage(
    model: AffineDemandModel,
    cost: WholesaleCost,
    batteries: Sequence[BatteryParams],
    eta: float,
    max_evals: int = 4500,
) -> StoragePricingResult:
    """Search for the tariff maximizing the storage-aware objective.

    One deterministic compass search from the storage-free optimal tariff:
    its first step is 5 % of that tariff's largest price, its step floor
    1e-4, and ``max_evals`` bounds its objective evaluations.  Returns the
    best point found with convergence metadata; see the module docstring
    for what convergence means.  At ``eta = 1`` the storage-free tariff is
    returned after its one evaluation, since it is provably optimal there.
    Each distinct battery spec keeps its optimal LP bases for the length of
    this call only.
    """
    seed_price = optimal_price(model, cost, eta)
    horizon = model.horizon
    counts = Counter(batteries)
    lps = {battery: _BatteryLp(battery, horizon) for battery in counts}

    def evaluate(pi: np.ndarray) -> tuple[TradeoffPoint, dict[BatteryParams, ArbitragePlan]]:
        plans = {battery: lp.plan(pi) for battery, lp in lps.items()}
        return _storage_point(model, cost, pi, _net_load(plans, counts, horizon), eta), plans

    def objective(pi: np.ndarray) -> float:
        point, _ = evaluate(pi)
        return point.rp + eta * point.cs

    if eta == 1.0:
        # the seed is optimal here (see the module docstring): no search
        point, plans = evaluate(seed_price)
        value, n_evals, improved, truncated = point.rp + eta * point.cs, 1, False, False
    else:
        step0 = max(0.05 * float(np.abs(seed_price).max()), 1e-3)
        search = pattern_search(objective, seed_price, step0=step0, step_min=1e-4, max_evals=max_evals)
        point, plans = evaluate(search.point)
        value, n_evals, truncated = search.value, search.n_evals, search.truncated
        seed_value = search.trace[0]
        improved = value > seed_value + 1e-12 * max(1.0, abs(seed_value))
    return StoragePricingResult(
        price=point.price,
        point=point,
        objective=value,
        n_evals=n_evals,
        improved=improved,
        truncated=truncated,
        plans=plans,
        lp_solves=sum(lp.lp_solves for lp in lps.values()),
        lp_pivots=sum(lp.lp_pivots for lp in lps.values()),
        basis_reuses=sum(lp.basis_reuses for lp in lps.values()),
    )
