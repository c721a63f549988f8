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
prices), so the price search is one derivative-free compass search from the
storage-free optimum.  Each poll's 2N tariffs are evaluated as one (2N, N)
stack: plans, net load, cs and rp for all of them at once.  The search
converges when its step falls below a floor after no coordinate move of
that size improved the tariff, the standard compass-search stopping test;
it is flagged truncated if the evaluation budget runs out first.  The
result is a local optimum, not a global optimality claim.  At ``eta = 1``
the seed is already optimal, so no search runs: the storage-free objective
peaks at the wholesale mean, the batteries cannot earn the retailer more
than their arbitrage profit at wholesale prices, and every plan optimal at
that tariff earns exactly that.

The search evaluates thousands of nearby tariffs but meets only a few dozen
optimal plans.  The LP's constraints do not depend on the tariff, so an
optimal basis stays feasible everywhere and optimal on the cone of tariffs
where its reduced costs ``d_N = G @ prices`` are nonpositive; G is read off
the optimal tableau and stored dense.  Within one search, each distinct
battery spec keeps its bases most recently used first, and a tariff reuses
the first one whose reduced costs are all below
``-TOLERANCES["simplex_pivot"]``.  That strict margin makes the optimal
vertex unique, so the cold simplex would return the same plan, up to
rounding in the last bits.  Any other tariff is re-optimized by phase 2
from the last kept basis, feasible at every tariff, and the basis found is
kept if it passes the test; a tie may stop that warm start at another
optimal vertex than a cold solve's, so the cold solve answers then: phase 2
from the spec's phase-1 start, run once as it never reads the tariff.  A
poll's rows resolve in this order one after another, as single tariffs
would, but a stored basis is tested once per poll, on the whole stack, by
one 2-D product when a row first reaches it, and rows its rounding-error
bound cannot certify are tested as single tariffs.  The idle tie-break runs
on every plan; a basis's point is validated once, when the simplex finds it.
Searched tariffs are finite by construction, so cs and rp come unchecked
from the pricing kernels ``_cs`` and ``_rp``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import AffineDemandModel, as_prices
from .errors import InfeasibleConstraintError, NumericalError
from .optim import TOLERANCES, LpResult, feasible_start, pattern_search, reduced_cost_map, simplex_solve
from .pricing import WholesaleCost, _check_one_day, _cs, _rp, optimal_price


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


_EPS = float(np.finfo(float).eps)


def _strictly_optimal(entry: tuple, columns: np.ndarray, size: float) -> np.ndarray:
    """Whether all reduced costs ``G @ prices`` of a stored basis (G, its
    largest row 1-norm, x) lie below -tolerance at each tariff of a stack,
    given as its (N, k) contiguous transpose and largest |price|, as the
    single-tariff product ``prices @ G.T`` decides.  The 2-D product taken
    first errs by at most 2 gamma_N max|x| ||y||_1 per dot product x @ y
    (Higham 2002, section 3.1), within (N + 1) eps; tariffs within that of
    -tolerance (rounded outward) go to the single-tariff product."""
    g, g_norm, _ = entry
    tol = TOLERANCES["simplex_pivot"]
    margin = (columns.shape[0] + 1) * _EPS * size * g_norm
    reduced = np.maximum.reduce(g @ columns, axis=0)
    strict = reduced < math.nextafter(-tol - margin, -math.inf)
    unsure = (reduced < math.nextafter(margin - tol, math.inf)) ^ strict
    if np.count_nonzero(unsure):
        strict[unsure] = np.matmul(columns.T[unsure, np.newaxis, :], g.T)[:, 0, :].max(axis=1) < -tol
    return strict


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, M) stacks, each rounding like a 1-D dot."""
    return np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]


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
    the next warm start; a reused basis moves to the front.  A kept basis
    is stored as (G, G's largest row 1-norm, x).  The constraint arrays,
    the phase-1 start, which carries them into every solve, and the map
    from a tariff to the variables' costs (-price on charge, +price on
    discharge, zero on soc) are built once, here; an infeasible spec raises
    ``InfeasibleConstraintError`` then."""

    def __init__(self, battery: BatteryParams, horizon: int):
        n = horizon
        kappa, tau = battery.storage_eff, battery.charge_eff
        rho = battery.discharge_eff
        hours = np.arange(n)
        # Variables: charge (n), discharge (n), soc (n).
        rows = self.eq_matrix = np.zeros((n + 1, 3 * n))
        rows[hours, 2 * n + hours] = 1.0
        rows[hours, hours] = -kappa * tau
        rows[hours, n + hours] = kappa / rho
        rows[hours[1:], 2 * n + hours[:-1]] = -kappa
        rows[n, 3 * n - 1] = 1.0  # terminal soc pinned to the initial one
        rhs = self.eq_rhs = np.zeros(n + 1)
        rhs[0] = kappa * battery.initial_soc
        rhs[n] = battery.initial_soc
        self.upper = np.repeat([battery.charge_limit, battery.discharge_limit, battery.capacity], n)
        self.battery = battery
        self.horizon = n
        self.feasible = feasible_start(rows, rhs, self.upper)
        if self.feasible.status == "infeasible":
            raise InfeasibleConstraintError("battery arbitrage LP is infeasible: the terminal state of "
                                            "charge cannot be met with these losses and rate limits")
        self.cost_map = np.vstack([-np.eye(n), np.eye(n), np.zeros((n, n))])
        sizes = [1.0, battery.capacity, battery.charge_limit, battery.discharge_limit]
        self.tolerance = TOLERANCES["plan_feasibility"] * max(s for s in sizes if math.isfinite(s))
        self.idle_feasible = _idle_plan_feasible(battery, n)
        self.idle_point = np.concatenate([np.zeros(2 * n), battery.initial_soc * battery.storage_eff ** (hours + 1)])
        self.entries: list[tuple] = []  # (G, its largest row 1-norm, x)
        self.objectives = np.zeros((0, 3 * n))  # the largest stack's costs so far, reused by plans
        self.warm: LpResult | None = None  # the latest kept basis's solve
        self.lp_solves = 0
        self.lp_pivots = self.feasible.pivots
        self.basis_reuses = 0

    def plans(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal LP points (k, 3N) and profits (k,) at the tariffs of a
        (k, N) stack, resolved row by row in order; a stored basis's
        strictness test runs once, on the whole stack, when a row first
        reaches it; the rows from there that it answers take its point at
        once.  Idle on a zero-profit tie when idling is feasible."""
        n, k = self.horizon, stack.shape[0]
        points = np.empty((k, 3 * n))
        columns, size = np.ascontiguousarray(stack.T), np.abs(stack).max()
        tested = [None] * len(self.entries)  # each entry's test on the stack, then a False ending its runs
        i = 0
        while i < k:
            for index, entry in enumerate(self.entries):
                if tested[index] is None:
                    tested[index] = _strictly_optimal(entry, columns, size).tolist() + [False]
                if tested[index][i]:
                    if index:
                        self.entries.insert(0, self.entries.pop(index))
                        tested.insert(0, tested.pop(index))
                    end = tested[0].index(False, i)  # it stays first until a row it fails
                    self.basis_reuses += end - i
                    points[i:end], i = entry[-1], end
                    break
            else:
                points[i] = self._solve(stack[i])
                tested[:0] = [None] * (len(self.entries) - len(tested))  # the basis it kept, if any
                i += 1
        if len(self.objectives) < k:
            self.objectives = np.zeros((k, 3 * n))
        objectives = self.objectives[:k]  # soc columns stay zero
        np.negative(stack, out=objectives[:, :n])
        objectives[:, n:2 * n] = stack
        profits = _rowdot(objectives, points)
        if self.idle_feasible:
            idle = np.abs(profits) <= 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=1))
            if idle.any():
                points[idle], profits[idle] = self.idle_point, 0.0
        return points, profits

    def _solve(self, pi: np.ndarray) -> np.ndarray:
        objective = np.concatenate([-pi, pi, np.zeros(self.horizon)])
        self.lp_solves += 1
        # The last kept basis first, then a cold solve.  A basis tied at this
        # tariff is not kept: a tied warm start may sit at another optimal
        # vertex than the cold solve's, and a lossless battery never breaks
        # its ties, so it keeps no basis for later tariffs to scan.  Nor is a
        # basis kept twice: a stored one that passed this would be reused.
        for start in [self.warm, self.feasible] if self.warm else [self.feasible]:
            result = simplex_solve(start, objective)
            self.lp_pivots += result.pivots
            if result.status == "unbounded":
                raise NumericalError("battery arbitrage LP is unbounded: charging and discharging "
                                     "in one hour earns without limit at this tariff")
            _validate_point(result.x, self.battery, self.tolerance)
            g = reduced_cost_map(result, self.cost_map)
            entry = (g, np.abs(g).sum(axis=1).max(), result.x)
            if _strictly_optimal(entry, pi[:, np.newaxis], np.abs(pi).max())[0]:
                self.entries.insert(0, entry)
                self.warm = result
                break
        return result.x


def _plan(point: np.ndarray, profit: float) -> ArbitragePlan:
    charge, discharge, soc = np.split(point, 3)
    return ArbitragePlan(charge=charge, discharge=discharge, soc=soc, profit=float(profit))


def arbitrage(prices: Sequence[float], battery: BatteryParams) -> ArbitragePlan:
    """Solve the battery's price-arbitrage LP for one day.

    Raises ``InfeasibleConstraintError`` when the terminal state of charge
    is unreachable (a leaky battery starting charged may decay below it),
    and ``NumericalError`` when the profit is unbounded.  Ties at zero
    profit resolve to the idle plan whenever idling is feasible.
    """
    pi = as_prices(prices, len(prices))
    points, profits = _BatteryLp(battery, pi.size).plans(pi[np.newaxis])
    return _plan(points[0], profits[0])


def _validate_point(x: np.ndarray, battery: BatteryParams, tol: float) -> None:
    """Check an LP point (charge, discharge, soc) against the battery, within
    ``tol``: the spec's ``_BatteryLp.tolerance``, relative to its size."""
    n = x.size // 3
    charge, discharge, soc = x[:n], x[n:2 * n], x[2 * n:]
    expected = np.empty(n)  # the previous soc, then the balance it implies
    expected[0], expected[1:] = battery.initial_soc, soc[:-1]
    expected += battery.charge_eff * charge
    expected -= discharge / battery.discharge_eff
    expected *= battery.storage_eff
    if np.any(np.abs(soc - expected) > tol):
        raise InfeasibleConstraintError("arbitrage plan violates the storage balance")
    if abs(soc[-1] - battery.initial_soc) > tol:
        raise InfeasibleConstraintError("arbitrage plan misses the terminal state of charge")
    if np.any(soc < -tol) or np.any(soc > battery.capacity + tol):
        raise InfeasibleConstraintError("arbitrage plan violates capacity bounds")


@dataclass(eq=False)
class StoragePricingResult:
    """Outcome of the storage-aware price search."""

    price: np.ndarray
    cs: float              # cs and rp include the batteries' contribution
    rp: float
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
    _check_one_day(model)
    seed_price = optimal_price(model, cost, eta)
    horizon = model.horizon
    counts = Counter(batteries)
    lps = {battery: _BatteryLp(battery, horizon) for battery in counts}

    def evaluate(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """cs and rp at each tariff of a stack, and each spec's plans: with the batteries'
        net load n, rp gains ``(prices - wholesale) @ n`` and cs loses the bill ``prices @ n``."""
        net = np.zeros_like(stack)
        plans = {battery: lp.plans(stack) for battery, lp in lps.items()}
        for battery, (points, _) in plans.items():
            net += counts[battery] * (points[:, :horizon] - points[:, horizon:2 * horizon])
        cs = _cs(model, stack) - _rowdot(stack, net)
        rp = _rp(model, stack, cost) + _rowdot(stack - cost.mean, net)
        return cs, rp, plans

    def objective(stack: np.ndarray) -> np.ndarray:
        cs, rp, _ = evaluate(stack)
        return rp + eta * cs

    if eta == 1.0:
        # the seed is optimal here (see the module docstring): no search
        price, value, n_evals, improved, truncated = seed_price, None, 1, False, False
    else:
        step0 = max(0.05 * float(np.abs(seed_price).max()), 1e-3)
        search = pattern_search(objective, seed_price, step0=step0, step_min=1e-4, max_evals=max_evals)
        price, value, n_evals, truncated = search.point, search.value, search.n_evals, search.truncated
        seed_value = search.trace[0]
        improved = value > seed_value + 1e-12 * max(1.0, abs(seed_value))
    (cs,), (rp,), plans = evaluate(price[np.newaxis])
    cs, rp = float(cs), float(rp)
    return StoragePricingResult(
        price=price,
        cs=cs,
        rp=rp,
        objective=rp + eta * cs if value is None else value,
        n_evals=n_evals,
        improved=improved,
        truncated=truncated,
        plans={battery: _plan(points[0], profits[0]) for battery, (points, profits) in plans.items()},
        lp_solves=sum(lp.lp_solves for lp in lps.values()),
        lp_pivots=sum(lp.lp_pivots for lp in lps.values()),
        basis_reuses=sum(lp.basis_reuses for lp in lps.values()),
    )
