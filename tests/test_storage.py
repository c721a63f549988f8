"""Tests for battery arbitrage and storage-aware retail pricing."""
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import helpers
import oracles
from dahp import storage
from dahp import (
    ArbitragePlan,
    BatteryParams,
    InfeasibleConstraintError,
    NumericalError,
    WholesaleCost,
    arbitrage,
    build_consumer_model,
    expected_cs,
    expected_rp,
    optimal_price,
    optimize_price_with_storage,
)
from dahp.config import batteries_from_spec, load_config
from dahp.demand import AffineDemandModel, aggregate
from dahp.experiments import load_inputs, run_storage
from dahp.optim import feasible_start, reduced_cost_map, simplex_solve
from dahp.storage import _BatteryLp
from oracles import consumer_surplus_with_storage, population_net_load, retailer_objective_with_storage


DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"


def lossless_unit_battery():
    return BatteryParams(capacity=1.0, initial_soc=0.0, charge_limit=1.0, discharge_limit=1.0)


def test_battery_params_validation():
    with pytest.raises(ValueError):
        BatteryParams(capacity=-1.0, initial_soc=0.0)
    with pytest.raises(ValueError):
        BatteryParams(capacity=1.0, initial_soc=2.0)
    with pytest.raises(ValueError):
        BatteryParams(capacity=1.0, initial_soc=0.0, storage_eff=0.0)
    with pytest.raises(ValueError):
        BatteryParams(capacity=1.0, initial_soc=0.0, charge_eff=1.5)
    with pytest.raises(ValueError):
        BatteryParams(capacity=1.0, initial_soc=0.0, charge_limit=-0.5)
    with pytest.raises(ValueError, match="finite"):
        BatteryParams(capacity=np.inf, initial_soc=np.inf, charge_limit=1.0)
    # no bound on capacity or either rate: the arbitrage LP is unbounded
    with pytest.raises(ValueError, match="finite charge or discharge limit"):
        BatteryParams(capacity=np.inf, initial_soc=0.0)


# ---------------------------------------------------------------------------
# arbitrage LP
# ---------------------------------------------------------------------------

def test_two_hour_lossless_toy():
    plan = arbitrage(np.array([0.1, 0.3]), lossless_unit_battery())
    assert plan.profit == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(plan.charge, [1.0, 0.0], atol=1e-12)
    assert np.allclose(plan.discharge, [0.0, 1.0], atol=1e-12)
    assert np.allclose(plan.soc, [1.0, 0.0], atol=1e-12)
    assert np.allclose(plan.net_load, [1.0, -1.0], atol=1e-12)


def test_constant_price_idles():
    plan = arbitrage(np.full(4, 0.2), lossless_unit_battery())
    assert plan.profit == 0.0
    assert np.all(plan.charge == 0.0) and np.all(plan.discharge == 0.0)


def test_profit_nonnegative_when_idle_feasible():
    rng = np.random.default_rng(110)
    for _ in range(30):
        battery = helpers.random_battery(rng)
        if battery.storage_eff < 1.0 and battery.initial_soc > 1e-9:
            continue  # idling may be infeasible for a charged leaky battery
        prices = rng.uniform(0.05, 0.5, size=6)
        plan = arbitrage(prices, battery)
        assert plan.profit >= -1e-12


def test_lossy_battery_spread_breakeven():
    # profitable only when price ratio beats the round-trip loss
    battery = BatteryParams(capacity=2.0, initial_soc=0.0, storage_eff=0.95,
                            charge_eff=0.9, discharge_eff=0.9,
                            charge_limit=1.0, discharge_limit=1.0)
    round_trip = battery.storage_eff * battery.charge_eff * battery.discharge_eff
    p1 = 0.1
    below = np.array([p1, 0.99 * p1 / round_trip])
    above = np.array([p1, 1.01 * p1 / round_trip])
    assert arbitrage(below, battery).profit == pytest.approx(0.0, abs=1e-12)
    assert arbitrage(above, battery).profit > 0.0


def test_random_lossy_instances_match_grid_oracle():
    rng = np.random.default_rng(111)
    step = 0.01
    for _ in range(50):
        battery = helpers.random_battery(rng, lossy=True)
        if battery.initial_soc > 1e-9:
            battery = BatteryParams(
                capacity=battery.capacity, initial_soc=0.0,
                storage_eff=battery.storage_eff, charge_eff=battery.charge_eff,
                discharge_eff=battery.discharge_eff,
                charge_limit=battery.charge_limit, discharge_limit=battery.discharge_limit,
            )
        prices = rng.uniform(0.05, 0.6, size=2)
        lp = arbitrage(prices, battery)
        grid = oracles.battery_grid_profit(prices, battery, step=step)
        # LP at least matches the best grid point, and the grid can lag the
        # LP by at most one step's worth of objective movement
        assert lp.profit >= grid - 1e-9
        lipschitz = float(np.abs(prices).sum()) * (1.0 + 1.0 / battery.discharge_eff)
        assert lp.profit - grid <= lipschitz * step


def test_plan_respects_dynamics_and_bounds():
    rng = np.random.default_rng(112)
    for _ in range(20):
        battery = helpers.random_battery(rng)
        prices = rng.uniform(0.02, 0.5, size=24)
        try:
            plan = arbitrage(prices, battery)
        except InfeasibleConstraintError:
            assert battery.storage_eff < 1.0 and battery.initial_soc > 0.0
            continue
        soc_prev = battery.initial_soc
        for i in range(24):
            expected = battery.storage_eff * (
                soc_prev + battery.charge_eff * plan.charge[i]
                - plan.discharge[i] / battery.discharge_eff
            )
            assert plan.soc[i] == pytest.approx(expected, abs=1e-9)
            soc_prev = plan.soc[i]
        assert plan.soc[-1] == pytest.approx(battery.initial_soc, abs=1e-9)
        assert np.all(plan.soc >= -1e-9) and np.all(plan.soc <= battery.capacity + 1e-9)
        assert np.all(plan.charge <= battery.charge_limit + 1e-9)
        assert np.all(plan.discharge <= battery.discharge_limit + 1e-9)


def test_leaky_charged_battery_can_be_infeasible():
    # storage decay drains the battery every hour; with no way to recharge
    # fast enough the terminal condition is unreachable
    battery = BatteryParams(capacity=10.0, initial_soc=10.0, storage_eff=0.5,
                            charge_limit=0.0, discharge_limit=0.0)
    with pytest.raises(InfeasibleConstraintError):
        arbitrage(np.full(3, 0.1), battery)


def test_an_infeasible_battery_raises_when_its_lp_is_built(monkeypatch):
    # Phase 1 finds no start for the charged leaky battery, so building its
    # LP raises, before any tariff is planned; the start it found holds no
    # tableau, and phase 2 from it answers any objective with "infeasible".
    battery = BatteryParams(capacity=10.0, initial_soc=10.0, storage_eff=0.5,
                            charge_limit=0.0, discharge_limit=0.0)
    starts = []

    def recording(*constraints):
        starts.append(feasible_start(*constraints))
        return starts[-1]

    monkeypatch.setattr(storage, "feasible_start", recording)
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        _BatteryLp(battery, 3)
    (start,) = starts
    assert start.status == "infeasible" and start.tableau is None and start.basis is None
    res = simplex_solve(start, np.ones(9))
    assert res.status == "infeasible" and res.x is None


def test_unbounded_arbitrage_is_not_reported_as_infeasible():
    # with losses and no rate limits, charging and discharging in one hour
    # at a negative price earns without bound, though every terminal state
    # of charge is reachable
    prices = np.full(24, 0.1)
    prices[5] = -0.05
    with pytest.raises(NumericalError, match="unbounded") as raised:
        arbitrage(prices, helpers.REUSE_BATTERIES["unlimited"])
    assert not isinstance(raised.value, InfeasibleConstraintError)
    assert "terminal state" not in str(raised.value)


def test_plan_beats_random_feasible_plans():
    rng = np.random.default_rng(113)
    battery = BatteryParams(capacity=3.0, initial_soc=0.0, charge_limit=1.0, discharge_limit=1.0)
    prices = rng.uniform(0.05, 0.5, size=8)
    plan = arbitrage(prices, battery)
    for _ in range(2000):
        # random lossless round trips: charge then discharge the same amount
        charge = np.zeros(8)
        discharge = np.zeros(8)
        i, j = sorted(rng.choice(8, size=2, replace=False))
        amount = rng.uniform(0.0, 1.0)
        charge[i] = amount
        discharge[j] = amount
        profit = -float(prices @ (charge - discharge))
        assert profit <= plan.profit + 1e-9


# ---------------------------------------------------------------------------
# separation result
# ---------------------------------------------------------------------------

def test_surplus_with_storage_separates():
    rng = np.random.default_rng(114)
    for trial in range(50):
        params = helpers.random_params(rng, horizon=6)
        forecast = rng.uniform(25.0, 35.0, size=6)
        model = build_consumer_model(params, forecast)
        prices = rng.uniform(0.05, 0.5, size=6)
        battery = helpers.random_battery(rng)
        if battery.storage_eff < 1.0 and battery.initial_soc > 1e-9:
            continue
        total = consumer_surplus_with_storage(model, prices, battery)
        gain = total - expected_cs(model, prices)
        assert gain == pytest.approx(arbitrage(prices, battery).profit, abs=1e-9)
        assert gain >= -1e-12  # storage never hurts under net metering


def test_zero_capacity_battery_changes_nothing():
    rng = np.random.default_rng(115)
    params = helpers.random_params(rng, horizon=5)
    forecast = rng.uniform(25.0, 35.0, size=5)
    model = build_consumer_model(params, forecast)
    prices = rng.uniform(0.05, 0.4, size=5)
    battery = BatteryParams(capacity=0.0, initial_soc=0.0)
    assert consumer_surplus_with_storage(model, prices, battery) == pytest.approx(
        expected_cs(model, prices), abs=1e-12
    )


def test_separation_matches_joint_oracle():
    # jointly optimizing HVAC + battery must not beat the separated solution
    rng = np.random.default_rng(116)
    for _ in range(5):
        params = helpers.random_params(rng, horizon=3, noisy=False)
        forecast = rng.uniform(25.0, 35.0, size=3)
        model = build_consumer_model(params, forecast)
        prices = np.sort(rng.uniform(0.05, 0.5, size=3))[::-1].copy()  # spread prices
        battery = BatteryParams(capacity=2.0, initial_soc=0.0,
                                charge_limit=1.5, discharge_limit=1.5)
        ours = consumer_surplus_with_storage(model, prices, battery)
        joint = oracles.joint_storage_surplus(
            *oracles.thermal(params), forecast, prices, battery,
        )
        assert ours == pytest.approx(joint, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# retailer objective and price search
# ---------------------------------------------------------------------------

def test_population_net_load_dedupes_identical_specs():
    prices = np.array([0.1, 0.3])
    battery = lossless_unit_battery()
    one = population_net_load(prices, [battery], 2)
    three = population_net_load(prices, [battery] * 3, 2)
    assert np.allclose(three, 3.0 * one)


def test_retailer_objective_without_batteries_reduces():
    rng = np.random.default_rng(117)
    model, cost = helpers.random_model(rng)
    pi = cost.mean * 1.2
    eta = 0.4
    direct = expected_rp(model, pi, cost) + eta * expected_cs(model, pi)
    assert retailer_objective_with_storage(model, cost, [], pi, eta) == pytest.approx(direct, abs=1e-12)


def test_retailer_objective_constant_price_reduces():
    rng = np.random.default_rng(118)
    model, _ = helpers.random_model(rng)
    flat_cost = WholesaleCost(mean=np.full(24, 0.1))
    pi = np.full(24, 0.2)
    batteries = [lossless_unit_battery()] * 3
    eta = 0.7
    direct = expected_rp(model, pi, flat_cost) + eta * expected_cs(model, pi)
    assert retailer_objective_with_storage(model, flat_cost, batteries, pi, eta) == pytest.approx(
        direct, abs=1e-12
    )


def test_retailer_objective_recomputation_oracle():
    # two-hour toy recomputed by hand from the LP plan and closed forms
    params = helpers.random_params(np.random.default_rng(119), horizon=2, noisy=False)
    forecast = np.array([30.0, 31.0])
    model = aggregate([build_consumer_model(params, forecast)])
    cost = WholesaleCost(mean=np.array([0.1, 0.12]))
    pi = np.array([0.1, 0.3])
    battery = lossless_unit_battery()
    eta = 0.25
    plan = arbitrage(pi, battery)
    by_hand = (
        expected_rp(model, pi, cost)
        + float((pi - cost.mean) @ plan.net_load)
        + eta * (expected_cs(model, pi) - float(pi @ plan.net_load))
    )
    got = retailer_objective_with_storage(model, cost, [battery], pi, eta)
    assert got == pytest.approx(by_hand, abs=1e-12)


def test_price_search_zero_capacity_returns_seed():
    rng = np.random.default_rng(120)
    model, cost = helpers.random_model(rng)
    batteries = [BatteryParams(capacity=0.0, initial_soc=0.0)]
    result = optimize_price_with_storage(model, cost, batteries, eta=0.5, max_evals=600)
    seed = optimal_price(model, cost, 0.5)
    assert np.max(np.abs(result.price - seed)) < 1e-9
    assert not result.improved


def test_price_search_beats_seed_objective():
    rng = np.random.default_rng(121)
    model, cost = helpers.random_model(rng)
    batteries = [BatteryParams(capacity=8.0, initial_soc=0.0, charge_limit=4.0,
                               discharge_limit=4.0)] * 4
    eta = 0.0
    result = optimize_price_with_storage(model, cost, batteries, eta, max_evals=800)
    seed_value = retailer_objective_with_storage(
        model, cost, batteries, optimal_price(model, cost, eta), eta
    )
    assert result.objective >= seed_value - 1e-9
    # reported point carries the battery contribution
    net = population_net_load(result.price, batteries, 24)
    cs = expected_cs(model, result.price) - float(result.price @ net)
    rp = expected_rp(model, result.price, cost) + float((result.price - cost.mean) @ net)
    assert result.cs == pytest.approx(cs, abs=1e-9)
    assert result.rp == pytest.approx(rp, abs=1e-9)


def test_price_search_two_hour_toy_matches_grid():
    # two-hour aggregate model, one lossless battery: exhaustive price grid
    two_hour = dataclasses.replace(helpers.toy3_params(), desired_temp=[np.full(2, 20.0)])
    forecast = np.full(2, 32.0)
    model = aggregate([build_consumer_model(two_hour, forecast)])
    cost = WholesaleCost(mean=np.array([0.08, 0.12]))
    battery = lossless_unit_battery()
    eta = 0.0

    result = optimize_price_with_storage(model, cost, [battery], eta, max_evals=3000)

    # vectorized closed-form grid of the same objective at 0.001 resolution:
    # profit + markup on the battery plan, where the lossless plan charges at
    # the cheap hour and discharges at the dear one only if the spread pays
    grid = np.arange(0.0, 0.6, 0.001)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    g, b = model.gain, model.intercept_mean
    d1 = b[0] - g[0, 0] * p1 - g[0, 1] * p2
    d2 = b[1] - g[1, 0] * p1 - g[1, 1] * p2
    base = (p1 - cost.mean[0]) * d1 + (p2 - cost.mean[1]) * d2
    # the battery runs (net load (1, -1)) only when hour two is dearer,
    # adding markup (p1 - l1) - (p2 - l2) to the retailer
    markup = np.where(p2 > p1, (p1 - cost.mean[0]) - (p2 - cost.mean[1]), 0.0)
    objective_grid = base + markup
    best_grid = float(objective_grid.max())
    assert result.objective >= best_grid - 0.01 * max(1.0, abs(best_grid))


def test_price_search_result_metadata():
    rng = np.random.default_rng(122)
    model, cost = helpers.random_model(rng)
    batteries = [lossless_unit_battery()]
    # eta < 1: at eta = 1 no search runs, so no budget can truncate it
    result = optimize_price_with_storage(model, cost, batteries, eta=0.5,
                                         max_evals=30)  # tiny budget
    assert result.truncated
    assert result.n_evals == 30


# ---------------------------------------------------------------------------
# optimal-basis reuse
# ---------------------------------------------------------------------------

REUSE_BATTERIES = helpers.REUSE_BATTERIES


def _compass_walk(rng, start, step, moves):
    """Tariffs visited by a compass search: one coordinate moves by +/- step
    at a time, and the step halves every so often."""
    pi = start.copy()
    yield pi.copy()
    for k in range(moves):
        pi[rng.integers(pi.size)] += step * rng.choice([-1.0, 1.0])
        if k % 40 == 39:
            step *= 0.5
        yield pi.copy()


def _plan_at(lp, pi):
    """The plan of ``lp`` at one tariff, evaluated as a one-row stack."""
    points, profits = lp.plans(pi[np.newaxis])
    return storage._plan(points[0], profits[0])


def _assert_same_plan(got, cold, battery):
    """Same vertex as the cold solve.  A stored basis was reached by another
    pivot path, so its values may differ from the cold ones by rounding:
    a few ulps of the largest quantity in the plan."""
    atol = 64 * np.finfo(float).eps * battery.capacity
    for name in ("charge", "discharge", "soc"):
        assert np.allclose(getattr(got, name), getattr(cold, name), rtol=0.0, atol=atol), name
    assert got.profit == pytest.approx(cold.profit, rel=0.0, abs=atol)


@pytest.mark.parametrize("name", sorted(REUSE_BATTERIES))
def test_reused_basis_matches_cold_solve_along_compass_walk(name):
    battery = REUSE_BATTERIES[name]
    rng = np.random.default_rng(130)
    base = helpers.DEFAULT_WHOLESALE * 1.3
    starts = [base, np.full(24, 0.12), np.round(base, 2)]  # spread, constant, tied hours
    lp = _BatteryLp(battery, 24)
    for start in starts:
        for pi in _compass_walk(rng, start, 0.01, 120):
            _assert_same_plan(_plan_at(lp, pi), arbitrage(pi, battery), battery)
    assert lp.basis_reuses + lp.lp_solves == 3 * 121
    if battery.charge_eff * battery.discharge_eff == 1.0:
        # charging and discharging the same amount in one hour changes
        # nothing, so no optimal vertex is unique: nothing is reused, and
        # nothing is kept for later tariffs to scan
        assert lp.basis_reuses == 0 and lp.entries == [] and lp.warm is None
    else:
        assert lp.basis_reuses > 0


def _poll(pi, step):
    """A compass poll around ``pi``: +/- step along each hour in turn."""
    poll = np.repeat(pi[np.newaxis], 2 * pi.size, axis=0)
    poll[np.arange(2 * pi.size), np.repeat(np.arange(pi.size), 2)] += np.tile([1.0, -1.0], pi.size) * step
    return poll


def _same_entry(a, b):
    return all(np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("name", sorted(REUSE_BATTERIES))
def test_poll_stack_matches_its_rows_one_at_a_time(name):
    # Polls around every 40th tariff of the compass walk above: one call on
    # the whole stack must give each row's plan bit for bit, and leave the
    # stored bases, the warm start and the counters as one call per row does.
    battery = REUSE_BATTERIES[name]
    rng = np.random.default_rng(130)
    base = helpers.DEFAULT_WHOLESALE * 1.3
    stacked, single = _BatteryLp(battery, 24), _BatteryLp(battery, 24)
    for start in [base, np.full(24, 0.12), np.round(base, 2)]:
        for pi in list(_compass_walk(rng, start, 0.01, 120))[::40]:
            poll = _poll(pi, 0.01)
            points, profits = stacked.plans(poll)
            rows = [single.plans(row[np.newaxis]) for row in poll]
            assert points.tobytes() == np.concatenate([p for p, _ in rows]).tobytes()
            assert profits.tobytes() == np.concatenate([q for _, q in rows]).tobytes()
    counters = ("lp_solves", "lp_pivots", "basis_reuses")
    assert [getattr(stacked, c) for c in counters] == [getattr(single, c) for c in counters]
    assert len(stacked.entries) == len(single.entries)
    assert all(_same_entry(a, b) for a, b in zip(stacked.entries, single.entries))
    assert (stacked.warm is None) == (single.warm is None)
    if stacked.warm is not None:
        assert stacked.warm.x.tobytes() == single.warm.x.tobytes()
        assert np.array_equal(stacked.warm.basis, single.warm.basis)


def test_stacked_kernels_round_like_one_tariff_at_a_time():
    # The poll stacks rest on two numpy behaviours.  A (1, M) @ (M, 1)
    # matmul row gives the bits of the 1-D dot it replaces (the profits).
    # Each row of the stacked matmul (k, 1, N) @ (N, h) gives the bits of
    # the single-tariff product ``pi @ G.T``, whichever rows share its
    # stack: the strictness test decides its uncertain rows by it.  The 2-D
    # product that test takes first may round otherwise; it is relied on
    # only to stay within 2 gamma_N |pi| @ |G_j| of the single-tariff one.
    rng = np.random.default_rng(135)
    for m in (24, 72):
        a, b = rng.normal(size=(2, 500, m)) * rng.uniform(0.0, 10.0, size=(2, 500, 1))
        assert [float(x) for x in storage._rowdot(a, b)] == [float(x @ y) for x, y in zip(a, b)]
    u = np.finfo(float).eps / 2
    gamma = 24 * u / (1 - 24 * u)
    for height in (1, 40, 72):
        g = rng.normal(size=(height, 24)) * rng.uniform(0.0, 10.0, size=(height, 1))
        stack = rng.uniform(0.05, 0.3, size=(48, 24))
        single = np.array([pi @ g.T for pi in stack])
        assert np.matmul(stack[:, np.newaxis, :], g.T)[:, 0, :].tobytes() == single.tobytes()
        some = rng.permutation(48)[:7]
        assert np.matmul(stack[some, np.newaxis, :], g.T)[:, 0, :].tobytes() == single[some].tobytes()
        two_d = (g @ np.ascontiguousarray(stack.T)).T
        assert np.all(np.abs(two_d - single) <= 2 * gamma * (np.abs(stack) @ np.abs(g).T))


def _decide(g, stack):
    """``_strictly_optimal`` of a stored basis with map G, at a stack."""
    entry = (g, np.abs(g).sum(axis=1).max(), None)
    return storage._strictly_optimal(entry, np.ascontiguousarray(stack.T), np.abs(stack).max())


def _near_tolerance(rng, cancelling):
    """A map G and a stack whose largest reduced cost, in row 0 of G, lies
    within a few ulps of -tolerance at every tariff (``cancelling``: O(1)
    terms sum to it, within their rounding); the stack scales one tariff by
    1 + k eps, for k in -8..8, so the decisions go both ways.  The other
    rows of G are far below -tolerance."""
    tol = storage.TOLERANCES["simplex_pivot"]
    pi = rng.uniform(0.05, 0.3, size=24)
    g = -rng.uniform(0.5, 1.0, size=(int(rng.integers(1, 72)), 24))
    v = rng.normal(size=24)
    if cancelling:
        v[0] -= (pi @ v + tol) / pi[0]
    else:
        v *= -tol / (pi @ v)
    g[0] = v
    stack = pi * (1.0 + np.arange(-8, 9)[:, np.newaxis] * np.finfo(float).eps)
    return g, stack


def test_certified_strictness_matches_the_single_tariff_product():
    # Each decision must be the single-tariff product's: the 2-D product's
    # where it clears -tolerance by the error bound, the single-tariff
    # product's elsewhere.  Random rows: reduced-cost maps of battery bases
    # on compass polls around their tariffs, decided both ways, nearly all
    # by the 2-D product.  Near rows: every reduced cost within a few ulps
    # of -tolerance, all decided by the single-tariff product.
    tol = storage.TOLERANCES["simplex_pivot"]
    rng = np.random.default_rng(138)
    decided = set()
    for battery in REUSE_BATTERIES.values():
        lp = _BatteryLp(battery, 24)
        for _ in range(6):
            pi = rng.uniform(0.05, 0.3, size=24)
            result = simplex_solve(lp.feasible, np.concatenate([-pi, pi, np.zeros(24)]))
            g = reduced_cost_map(result, lp.cost_map)
            for step in (1e-4, 1e-2, 0.1):
                stack = _poll(pi, step)
                got = _decide(g, stack)
                assert got.tobytes() == oracles.strictly_optimal_by_rows(g, stack, tol).tobytes()
                assert got.tobytes() == _decide(g, stack[::-1])[::-1].tobytes()
                decided.update(got.tolist())
    assert decided == {True, False}
    for cancelling, within in [(False, 32 * np.spacing(tol)), (True, 1e-14)]:
        decided = set()
        for _ in range(30):
            g, stack = _near_tolerance(rng, cancelling)
            expected = oracles.strictly_optimal_by_rows(g, stack, tol)
            assert _decide(g, stack).tobytes() == expected.tobytes()
            assert [bool(_decide(g, pi[np.newaxis])[0]) for pi in stack] == expected.tolist()
            assert np.abs(np.array([pi @ g[0] for pi in stack]) + tol).max() <= within
            decided.update(expected.tolist())
        assert decided == {True, False}


def test_reduced_cost_map_matches_the_tableau():
    # G @ pi must give the tableau's nonbasic reduced costs at the solving
    # tariff, and c_N - c_B (B^-1 A)_N from the same tableau at any other:
    # reuse rests on G holding at every tariff.
    rng = np.random.default_rng(131)
    for battery in REUSE_BATTERIES.values():
        lp = _BatteryLp(battery, 24)
        for _ in range(5):
            pi, pi2 = rng.uniform(0.05, 0.3, size=(2, 24))
            result = simplex_solve(lp.feasible, np.concatenate([-pi, pi, np.zeros(24)]))
            g = reduced_cost_map(result, lp.cost_map)
            inverse_a = result.tableau[:-1, :-1]
            nonbasic = np.ones(inverse_a.shape[1], dtype=bool)
            nonbasic[result.basis] = False
            assert g.shape == (np.count_nonzero(nonbasic), 24)
            assert np.allclose(g @ pi, result.tableau[-1, :-1][nonbasic], rtol=0.0, atol=1e-14)
            cost = np.zeros(inverse_a.shape[1])
            cost[:48] = np.concatenate([-pi2, pi2])
            expected = cost[nonbasic] - cost[result.basis] @ inverse_a[:, nonbasic]
            assert np.allclose(g @ pi2, expected, rtol=0.0, atol=1e-14)


def _verdict(check, *args) -> str | None:
    """The plan check's rejection message, or None when it accepts."""
    try:
        check(*args)
    except InfeasibleConstraintError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(REUSE_BATTERIES))
def test_array_kernels_match_their_references(name):
    # At 100 seeded tariffs per spec, from cold and warm starts: G from the
    # boolean mask of nonbasic columns is bitwise the np.delete form's, and
    # the plan check at the spec's tolerance accepts and rejects as the
    # split form does, on the solved point, on one moved by up to three
    # tolerances in one coordinate, and on one whose state of charge moves
    # by as much from hour 0 on, bought in hour 0 (a balance kept within
    # (1 - storage_eff) of that, so the terminal check decides).
    battery = REUSE_BATTERIES[name]
    lp = _BatteryLp(battery, 24)
    rng = np.random.default_rng(139)
    plan_feasibility = storage.TOLERANCES["plan_feasibility"]
    start, verdicts = lp.feasible, set()
    for _ in range(100):
        pi = rng.uniform(0.05, 0.3, size=24)
        result = simplex_solve(start, np.concatenate([-pi, pi, np.zeros(24)]))
        g = reduced_cost_map(result, lp.cost_map)
        assert g.tobytes() == oracles.reduced_cost_map_by_delete(result, lp.cost_map).tobytes()
        moved = result.x.copy()
        moved[rng.integers(72)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 3.0) * lp.tolerance
        shifted, delta = result.x.copy(), rng.uniform(-3.0, 3.0) * lp.tolerance
        shifted[48:] += delta
        shifted[0] += delta / (battery.storage_eff * battery.charge_eff)
        for point in (result.x, moved, shifted):
            verdict = _verdict(storage._validate_point, point, battery, lp.tolerance)
            assert verdict == _verdict(oracles.validate_point_by_split, point, battery, plan_feasibility)
            verdicts.add(verdict)
        start = result if start is lp.feasible else lp.feasible
    assert None in verdicts and any("terminal" in str(verdict) for verdict in verdicts)


def test_tied_prices_refuse_reuse():
    battery = REUSE_BATTERIES["lossy"]
    lp = _BatteryLp(battery, 24)
    spread = helpers.DEFAULT_WHOLESALE * 1.3
    _plan_at(lp, spread)
    _plan_at(lp, spread)
    assert (lp.lp_solves, lp.basis_reuses) == (1, 1)
    # a flat tariff, or a tie between the cheapest and the dearest hour,
    # leaves no stored basis strictly optimal, so none may answer for it
    # (the warm start then finds a strictly optimal basis of its own)
    tied = spread.copy()
    tied[np.argmin(tied)] = tied.max()
    for pi in (np.full(24, 0.2), tied):
        solves = lp.lp_solves
        _assert_same_plan(_plan_at(lp, pi), arbitrage(pi, battery), battery)
        assert lp.lp_solves == solves + 1
    assert lp.basis_reuses == 1 and len(lp.entries) == 3


def test_tied_prices_fall_back_to_the_cold_solve(monkeypatch):
    # Without rate limits or decay, hours at one price are interchangeable:
    # at a flat tariff, and at one rounded to cents, the warm start stops at
    # a basis with a zero reduced cost.  Its vertex need not be the cold
    # solve's, so the cold solve answers: the plan is arbitrage(pi)'s, bit
    # for bit.
    starts = []

    def recording(start, objective):
        starts.append(start is lp.feasible)
        return simplex_solve(start, objective)

    monkeypatch.setattr(storage, "simplex_solve", recording)
    battery = REUSE_BATTERIES["unlimited"]
    lp = _BatteryLp(battery, 24)
    spread = helpers.DEFAULT_WHOLESALE * 1.3
    _plan_at(lp, spread)
    kept = lp.warm
    assert kept is not None and starts == [True]
    for pi in (np.full(24, 0.2), np.round(spread, 2)):
        starts.clear()
        got = _plan_at(lp, pi)
        assert starts == [False, True]
        cold = arbitrage(pi, battery)
        for name in ("charge", "discharge", "soc"):
            assert getattr(got, name).tobytes() == getattr(cold, name).tobytes(), name
        assert got.profit == cold.profit
    assert lp.warm is kept and lp.lp_solves == 3


def test_phase_one_runs_once_per_spec_and_its_start_is_never_mutated(monkeypatch):
    # A lossless battery keeps no basis, so every plan along the walk is a
    # cold solve: phase 2 from the spec's one phase-1 start, on a copy of it.
    problems = []

    def counting(*constraints):
        problems.append(constraints)
        return feasible_start(*constraints)

    monkeypatch.setattr(storage, "feasible_start", counting)
    lp = _BatteryLp(REUSE_BATTERIES["lossless"], 24)
    for pi in _compass_walk(np.random.default_rng(136), helpers.DEFAULT_WHOLESALE * 1.3, 0.01, 120):
        _plan_at(lp, pi)
    assert (lp.lp_solves, lp.basis_reuses) == (121, 0)
    assert len(problems) == 1
    assert all(given is kept for given, kept in zip(problems[0], (lp.eq_matrix, lp.eq_rhs, lp.upper), strict=True))
    fresh = feasible_start(lp.eq_matrix, lp.eq_rhs, lp.upper)
    assert lp.feasible.tableau.tobytes() == fresh.tableau.tobytes()
    assert np.array_equal(lp.feasible.basis, fresh.basis)
    # a search plans each distinct spec through one _BatteryLp
    problems.clear()
    model, cost = helpers.random_model(np.random.default_rng(137))
    batteries = [REUSE_BATTERIES["lossless"]] * 2 + [REUSE_BATTERIES["lossy"]]
    optimize_price_with_storage(model, cost, batteries, eta=0.5, max_evals=100)
    assert len(problems) == 2


def test_warm_start_keeps_the_latest_strict_basis():
    battery = REUSE_BATTERIES["lossy"]
    lp = _BatteryLp(battery, 24)
    spread = helpers.DEFAULT_WHOLESALE * 1.3
    _plan_at(lp, spread)
    cold_pivots = lp.lp_pivots
    # the cheapest and the dearest hour swap: the stored basis is not
    # optimal there, so the simplex re-optimizes from it
    swapped = spread.copy()
    low, high = np.argmin(swapped), np.argmax(swapped)
    swapped[[low, high]] = swapped[[high, low]]
    _assert_same_plan(_plan_at(lp, swapped), arbitrage(swapped, battery), battery)
    assert (lp.lp_solves, lp.basis_reuses, len(lp.entries)) == (2, 0, 2)
    assert 0 < lp.lp_pivots - cold_pivots < cold_pivots
    assert lp.warm.x is lp.entries[0][-1]


def test_infeasible_leaky_battery_still_raises_with_stored_bases():
    battery = BatteryParams(capacity=10.0, initial_soc=10.0, storage_eff=0.5,
                            charge_limit=0.0, discharge_limit=0.0)
    for _ in range(2):  # each build runs phase 1 afresh, and raises
        with pytest.raises(InfeasibleConstraintError):
            _BatteryLp(battery, 24)
    model, cost = helpers.random_model(np.random.default_rng(132))
    with pytest.raises(InfeasibleConstraintError):
        optimize_price_with_storage(model, cost, [battery], eta=0.5, max_evals=20)


def test_back_to_back_searches_are_identical():
    rng = np.random.default_rng(133)
    model, cost = helpers.random_model(rng)
    batteries = [REUSE_BATTERIES["lossy"]] * 3 + [REUSE_BATTERIES["unlimited"]]
    first, second = (
        optimize_price_with_storage(model, cost, batteries, eta=0.5, max_evals=200)
        for _ in range(2)
    )
    assert first.price.tobytes() == second.price.tobytes()
    assert first.objective == second.objective
    assert (first.n_evals, first.lp_solves, first.lp_pivots, first.basis_reuses) == (
        second.n_evals, second.lp_solves, second.lp_pivots, second.basis_reuses)
    # every evaluation and the final point plan each spec once
    assert first.lp_solves + first.basis_reuses == 2 * (first.n_evals + 1)
    assert first.basis_reuses > first.lp_solves
    for battery in set(batteries):
        _assert_same_plan(first.plans[battery], arbitrage(first.price, battery), battery)


@pytest.mark.parametrize("name", sorted(REUSE_BATTERIES))
def test_search_at_eta_one_keeps_the_wholesale_mean(name):
    # Q(lambda) + count * A(lambda) bounds the objective, where Q is the
    # storage-free rp + cs (peaked at the wholesale mean lambda) and A is one
    # battery's best arbitrage profit at wholesale prices; every plan optimal
    # at lambda earns A(lambda), so the seed lambda attains the bound.
    model, cost = helpers.random_model(np.random.default_rng(134))
    result = optimize_price_with_storage(model, cost, [REUSE_BATTERIES[name]] * 3, eta=1.0)
    assert result.price.tobytes() == cost.mean.tobytes()
    assert not result.improved and not result.truncated


def test_eta_one_returns_the_seed_without_a_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("pattern_search ran at eta = 1")

    monkeypatch.setattr(storage, "pattern_search", no_search)
    model, cost = helpers.random_model(np.random.default_rng(134))
    batteries = [REUSE_BATTERIES["lossy"]] * 3
    result = optimize_price_with_storage(model, cost, batteries, eta=1.0)
    assert (result.n_evals, result.improved, result.truncated, result.lp_solves) == (1, False, False, 1)
    assert result.price.tobytes() == cost.mean.tobytes()
    assert result.objective == retailer_objective_with_storage(model, cost, batteries, cost.mean, 1.0)


def test_demo_searches_finish_within_budget():
    config = load_config(DEMO)
    config.storage.eta_grid = [0.0, 0.5]
    _, counters = run_storage(config, *load_inputs(config))
    assert [search["truncated"] for search in counters["storage_search"]] == [False, False]


def test_demo_searches_plan_each_evaluation_once():
    # The demo's batteries share one spec: every evaluation of a search and
    # its final point take that spec's plan once, from a solve or a stored
    # basis; at eta = 1 only the final point is planned.
    config = load_config(DEMO)
    _, counters = run_storage(config, *load_inputs(config))
    for search in counters["storage_search"]:
        planned = search["lp_solves"] + search["basis_reuses"]
        assert planned == (search["n_evals"] + 1 if search["eta"] < 1 else 1), search


def test_demo_search_pivots_stay_within_budget():
    # Warm starts re-optimize in about 5 pivots where a cold solve, phase 2
    # from the spec's feasible start, takes about 41 (phase 1, 26 pivots,
    # runs once per spec); 15 per solve leaves room for the cold fallbacks.
    config = load_config(DEMO)
    config.storage.eta_grid = [0.5]
    _, counters = run_storage(config, *load_inputs(config))
    (search,) = counters["storage_search"]
    assert 0 < search["lp_pivots"] <= 15 * search["lp_solves"]


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.75])
def test_demo_search_endpoint_survives_a_last_bit_change(eta):
    # storage.csv states rp + eta * cs to 2e-4 and each price to 1e-3: a
    # one-ulp change of the gain's diagonal, the size of a solver's rounding
    # difference, may move the search's endpoint only that far.  (At some
    # of these weights it does move, by about 1e-4 in price and 0.1 in cs.)
    config = load_config(DEMO)
    model, cost = helpers.mean_day_market(config)
    gain = model.gain.copy()
    diagonal = np.diag_indices_from(gain)
    gain[diagonal] = np.nextafter(gain[diagonal], np.inf)
    nudged = AffineDemandModel(gain=gain, intercept_mean=model.intercept_mean,
                               intercept_cov=model.intercept_cov, cs_constant=model.cs_constant)
    assert not np.array_equal(nudged.zero_demand_price, model.zero_demand_price)
    batteries = batteries_from_spec(config.storage)
    base, moved = (optimize_price_with_storage(m, cost, batteries, eta) for m in (model, nudged))
    assert not (base.truncated or moved.truncated)
    assert abs(moved.objective - base.objective) <= 2e-4
    assert np.abs(moved.price - base.price).max() <= 1e-3


@pytest.mark.parametrize("limit", ["charge_limit", "discharge_limit", "capacity"])
def test_battery_params_reject_nan_rate_limits(limit):
    with pytest.raises(ValueError):
        BatteryParams(**{"capacity": 1.0, "initial_soc": 0.0, limit: np.nan})


@pytest.mark.parametrize("limit", ["charge_limit", "discharge_limit"])
def test_unlimited_capacity_with_one_rate_limit_is_bounded(limit):
    battery = BatteryParams(capacity=np.inf, initial_soc=0.0, charge_eff=0.9, **{limit: 2.0})
    plan = arbitrage(helpers.DEFAULT_WHOLESALE, battery)
    assert 0.0 < plan.profit < np.inf
    limited = plan.charge if limit == "charge_limit" else plan.discharge
    assert limited.max() <= 2.0 + 1e-9


def _check_point(point: np.ndarray, battery: BatteryParams) -> None:
    """The plan check of ``point`` at the battery spec's own tolerance."""
    storage._validate_point(point, battery, _BatteryLp(battery, point.size // 3).tolerance)


@pytest.mark.parametrize("capacity", [1e3, 1e5, 1e7, 1e8, 1e10])
def test_large_batteries_match_linprog(capacity):
    # The plan check's tolerance grows with the battery: a 1e7 kWh plan
    # balances to about 4e-9 kWh, 4e-16 of its size, which an absolute 1e-9
    # rejected.  A plan off by 10 tolerances still fails.
    battery = BatteryParams(capacity=capacity, initial_soc=0.0, charge_eff=0.95, discharge_eff=0.95,
                            charge_limit=capacity / 2, discharge_limit=capacity / 2)
    prices = helpers.DEFAULT_WHOLESALE
    plan = arbitrage(prices, battery)
    lp = _BatteryLp(battery, 24)
    reference = linprog(np.concatenate([prices, -prices, np.zeros(24)]), A_eq=lp.eq_matrix,
                        b_eq=lp.eq_rhs, bounds=[(0.0, u) for u in lp.upper], method="highs")
    assert reference.status == 0
    assert plan.profit == pytest.approx(-reference.fun, rel=1e-9)
    point = np.concatenate([plan.charge, plan.discharge, plan.soc])
    _check_point(point, battery)
    for hour in (0, 11, 23):
        off = point.copy()
        off[48 + hour] += 10 * storage.TOLERANCES["plan_feasibility"] * capacity
        with pytest.raises(InfeasibleConstraintError):
            _check_point(off, battery)


def _one_charge_point(amount: float, discharged_at_end: bool) -> np.ndarray:
    """A lossless 24-hour (charge, discharge, soc) point that charges
    ``amount`` in hour 0 and holds it, or discharges it in the last hour."""
    charge, discharge = np.zeros(24), np.zeros(24)
    charge[0] = amount
    discharge[-1] = amount if discharged_at_end else 0.0
    return np.concatenate([charge, discharge, np.cumsum(charge - discharge)])


def test_plan_check_rejects_a_missed_terminal_state_of_charge():
    battery = BatteryParams(capacity=10.0, initial_soc=0.0)
    _check_point(_one_charge_point(4.0, True), battery)
    with pytest.raises(InfeasibleConstraintError, match="terminal state of charge"):
        _check_point(_one_charge_point(4.0, False), battery)


def test_plan_check_rejects_a_state_of_charge_above_capacity():
    battery = BatteryParams(capacity=10.0, initial_soc=0.0)
    _check_point(_one_charge_point(10.0, True), battery)
    with pytest.raises(InfeasibleConstraintError, match="capacity bounds"):
        _check_point(_one_charge_point(10.5, True), battery)
