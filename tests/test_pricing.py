"""Tests for surplus/profit evaluation, optimal tariffs, and the trade-off front."""
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
import oracles
from dahp import (
    InfeasibleConstraintError,
    NumericalError,
    RenewableModel,
    WholesaleCost,
    benchmark_trace,
    benefit_split,
    expected_cs,
    expected_rp,
    expected_rp_renewable,
    optimal_price,
    optimal_price_renewable,
    optimize_price_with_storage,
    pareto_front,
    population_model,
    profit_upper_bound,
)
from dahp.config import load_config
from dahp.pricing import _front_geometry
from oracles import NegativeDemandWarning

DEMO = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"


def test_wholesale_cost_validation():
    with pytest.raises(ValueError):
        WholesaleCost(mean=np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        WholesaleCost(mean=np.array([0.1, np.inf]))
    cost = WholesaleCost(mean=np.array([0.1, 0.2]))
    assert cost.horizon == 2


# ---------------------------------------------------------------------------
# scalar worked examples (hand arithmetic, one-hour model)
# ---------------------------------------------------------------------------

def test_one_hour_cs_value():
    model = helpers.one_hour_model(gain=100.0, intercept=50.0)
    # 100 * 0.04 / 2 - 0.2 * 50 = 2 - 10 = -8
    assert expected_cs(model, [0.2]) == pytest.approx(-8.0, abs=1e-14)


def test_one_hour_rp_value():
    model = helpers.one_hour_model(gain=100.0, intercept=50.0)
    cost = WholesaleCost(mean=[0.1])
    # (0.3 - 0.1) * (-30 + 50) = 4
    assert expected_rp(model, [0.3], cost) == pytest.approx(4.0, abs=1e-14)


def test_one_hour_optimal_price_against_grid_oracle():
    model = helpers.one_hour_model(gain=100.0, intercept=50.0)
    cost = WholesaleCost(mean=[0.1])
    price = optimal_price(model, cost, 0.5)
    # closed blend: (2/3) * 0.1 + (1/3) * 0.5 = 7/30
    assert price[0] == pytest.approx(7.0 / 30.0, abs=1e-14)
    grid = oracles.scalar_optimal_price(100.0, 50.0, 0.1, 0.5)
    assert price[0] == pytest.approx(grid, abs=1e-6)


def test_one_hour_profit_greedy_against_grid_oracle():
    model = helpers.one_hour_model(gain=100.0, intercept=50.0)
    cost = WholesaleCost(mean=[0.1])
    price = optimal_price(model, cost, 0.0)
    assert price[0] == pytest.approx(0.5 * 0.1 + 0.5 * 0.5, abs=1e-14)
    grid = oracles.scalar_optimal_price(100.0, 50.0, 0.1, 0.0)
    assert price[0] == pytest.approx(grid, abs=1e-6)


# ---------------------------------------------------------------------------
# welfare point and squeezes
# ---------------------------------------------------------------------------

def test_welfare_price_equals_wholesale_bitwise():
    rng = np.random.default_rng(70)
    for _ in range(20):
        model, cost = helpers.random_model(rng)
        price = optimal_price(model, cost, 1.0)
        assert np.array_equal(price, cost.mean)
        assert abs(expected_rp(model, price, cost)) < 1e-10


def test_rp_zero_at_zero_demand_price():
    rng = np.random.default_rng(71)
    model, cost = helpers.random_model(rng)
    zero_demand_price = model.solve(model.intercept_mean)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeDemandWarning)
        assert abs(expected_rp(model, zero_demand_price, cost)) < 1e-8


def test_cs_at_zero_price_is_constant_term():
    rng = np.random.default_rng(72)
    model, _ = helpers.random_model(rng)
    assert expected_cs(model, np.zeros(24)) == pytest.approx(model.cs_constant, abs=1e-12)


def test_eta_validation():
    rng = np.random.default_rng(73)
    model, cost = helpers.random_model(rng)
    for bad in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            optimal_price(model, cost, bad)


def test_horizon_mismatch_rejected():
    rng = np.random.default_rng(74)
    model, _ = helpers.random_model(rng)
    with pytest.raises(ValueError):
        expected_rp(model, np.zeros(24), WholesaleCost(mean=np.full(23, 0.1)))


def test_rp_concave_in_price():
    rng = np.random.default_rng(75)
    model, cost = helpers.random_model(rng)
    base = rng.uniform(0.0, 0.3, size=24)
    for _ in range(50):
        direction = rng.normal(size=24)
        h = 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDemandWarning)
            second_diff = (
                expected_rp(model, base + h * direction, cost)
                - 2.0 * expected_rp(model, base, cost)
                + expected_rp(model, base - h * direction, cost)
            )
        assert second_diff <= 1e-9


def test_welfare_inequality_over_random_prices():
    # any tariff with nonnegative profit gives consumers no more surplus
    # than pricing at wholesale cost does
    rng = np.random.default_rng(76)
    model, cost = helpers.random_model(rng)
    cs_at_wholesale = expected_cs(model, cost.mean)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeDemandWarning)
        while checked < 200:
            pi = cost.mean * rng.uniform(0.5, 2.0, size=24)
            if expected_rp(model, pi, cost) < 0.0:
                continue
            assert expected_cs(model, pi) <= cs_at_wholesale + 1e-9
            checked += 1


# ---------------------------------------------------------------------------
# front geometry
# ---------------------------------------------------------------------------

def test_one_hour_front_geometry_frozen_values():
    # gain 100, intercept 50, wholesale 0.1: gap = 0.4, q = 16, k = -12.5
    model = helpers.one_hour_model(gain=100.0, intercept=50.0)
    cost = WholesaleCost(mean=[0.1])
    _, cs0, rp0 = helpers.front_point(model, cost, 0.0)
    _, cs1, rp1 = helpers.front_point(model, cost, 1.0)
    assert cs0 == pytest.approx(16.0 / 8.0 - 12.5, abs=1e-12)     # -10.5
    assert rp0 == pytest.approx(16.0 / 4.0, abs=1e-12)            # 4
    assert cs1 == pytest.approx(16.0 / 2.0 - 12.5, abs=1e-12)     # -4.5
    assert rp1 == pytest.approx(0.0, abs=1e-14)


def test_front_shape_and_slopes():
    rng = np.random.default_rng(77)
    model, cost = helpers.random_model(rng)
    front = pareto_front(model, cost)
    assert len(front.param) == len(front.price) == 101
    cs, rp = front.cs, front.rp
    assert np.all(np.diff(cs) > 0)          # cs strictly increasing in eta
    assert np.all(np.diff(rp) <= 1e-12)     # rp non-increasing
    assert abs(rp[-1]) < 1e-10              # welfare endpoint
    assert rp[0] == max(rp)                 # profit-greedy endpoint
    slopes = np.diff(rp) / np.diff(cs)
    etas = front.param
    mid_eta = 0.5 * (etas[:-1] + etas[1:])
    assert np.max(np.abs(slopes + mid_eta)) < 0.02
    # discrete concavity of rp as a function of cs
    second = np.diff(slopes)
    assert np.all(second <= 1e-8 * max(1.0, np.abs(rp).max()))


def test_front_single_point_grid():
    rng = np.random.default_rng(78)
    model, cost = helpers.random_model(rng)
    front = pareto_front(model, cost, eta_grid=[1.0])
    assert len(front.param) == len(front.price) == 1
    assert abs(front.rp[0]) < 1e-10


def test_front_rejects_bad_grid():
    rng = np.random.default_rng(79)
    model, cost = helpers.random_model(rng)
    with pytest.raises(ValueError):
        pareto_front(model, cost, eta_grid=[0.5, 0.2])
    with pytest.raises(ValueError):
        pareto_front(model, cost, eta_grid=[0.5, 1.5])
    with pytest.raises(ValueError):
        pareto_front(model, cost, eta_grid=[])


def test_profit_bound_at_or_below_the_greedy_surplus_is_the_greedy_profit():
    model, cost = helpers.random_model(np.random.default_rng(81))
    q, k = _front_geometry(model, cost)
    _, cs_greedy, rp_greedy = helpers.front_point(model, cost, 0.0)
    assert q / 8.0 + k == pytest.approx(cs_greedy, rel=1e-12)
    for cs in (q / 8.0 + k, q / 8.0 + k - 1.0):
        assert profit_upper_bound(model, cost, cs) == q / 4.0 == pytest.approx(rp_greedy, rel=1e-12)


def test_profit_bound_is_zero_when_wholesale_is_the_zero_demand_price():
    model, _ = helpers.random_model(np.random.default_rng(82))
    cost = WholesaleCost(mean=model.zero_demand_price)
    q, k = _front_geometry(model, cost)
    assert q == 0.0
    for cs in (k - 1.0, k + 1.0):
        assert profit_upper_bound(model, cost, cs) == 0.0


def test_profit_bound_of_a_column_of_surpluses_is_its_scalar_bounds():
    # one vectorized expression: a float gives a float, an array its shape,
    # each entry the scalar call's bound; exact at and below the greedy
    # surplus and when q is 0, and no RuntimeWarning from the entries a
    # branch does not pick (a negative square root, a division by zero)
    model, cost = helpers.random_model(np.random.default_rng(84))
    q, k = _front_geometry(model, cost)
    greedy = q / 8.0 + k
    cs = np.concatenate([[k - 1.0, greedy - 1.0, greedy], greedy + q * np.geomspace(1e-9, 2.0, 40)])
    zero_q = WholesaleCost(mean=model.zero_demand_price)  # q = 0: no tariff earns a profit
    around = _front_geometry(model, zero_q)[1] + np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = profit_upper_bound(model, cost, cs)
        scalars = [profit_upper_bound(model, cost, value) for value in cs.tolist()]
        zeros = profit_upper_bound(model, zero_q, around)
    assert all(type(value) is float for value in scalars)
    assert isinstance(bounds, np.ndarray) and bounds.shape == cs.shape
    np.testing.assert_allclose(bounds, scalars, rtol=1e-12, atol=0.0)
    assert bounds[:3].tolist() == [q / 4.0] * 3 and np.all(bounds[3:] <= q / 4.0) and bounds[-1] < 0.0
    assert zeros.shape == (3, 4) and not zeros.any()


def test_random_prices_never_beat_front():
    rng = np.random.default_rng(80)
    model, cost = helpers.random_model(rng)
    scale = max(1.0, abs(helpers.front_point(model, cost, 0.0)[2]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeDemandWarning)
        for _ in range(10_000):
            pi = cost.mean * rng.uniform(0.3, 3.0, size=24)
            cs = expected_cs(model, pi)
            rp = expected_rp(model, pi, cost)
            assert rp <= profit_upper_bound(model, cost, cs) + 1e-6 * scale


# ---------------------------------------------------------------------------
# constrained pricing
# ---------------------------------------------------------------------------

def test_constrained_round_trip():
    rng = np.random.default_rng(81)
    model, cost = helpers.random_model(rng)
    for eta in (0.1, 0.3, 0.7, 0.95):
        reference_price, reference_cs, reference_rp = helpers.front_point(model, cost, eta)
        price, cs, rp = oracles.constrained_optimal_price(model, cost, reference_cs)
        assert rp == pytest.approx(reference_rp, abs=1e-8 * max(1.0, abs(reference_rp)))
        assert np.max(np.abs(price - reference_price)) < 1e-6


def test_constrained_floor_below_greedy_returns_greedy():
    rng = np.random.default_rng(82)
    model, cost = helpers.random_model(rng)
    greedy_price, greedy_cs, greedy_rp = helpers.front_point(model, cost, 0.0)
    price, cs, rp = oracles.constrained_optimal_price(model, cost, greedy_cs - 100.0)
    assert np.array_equal(price, greedy_price)
    assert rp == greedy_rp


def test_constrained_floor_at_welfare_point():
    rng = np.random.default_rng(83)
    model, cost = helpers.random_model(rng)
    _, welfare_cs, _ = helpers.front_point(model, cost, 1.0)
    price, cs, rp = oracles.constrained_optimal_price(model, cost, welfare_cs)
    assert np.array_equal(price, cost.mean)
    assert abs(rp) < 1e-10


def test_constrained_infeasible_names_max_cs():
    rng = np.random.default_rng(84)
    model, cost = helpers.random_model(rng)
    _, welfare_cs, _ = helpers.front_point(model, cost, 1.0)
    with pytest.raises(InfeasibleConstraintError) as info:
        oracles.constrained_optimal_price(model, cost, welfare_cs + 1.0)
    assert f"{welfare_cs:.6g}" in str(info.value)


# ---------------------------------------------------------------------------
# benchmark tariffs
# ---------------------------------------------------------------------------

def _direction(scheme, cost, tou_ratio=1.2, peak_start=9, peak_end=17):
    """A family's direction V, its tariff at theta = 1 built by name."""
    return oracles.benchmark_prices(scheme, 1.0, cost, tou_ratio, peak_start, peak_end)


def test_benchmark_trace_prices_theta_times_the_direction():
    model, cost = helpers.random_model(np.random.default_rng(91))
    direction = np.linspace(0.5, 2.0, model.horizon)
    trace = benchmark_trace(model, cost, [0.0, 0.25, -0.1], direction)
    assert trace.price.shape == (3, model.horizon)
    for theta, price in zip(trace.param, trace.price):
        assert np.array_equal(price, theta * direction)


def test_benchmark_trace_rejects_a_sweep_that_is_not_a_vector():
    model, cost = helpers.random_model(np.random.default_rng(90))
    for sweep in (0.1, [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            benchmark_trace(model, cost, sweep, np.ones(model.horizon))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_sweep_is_a_value_error(bad):
    # not an overflow: the sweep was never finite
    model, cost = helpers.random_model(np.random.default_rng(90))
    with pytest.raises(ValueError, match="finite"):
        benchmark_trace(model, cost, [0.1, bad], np.ones(model.horizon))


@pytest.mark.parametrize("change", ["short", "long", "nan", "inf"])
def test_a_direction_of_the_wrong_length_or_not_finite_is_a_value_error(change):
    model, cost = helpers.random_model(np.random.default_rng(90))
    n = model.horizon
    direction = {"short": np.ones(n - 1), "long": np.ones(n + 1),
                 "nan": np.r_[np.ones(n - 1), np.nan], "inf": np.r_[np.inf, np.ones(n - 1)]}[change]
    with pytest.raises(ValueError):
        benchmark_trace(model, cost, [0.1, 0.2], direction)


def test_pmp_gamma_one_is_welfare_point():
    rng = np.random.default_rng(85)
    model, cost = helpers.random_model(rng)
    trace = benchmark_trace(model, cost, [0.8, 1.0, 1.2], cost.mean)
    _, welfare_cs, welfare_rp = helpers.front_point(model, cost, 1.0)
    gamma_one_cs, gamma_one_rp = trace.cs[1], trace.rp[1]
    assert abs(gamma_one_cs - welfare_cs) < 1e-10 * max(1.0, abs(welfare_cs))
    assert abs(gamma_one_rp - welfare_rp) < 1e-10


def test_cp_on_flat_wholesale_hits_welfare_point():
    rng = np.random.default_rng(86)
    model, _ = helpers.random_model(rng)
    flat_cost = WholesaleCost(mean=np.full(24, 0.11))
    trace = benchmark_trace(model, flat_cost, [0.11], np.ones(24))
    _, welfare_cs, _ = helpers.front_point(model, flat_cost, 1.0)
    assert trace.cs[0] == pytest.approx(welfare_cs, abs=1e-12)
    assert trace.rp[0] == pytest.approx(0.0, abs=1e-12)


def test_benchmarks_never_beat_front():
    rng = np.random.default_rng(87)
    model, cost = helpers.random_model(rng)
    zero_price = model.solve(model.intercept_mean)
    scale = max(1.0, abs(helpers.front_point(model, cost, 0.0)[2]))
    sweeps = {
        "cp": np.linspace(0.5 * cost.mean.min(), float(zero_price.mean()), 50),
        "tou": np.linspace(0.5 * cost.mean.min(), float(zero_price.mean()) / 1.2, 50),
        "pmp": np.linspace(0.5, 3.0, 50),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeDemandWarning)
        for scheme, sweep in sweeps.items():
            trace = benchmark_trace(model, cost, sweep, _direction(scheme, cost))
            for cs, rp in zip(trace.cs, trace.rp):
                bound = profit_upper_bound(model, cost, cs)
                assert rp <= bound + 1e-6 * scale, scheme


# ---------------------------------------------------------------------------
# stacked evaluation
# ---------------------------------------------------------------------------

def _demo_market():
    return helpers.mean_day_market(load_config(DEMO))


def _toy3_market():
    return helpers.toy3_model(), WholesaleCost(mean=np.array([0.12, 0.31, 0.2]))


@pytest.mark.parametrize("market", [_demo_market, _toy3_market])
def test_stacked_evaluators_match_single_tariffs_bitwise(market):
    model, cost = market()
    rng = np.random.default_rng(88)
    top = 2.0 * float(model.zero_demand_price.max())
    for k in (1, 7, 200):
        stack = rng.uniform(0.0, top, size=(k, model.horizon))
        cs, rp = expected_cs(model, stack), expected_rp(model, stack, cost)
        assert cs.shape == rp.shape == (k,)
        for i in range(k):
            assert cs[i] == expected_cs(model, stack[i])
            assert rp[i] == expected_rp(model, stack[i], cost)


@pytest.mark.parametrize("market", [_demo_market, _toy3_market])
def test_traces_equal_per_tariff_evaluation(market):
    # each benchmark tariff, theta times its family's direction, has the
    # bits of the tariff built by the family's name, on a middle peak
    # window, the whole day, the first hour and the last hour
    model, cost = market()
    level = float(model.zero_demand_price.mean())
    sweeps = {"cp": np.linspace(0.01, level, 40), "tou": np.linspace(0.01, level / 1.5, 40),
              "pmp": np.linspace(0.5, 3.0, 40)}
    for eta, price, cs, rp in zip(*pareto_front(model, cost)):
        assert np.array_equal(price, optimal_price(model, cost, eta))
        assert cs == expected_cs(model, price)
        assert rp == expected_rp(model, price, cost)
    n = model.horizon
    for window in [(1, 2), (0, n), (0, 1), (n - 1, n)]:
        for scheme, sweep in sweeps.items():
            trace = benchmark_trace(model, cost, sweep, _direction(scheme, cost, 1.5, *window))
            for param, traced, cs, rp in zip(*trace):
                price = oracles.benchmark_prices(scheme, param, cost, 1.5, *window)
                assert np.array_equal(traced, price), (scheme, window)
                assert cs == expected_cs(model, price), (scheme, window)
                assert rp == expected_rp(model, price, cost), (scheme, window)


def test_stacked_tariffs_validated():
    model, cost = _toy3_market()
    for bad in (np.zeros((2, 4)), np.array([[0.1, 0.2, np.nan]]), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError):
            expected_cs(model, bad)
        with pytest.raises(ValueError):
            expected_rp(model, bad, cost)


_ONE_DAY_ONLY = {
    # a sweep and a grid as long as the stack, which broadcasting would pair with its days
    "benchmark_trace": lambda model, cost: benchmark_trace(model, cost, np.linspace(0.1, 0.3, 7), np.ones(24)),
    "pareto_front": lambda model, cost: pareto_front(model, cost, np.linspace(0.0, 1.0, 7)),
    "profit_upper_bound": lambda model, cost: profit_upper_bound(model, cost, 0.0),
    "storage": lambda model, cost: optimize_price_with_storage(model, cost, [helpers.REUSE_BATTERIES["lossy"]], 0.5),
    "expected_rp_renewable": lambda model, cost: expected_rp_renewable(model, cost.mean, cost, RenewableModel(5.0)),
    "expected_rp_renewable, no plant":
        lambda model, cost: expected_rp_renewable(model, cost.mean, cost, RenewableModel(0.0)),
    "optimal_price_renewable": lambda model, cost: optimal_price_renewable(model, cost, RenewableModel(5.0), 0.5),
    "benefit_split": lambda model, cost: benefit_split(model, cost, RenewableModel(5.0), 0.5),
}


@pytest.mark.parametrize("call", _ONE_DAY_ONLY.values(), ids=_ONE_DAY_ONLY)
def test_one_day_functions_reject_a_model_of_several_days(call):
    population = helpers.random_params(np.random.default_rng(93))
    cost = WholesaleCost(mean=helpers.DEFAULT_WHOLESALE)
    week = population_model(population, helpers.DEFAULT_WEATHER + np.arange(7.0)[:, None])
    with pytest.raises(ValueError, match="one-day model, got a stack of 7 days"):
        call(week, cost)
    call(population_model(population, helpers.DEFAULT_WEATHER), cost)  # the same call on one day runs


def test_zero_demand_price_solved_once_per_model():
    rng = np.random.default_rng(89)
    model, cost = helpers.random_model(rng)
    solve, calls = model.solve, []
    model.solve = lambda rhs: calls.append(rhs) or solve(rhs)
    pareto_front(model, cost)
    benchmark_trace(model, cost, [0.1, 0.2], np.ones(model.horizon))
    helpers.front_point(model, cost, 0.3)
    profit_upper_bound(model, cost, 0.0)
    assert len(calls) == 1
    assert np.array_equal(model.zero_demand_price, solve(model.intercept_mean))


@pytest.mark.parametrize("scheme, sweep, ratio", [
    ("tou", [1e-3, 1.0], 1e308),  # peak prices finite, cs and rp not
    ("tou", [1e-3, 2.0], 1e308),  # a peak price overflows
    ("cp", [1e-3, 1e300], 1.2),
])
def test_overflowing_benchmark_tariffs_raise_numerical_error(scheme, sweep, ratio):
    model, cost = _demo_market()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            benchmark_trace(model, cost, sweep, _direction(scheme, cost, tou_ratio=ratio))
