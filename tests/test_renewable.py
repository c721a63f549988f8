"""Tests for renewable-aware profit, pricing, and the benefit split."""
import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from dahp import (
    AffineDemandModel,
    RenewableModel,
    WholesaleCost,
    aggregate,
    benefit_split,
    build_consumer_model,
    expected_cs,
    expected_rp,
    expected_rp_renewable,
    optimal_price,
    optimal_price_renewable,
    uniform_shortfall_expectation,
)
from oracles import mean_demand


def test_renewable_model_validation():
    with pytest.raises(ValueError):
        RenewableModel(capacity=-1.0)
    with pytest.raises(ValueError):
        RenewableModel(capacity=1.0, marginal_cost=-0.1)
    model = RenewableModel(capacity=5.0, marginal_cost=0.02)
    assert np.all(model.cost_vector(24) == 0.02)
    with pytest.raises(ValueError):
        RenewableModel(capacity=5.0, marginal_cost=np.zeros(7)).cost_vector(24)


def test_renewable_rejects_a_wholesale_cost_of_another_horizon():
    model, cost = helpers.random_model(np.random.default_rng(140))
    short = WholesaleCost(mean=cost.mean[:23])
    with pytest.raises(ValueError, match="horizon does not match"):
        optimal_price_renewable(model, short, RenewableModel(capacity=5.0), 0.5)


# ---------------------------------------------------------------------------
# shortfall expectation
# ---------------------------------------------------------------------------

def test_shortfall_frozen_value():
    # d = 10, K = 20: E[(d-q)+] = 100/40 = 2.5, so a 0.1 margin costs 0.25
    value = uniform_shortfall_expectation(np.array([10.0]), 20.0)
    assert value[0] == pytest.approx(2.5, abs=1e-14)
    assert 0.1 * value[0] == pytest.approx(0.25, abs=1e-14)


def test_shortfall_piecewise_branches():
    out = uniform_shortfall_expectation(np.array([-3.0, 0.0, 5.0, 20.0, 30.0]), 20.0)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(25.0 / 40.0)
    assert out[3] == pytest.approx(10.0)          # d = K: d - K/2
    assert out[4] == pytest.approx(30.0 - 10.0)   # d > K: d - K/2


def test_shortfall_zero_capacity_degenerates():
    out = uniform_shortfall_expectation(np.array([-1.0, 4.0]), 0.0)
    assert np.array_equal(out, [0.0, 4.0])


def test_shortfall_matches_monte_carlo():
    rng = np.random.default_rng(90)
    for trial in range(5):
        capacity = rng.uniform(5.0, 30.0)
        demand = rng.uniform(-5.0, 40.0)
        exact = uniform_shortfall_expectation(np.array([demand]), capacity)[0]
        n = 1_000_000
        q = np.random.default_rng(300 + trial).uniform(0.0, capacity, size=n)
        draws = np.maximum(demand - q, 0.0)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(exact - draws.mean()) < 3.0 * max(se, 1e-12)
    # and the dedicated oracle helper agrees
    assert oracles.mc_uniform_shortfall(10.0, 20.0, seed=1) == pytest.approx(2.5, abs=0.01)


# ---------------------------------------------------------------------------
# renewable-aware profit
# ---------------------------------------------------------------------------

def test_zero_capacity_profit_delegates():
    rng = np.random.default_rng(91)
    model, cost = helpers.random_model(rng)
    pi = cost.mean * 1.3
    renew = RenewableModel(capacity=0.0)
    assert expected_rp_renewable(model, pi, cost, renew) == expected_rp(model, pi, cost)


def test_huge_free_capacity_profit_approaches_revenue():
    rng = np.random.default_rng(92)
    model, cost = helpers.random_model(rng)
    pi = cost.mean * 1.3
    demand = mean_demand(model, pi)
    renew = RenewableModel(capacity=1e9, marginal_cost=0.0)
    profit = expected_rp_renewable(model, pi, cost, renew)
    revenue = float(pi @ demand)
    # shortfall cost ~ d^2/(2K) -> 0
    assert abs(profit - revenue) < 1e-5 * abs(revenue)


def test_marginal_cost_above_wholesale_rejected():
    rng = np.random.default_rng(93)
    model, cost = helpers.random_model(rng)
    renew = RenewableModel(capacity=5.0, marginal_cost=float(cost.mean.max() + 1.0))
    with pytest.raises(ValueError):
        expected_rp_renewable(model, cost.mean, cost, renew)


# ---------------------------------------------------------------------------
# renewable-aware optimal price
# ---------------------------------------------------------------------------

def test_small_capacity_price_unchanged():
    rng = np.random.default_rng(94)
    model, cost = helpers.random_model(rng)
    for eta in (0.0, 0.5, 1.0):
        base_demand = mean_demand(model, optimal_price(model, cost, eta))
        renew = RenewableModel(capacity=0.9 * float(base_demand.min()))
        pi = optimal_price_renewable(model, cost, renew, eta)
        assert np.max(np.abs(pi - optimal_price(model, cost, eta))) < 1e-9


def test_large_capacity_price_decreases_entrywise():
    rng = np.random.default_rng(95)
    model, cost = helpers.random_model(rng)
    for eta in (0.0, 0.5):
        base = optimal_price(model, cost, eta)
        renew = RenewableModel(capacity=50.0 * float(mean_demand(model, base).mean()))
        pi = optimal_price_renewable(model, cost, renew, eta)
        assert np.all(pi <= base + 1e-9)
        assert np.any(pi < base - 1e-6)


def test_fixed_point_residual_small():
    rng = np.random.default_rng(96)
    model, cost = helpers.random_model(rng)
    eta = 0.3
    base_demand = mean_demand(model, optimal_price(model, cost, eta))
    renew = RenewableModel(capacity=2.0 * float(base_demand.mean()))
    pi = optimal_price_renewable(model, cost, renew, eta)
    demand = mean_demand(model, pi)
    nu = renew.cost_vector(model.horizon)
    availability = np.clip(demand / renew.capacity, 0.0, 1.0)
    mapped = (model.intercept_mean - model.gain @ nu
              - model.gain @ ((cost.mean - nu) * availability)) / (2.0 - eta)
    assert np.max(np.abs(mapped - demand)) <= 1e-9


def test_stiff_model_with_small_plant_still_converges():
    # when one hour's optimal demand sits just below capacity and the gain
    # is stiff, the FOC map is expansive at the default damping; the solver
    # must back off and still land on the fixed point
    params = helpers.toy3_params()
    weather = np.array([20.5, 32.0, 32.0])  # hour 1 barely worth cooling
    model = aggregate([build_consumer_model(params, weather) for _ in range(4)])
    cost = WholesaleCost(mean=np.array([0.08, 0.12, 0.10]))
    renew = RenewableModel(capacity=4.0)
    for eta in (0.0, 0.5, 1.0):
        pi = optimal_price_renewable(model, cost, renew, eta)
        demand = mean_demand(model, pi)
        availability = np.clip(demand / renew.capacity, 0.0, 1.0)
        mapped = (model.intercept_mean - model.gain @ (cost.mean * availability)) / (2.0 - eta)
        assert np.max(np.abs(mapped - demand)) <= 1e-9
        assert 0.0 < demand[0] < renew.capacity  # genuinely in the kinked region


def _replicated(model: AffineDemandModel, copies: float) -> AffineDemandModel:
    """The population repeated ``copies`` times: demands scale, prices do not."""
    return AffineDemandModel(
        gain=copies * model.gain,
        intercept_mean=copies * model.intercept_mean,
        intercept_cov=copies * model.intercept_cov,
        cs_constant=copies * model.cs_constant,
    )


def _assert_exact_and_optimal(model, cost, renew, eta):
    """The tariff solves the first-order condition to float resolution, and
    a quasi-Newton optimum of the weighted objective (the independent
    oracle) does no better."""
    pi = optimal_price_renewable(model, cost, renew, eta)
    nu = renew.cost_vector(model.horizon)
    demand = model.intercept_mean - model.gain @ pi  # some hours may be priced out
    availability = np.clip(demand / renew.capacity, 0.0, 1.0)
    mapped = (model.intercept_mean - model.gain @ (nu + (cost.mean - nu) * availability)) / (2.0 - eta)
    assert np.max(np.abs(mapped - demand)) <= 1e-12 * np.max(np.abs(demand))

    def negated(p):
        return -(expected_rp_renewable(model, p, cost, renew) + eta * expected_cs(model, p))

    def negated_gradient(p):
        d = model.intercept_mean - model.gain @ p
        unit_cost = nu + (cost.mean - nu) * np.clip(d / renew.capacity, 0.0, 1.0)
        return -((1.0 - eta) * d - model.gain @ (p - unit_cost))

    start = optimal_price(model, cost, eta)
    reference = scipy.optimize.minimize(negated, start, jac=negated_gradient, method="BFGS")
    assert -negated(pi) >= -reference.fun - 1e-9 * abs(reference.fun)


def test_large_populations_match_scipy_optimum():
    # demands of 1e3-1e5 kW, where an absolute solver tolerance would fall
    # below float resolution
    rng = np.random.default_rng(103)
    base, cost = helpers.random_model(rng)
    for copies in (1e3, 1e4, 1e5):
        model = _replicated(base, copies)
        for eta in (0.0, 0.5, 0.9):
            mean_d = float(mean_demand(model, optimal_price(model, cost, eta)).mean())
            for multiple in (0.5, 1.0, 3.0):
                _assert_exact_and_optimal(model, cost, RenewableModel(capacity=multiple * mean_d), eta)


def test_small_plant_with_unserved_hours_converges():
    # a plant a few per cent of mean demand, with some hours priced out:
    # undamped regime steps jump hours between "unserved" and "saturated"
    # and never settle, so the solve must shorten those steps
    for seed in (1, 3, 11):
        model, cost = helpers.random_model(np.random.default_rng(seed))
        for eta in (0.0, 0.5):
            demand = model.intercept_mean - model.gain @ optimal_price(model, cost, eta)
            assert demand.min() < 0.0
            for multiple in (0.02, 0.05, 0.1):
                renew = RenewableModel(capacity=multiple * float(demand.mean()), marginal_cost=0.02)
                _assert_exact_and_optimal(model, cost, renew, eta)


def test_price_optimality_against_local_perturbations():
    # the returned tariff should beat nearby tariffs on the weighted objective
    rng = np.random.default_rng(97)
    model, cost = helpers.random_model(rng)
    eta = 0.4
    renew = RenewableModel(capacity=1.5 * float(mean_demand(model, cost.mean).mean()))
    pi = optimal_price_renewable(model, cost, renew, eta)

    def objective(p):
        return expected_rp_renewable(model, p, cost, renew) + eta * expected_cs(model, p)

    best = objective(pi)
    for _ in range(200):
        trial = pi + rng.normal(scale=1e-3, size=pi.size)
        assert objective(trial) <= best + 1e-9


# ---------------------------------------------------------------------------
# benefit split
# ---------------------------------------------------------------------------

def test_small_capacity_split_all_to_retailer():
    rng = np.random.default_rng(98)
    model, cost = helpers.random_model(rng)
    for eta in (0.0, 0.5, 1.0):
        demand = mean_demand(model, optimal_price(model, cost, eta))
        renew = RenewableModel(capacity=0.9 * float(demand.min()))
        split = benefit_split(model, cost, renew, eta)
        assert abs(split.delta_cs) < 1e-9
        assert split.delta_rp > 0.0
        assert split.fraction == pytest.approx(0.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::oracles.NegativeDemandWarning")  # rejected below
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), consumers=st.integers(1, 6), eta=st.floats(0.0, 1.0))
def test_consumer_share_is_exactly_zero_below_the_threshold(seed, consumers, eta):
    # K* is the lowest hourly demand at the storage-free optimum: a plant no
    # larger never runs short of demand, so the tariff and cs cannot move
    model, cost = helpers.random_model(np.random.default_rng(seed), n_consumers=consumers)
    k_star = float(mean_demand(model, optimal_price(model, cost, eta)).min())
    assume(k_star > 0.0)
    below = benefit_split(model, cost, RenewableModel(capacity=k_star * (1.0 - 1e-6)), eta)
    assert below.delta_cs == 0.0 and below.fraction == 0.0
    assert below.delta_rp > 0.0
    above = benefit_split(model, cost, RenewableModel(capacity=k_star * (1.0 + 1e-6)), eta)
    assert above.fraction > 0.0


def test_profit_gain_positive_for_all_capacities():
    rng = np.random.default_rng(99)
    for trial in range(5):
        model, cost = helpers.random_model(rng)
        eta = rng.uniform(0.0, 1.0)
        mean_d = float(mean_demand(model, optimal_price(model, cost, eta)).mean())
        for scale in (0.1, 0.5, 1.0, 5.0, 50.0):
            split = benefit_split(model, cost, RenewableModel(capacity=scale * mean_d), eta)
            assert split.delta_rp > 0.0


def test_asymptotic_fraction_limits():
    rng = np.random.default_rng(100)
    model, cost = helpers.random_model(rng)
    for eta, target in [(0.0, 1.0 / 3.0), (0.5, 0.5), (1.0, 1.0)]:
        demand = mean_demand(model, optimal_price(model, cost, eta))
        renew = RenewableModel(capacity=100.0 * float(demand.mean()))
        split = benefit_split(model, cost, renew, eta)
        assert abs(split.fraction - target) < 0.05 * target


def test_fraction_monotone_in_eta_at_large_capacity():
    rng = np.random.default_rng(101)
    model, cost = helpers.random_model(rng)
    capacity = 100.0 * float(mean_demand(model, cost.mean).mean())
    fractions = [
        benefit_split(model, cost, RenewableModel(capacity=capacity), eta).fraction
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))


def test_front_with_renewable_dominates_front_without():
    rng = np.random.default_rng(102)
    model, cost = helpers.random_model(rng)
    renew = RenewableModel(capacity=float(mean_demand(model, cost.mean).mean()))
    for eta in np.linspace(0.0, 1.0, 11):
        base = optimal_price(model, cost, eta)
        pi = optimal_price_renewable(model, cost, renew, eta)
        cs_base, rp_base = expected_cs(model, base), expected_rp(model, base, cost)
        cs_new = expected_cs(model, pi)
        rp_new = expected_rp_renewable(model, pi, cost, renew)
        # pointwise in eta the renewable point weakly dominates
        assert cs_new >= cs_base - 1e-9
        assert rp_new >= rp_base - 1e-9
