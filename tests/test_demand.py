"""Tests for the affine demand model against brute-force oracles."""
import numpy as np
import pytest

import helpers
import oracles
from dahp import (
    ConsumerParams,
    NegativeDemandWarning,
    aggregate,
    build_consumer_model,
    mean_demand,
)
from dahp.demand import as_prices
from dahp.errors import IndefiniteMatrixError, NumericalError


def test_params_validation():
    t = np.full(3, 20.0)
    with pytest.raises(ValueError):
        ConsumerParams(alpha=0.0, beta=0.1, mu=0.5, desired_temp=t)
    with pytest.raises(ValueError):
        ConsumerParams(alpha=1.0, beta=0.1, mu=0.5, desired_temp=t)
    with pytest.raises(ValueError):
        ConsumerParams(alpha=0.5, beta=0.0, mu=0.5, desired_temp=t)
    with pytest.raises(ValueError):
        ConsumerParams(alpha=0.5, beta=0.1, mu=0.0, desired_temp=t)
    with pytest.raises(ValueError):
        ConsumerParams(alpha=0.5, beta=0.1, mu=0.5, desired_temp=t, obs_noise_var=-1.0)


def test_as_prices_validation():
    assert np.array_equal(as_prices([1.0, 2.0], 2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_prices([1.0], 2)
    with pytest.raises(ValueError):
        as_prices([np.nan, 1.0], 2)


def test_toy3_gain_matrix_closed_form():
    # alpha=0.5, beta=0.1, mu=0.5 on three hours: hand-checked tridiagonal.
    model = helpers.toy3_model()
    expected = np.array([
        [100.0, -50.0, 0.0],
        [-50.0, 125.0, -50.0],
        [0.0, -50.0, 125.0],
    ])
    assert np.allclose(model.gain, expected, atol=1e-12)
    assert np.allclose(model.intercept_mean, [60.0, 60.0, 60.0], atol=1e-12)


def test_toy3_mean_demand_hand_multiply():
    # d = b - G @ pi at pi = 0.1 each hour; row three gives
    # 60 - (0 - 5 + 12.5) = 52.5 (hand matrix multiply, oracle-confirmed).
    model = helpers.toy3_model()
    demand = mean_demand(model, np.full(3, 0.1))
    assert np.allclose(demand, [55.0, 57.5, 52.5], atol=1e-12)


def test_mean_demand_trivial_points():
    model = helpers.toy3_model()
    assert np.allclose(mean_demand(model, np.zeros(3)), model.intercept_mean)
    zero_demand_price = model.solve(model.intercept_mean)
    with pytest.warns(NegativeDemandWarning):
        # exact root: roundoff puts some entries barely below zero
        demand = mean_demand(model, zero_demand_price)
    assert np.max(np.abs(demand)) < 1e-10


def test_gain_and_intercept_match_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(10):
        params = helpers.random_params(rng, horizon=3, noisy=False)
        forecast = rng.uniform(25.0, 35.0, size=3)
        model = build_consumer_model(params, forecast)
        gain, intercept = oracles.brute_affine_map(
            params.alpha, params.beta, params.mu, params.desired_temp, forecast
        )
        assert np.allclose(model.gain, gain, rtol=1e-9, atol=1e-9)
        assert np.allclose(model.intercept_mean, intercept, rtol=1e-9, atol=1e-9)


def test_demand_matches_brute_force_on_random_prices():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = helpers.random_params(rng, horizon=3, noisy=False)
        forecast = rng.uniform(25.0, 35.0, size=3)
        prices = rng.uniform(0.0, 0.5, size=3)
        model = build_consumer_model(params, forecast)
        expected = oracles.brute_demand(
            params.alpha, params.beta, params.mu, params.desired_temp, forecast, prices
        )
        got = model.intercept_mean - model.gain @ prices
        assert np.max(np.abs(got - expected)) <= 1e-4 * max(1.0, np.max(np.abs(expected)))


def test_gain_independent_of_noise_levels():
    rng = np.random.default_rng(43)
    quiet = helpers.random_params(rng, horizon=4, noisy=False)
    noisy = ConsumerParams(
        alpha=quiet.alpha, beta=quiet.beta, mu=quiet.mu, desired_temp=quiet.desired_temp,
        process_noise_var=0.05, obs_noise_var=0.02,
    )
    forecast = rng.uniform(25.0, 35.0, size=4)
    a = build_consumer_model(quiet, forecast)
    b = build_consumer_model(noisy, forecast)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.intercept_mean, b.intercept_mean)


def test_alpha_near_one_decouples_hours():
    params = ConsumerParams(alpha=1.0 - 1e-9, beta=0.1, mu=0.5, desired_temp=np.full(3, 20.0))
    model = build_consumer_model(params, np.full(3, 30.0))
    unit = 1.0 / (2.0 * params.mu * params.beta**2)
    off_diag = model.gain[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 1e-5 * unit
    assert np.allclose(np.diag(model.gain), unit, rtol=1e-8)


def test_gain_positive_definite_over_random_draws():
    rng = np.random.default_rng(44)
    for _ in range(100):
        params = helpers.random_params(rng, horizon=24)
        model = build_consumer_model(params, helpers.DEFAULT_WEATHER)
        # diagonal dominance and symmetry
        assert np.array_equal(model.gain, model.gain.T)
        for i in range(24):
            off = np.abs(model.gain[i]).sum() - abs(model.gain[i, i])
            assert model.gain[i, i] > off - 1e-12
        assert np.linalg.eigvalsh(model.gain).min() > 0.0


def test_affinity_of_mean_demand():
    import warnings

    rng = np.random.default_rng(45)
    model, _ = helpers.random_model(rng)
    for _ in range(20):
        p1 = rng.uniform(0.0, 0.4, size=24)
        p2 = rng.uniform(0.0, 0.4, size=24)
        s = rng.uniform(-1.0, 2.0)  # extrapolation allowed; demand may go negative
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeDemandWarning)
            blend = mean_demand(model, s * p1 + (1 - s) * p2)
            parts = s * mean_demand(model, p1) + (1 - s) * mean_demand(model, p2)
        assert np.allclose(blend, parts, rtol=1e-12, atol=1e-9)


def test_aggregate_doubles_singleton():
    params = helpers.toy3_params()
    weather = np.full(3, 32.0)
    single = build_consumer_model(params, weather)
    double = aggregate([single, single])
    assert np.allclose(double.gain, 2.0 * single.gain)
    assert np.allclose(double.intercept_mean, 2.0 * single.intercept_mean)
    assert np.allclose(double.intercept_cov, 2.0 * single.intercept_cov)
    assert double.cs_constant == pytest.approx(2.0 * single.cs_constant)


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        aggregate([])
    rng = np.random.default_rng(46)
    m3 = build_consumer_model(helpers.random_params(rng, horizon=3), np.full(3, 30.0))
    m4 = build_consumer_model(helpers.random_params(rng, horizon=4), np.full(4, 30.0))
    with pytest.raises(ValueError):
        aggregate([m3, m4])


def test_aggregate_of_fifty_random_consumers_is_pd():
    rng = np.random.default_rng(47)
    consumers = [
        build_consumer_model(helpers.random_params(rng), helpers.DEFAULT_WEATHER)
        for _ in range(50)
    ]
    model = aggregate(consumers)  # raises IndefiniteMatrixError if not PD
    assert model.horizon == 24


def test_non_pd_model_rejected_on_aggregate():
    bad = helpers.toy3_model()
    bad.gain = -bad.gain
    with pytest.raises(IndefiniteMatrixError):
        aggregate([bad])


def test_negative_demand_warning():
    model = helpers.toy3_model()
    with pytest.warns(NegativeDemandWarning):
        demand = mean_demand(model, np.full(3, 5.0))
    assert np.any(demand < 0.0)


def test_estimator_constants_match_monte_carlo():
    # cs_constant and intercept_cov are analytic; check them against the
    # simulator at pi = 0, where the surplus is pure noise-driven discomfort
    # and demand deviations are pure estimator error.
    from dahp.simulate import simulate_days

    rng = np.random.default_rng(48)
    n_days = 200_000
    for trial in range(3):
        params = helpers.random_params(rng, horizon=4)
        forecast = rng.uniform(25.0, 35.0, size=4)
        model = build_consumer_model(params, forecast)
        prices = np.zeros(4)
        cons, pay, disc = simulate_days(params, prices, forecast, seed=900 + trial, n_days=n_days)
        surplus = -(disc + pay)

        se = surplus.std(ddof=1) / np.sqrt(n_days)
        assert abs(surplus.mean() - model.cs_constant) < 4.0 * se

        dev = cons - model.intercept_mean
        sample_cov = np.cov(dev.T)
        scale = max(np.abs(model.intercept_cov).max(), 1e-12)
        assert np.max(np.abs(sample_cov - model.intercept_cov)) < 0.05 * scale + 5e-4


def test_squares_round_like_python_floats():
    # the model's squares keep the rounding of Python float ``**``
    from dahp.demand import _pow2

    values = np.random.default_rng(49).uniform(0.0, 1.0, size=20_000)
    assert np.array_equal(_pow2(values), [v ** 2 for v in values.tolist()])


@pytest.mark.parametrize("field", ["mu", "process_noise_var", "obs_noise_var"])
def test_params_reject_nan(field):
    params = dict(alpha=0.5, beta=0.1, mu=0.5, desired_temp=np.full(3, 20.0))
    with pytest.raises(ValueError):
        ConsumerParams(**{**params, field: np.nan})


@pytest.mark.parametrize("field, value", [("beta", 1e-300), ("desired_temp", np.full(24, 1e308))])
def test_overflowing_model_is_a_numerical_error(field, value):
    params = dict(alpha=0.5, beta=0.1, mu=0.5, desired_temp=np.full(24, 20.0))
    with pytest.raises(NumericalError, match="overflow"):
        build_consumer_model(ConsumerParams(**{**params, field: value}), helpers.DEFAULT_WEATHER)
