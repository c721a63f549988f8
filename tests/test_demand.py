"""Tests for the affine demand model against brute-force oracles."""
import dataclasses
import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from dahp import (
    Population,
    WholesaleCost,
    aggregate,
    build_consumer_model,
    demand,
    expected_cs,
    expected_rp,
    optimal_price,
    population_model,
)
from dahp.config import PopulationSpec, draw_population
from dahp.demand import _FIELDS, _PARAM_FIELDS, _consumer_sum, _distinct, as_prices
from dahp.errors import IndefiniteMatrixError, NumericalError
from oracles import NegativeDemandWarning, mean_demand


def test_params_validation():
    toy = helpers.toy3_params()
    with pytest.raises(ValueError):
        dataclasses.replace(toy, alpha=[0.0])
    with pytest.raises(ValueError):
        dataclasses.replace(toy, alpha=[1.0])
    with pytest.raises(ValueError):
        dataclasses.replace(toy, beta=[0.0])
    with pytest.raises(ValueError):
        dataclasses.replace(toy, mu=[0.0])
    with pytest.raises(ValueError):
        dataclasses.replace(toy, obs_noise_var=[-1.0])


@pytest.mark.parametrize("change", [
    {"alpha": [0.5, 0.5]},                   # two values for one consumer
    {"desired_temp": np.full(3, 20.0)},      # setpoints without a consumer axis
    {"desired_temp": np.empty((1, 0))},      # no hours
], ids=["alpha length", "1-D setpoints", "no hours"])
def test_population_rejects_mismatched_field_shapes(change):
    with pytest.raises(ValueError, match="a population needs"):
        dataclasses.replace(helpers.toy3_params(), **change)


@pytest.mark.parametrize("setpoint", [np.nan, np.inf])
def test_population_rejects_non_finite_setpoints(setpoint):
    with pytest.raises(ValueError, match="desired_temp must be finite"):
        dataclasses.replace(helpers.toy3_params(), desired_temp=[[20.0, setpoint, 20.0]])


def test_population_model_rejects_a_forecast_of_another_length():
    population = helpers.random_params(np.random.default_rng(45))
    with pytest.raises(ValueError, match="24 finite hours"):
        population_model(population, helpers.DEFAULT_WEATHER[:23])


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
        gain, intercept = oracles.brute_affine_map(*oracles.thermal(params), forecast)
        assert np.allclose(model.gain, gain, rtol=1e-9, atol=1e-9)
        assert np.allclose(model.intercept_mean, intercept, rtol=1e-9, atol=1e-9)


def test_demand_matches_brute_force_on_random_prices():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = helpers.random_params(rng, horizon=3, noisy=False)
        forecast = rng.uniform(25.0, 35.0, size=3)
        prices = rng.uniform(0.0, 0.5, size=3)
        model = build_consumer_model(params, forecast)
        expected = oracles.brute_demand(*oracles.thermal(params), forecast, prices)
        got = model.intercept_mean - model.gain @ prices
        assert np.max(np.abs(got - expected)) <= 1e-4 * max(1.0, np.max(np.abs(expected)))


def test_gain_independent_of_noise_levels():
    rng = np.random.default_rng(43)
    quiet = helpers.random_params(rng, horizon=4, noisy=False)
    noisy = dataclasses.replace(quiet, process_noise_var=[0.05], obs_noise_var=[0.02])
    forecast = rng.uniform(25.0, 35.0, size=4)
    a = build_consumer_model(quiet, forecast)
    b = build_consumer_model(noisy, forecast)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.intercept_mean, b.intercept_mean)


def test_alpha_near_one_decouples_hours():
    params = dataclasses.replace(helpers.toy3_params(), alpha=[1.0 - 1e-9])
    model = build_consumer_model(params, np.full(3, 30.0))
    unit = 1.0 / (2.0 * 0.5 * 0.1**2)
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
    from oracles import simulate_days

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


@pytest.mark.parametrize("field", ["mu", "process_noise_var", "obs_noise_var"])
def test_params_reject_nan(field):
    with pytest.raises(ValueError):
        dataclasses.replace(helpers.toy3_params(), **{field: [np.nan]})


@pytest.mark.parametrize("field, value", [("beta", 1e-300), ("desired_temp", np.full(24, 1e308))])
def test_overflowing_model_is_a_numerical_error(field, value):
    params = dataclasses.replace(helpers.toy3_params(), **{"desired_temp": [np.full(24, 20.0)], field: [value]})
    with pytest.raises(NumericalError, match="overflow"):
        build_consumer_model(params, helpers.DEFAULT_WEATHER)


def _bits(model) -> tuple[bytes, ...]:
    return (model.gain.tobytes(), model.intercept_mean.tobytes(), model.intercept_cov.tobytes(),
            np.float64(model.cs_constant).tobytes())


def test_population_is_read_only():
    population = Population.of([helpers.random_params(np.random.default_rng(70)) for _ in range(3)])
    for name in ("alpha", "beta", "mu", "desired_temp", "process_noise_var", "obs_noise_var"):
        with pytest.raises(ValueError):
            getattr(population, name)[0] = 0.3
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(population, name, np.ones(3))
    gain, cov, _ = population.model_terms
    for array in (*population.estimator_ladder, gain, cov):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_population_of_concatenates_and_iterates_one_row_views():
    rng = np.random.default_rng(74)
    joined = Population.of([Population.of([helpers.random_params(rng) for _ in range(2)]), helpers.random_params(rng)])
    rows = list(joined)
    assert len(joined) == 3 and [len(row) for row in rows] == [1, 1, 1]
    for name in _FIELDS:
        assert np.array_equal(getattr(joined, name), np.concatenate([getattr(row, name) for row in rows]))
        assert all(np.shares_memory(getattr(row, name), getattr(joined, name)) for row in rows)
    with pytest.raises(ValueError):
        Population.of([])
    with pytest.raises(ValueError):
        Population.of([helpers.random_params(rng, horizon=3), helpers.random_params(rng, horizon=4)])


@pytest.mark.parametrize("population", [
    draw_population(PopulationSpec(count=50, alpha=[0.3, 0.7], desired_temp=[18.0, 22.0]), seed=9),
    Population.of([helpers.random_params(np.random.default_rng(75)) for _ in range(5)]),  # hourly setpoints
], ids=["drawn", "hourly"])
def test_iterating_checks_no_row_again_and_yields_read_only_rows(population, monkeypatch):
    # the rows of a checked, read-only population are valid as they stand
    calls = []
    check = demand._check_params
    monkeypatch.setattr(demand, "_check_params", lambda p: calls.append(p) or check(p))
    rows = list(population)
    assert calls == []
    assert len(rows) == len(population)
    for k, row in enumerate(rows):
        assert isinstance(row, Population) and len(row) == 1 and row.horizon == population.horizon
        for name in _FIELDS:
            field = getattr(row, name)
            assert field.shape == getattr(population, name)[k:k + 1].shape
            assert field.tobytes() == getattr(population, name)[k:k + 1].tobytes()
            assert not field.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.alpha = np.ones(1)


def test_cached_model_terms_equal_fresh_builds_bit_for_bit():
    rng = np.random.default_rng(71)
    consumers = [helpers.random_params(rng) for _ in range(40)]
    shared = Population.of(consumers)
    for weather in (helpers.DEFAULT_WEATHER, helpers.DEFAULT_WEATHER + rng.normal(0.0, 3.0, 24)):
        assert _bits(population_model(shared, weather)) == _bits(population_model(Population.of(consumers), weather))


# ---------------------------------------------------------------------------
# shared parameters: one row carried to every consumer by broadcasting
# ---------------------------------------------------------------------------

def _library_terms(consumer, weather):
    return dataclasses.astuple(build_consumer_model(consumer, weather))


def _consumer_order_bits(consumers, weather, build=_library_terms) -> tuple[bytes, ...]:
    """Bytes of the one-consumer (gain, intercept_mean, intercept_cov,
    cs_constant) terms of ``build``, the library's one-row models by
    default, added in consumer order, starting from the first consumer's
    (so a sum of ``-0.0`` stays ``-0.0``)."""
    terms = ((g, b, c, np.float64(k)) for g, b, c, k in (build(p, weather) for p in consumers))
    return tuple(x.tobytes() for x in reduce(lambda a, b: tuple(x + y for x, y in zip(a, b)), terms))


def _squares_apart(values: np.ndarray, of) -> np.ndarray:
    """The entries of ``values`` at which libm ``pow`` and a product square
    ``of(value)`` differently (about one in a thousand)."""
    x = of(values)
    return values[np.float_power(x, 2.0) != x * x]


def test_population_model_squares_like_the_scalar_oracle_where_pow_rounds_otherwise():
    # alpha where pow and a product round (1 - alpha)^2 apart, and a beta
    # where they round ((1 - alpha) / beta)^2 apart, found by a seeded search:
    # the model squares by multiplying, like the hour-by-hour oracle
    rng = np.random.default_rng(74)
    alpha = _squares_apart(rng.uniform(0.05, 0.95, 100_000), lambda a: 1.0 - a)[:6]
    beta = rng.uniform(0.05, 0.3, 6) * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    beta[0] = _squares_apart(rng.uniform(0.05, 0.3, 100_000), lambda b: (1.0 - alpha[0]) / b)[0]
    weather = helpers.DEFAULT_WEATHER + rng.normal(0.0, 3.0, 24)
    noise = dict(process_noise_var=rng.uniform(0.0, 0.02, 6), obs_noise_var=rng.uniform(0.005, 0.02, 6))
    ranged = Population(alpha=alpha, beta=beta, mu=rng.uniform(0.2, 0.8, 6),
                        desired_temp=rng.uniform(18.0, 22.0, (6, 24)), **noise)
    shared = dataclasses.replace(ranged, alpha=np.broadcast_to(alpha[1], 6),
                                 **{name: np.broadcast_to(values[0], 6) for name, values in noise.items()})
    for population in (ranged, shared):
        bits = _bits(population_model(population, weather))
        assert bits == _consumer_order_bits(population, weather)
        assert bits == _consumer_order_bits(population, weather, oracles.scalar_consumer_model)


_NOISE_VARIANCES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1040, 1e-310]), st.floats(0.0, 0.1))
_FIELD_VALUES = {
    "alpha": st.floats(0.01, 0.99),
    "beta": st.one_of(st.floats(0.02, 0.3), st.floats(-0.3, -0.02)),
    "mu": st.floats(0.05, 5.0),
    "process_noise_var": _NOISE_VARIANCES,
    "obs_noise_var": _NOISE_VARIANCES,
}


@st.composite
def _population_and_weather(draw, shared):
    count, horizon = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    hours = st.lists(st.floats(15.0, 35.0), min_size=horizon, max_size=horizon)
    columns = {
        name: [draw(values)] * count if name in shared else draw(st.lists(values, min_size=count, max_size=count))
        for name, values in _FIELD_VALUES.items()
    }
    desired = [draw(hours) for _ in range(count)]
    return Population(desired_temp=desired, **columns), draw(hours)


@pytest.mark.parametrize(
    "shared", [names for k in range(6) for names in itertools.combinations(_PARAM_FIELDS, k)],
    ids=lambda names: "+".join(names) or "none",
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_population_model_equals_the_consumer_order_sum_for_any_shared_fields(shared, data):
    population, weather = data.draw(_population_and_weather(shared))
    assert _bits(population_model(population, weather)) == _consumer_order_bits(population, weather)
    # the same consumers as draw_population stores them: every shared field
    # one value broadcast to every consumer and each setpoint one value
    # broadcast over the hours, against the same fields materialized
    count, horizon = len(population), population.horizon
    broadcast = Population(
        desired_temp=np.broadcast_to(population.desired_temp[:, :1], (count, horizon)),
        **{name: np.broadcast_to(getattr(population, name)[0], count) if name in shared else getattr(population, name)
           for name in _PARAM_FIELDS},
    )
    materialized = Population(**{name: np.array(getattr(broadcast, name)) for name in _FIELDS})
    for name in shared:
        assert getattr(broadcast, name).strides == (0,) and getattr(materialized, name).strides == (8,)
    expected = _consumer_order_bits(materialized, weather)
    assert _bits(population_model(broadcast, weather)) == _bits(population_model(materialized, weather)) == expected


@pytest.mark.parametrize("spec", [
    PopulationSpec(count=10_000, desired_temp=[18.0, 22.0]),  # the front-10k population: every parameter shared
    PopulationSpec(count=10_000, alpha=[0.3, 0.7], beta=[-0.15, 0.2], mu=[0.2, 0.8], desired_temp=[18.0, 22.0],
                   process_noise_var=[0.0, 0.02], obs_noise_var=[0.005, 0.02]),
], ids=["shared", "ranged"])
def test_a_drawn_population_models_like_its_materialized_copy(spec):
    # the forecast-free terms are one consumer-order sum over a (rows, 2N + 3)
    # stack; in the materialized copy every consumer has its own row
    drawn = draw_population(spec, seed=31)
    materialized = {name: np.array(getattr(drawn, name)) for name in _FIELDS}
    weather = helpers.DEFAULT_WEATHER + np.random.default_rng(32).normal(0.0, 3.0, 24)
    assert _bits(population_model(Population(**materialized), weather)) == _bits(population_model(drawn, weather))


def _stored_once(count: int = 10, **fields) -> Population:
    """A valid population whose fields are each one value broadcast to every
    consumer (and every hour), apart from ``fields``."""
    values = dict(alpha=0.5, beta=0.1, mu=0.5, process_noise_var=0.01, obs_noise_var=0.01)
    population = {name: np.broadcast_to(value, count) for name, value in values.items()}
    return Population(**{"desired_temp": np.broadcast_to(20.0, (count, 24)), **population, **fields})


@pytest.mark.parametrize("fields, message", [
    ({"alpha": np.broadcast_to(1.5, 10)}, r"alpha must lie strictly in \(0, 1\), got 1.5"),
    ({"beta": np.broadcast_to(0.0, 10)}, "beta must be nonzero and finite, got 0.0"),
    ({"mu": np.broadcast_to(np.nan, 10)}, "mu must be positive, got nan"),
    ({"obs_noise_var": np.broadcast_to(-1.0, 10)}, "noise variances must be nonnegative, got -1.0"),
    ({"count": 2, "desired_temp": np.broadcast_to([[20.0], [np.inf]], (2, 24))}, "desired_temp must be finite"),
    ({"desired_temp": np.broadcast_to(np.where(np.arange(24) == 17, np.nan, 20.0), (10, 24))},
     "desired_temp must be finite"),
], ids=["alpha", "beta", "mu", "noise", "setpoint column", "setpoint profile"])
def test_validation_catches_values_stored_once(fields, message):
    assert len(_stored_once()) == 10  # valid as it stands
    with pytest.raises(ValueError, match=message):
        _stored_once(**fields)


def test_distinct_reads_a_zero_stride_view_once():
    column = np.broadcast_to([[20.0], [21.0]], (2, 24))
    assert _distinct(column).shape == (2, 1) and _distinct(np.broadcast_to(-0.0, 7)).shape == (1,)
    assert _distinct(np.broadcast_to(-0.0, 7)).tobytes() == np.float64(-0.0).tobytes()
    assert _distinct(np.ones((3, 4))).shape == (3, 4)
    assert _distinct(np.full(7, 0.5)).shape == (7,)  # equal values stored apart: a row per consumer


@pytest.mark.parametrize("process, obs", [
    ([0.0] * 4, [-0.0] * 4),               # zeros of either sign
    ([0.0, -0.0, 0.0, -0.0], [-0.0] * 4),  # equal as floats, not as bits
    ([5e-324] * 4, [2.0**-1040] * 4),      # subnormals
    ([5e-324, 0.0, 1e-310, -0.0], [0.01] * 4),
])
def test_signed_zero_and_subnormal_noise_keep_every_bit(process, obs):
    # stored per consumer, and a variance every consumer holds stored once
    rng = np.random.default_rng(72)
    population = Population(alpha=np.full(4, 0.5), beta=[0.1, 0.1, -0.2, 0.1], mu=np.full(4, 0.5),
                            desired_temp=rng.uniform(18.0, 22.0, size=(4, 24)),
                            process_noise_var=process, obs_noise_var=obs)
    expected = _consumer_order_bits(population, helpers.DEFAULT_WEATHER)
    assert _bits(population_model(population, helpers.DEFAULT_WEATHER)) == expected
    once = {name: np.broadcast_to(np.float64(values[0]), 4) for name, values in
            (("process_noise_var", process), ("obs_noise_var", obs))
            if len({np.float64(v).tobytes() for v in values}) == 1}
    assert _bits(population_model(dataclasses.replace(population, **once), helpers.DEFAULT_WEATHER)) == expected


@pytest.mark.parametrize("beta", [np.broadcast_to(1e-300, 5), [0.1, 0.1, 1e-300, 0.1, 0.1]])
def test_overflow_with_shared_parameters_is_a_numerical_error(beta):
    population = Population(alpha=np.broadcast_to(0.5, 5), beta=beta, mu=np.broadcast_to(0.5, 5),
                            desired_temp=np.broadcast_to(20.0, (5, 24)), process_noise_var=np.broadcast_to(0.01, 5),
                            obs_noise_var=np.broadcast_to(0.01, 5))
    with pytest.raises(NumericalError, match="overflow"):
        population_model(population, helpers.DEFAULT_WEATHER)


def test_shared_parameters_keep_the_population_model_small():
    # Shared parameters cost one row, not 10,000 identical ones, and the
    # intercept streams the consumers through one (1,025, 24) scratch block
    # of 197 kB: about 0.265 MB at the peak on numpy 2.4, against 2.08 MB
    # when the intercept was one (consumers, hours) buffer, 5.8 MB with a
    # temporary per operation and a cumsum, and 15.5 MB when every consumer
    # had its own row of each forecast-free term.
    population = draw_population(PopulationSpec(count=10_000, desired_temp=[18.0, 22.0]), seed=5)
    tracemalloc.start()
    try:
        population_model(population, helpers.DEFAULT_WEATHER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.35e6


@pytest.mark.parametrize("count", [1023, 1024, 1025])
@pytest.mark.parametrize("shared", [True, False], ids=["shared heating", "per consumer"])
def test_a_day_stacked_model_is_each_days_model_bitwise(count, shared):
    # the (days, N) intercept, its zero-demand prices (one batched solve),
    # the tariffs and their cs and rp are each day's 1-D values, bit for
    # bit: 7 days stream 146 consumers a block, 1 day the 1-D block of
    # 1,024, and a one-hour horizon adds the -0.0 pad column
    rng = np.random.default_rng(count + shared)
    if shared:
        alpha, beta = np.broadcast_to(0.45, count), np.broadcast_to(-0.12, count)
    else:
        alpha, beta = rng.uniform(0.05, 0.95, count), rng.uniform(0.02, 0.3, count) * rng.choice([-1.0, 1.0], count)
    desired = rng.uniform(16.0, 24.0, (count, 1)) + rng.uniform(-1.0, 1.0, (count, 6))
    for horizon, days in itertools.product(range(1, 7), (1, 7)):
        population = Population(alpha=alpha, beta=beta, mu=np.broadcast_to(0.5, count),
                                desired_temp=desired[:, :horizon], process_noise_var=np.broadcast_to(0.01, count),
                                obs_noise_var=np.broadcast_to(0.01, count))
        weather = helpers.DEFAULT_WEATHER[:horizon] + rng.normal(0.0, 3.0, (days, horizon))
        cost = WholesaleCost(mean=helpers.DEFAULT_WHOLESALE[:horizon])
        stacked = population_model(population, weather)
        assert stacked.intercept_mean.shape == stacked.zero_demand_price.shape == (days, horizon)
        prices = optimal_price(stacked, cost, 0.3)
        values = [stacked.intercept_mean, stacked.zero_demand_price, prices,
                  expected_cs(stacked, prices), expected_rp(stacked, prices, cost)]
        for day, forecast in enumerate(weather):
            model = population_model(population, forecast)
            alone = optimal_price(model, cost, 0.3)
            expected = [model.intercept_mean, model.zero_demand_price, alone,
                        expected_cs(model, alone), expected_rp(model, alone, cost)]
            assert [np.asarray(x[day]).tobytes() for x in values] == [np.asarray(x).tobytes() for x in expected]


@pytest.mark.parametrize("weather", [
    np.full((3, 23), 30.0),                                # not the horizon
    np.full((0, 24), 30.0),                                # no days
    np.full((2, 2, 24), 30.0),                             # a stack of stacks
    np.where(np.arange(48).reshape(2, 24) == 30, np.nan, 30.0),
    np.where(np.arange(48).reshape(2, 24) == 47, -np.inf, 30.0),
], ids=["width", "no days", "3-D", "nan", "infinite"])
def test_a_forecast_stack_of_the_wrong_width_or_not_finite_raises(weather):
    with pytest.raises(ValueError, match="24 finite hours a day"):
        population_model(helpers.random_params(np.random.default_rng(46)), weather)


@pytest.mark.parametrize("ranged", [{}, {"alpha": [0.3, 0.7], "beta": [-0.2, -0.05]}], ids=["shared", "ranged"])
def test_a_56_day_model_streams_through_one_days_scratch(ranged):
    # 56 days stream 18 consumers a block through a (19, 56, 24) scratch,
    # the size of one day's (1,025, 24): the peak may exceed one day's only
    # by a few (days, N) arrays (the carried row, the per-block sum, the
    # shared alpha's alpha * forecast and the model's intercept), never by
    # a (consumers, days, N) one, 108 MB here
    population = draw_population(PopulationSpec(count=10_000, desired_temp=[18.0, 22.0], **ranged), seed=5)
    population.model_terms  # noqa: B018 -- cached before either window
    peaks = {}
    for days in (1, 56):
        weather = helpers.DEFAULT_WEATHER + np.zeros((days, 1))
        tracemalloc.start()
        try:
            population_model(population, weather)
            peaks[days] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[56] <= peaks[1] + 6 * 56 * 24 * 8


_BLOCK_COUNTS = (demand._BLOCK - 1, demand._BLOCK, demand._BLOCK + 1, 2 * demand._BLOCK + 1)


@pytest.mark.parametrize("count", _BLOCK_COUNTS)
@pytest.mark.parametrize("shared", [True, False], ids=["shared heating", "per consumer"])
def test_blocked_intercept_is_the_consumer_order_sum_at_block_edges(count, shared):
    # one block short of, at and past the block size, and one consumer into
    # a third block; alpha and beta one broadcast row (heating) or one value
    # per consumer (cooling and heating mixed), setpoints varying by hour
    rng = np.random.default_rng(count)
    if shared:
        alpha, beta = np.broadcast_to(0.45, count), np.broadcast_to(-0.12, count)
    else:
        alpha, beta = rng.uniform(0.05, 0.95, count), rng.uniform(0.02, 0.3, count) * rng.choice([-1.0, 1.0], count)
    desired = rng.uniform(16.0, 24.0, (count, 1)) + rng.uniform(-1.0, 1.0, (count, 6))
    weather = helpers.DEFAULT_WEATHER[:6] + rng.normal(0.0, 3.0, 6)
    for horizon in range(1, 7):
        population = Population(alpha=alpha, beta=beta, mu=np.broadcast_to(0.5, count),
                                desired_temp=desired[:, :horizon], process_noise_var=np.broadcast_to(0.01, count),
                                obs_noise_var=np.broadcast_to(0.01, count))
        single = [build_consumer_model(p, weather[:horizon]).intercept_mean for p in population]
        intercept = population_model(population, weather[:horizon]).intercept_mean
        assert intercept.tobytes() == _rows_added_in_order(np.array(single)).tobytes()


@pytest.mark.parametrize("field, value", [("beta", 1e-300), ("desired_temp", 1e308)])
def test_an_overflow_in_the_last_block_is_a_numerical_error(field, value):
    # a setpoint of 1e308 overflows the intercept alone; beta of 1e-300 both
    # the intercept and the covariance
    count = 2 * demand._BLOCK + 1
    fields = dict(alpha=np.full(count, 0.5), beta=np.full(count, 0.1), mu=np.full(count, 0.5),
                  desired_temp=np.full((count, 24), 20.0), process_noise_var=np.full(count, 0.01),
                  obs_noise_var=np.full(count, 0.01))
    fields[field][-1] = value
    with pytest.raises(NumericalError, match="overflow"):
        population_model(Population(**fields), helpers.DEFAULT_WEATHER)


def _rows_added_in_order(x: np.ndarray) -> np.ndarray:
    """The rows of ``x`` added one after another, starting from the first."""
    total = x[0].copy()
    for row in x[1:]:
        total = total + row
    return total


_SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -1e-310, 2.2250738585072014e-308])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(count=st.integers(1, 3000), width=st.integers(2, 30), layout=st.sampled_from(["dense", "row", "fortran"]),
       first_row_negative_zero=st.booleans(), specials=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_consumer_sum_adds_rows_in_consumer_order(count, width, layout, first_row_negative_zero, specials, seed):
    # past numpy's 8-wide unrolled and 128-block pairwise sums, over dense
    # rows, one row broadcast to every consumer (a zero-stride view) and a
    # column-major copy; signed zeros and subnormals must keep every bit
    rng = np.random.default_rng(seed)
    rows = 1 if layout == "row" else count
    x = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-12, 12, size=(rows, 1))
    mask = rng.random(x.shape) < specials
    x[mask] = rng.choice(_SPECIAL_VALUES, size=mask.sum())
    if first_row_negative_zero:
        x[0] = -0.0
    if layout == "fortran":
        x = np.asfortranarray(x)
    expected = _rows_added_in_order(np.broadcast_to(x, (count, width)))
    assert _consumer_sum(x, count).tobytes() == expected.tobytes()


def test_intercept_of_a_thousand_distinct_consumers_is_their_consumer_order_sum():
    rng = np.random.default_rng(73)
    count = 1_200
    population = Population(
        alpha=rng.uniform(0.05, 0.95, count),
        beta=rng.uniform(0.02, 0.3, count) * rng.choice([-1.0, 1.0], count),
        mu=np.full(count, 0.5),
        desired_temp=rng.uniform(16.0, 24.0, (count, 1)) + rng.uniform(-1.0, 1.0, (count, 24)),
        process_noise_var=np.full(count, 0.01),
        obs_noise_var=np.full(count, 0.01),
    )
    weather = helpers.DEFAULT_WEATHER + rng.normal(0.0, 3.0, 24)
    intercept = population_model(population, weather).intercept_mean.tobytes()
    single = [build_consumer_model(p, weather).intercept_mean for p in population]
    scalar = [oracles.scalar_consumer_model(p, weather)[1] for p in population]  # hour by hour on Python floats
    for rows in (single, scalar):
        assert intercept == _rows_added_in_order(np.array(rows)).tobytes()
