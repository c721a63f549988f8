"""Tests for the consumer simulator: policy, filter, and Monte Carlo means."""
import statistics
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.stats
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
    experiments,
    optimal_price,
    population_model,
    simulate_population_day,
    substream,
)
from dahp.config import ExperimentConfig, PopulationSpec, SeriesSpec, SimulateSpec, draw_population
from dahp.pricing import expected_cs
from dahp.simulate import (
    DAY_NOISE_STREAM,
    POPULATION_STREAM,
    REPLICATE_NOISE_STREAM,
    _baselines,
    _box_muller,
    _noise,
    _noise_words,
    _row_words,
)
from dahp.timeseries import mean_day, synthetic_weather, synthetic_wholesale
from oracles import EstimatorState, baseline_days, kalman_step, mean_demand, optimal_policy_step, simulate_days


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------

def test_substream_deterministic_and_distinct():
    a = substream(7, 1, 2).normal(size=4)
    b = substream(7, 1, 2).normal(size=4)
    c = substream(7, 1, 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_rejects_negative_keys():
    with pytest.raises(ValueError):
        substream(-1)
    with pytest.raises(ValueError):
        substream(3, -2)


# ---------------------------------------------------------------------------
# keyed block noise
# ---------------------------------------------------------------------------

def test_row_words_cover_the_normals_in_whole_blocks():
    for horizon in (1, 2, 3, 5, 24, 25):
        width = _row_words(horizon)
        assert width % 4 == 0 and 2 * horizon + 2 <= width < 2 * horizon + 6


def test_noise_rows_are_philox_counter_offsets():
    ids = [0, 1, 2, 10, 11, 5, 3, 4, 1000]  # runs, a gap, a step back, a lone far id
    width = _row_words(24)
    words = _noise_words(9, (DAY_NOISE_STREAM, 4), ids, width)
    key = np.random.SeedSequence((9, DAY_NOISE_STREAM, 4)).generate_state(2, np.uint64)
    for row, cid in zip(words, ids):
        expected = np.random.Philox(key=key, counter=[cid * width // 4, 0, 0, 0]).random_raw(width)
        assert row.dtype == np.uint64 and np.array_equal(row, expected)


def test_noise_rows_do_not_depend_on_the_population():
    # strided ids, a permuted population and each consumer alone: same rows per id
    consumers = _mixed_population(12)
    ids = [3 * c + 1 for c in range(len(consumers))]
    stream = (DAY_NOISE_STREAM, 2)
    batch = _noise(Population.of(consumers), 5, stream, ids)
    order = np.random.default_rng(65).permutation(len(consumers))
    permuted = _noise(Population.of([consumers[k] for k in order]), 5, stream, [ids[k] for k in order])
    for field, shuffled in zip(batch, permuted):
        assert np.array_equal(field[order], shuffled)
    for row, (cid, params) in enumerate(zip(ids, consumers)):
        for field, alone in zip(batch, _noise(params, 5, stream, [cid])):
            assert np.array_equal(field[row], alone[0])


def test_zero_variance_keeps_the_other_fields_draws():
    params = helpers.random_params(np.random.default_rng(66))
    stream = (DAY_NOISE_STREAM, 1)
    v0, w, v = _noise(params, 3, stream, [7])
    quiet_process = _noise(replace(params, process_noise_var=[0.0]), 3, stream, [7])
    assert np.array_equal(quiet_process[0], v0) and np.array_equal(quiet_process[2], v)
    assert not np.any(quiet_process[1])
    quiet_reading = _noise(replace(params, obs_noise_var=[0.0]), 3, stream, [7])
    assert np.array_equal(quiet_reading[1], w)
    assert not np.any(quiet_reading[0]) and not np.any(quiet_reading[2])


@pytest.mark.parametrize("seed, day, ids", [(-1, 0, [0]), (0, -1, [0]), (0, 0, [2, -1])],
                         ids=["seed", "day", "consumer id"])
def test_negative_noise_coordinates_raise(seed, day, ids):
    population = Population.of([helpers.toy3_params()] * len(ids))
    with pytest.raises(ValueError):
        simulate_population_day(population, np.zeros(3), np.full(3, 30.0), seed, day, consumer_ids=ids)


def test_random_streams_share_no_words():
    # the population draw (one word per uniform), the noise of days 0..7 and
    # the replicate days of consumers 0..7 read different Philox keys, so no
    # 64-bit word appears twice among them
    seed, consumers, width = 2024, 64, _row_words(24)
    words = [substream(seed, POPULATION_STREAM).bit_generator.random_raw(consumers * 6)]
    for index in range(8):
        for stream in ((DAY_NOISE_STREAM, index), (REPLICATE_NOISE_STREAM, index)):
            words.append(_noise_words(seed, stream, np.arange(consumers), width).ravel())
    words = np.concatenate(words)
    assert len(np.unique(words)) == len(words)


def test_noise_normals_are_standard_and_uncorrelated():
    rows = 4000
    z = _box_muller(_noise_words(11, (DAY_NOISE_STREAM, 0), np.arange(rows), _row_words(24)), 49)
    assert scipy.stats.kstest(z.ravel(), "norm").pvalue > 1e-3
    bound = 4.0 / np.sqrt(rows)  # 4 standard errors of a correlation under independence
    for j in range(z.shape[1] - 1):  # neighbouring normals, incl. the cos/sin of one word pair
        assert abs(np.corrcoef(z[:, j], z[:, j + 1])[0, 1]) < bound
    for j in range(z.shape[1]):  # neighbouring rows, i.e. neighbouring consumers
        assert abs(np.corrcoef(z[:-1, j], z[1:, j])[0, 1]) < bound


# ---------------------------------------------------------------------------
# policy step
# ---------------------------------------------------------------------------

def test_policy_zero_price_targets_setpoint():
    params = helpers.toy3_params()
    alpha, beta = params.alpha.item(), params.beta.item()
    est = EstimatorState(indoor_est=22.0, indoor_var=0.0, outdoor_pred=30.0)
    power = optimal_policy_step(est, np.zeros(3), 1, params)
    # applying this power moves the expected temperature onto the setpoint
    x_next = (1 - alpha) * 22.0 + alpha * 30.0 - beta * power
    assert x_next == pytest.approx(params.desired_temp[0, 0], abs=1e-12)


def test_policy_constant_price_offsets():
    params = helpers.toy3_params()
    alpha, beta, mu, t = params.alpha.item(), params.beta.item(), params.mu.item(), params.desired_temp[0]
    c = 0.12
    prices = np.full(3, c)
    est = EstimatorState(indoor_est=20.0, indoor_var=0.0, outdoor_pred=30.0)
    two_mu_beta = 2.0 * mu * beta
    for hour in (1, 2):
        power = optimal_policy_step(est, prices, hour, params)
        x_next = (1 - alpha) * 20.0 + alpha * 30.0 - beta * power
        target = alpha * c / two_mu_beta + t[hour - 1]
        assert x_next == pytest.approx(target, abs=1e-12)
    # final hour has no successor price
    power = optimal_policy_step(est, prices, 3, params)
    x_next = (1 - alpha) * 20.0 + alpha * 30.0 - beta * power
    assert x_next == pytest.approx(c / two_mu_beta + t[2], abs=1e-12)


def test_policy_rejects_bad_hour():
    params = helpers.toy3_params()
    est = EstimatorState(indoor_est=20.0, indoor_var=0.0, outdoor_pred=30.0)
    with pytest.raises(ValueError):
        optimal_policy_step(est, np.zeros(3), 0, params)
    with pytest.raises(ValueError):
        optimal_policy_step(est, np.zeros(3), 4, params)


def test_policy_sequence_matches_brute_force_two_hours():
    rng = np.random.default_rng(52)
    for _ in range(5):
        params = helpers.random_params(rng, horizon=2, noisy=False)
        forecast = rng.uniform(25.0, 35.0, size=2)
        prices = rng.uniform(0.0, 0.4, size=2)
        oracle = oracles.brute_demand(*oracles.thermal(params), forecast, prices)
        consumption, _, _ = simulate_population_day(params, prices, forecast, seed=0)
        assert np.max(np.abs(consumption[0, 0] - oracle)) < 1e-6


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------

def test_kalman_perfect_observation():
    params = Population(alpha=[0.5], beta=[0.1], mu=[0.5], desired_temp=[np.full(3, 20.0)],
                        process_noise_var=[0.3], obs_noise_var=[0.0])
    est = EstimatorState(indoor_est=21.0, indoor_var=1.0, outdoor_pred=30.0)
    out = kalman_step(est, (19.4, 30.0), params, applied_power=2.0)
    assert out.indoor_est == pytest.approx(19.4, abs=1e-12)
    assert out.indoor_var == pytest.approx(0.0, abs=1e-12)


def test_kalman_deterministic_system_tracks_truth():
    params = helpers.toy3_params()  # zero noise
    alpha, beta = params.alpha.item(), params.beta.item()
    est = EstimatorState(indoor_est=20.0, indoor_var=0.0, outdoor_pred=30.0)
    x = 20.0
    for power in (1.0, -0.5, 2.0):
        x = (1 - alpha) * x + alpha * 30.0 - beta * power
        est = kalman_step(est, (x, 30.0), params, applied_power=power)
        assert est.indoor_est == pytest.approx(x, abs=1e-12)
        assert est.indoor_var == 0.0


def test_kalman_variance_non_increasing_on_update():
    params = Population(alpha=[0.4], beta=[0.1], mu=[0.5], desired_temp=[np.full(3, 20.0)],
                        process_noise_var=[0.02], obs_noise_var=[0.05])
    est = EstimatorState(indoor_est=20.0, indoor_var=0.5, outdoor_pred=30.0)
    out = kalman_step(est, (20.3, 30.0), params, applied_power=0.0)
    predicted = (1 - params.alpha.item()) ** 2 * 0.5 + params.process_noise_var.item()
    assert out.indoor_var <= predicted


def test_kalman_steady_state_matches_riccati_root():
    rng = np.random.default_rng(53)
    for _ in range(5):
        alpha = rng.uniform(0.2, 0.8)
        q = rng.uniform(0.001, 0.1)
        r = rng.uniform(0.001, 0.1)
        params = Population(alpha=[alpha], beta=[0.1], mu=[0.5],
                            desired_temp=[np.full(3, 20.0)],
                            process_noise_var=[q], obs_noise_var=[r])
        est = EstimatorState(indoor_est=20.0, indoor_var=r, outdoor_pred=30.0)
        for _ in range(1000):
            est = kalman_step(est, (20.0, 30.0), params, applied_power=0.0)
        expected = oracles.steady_state_posterior_variance(alpha, q, r)
        assert est.indoor_var == pytest.approx(expected, rel=1e-10)


def test_kalman_carries_next_forecast():
    params = helpers.toy3_params()
    est = EstimatorState(indoor_est=20.0, indoor_var=0.0, outdoor_pred=30.0)
    out = kalman_step(est, (20.0, 30.0), params, 0.0, next_outdoor_forecast=28.0)
    assert out.outdoor_pred == 28.0
    out = kalman_step(est, (20.0, 30.0), params, 0.0)
    assert out.outdoor_pred == 30.0


# ---------------------------------------------------------------------------
# day simulation
# ---------------------------------------------------------------------------

def test_simulate_surplus_accounting_identity_exact(tmp_path, monkeypatch):
    # both CSVs' surplus is -(discomfort + payment) of the same floats, bitwise
    written = {}
    monkeypatch.setattr(experiments, "_write_csv",
                        lambda path, header, columns: written.__setitem__(path.name, dict(zip(header, columns))))
    config = ExperimentConfig(seed=54, consumers=PopulationSpec(count=20, alpha=[0.2, 0.8], mu=[0.2, 2.0]),
                              weather=SeriesSpec(days=2), wholesale=SeriesSpec(days=2),
                              simulate=SimulateSpec(thermostat_tolerances=[0.0, 1.0]))
    experiments.run_simulate(config, tmp_path)
    for name in ("simulate.csv", "baseline.csv"):
        columns = written[name]
        assert np.array_equal(columns["surplus"], -(columns["discomfort"] + columns["payment"]))


def test_simulate_day_seed_determinism_bitwise():
    params = helpers.random_params(np.random.default_rng(55))
    prices = np.full(24, 0.1)
    a = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 2, consumer_ids=[3])
    b = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 2, consumer_ids=[3])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 3, consumer_ids=[3])
    assert not np.array_equal(a[0], c[0])


def test_zero_noise_zero_price_tracks_setpoint():
    params = helpers.toy3_params()
    weather = np.full(3, 32.0)
    _, _, discomfort = simulate_population_day(params, np.zeros(3), weather, seed=1)
    assert discomfort[0, 0] == pytest.approx(0.0, abs=1e-18)


def test_simulate_day_agrees_with_scalar_steps():
    # the vectorized rollout and the single-step operations must describe
    # the same policy/filter
    rng = np.random.default_rng(56)
    params = helpers.random_params(rng, horizon=5)
    prices = rng.uniform(0.0, 0.3, size=5)
    forecast = rng.uniform(25.0, 35.0, size=5)
    result, _, _ = simulate_population_day(params, prices, forecast, 77, 4, consumer_ids=[2])
    consumption, _, _ = oracles.step_rollout(params, prices, forecast, *oracles.day_noise(77, 2, 4, params))
    assert np.allclose(result[0, 0], consumption, rtol=1e-12, atol=1e-12)


def test_simulate_days_matches_stacked_single_days():
    # replicate day k sits at counter offset k, so the first day of an
    # n_days batch equals a batch of size 1, bit for bit
    rng = np.random.default_rng(57)
    params = helpers.random_params(rng, horizon=6)
    prices = rng.uniform(0.0, 0.3, size=6)
    forecast = rng.uniform(25.0, 35.0, size=6)
    cons1, pay1, disc1 = simulate_days(params, prices, forecast, seed=4, n_days=1)
    assert cons1.shape == (1, 6)
    assert pay1.shape == disc1.shape == (1,)
    cons5, _, disc5 = simulate_days(params, prices, forecast, seed=4, n_days=5)
    assert np.array_equal(cons5[:1], cons1) and disc5[0] == disc1[0]


def test_monte_carlo_demand_matches_model():
    rng = np.random.default_rng(58)
    # 24 hour-means, two-sided: Bonferroni at a 1 % family-wise false-alarm
    # rate.  30k days keep the smallest flagged bias (3.53 SE of 30k days,
    # 2.88 SE of 20k) below the old 3-sigma test's 3 SE of 20k days.
    threshold = statistics.NormalDist().inv_cdf(1.0 - 0.01 / (2 * 24))
    n_days = 30_000
    params = helpers.random_params(rng, horizon=24)
    model = build_consumer_model(params, helpers.DEFAULT_WEATHER)
    prices = rng.uniform(0.02, 0.3, size=24)
    cons, _, _ = simulate_days(params, prices, helpers.DEFAULT_WEATHER, seed=60, n_days=n_days)
    expected = mean_demand(model, prices)
    se = cons.std(axis=0, ddof=1) / np.sqrt(n_days)
    assert np.all(np.abs(cons.mean(axis=0) - expected) < threshold * np.maximum(se, 1e-12))


def test_monte_carlo_surplus_matches_model():
    rng = np.random.default_rng(59)
    n_days = 50_000
    params = helpers.random_params(rng, horizon=24)
    model = build_consumer_model(params, helpers.DEFAULT_WEATHER)
    prices = rng.uniform(0.02, 0.3, size=24)
    _, pay, disc = simulate_days(params, prices, helpers.DEFAULT_WEATHER, seed=61, n_days=n_days)
    surplus = -(disc + pay)
    se = surplus.std(ddof=1) / np.sqrt(n_days)
    assert abs(surplus.mean() - expected_cs(model, prices)) < 3.0 * se


def test_empirical_affinity_recovers_gain():
    # regress hourly mean demand on prices over several tariffs; the demand
    # map is tridiagonal, so each hour needs only its three gain entries
    # plus an intercept
    rng = np.random.default_rng(62)
    params = helpers.random_params(rng, horizon=24)
    model = build_consumer_model(params, helpers.DEFAULT_WEATHER)
    n_prices, n_days = 20, 100_000
    base = 0.15
    price_set = base + rng.uniform(-0.1, 0.1, size=(n_prices, 24))
    means = np.empty((n_prices, 24))
    for k in range(n_prices):
        cons, _, _ = simulate_days(params, price_set[k], helpers.DEFAULT_WEATHER,
                                   seed=700 + k, n_days=n_days)
        means[k] = cons.mean(axis=0)
    for i in range(24):
        cols = [j for j in (i - 1, i, i + 1) if 0 <= j < 24]
        design = np.column_stack([price_set[:, cols], np.ones(n_prices)])
        coef, *_ = np.linalg.lstsq(design, means[:, i], rcond=None)
        for pos, j in enumerate(cols):
            true = -model.gain[i, j]
            assert abs(coef[pos] - true) <= 0.02 * abs(true)


# ---------------------------------------------------------------------------
# baseline thermostat
# ---------------------------------------------------------------------------

def test_baseline_rejects_negative_tolerance():
    params = helpers.toy3_params()
    with pytest.raises(ValueError):
        simulate_population_day(params, np.zeros(3), np.full(3, 30.0), seed=0, tolerances=[-0.1])


def test_baseline_zero_tolerance_zero_noise_tracks_setpoint():
    params = helpers.toy3_params()
    weather = np.full(3, 32.0)
    _, _, discomfort = simulate_population_day(params, np.full(3, 0.2), weather, seed=0, tolerances=[0.0])
    assert discomfort[1, 0] == pytest.approx(0.0, abs=1e-18)


def test_baseline_tolerance_trades_payment_for_discomfort():
    params = Population(alpha=[0.5], beta=[0.1], mu=[0.5], desired_temp=[np.full(24, 20.0)],
                        process_noise_var=[0.01], obs_noise_var=[0.01])
    prices = np.full(24, 0.2)
    weather = helpers.DEFAULT_WEATHER
    _, pay0, disc0 = baseline_days(params, 0.0, prices, weather, seed=3, n_days=2000)
    _, pay2, disc2 = baseline_days(params, 2.0, prices, weather, seed=3, n_days=2000)
    assert pay2.mean() < pay0.mean()
    assert disc2.mean() > disc0.mean()


def test_optimal_policy_beats_baselines_on_shared_noise():
    params = Population(alpha=[0.5], beta=[0.1], mu=[0.5], desired_temp=[np.full(24, 20.0)],
                        process_noise_var=[0.01], obs_noise_var=[0.01])
    prices = np.full(24, 0.15)
    weather = helpers.DEFAULT_WEATHER
    n_days = 5000
    cons, pay, disc = simulate_days(params, prices, weather, seed=8, n_days=n_days)
    dr_surplus = -(disc + pay).mean()
    for tolerance in (0.0, 1.0, 2.0):
        _, pay_b, disc_b = baseline_days(params, tolerance, prices, weather, seed=8, n_days=n_days)
        assert dr_surplus >= -(disc_b + pay_b).mean()


# ---------------------------------------------------------------------------
# population batch path against one-consumer oracles
# ---------------------------------------------------------------------------

def _mixed_population(count: int = 60) -> list[Population]:
    """Varied one-row consumers, one of them heating (beta < 0) and one noise-free."""
    rng = np.random.default_rng(63)
    consumers = [helpers.random_params(rng) for _ in range(count)]
    consumers.append(Population(alpha=[0.35], beta=[-0.15], mu=[1.2],
                                desired_temp=[21.0 + rng.uniform(-1.0, 1.0, size=24)],
                                process_noise_var=[0.03], obs_noise_var=[0.02]))
    consumers.append(Population(alpha=[0.6], beta=[0.08], mu=[0.4], desired_temp=[np.full(24, 19.0)],
                                process_noise_var=[0.0], obs_noise_var=[0.0]))
    return consumers


def test_population_model_is_the_consumer_order_sum():
    # enough consumers that pairwise summation would round differently
    consumers = _mixed_population(400)
    for weather in (helpers.DEFAULT_WEATHER, helpers.DEFAULT_WEATHER[::-1] - 3.0):
        model = population_model(Population.of(consumers), weather)
        for singles in (
            [oracles.scalar_consumer_model(p, weather) for p in consumers],
            [astuple(build_consumer_model(p, weather)) for p in consumers],
        ):
            gain, intercept, cov, cs = 0.0, 0.0, 0.0, 0.0
            for g, b, c, k in singles:
                gain, intercept, cov, cs = gain + g, intercept + b, cov + c, cs + k
            assert np.array_equal(model.gain, gain)
            assert np.array_equal(model.intercept_mean, intercept)
            assert np.array_equal(model.intercept_cov, cov)
            assert model.cs_constant == cs


def _close_to_row(cells, expected) -> bool:
    """Within 1e-12 relative to the row's largest entry (a noise-free
    consumer's discomfort is 0 up to rounding)."""
    expected = np.asarray(expected, dtype=float)
    return np.allclose(cells, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


def test_run_simulate_rows_match_step_oracle(tmp_path, monkeypatch):
    consumers = _mixed_population()
    tolerances = [0.0, 1.5]
    written = {}
    monkeypatch.setattr(experiments, "draw_population", lambda spec, seed: Population.of(consumers))
    monkeypatch.setattr(experiments, "_write_csv",
                        lambda path, header, columns: written.__setitem__(path.name, list(zip(*columns))))
    config = ExperimentConfig(
        seed=31, weather=SeriesSpec(days=2), wholesale=SeriesSpec(days=2),
        simulate=SimulateSpec(eta=0.6, thermostat_tolerances=tolerances),
    )
    experiments.run_simulate(config, tmp_path)

    cost = WholesaleCost(mean=mean_day(synthetic_wholesale(2)))
    responsive, baseline = iter(written["simulate.csv"]), iter(written["baseline.csv"])
    for day, weather in enumerate(synthetic_weather(2)):
        model = aggregate([build_consumer_model(p, weather.values) for p in consumers])
        prices = optimal_price(model, cost, 0.6)
        for cid, params in enumerate(consumers):
            v0, w, v = oracles.day_noise(31, cid, day, params)
            _, pay, disc = oracles.step_rollout(params, prices, weather.values, v0, w, v)
            row = next(responsive)
            assert row[:2] == (cid, day)
            assert _close_to_row(row[2:], [pay, disc, -(pay + disc)])
            for tolerance in tolerances:
                _, pay, disc = oracles.step_baseline(params, tolerance, prices, weather.values, w)
                row = next(baseline)
                assert row[:3] == (tolerance, cid, day)
                assert _close_to_row(row[3:], [pay, disc, -(pay + disc)])
    assert next(responsive, None) is None and next(baseline, None) is None


def _assert_rows_equal_single_days(population: Population, tolerances: list[float]) -> None:
    """Every row of one population day, responsive and per tolerance, equals
    that consumer simulated alone, bit for bit."""
    prices = np.random.default_rng(64).uniform(0.05, 0.3, size=24)
    ids = [3 * c + 1 for c in range(len(population))]
    cons, pay, disc = simulate_population_day(population, prices, helpers.DEFAULT_WEATHER, 9, 2, tolerances, ids)
    for row, (cid, params) in enumerate(zip(ids, population)):
        one_cons, one_pay, one_disc = simulate_population_day(
            params, prices, helpers.DEFAULT_WEATHER, 9, 2, consumer_ids=[cid]
        )
        assert np.array_equal(one_cons[0, 0], cons[0, row])
        assert (one_pay[0, 0], one_disc[0, 0]) == (pay[0, row], disc[0, row])
        for policy, tolerance in enumerate(tolerances, 1):
            alone_powers, alone_pay, alone_disc = simulate_population_day(
                params, prices, helpers.DEFAULT_WEATHER, 9, 2, [tolerance], [cid]
            )
            assert np.array_equal(alone_powers[1, 0], cons[policy, row])
            assert (alone_pay[1, 0], alone_disc[1, 0]) == (pay[policy, row], disc[policy, row])


def test_population_day_rows_equal_single_consumer_days():
    # a consumer's outcome must not depend on the batch it is simulated in
    _assert_rows_equal_single_days(Population.of(_mixed_population()), [0.0, 1.0])


@pytest.mark.parametrize("ranged, ladder_rows", [
    ({}, 1),                                       # the demo: only setpoints differ
    ({"mu": [0.2, 2.0], "beta": [0.05, 0.2]}, 1),  # the ladder needs alpha and the variances only
    ({"alpha": [0.3, 0.7]}, 40),
    ({"obs_noise_var": [0.0, 0.05]}, 40),
])
def test_shared_parameter_rows_equal_single_consumer_days(ranged, ladder_rows):
    # the rollouts read a one-row estimator ladder when the parameters it
    # depends on are shared, and must still match each consumer alone
    population = draw_population(PopulationSpec(count=40, desired_temp=[18.0, 22.0], **ranged), seed=17)
    assert [len(x) for x in population.estimator_ladder] == [ladder_rows] * 2
    _assert_rows_equal_single_days(population, [0.0, 2.0, 0.5])


def test_run_simulate_builds_the_estimator_ladder_once(tmp_path, monkeypatch):
    calls = []
    ladder = demand._estimator_variance_ladder
    monkeypatch.setattr(demand, "_estimator_variance_ladder", lambda population: calls.append(1) or ladder(population))
    config = ExperimentConfig(seed=8, consumers=PopulationSpec(count=5), weather=SeriesSpec(days=3),
                              wholesale=SeriesSpec(days=3))
    experiments.run_simulate(config, tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("count, horizon", [(300, 24), (30_000, 1)])
def test_baseline_discomfort_adds_python_float_squares_hour_by_hour(count, horizon):
    # all hours' deviations squared at once must round like Python float **
    # (libm pow) of each, and be added hour by hour; a multiply differs in
    # about one square in a thousand, which one-hour days show undiluted
    rng = np.random.default_rng(76)
    population = Population(
        alpha=rng.uniform(0.2, 0.8, count), beta=rng.uniform(0.05, 0.3, count), mu=rng.uniform(0.2, 2.0, count),
        desired_temp=rng.uniform(16.0, 24.0, (count, horizon)),
        process_noise_var=np.zeros(count), obs_noise_var=np.zeros(count),
    )
    forecast = helpers.DEFAULT_WEATHER[:horizon]
    w = rng.normal(0.0, 0.3, size=(count, horizon))
    (powers,), (discomfort,) = _baselines(population, forecast, [1.0], w)
    for row, params in enumerate(population):
        alpha, beta, mu = params.alpha.item(), params.beta.item(), params.mu.item()
        t = params.desired_temp[0].tolist()
        x, expected = t[0], 0.0
        for i, (a, p, noise) in enumerate(zip(forecast.tolist(), powers[row].tolist(), w[row].tolist())):
            x = x + alpha * (a - x) - beta * p + noise
            expected += mu * (x - t[i]) ** 2
        assert discomfort[row] == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12), horizon=st.integers(1, 30),
       shared=st.booleans(), hourly=st.booleans(),
       tolerances=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 3.0)), max_size=3))
def test_stacked_baselines_equal_one_tolerance_at_a_time(seed, count, horizon, shared, hourly, tolerances):
    # every tolerance in one hour-major stack must give each tolerance's own
    # rollout bit for bit, and every policy's payments, the optimal policy's
    # stacked with the baselines', each row's own sum (past numpy's 8-wide
    # unrolled sums), for shared or per-consumer parameters, heating or
    # cooling units, and setpoints that vary by hour or are broadcast
    rng = np.random.default_rng(seed)

    def column(lo, hi):
        return np.full(count, rng.uniform(lo, hi)) if shared else rng.uniform(lo, hi, count)

    setpoints = rng.uniform(16.0, 24.0, (count, 1))
    population = Population(
        alpha=column(0.05, 0.95), beta=column(0.02, 0.3) * rng.choice([-1.0, 1.0], count), mu=column(0.1, 2.0),
        desired_temp=(setpoints + rng.uniform(-1.0, 1.0, (count, horizon)) if hourly
                      else np.broadcast_to(setpoints, (count, horizon))),
        process_noise_var=column(0.0, 0.05), obs_noise_var=column(0.0, 0.05),
    )
    forecast = np.resize(helpers.DEFAULT_WEATHER, horizon) + rng.normal(0.0, 2.0, horizon)
    prices = np.resize(helpers.DEFAULT_WHOLESALE, horizon) * rng.uniform(0.5, 2.0, horizon)
    consumption, payment, discomfort = simulate_population_day(population, prices, forecast, seed, 0, tolerances)
    _, w, _ = _noise(population, seed, (DAY_NOISE_STREAM, 0), np.arange(count))
    assert consumption.shape == (1 + len(tolerances), count, horizon)
    for tolerance, powers, rollout in zip(tolerances, consumption[1:], discomfort[1:]):
        expected = oracles.baseline_powers(population, forecast, tolerance)
        assert powers.tobytes() == expected.tobytes()
        assert rollout.tobytes() == oracles.baseline_rollout(population, expected, forecast, w).tobytes()
    rows = np.array([[np.multiply(row, prices).sum() for row in policy] for policy in consumption])
    assert payment.tobytes() == rows.tobytes()


@pytest.mark.parametrize("ranged", [{}, {"alpha": [0.3, 0.7], "beta": [-0.2, -0.05], "mu": [0.2, 2.0]}])
def test_broadcast_setpoints_give_the_bytes_of_their_copy(ranged):
    # the model and a simulated day read a zero-stride setpoint view exactly
    # like the materialized (consumers, hours) copy it stands for
    drawn = draw_population(PopulationSpec(count=300, desired_temp=[18.0, 22.0], **ranged), seed=23)
    copy = replace(drawn, desired_temp=np.array(drawn.desired_temp))
    assert drawn.desired_temp.strides[1] == 0 and copy.desired_temp.strides[1] == 8
    weather = helpers.DEFAULT_WEATHER + 2.0
    models = [population_model(p, weather) for p in (drawn, copy)]
    assert len({b"".join(np.asarray(x).tobytes() for x in astuple(m)) for m in models}) == 1
    prices = optimal_price(models[0], WholesaleCost(mean=helpers.DEFAULT_WHOLESALE), 0.5)
    ours, theirs = (simulate_population_day(p, prices, weather, 41, 3, [0.0, 1.5, 0.0]) for p in (drawn, copy))
    assert len(ours[0]) == len(theirs[0]) == 4  # the optimal policy and three baselines
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))
