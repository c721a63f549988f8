"""Tests for the consumer simulator: policy, filter, and Monte Carlo means."""
import statistics
import tracemalloc
from dataclasses import astuple, replace
from functools import partial

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
    simulate,
    simulate_population_day,
    simulate_population_days,
    substream,
)
from dahp.config import ExperimentConfig, PopulationSpec, SeriesSpec, SimulateSpec, draw_population, load_config
from dahp.pricing import expected_cs
from dahp.simulate import (
    DAY_NOISE_STREAM,
    POPULATION_STREAM,
    REPLICATE_NOISE_STREAM,
    _box_muller,
    _noise,
    _noise_words,
    _row_words,
)
from dahp.timeseries import HourlySeries, mean_day, synthetic_weather, synthetic_wholesale
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
    width = _row_words(24)
    words = _noise_words(9, (DAY_NOISE_STREAM, 4), 1001, width)
    key = np.random.SeedSequence((9, DAY_NOISE_STREAM, 4)).generate_state(2, np.uint64)
    assert words.shape == (1001, width) and words.dtype == np.uint64
    for row in (0, 1, 2, 500, 999, 1000):
        expected = np.random.Philox(key=key, counter=[row * width // 4, 0, 0, 0]).random_raw(width)
        assert np.array_equal(words[row], expected)


def _ranged_population(count: int) -> Population:
    """``count`` drawn consumers with every parameter their own, heating and cooling."""
    ranges = dict(alpha=[0.3, 0.7], beta=[-0.2, 0.2], mu=[0.2, 2.0], desired_temp=[18.0, 22.0],
                  process_noise_var=[0.0, 0.05], obs_noise_var=[0.0, 0.05])
    return draw_population(PopulationSpec(count=count, **ranges), seed=65)


def _rows(population: Population, rows: slice) -> Population:
    return Population(**{name: getattr(population, name)[rows] for name in demand._FIELDS})


@pytest.mark.parametrize("count", [1, 3, 1000])
def test_noise_of_a_day_is_the_first_rows_of_a_larger_day(count):
    # a consumer's noise, and so its day, depends on its row and the day,
    # not on the population's size
    population = _ranged_population(1001)
    first = _rows(population, slice(count))
    stream = (DAY_NOISE_STREAM, 2)
    for all_rows, rows in zip(_noise(population, 5, stream, 1001), _noise(first, 5, stream, count)):
        assert rows.shape == (count, *all_rows.shape[1:]) and rows.tobytes() == all_rows[:count].tobytes()
    prices = np.random.default_rng(69).uniform(0.05, 0.3, size=24)
    day = (simulate_population_day(p, prices, helpers.DEFAULT_WEATHER, 5, 2, [1.0]) for p in (population, first))
    for all_rows, rows in zip(*day):
        assert rows.tobytes() == all_rows[:, :count].tobytes()


@pytest.mark.parametrize("row", [0, 500, 1000])
def test_noise_row_is_the_consumers_own_counter_offset(row):
    # row k of a day is consumer k's words drawn from counter k * W / 4 and
    # made into normals out of place, bit for bit, and the scalar cos/sin
    # Box-Muller of those words within rounding
    population = _ranged_population(1001)
    consumer = _rows(population, slice(row, row + 1))
    day = 6
    ours = [field[row:row + 1] for field in _noise(population, 13, (DAY_NOISE_STREAM, day), 1001)]
    reference = oracles.block_noise(consumer, 13, (DAY_NOISE_STREAM, day), [row])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, reference))
    for a, b in zip(ours, oracles.day_noise(13, row, day, consumer)):
        assert np.allclose(a.ravel(), b, rtol=0.0, atol=1e-14)


def test_zero_variance_keeps_the_other_fields_draws():
    params = helpers.random_params(np.random.default_rng(66))
    stream = (DAY_NOISE_STREAM, 1)
    v0, w, v = _noise(params, 3, stream, 1)
    quiet_process = _noise(replace(params, process_noise_var=[0.0]), 3, stream, 1)
    assert np.array_equal(quiet_process[0], v0) and np.array_equal(quiet_process[2], v)
    assert not np.any(quiet_process[1])
    quiet_reading = _noise(replace(params, obs_noise_var=[0.0]), 3, stream, 1)
    assert np.array_equal(quiet_reading[1], w)
    assert not np.any(quiet_reading[0]) and not np.any(quiet_reading[2])


@pytest.mark.parametrize("seed, day", [(-1, 0), (0, -1), (2.5, 0), (0, 2.5)],
                         ids=["seed", "day", "fractional seed", "fractional day"])
def test_negative_or_fractional_noise_coordinates_raise(seed, day):
    # truncating a fractional one would read another day's noise
    population = Population.of([helpers.toy3_params()] * 2)
    with pytest.raises(ValueError):
        simulate_population_day(population, np.zeros(3), np.full(3, 30.0), seed, day)


def test_random_streams_share_no_words():
    # the population draw (one word per uniform), the noise of days 0..7 and
    # the replicate days of consumers 0..7 read different Philox keys, so no
    # 64-bit word appears twice among them
    seed, consumers, width = 2024, 64, _row_words(24)
    words = [substream(seed, POPULATION_STREAM).bit_generator.random_raw(consumers * 6)]
    for index in range(8):
        for stream in ((DAY_NOISE_STREAM, index), (REPLICATE_NOISE_STREAM, index)):
            words.append(_noise_words(seed, stream, consumers, width).ravel())
    words = np.concatenate(words)
    assert len(np.unique(words)) == len(words)


def test_noise_normals_are_standard_and_uncorrelated():
    rows = 4000
    z = _box_muller(_noise_words(11, (DAY_NOISE_STREAM, 0), rows, _row_words(24)), 49)
    assert scipy.stats.kstest(z.ravel(), "norm").pvalue > 1e-3
    bound = 4.0 / np.sqrt(rows)  # 4 standard errors of a correlation under independence
    for j in range(z.shape[1] - 1):  # neighbouring normals, incl. the cos/sin of one word pair
        assert abs(np.corrcoef(z[:, j], z[:, j + 1])[0, 1]) < bound
    for j in range(z.shape[1]):  # neighbouring rows, i.e. neighbouring consumers
        assert abs(np.corrcoef(z[:-1, j], z[1:, j])[0, 1]) < bound


def _edge_words() -> np.ndarray:
    """One row of word pairs: the smallest, largest and middle u against v
    next to 0, a quarter (where the cosine crosses zero), 1/2 and 1, with
    the 11 low bits that the uniforms drop set.  ``(k + 0.5) * 2**-53``
    rounds ``k + 0.5`` to even above 2**52, so the largest u and v are 1
    and ``k = 2**52`` gives v = 1/2 exactly."""
    ends = [0, 2**53 - 1, 2**52]  # u = 2**-54, 1 and 1/2
    near = [0, 1, 2**51 - 1, 2**51, 2**52 - 2, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
    pairs = [(a, b) for a in ends for b in near]
    return (np.array(pairs, dtype=np.uint64).reshape(1, -1) << np.uint64(11)) | np.uint64(0x7FF)


@pytest.mark.parametrize("source", ["philox", "edge"])
def test_tangent_normals_are_within_rounding_of_cos_and_sin(source):
    # the half-angle normals change only the last bits of the cos/sin ones:
    # over a million normals of the noise stream, and at the extreme words
    if source == "philox":
        words, count = _noise_words(12, (DAY_NOISE_STREAM, 1), 20_409, _row_words(24)), 49
        assert words.shape[0] * count >= 10**6
    else:
        words = _edge_words()
        count = words.shape[1]
    trig = oracles.box_muller_trig(words, count)
    tangent = oracles.box_muller(words, count)
    ours = _box_muller(words.copy(), count)
    assert np.isfinite(ours).all()
    assert ours.tobytes() == tangent.tobytes()
    assert np.abs(ours - trig).max() <= 1e-14


@pytest.mark.parametrize("horizon", [1, 24, 25])
@pytest.mark.parametrize("count", [1, 1000])
def test_noise_equals_the_out_of_place_reference_bitwise(count, horizon):
    # normals made in the word buffer through strided and in-place operands
    # must round like the fresh arrays of the reference, for odd and even
    # pair counts, one row or many, and zero variances
    rng = np.random.default_rng(67)
    process, obs = rng.uniform(0.001, 0.05, count), rng.uniform(0.001, 0.05, count)
    process[::3], obs[1::3] = 0.0, 0.0
    population = Population(alpha=np.full(count, 0.5), beta=np.full(count, 0.1), mu=np.full(count, 0.5),
                            desired_temp=np.full((count, horizon), 20.0),
                            process_noise_var=process, obs_noise_var=obs)
    stream = (DAY_NOISE_STREAM, 3)
    ours = _noise(population, 8, stream, count)
    for field, reference in zip(ours, oracles.block_noise(population, 8, stream, range(count))):
        assert field.shape == reference.shape and field.tobytes() == reference.tobytes()
    assert not ours[1][::3].any() and not ours[2][1::3].any()


def test_replicate_noise_equals_the_out_of_place_reference_bitwise():
    # a population of one scales all of its replicate rows alike
    params = helpers.random_params(np.random.default_rng(68))
    stream = (REPLICATE_NOISE_STREAM, 4)
    for field, reference in zip(_noise(params, 8, stream, 1000), oracles.block_noise(params, 8, stream, range(1000))):
        assert field.shape == reference.shape and field.tobytes() == reference.tobytes()


def test_noise_peaks_near_its_word_buffer():
    # the normals are made in the Philox word buffer with one extra
    # (rows, pairs) buffer, so a day's noise never holds several
    # (rows, words) temporaries at once; numpy reports its data buffers
    # to tracemalloc, whatever the C allocator does with them
    population = draw_population(PopulationSpec(count=1000), seed=3)
    _noise(population, 5, (DAY_NOISE_STREAM, 0), 1000)  # first-call costs outside the window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        noise = _noise(population, 5, (DAY_NOISE_STREAM, 0), 1000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert noise[1].shape == (1000, 24)
    assert peak <= 2.25 * 1000 * _row_words(24) * 8


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

def test_simulate_surplus_accounting_identity_exact():
    # both CSVs' surplus is -(discomfort + payment) of the same floats, bitwise
    config = ExperimentConfig(seed=54, consumers=PopulationSpec(count=20, alpha=[0.2, 0.8], mu=[0.2, 2.0]),
                              weather=SeriesSpec(days=2), wholesale=SeriesSpec(days=2),
                              simulate=SimulateSpec(thermostat_tolerances=[0.0, 1.0]))
    tables, _ = experiments.run_simulate(config, *experiments.load_inputs(config))
    for name in ("simulate.csv", "baseline.csv"):
        columns = dict(zip(*tables[name]))
        assert np.array_equal(columns["surplus"], -(columns["discomfort"] + columns["payment"]))


def test_run_simulate_without_tolerances_writes_the_same_simulate_csv(tmp_path):
    # an empty baseline stack leaves the optimal policy's rows as they are
    # and writes no baseline.csv
    outputs = {}
    for tolerances in ([], [0.0, 2.0]):
        out = tmp_path / str(len(tolerances))
        out.mkdir()
        config = ExperimentConfig(seed=12, consumers=PopulationSpec(count=7, alpha=[0.2, 0.8], beta=[0.05, 0.3]),
                                  weather=SeriesSpec(days=2), wholesale=SeriesSpec(days=2),
                                  simulate=SimulateSpec(thermostat_tolerances=tolerances))
        tables, _ = experiments.run_simulate(config, *experiments.load_inputs(config))
        files = experiments._write_tables(out, tables)
        outputs[len(tolerances)] = (files, sorted(p.name for p in out.iterdir()), (out / "simulate.csv").read_bytes())
    assert outputs[0][:2] == (["simulate.csv"], ["simulate.csv"])
    assert outputs[2][:2] == (["simulate.csv", "baseline.csv"], ["baseline.csv", "simulate.csv"])
    assert outputs[0][2] == outputs[2][2]


def test_simulate_day_seed_determinism_bitwise():
    params = helpers.random_params(np.random.default_rng(55))
    prices = np.full(24, 0.1)
    a = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 2)
    b = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 2)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = simulate_population_day(params, prices, helpers.DEFAULT_WEATHER, 9, 3)
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
    result, _, _ = simulate_population_day(params, prices, forecast, 77, 4)
    consumption, _, _ = oracles.step_rollout(params, prices, forecast, *oracles.day_noise(77, 0, 4, params))
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

@pytest.mark.parametrize("tolerance", [-0.1, float("nan"), float("inf")])
def test_baseline_rejects_negative_or_non_finite_tolerance(tolerance):
    # a non-finite band would give non-finite baseline rows
    params = helpers.toy3_params()
    with pytest.raises(ValueError):
        simulate_population_day(params, np.zeros(3), np.full(3, 30.0), seed=0, tolerances=[1.0, tolerance])


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


def _demo_day(count: int | None = None) -> tuple[Population, np.ndarray, np.ndarray]:
    """The demo config's population (or a ``count``-consumer draw of it),
    its first weather day and that day's optimal tariff, as ``run_simulate``
    prices it."""
    config = load_config(helpers.DEMO_CONFIG)
    if count is not None:
        config = replace(config, consumers=replace(config.consumers, count=count))
    population, (day, *_), cost = experiments.load_inputs(config)
    return population, optimal_price(population_model(population, day.values), cost, config.simulate.eta), day.values


def _heating_and_cooling() -> tuple[Population, np.ndarray, np.ndarray]:
    """A ranged heating population of 30 and a ranged cooling one, as one."""
    ranges = dict(alpha=[0.3, 0.7], mu=[0.2, 0.8], desired_temp=[18.0, 22.0],
                  process_noise_var=[0.0, 0.02], obs_noise_var=[0.005, 0.02])
    population = Population.of([draw_population(PopulationSpec(count=30, beta=beta, **ranges), seed)
                                for seed, beta in ((41, [-0.2, -0.05]), (42, [0.05, 0.2]))])
    rng = np.random.default_rng(43)
    return population, rng.uniform(0.05, 0.3, 24), helpers.DEFAULT_WEATHER + rng.normal(0.0, 3.0, 24)


def _one_consumer(horizon: int) -> tuple[Population, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(44 + horizon)
    return helpers.random_params(rng, horizon), rng.uniform(0.05, 0.3, horizon), rng.uniform(25.0, 35.0, horizon)


_ROLLOUT_MAP_CASES = {
    "demo": _demo_day,
    "demo-1000": lambda: _demo_day(1000),
    "ranged heating and cooling": _heating_and_cooling,
    **{f"horizon {horizon}": partial(_one_consumer, horizon) for horizon in range(1, 7)},
}


def _relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


@pytest.mark.parametrize("case", _ROLLOUT_MAP_CASES.values(), ids=_ROLLOUT_MAP_CASES)
def test_rollout_maps_are_the_population_model(case):
    # the rollout is affine in the noise: its noise-free aggregate is the
    # model's mean demand b - G pi, and its noise maps L_k with the noise
    # variances D_k = diag(r, q 1_N, r 1_N) give the intercept covariance
    population, prices, forecast = case()
    base, maps = oracles.rollout_maps(population, prices, forecast)
    model = population_model(population, forecast)
    assert _relative_error(base.sum(axis=0), model.intercept_mean - model.gain @ prices) < 1e-12
    n, r, q = population.horizon, population.obs_noise_var[:, None], population.process_noise_var[:, None]
    variances = np.hstack([r, np.repeat(q, n, axis=1), np.repeat(r, n, axis=1)])
    cov = np.einsum("kji,kj,kjl->il", maps, variances, maps)
    assert _relative_error(cov, model.intercept_cov) < 1e-12


def _close_to_row(cells, expected) -> bool:
    """Within 1e-12 relative to the row's largest entry (a noise-free
    consumer's discomfort is 0 up to rounding)."""
    expected = np.asarray(expected, dtype=float)
    return np.allclose(cells, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


def test_run_simulate_rows_match_step_oracle(monkeypatch):
    consumers = _mixed_population()
    tolerances = [0.0, 1.5]
    monkeypatch.setattr(experiments, "draw_population", lambda spec, seed: Population.of(consumers))
    config = ExperimentConfig(
        seed=31, weather=SeriesSpec(days=2), wholesale=SeriesSpec(days=2),
        simulate=SimulateSpec(eta=0.6, thermostat_tolerances=tolerances),
    )
    tables, _ = experiments.run_simulate(config, *experiments.load_inputs(config))
    written = {name: list(zip(*columns)) for name, (_, columns) in tables.items()}

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
    that consumer rolled out alone on its noise row, bit for bit."""
    prices = np.random.default_rng(64).uniform(0.05, 0.3, size=24)
    cons, pay, disc = simulate_population_day(population, prices, helpers.DEFAULT_WEATHER, 9, 2, tolerances)
    noise = _noise(population, 9, (DAY_NOISE_STREAM, 2), len(population))
    for row, params in enumerate(population):
        own = [field[row:row + 1] for field in noise]
        for policy, alone in enumerate([[], *([tolerance] for tolerance in tolerances)]):
            # the responsive policy alone, then each baseline beside it: the last policy of the stack
            alone_cons, alone_disc = oracles.day_rollout(params, prices, helpers.DEFAULT_WEATHER, alone, *own)
            alone_pay = simulate._row_payments(alone_cons, prices)
            assert np.array_equal(alone_cons[-1, 0], cons[policy, row])
            assert (alone_pay[-1, 0], alone_disc[-1, 0]) == (pay[policy, row], disc[policy, row])


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


@pytest.mark.parametrize("spec", [
    PopulationSpec(desired_temp=[18.0, 22.0]),                           # the demo: only setpoints differ
    PopulationSpec(count=300, beta=[-0.15, -0.05], mu=[0.2, 2.0]),       # alpha and the variances shared
    PopulationSpec(count=300, alpha=[0.3, 0.7], obs_noise_var=[0.0, 0.05]),  # a ladder row per consumer
], ids=["demo", "shared alpha", "ranged alpha"])
def test_rollout_reads_shared_parameters_as_one_row_bitwise(spec):
    # a config scalar is a zero-stride view read as one broadcast row; the
    # materialized copy, a row per consumer everywhere, gives the same day
    # bit for bit (tests/test_demand.py compares their models)
    drawn = draw_population(spec, seed=7)
    copy = Population(**{name: np.array(getattr(drawn, name)) for name in demand._FIELDS})
    q, copied = drawn.process_noise_var, copy.process_noise_var  # shared in every spec here
    assert len(demand._distinct(q)) == 1 and len(demand._distinct(copied)) == len(copy)
    weather = helpers.DEFAULT_WEATHER - 1.5
    prices = optimal_price(population_model(drawn, weather), WholesaleCost(mean=helpers.DEFAULT_WHOLESALE), 0.3)
    ours, theirs = (simulate_population_day(p, prices, weather, 5, 1, [0.0, 0.5, 3.0]) for p in (drawn, copy))
    assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))


def test_run_simulate_builds_the_estimator_ladder_once(monkeypatch):
    calls = []
    ladder = demand._estimator_variance_ladder
    monkeypatch.setattr(demand, "_estimator_variance_ladder", lambda population: calls.append(1) or ladder(population))
    config = ExperimentConfig(seed=8, consumers=PopulationSpec(count=5), weather=SeriesSpec(days=3),
                              wholesale=SeriesSpec(days=3))
    experiments.run_simulate(config, *experiments.load_inputs(config))
    assert len(calls) == 1


def _distinct_week(days: int = 7, seed: int = 81) -> tuple[list[HourlySeries], WholesaleCost]:
    """``days`` weather days that all differ, and a wholesale mean: the
    synthetic week repeats one day, so it cannot tell the days apart."""
    rng = np.random.default_rng(seed)
    weather = [HourlySeries(date=f"2024-07-{day + 1:02d}", unit="degC",
                            values=helpers.DEFAULT_WEATHER + rng.normal(0.0, 2.0) + rng.normal(0.0, 0.5, 24))
               for day in range(days)]
    return weather, WholesaleCost(mean=helpers.DEFAULT_WHOLESALE * rng.uniform(0.8, 1.2, 24))


_WEEK_POPULATIONS = {
    "shared heating": PopulationSpec(count=50, beta=-0.1, desired_temp=[18.0, 22.0]),
    "ranged heating and cooling": PopulationSpec(count=50, alpha=[0.3, 0.7], beta=[-0.2, 0.2], mu=[0.2, 2.0],
                                                 desired_temp=[18.0, 22.0], process_noise_var=[0.0, 0.02],
                                                 obs_noise_var=[0.005, 0.02]),
}


@pytest.mark.parametrize("rows", [None, 150], ids=["one block", "blocks of 3, 3 and 1 days"])
@pytest.mark.parametrize("tolerances", [[], [0.0, 2.0]], ids=["no baselines", "two baselines"])
@pytest.mark.parametrize("spec", _WEEK_POPULATIONS.values(), ids=_WEEK_POPULATIONS)
def test_run_simulate_equals_the_day_at_a_time_loop_bitwise(spec, tolerances, rows, monkeypatch):
    # one stacked model, tariff and rollout for the week give every table
    # cell of the day-at-a-time loop, on seven distinct days, also when the
    # row budget splits the week unevenly (150 rows of 50 consumers: 3 days)
    if rows is not None:
        monkeypatch.setattr(experiments, "_SIMULATE_ROWS", rows)
    weather, cost = _distinct_week()
    population = draw_population(spec, seed=19)
    config = ExperimentConfig(seed=19, simulate=SimulateSpec(eta=0.4, thermostat_tolerances=tolerances))
    ours = experiments.run_simulate(config, population, weather, cost)[0]
    reference = oracles.run_simulate_by_day(config, population, weather, cost)
    assert list(ours) == list(reference) == ["simulate.csv", "baseline.csv"][:1 + bool(tolerances)]
    for name, (header, columns) in reference.items():
        assert ours[name][0] == header
        assert [np.asarray(c).tobytes() for c in ours[name][1]] == [np.asarray(c).tobytes() for c in columns]


@pytest.mark.parametrize("horizon", range(1, 7))
def test_population_days_equal_one_day_calls_bitwise(horizon):
    # each day of a stack is its own one-day call, every bit of it, sign
    # bits included: a noise-free consumer and zero prices give zeros
    rng = np.random.default_rng(82 + horizon)
    population = Population.of([*(helpers.random_params(rng, horizon) for _ in range(4)),
                                Population(alpha=[0.35], beta=[-0.15], mu=[1.2], desired_temp=[np.full(horizon, 21.0)],
                                           process_noise_var=[0.0], obs_noise_var=[0.0])])
    days = 4
    prices = rng.uniform(0.0, 0.3, (days, horizon))
    prices[1] = 0.0
    weather = rng.uniform(15.0, 35.0, (days, horizon))
    stacked = simulate_population_days(population, prices, weather, 6, [0.0, 2.0], first_day=3)
    assert [x.shape for x in stacked] == [(days, 3, 5, horizon), (days, 3, 5), (days, 3, 5)]
    for day in range(days):
        alone = simulate_population_day(population, prices[day], weather[day], 6, 3 + day, [0.0, 2.0])
        assert [x[day].tobytes() for x in stacked] == [x.tobytes() for x in alone]


@pytest.mark.parametrize("prices, weather", [
    (np.zeros((3, 24)), np.full((2, 24), 30.0)),       # a tariff per day, but not a forecast
    (np.zeros((2, 23)), np.full((2, 23), 30.0)),       # not the population's horizon
    (np.zeros(24), np.full(24, 30.0)),                 # one day, not a stack of days
    (np.zeros((0, 24)), np.full((0, 24), 30.0)),       # no days
    (np.full((2, 24), np.nan), np.full((2, 24), 30.0)),
    (np.zeros((2, 24)), np.full((2, 24), np.inf)),
], ids=["days", "hours", "one day", "no days", "nan price", "infinite weather"])
def test_population_days_reject_stacks_that_do_not_match(prices, weather):
    population = draw_population(PopulationSpec(count=3), seed=1)
    with pytest.raises(ValueError):
        simulate_population_days(population, prices, weather, 0)


def test_run_simulate_builds_one_model_and_one_tariff_per_run(monkeypatch):
    calls = []
    for name in ("population_model", "optimal_price"):
        original = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda *args, f=original, n=name: calls.append(n) or f(*args))
    config = ExperimentConfig(seed=8, consumers=PopulationSpec(count=5), weather=SeriesSpec(days=7),
                              wholesale=SeriesSpec(days=7), simulate=SimulateSpec(eta=0.5))
    experiments.run_simulate(config, *experiments.load_inputs(config))
    assert sorted(calls) == ["optimal_price", "population_model"]


def test_run_simulate_peak_per_block_does_not_grow_with_the_days(monkeypatch):
    # 1,100 consumers make blocks of 7 days under the 8,192-row budget: a
    # week is one block and 56 days are eight.  Each block's peak above
    # what was allocated when it started must be the week's (to 1 KiB of
    # Python objects), and what a block starts on may hold only the arrays
    # of every day (the forecasts and tariffs, the payments and
    # discomforts), so no earlier block's consumption or noise stays alive.
    population = draw_population(PopulationSpec(count=1100, desired_temp=[18.0, 22.0]), seed=4)
    assert experiments._SIMULATE_ROWS // len(population) == 7
    simulate_days, blocks = experiments.simulate_population_days, []

    def measuring(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, *result = simulate_days(*args)
        blocks.append((start, tracemalloc.get_traced_memory()[1] - start))
        return None, *result

    monkeypatch.setattr(experiments, "simulate_population_days", measuring)
    config = ExperimentConfig(seed=4, simulate=SimulateSpec(eta=0.5, thermostat_tolerances=[0.0, 2.0]))
    measured = {}
    for days in (7, 56):
        weather, cost = _distinct_week(days)
        blocks.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            experiments.run_simulate(config, population, weather, cost)
        finally:
            tracemalloc.stop()
        measured[days] = [(start - before, peak) for start, peak in blocks]
    assert [len(measured[days]) for days in (7, 56)] == [1, 8]
    (_, week_peak), = measured[7]
    assert max(peak for _, peak in measured[56]) <= week_peak + 1024
    every_day = 8 * 56 * (4 * 24 + 2 * 3 * len(population))  # 2.96 MB; one block's consumption is 4.4 MB
    assert max(start for start, _ in measured[56]) <= every_day + 65536


@pytest.mark.parametrize("count, horizon", [(300, 24), (30_000, 1)])
def test_every_policy_discomfort_adds_python_float_squares_hour_by_hour(count, horizon):
    # every policy's deviations must be squared with one multiply, like
    # Python float d * d, and added hour by hour; libm pow differs from a
    # multiply in about one square in a thousand, which one-hour days show
    # undiluted
    rng = np.random.default_rng(76)
    population = Population(
        alpha=rng.uniform(0.2, 0.8, count), beta=rng.uniform(0.05, 0.3, count), mu=rng.uniform(0.2, 2.0, count),
        desired_temp=rng.uniform(16.0, 24.0, (count, horizon)),
        process_noise_var=np.zeros(count), obs_noise_var=np.zeros(count),
    )
    forecast = helpers.DEFAULT_WEATHER[:horizon]
    prices = rng.uniform(0.02, 0.3, horizon)
    w = rng.normal(0.0, 0.3, size=(count, horizon))
    consumption, discomfort = oracles.day_rollout(population, prices, forecast, [0.0, 1.0],
                                                  np.zeros(count), w, np.zeros((count, horizon)))
    assert consumption.shape == (3, count, horizon) and discomfort.shape == (3, count)
    for row, params in enumerate(population):
        alpha, beta, mu = params.alpha.item(), params.beta.item(), params.mu.item()
        t = params.desired_temp[0].tolist()
        for powers, rollout in zip(consumption[:, row].tolist(), discomfort[:, row].tolist()):
            x, expected = t[0], 0.0
            for i, (a, p, noise) in enumerate(zip(forecast.tolist(), powers, w[row].tolist())):
                x = x + alpha * (a - x) - beta * p + noise
                deviation = x - t[i]
                expected += mu * (deviation * deviation)
            assert rollout == expected


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
    _, w, _ = _noise(population, seed, (DAY_NOISE_STREAM, 0), count)
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
