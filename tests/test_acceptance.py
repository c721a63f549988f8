"""Acceptance gate: twelve checks, one verdict line each.

Each test exercises one deliverable end to end, prints a single
``acceptance NN <label>: PASS/FAIL`` line (visible with ``pytest -s`` or on
failure), and enforces its own wall-clock budget.  Failures carry the list
of violated conditions in the assertion message.
"""
import dataclasses
import json
import statistics
import time

import numpy as np

import helpers
import oracles
from dahp import (
    BatteryParams,
    Population,
    RenewableModel,
    WholesaleCost,
    aggregate,
    arbitrage,
    benefit_split,
    build_consumer_model,
    expected_cs,
    expected_rp,
    optimal_price,
    pareto_front,
    profit_upper_bound,
)
from dahp.cli import main as cli_main
from dahp.pricing import benchmark_trace
from oracles import baseline_days, consumer_surplus_with_storage, simulate_days


def _finish(index: int, label: str, failures: list, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded {budget:g}s budget")
    print(f"acceptance {index:02d} {label}: {'FAIL' if failures else 'PASS'} ({elapsed:.2f}s)")
    assert not failures, f"acceptance {index:02d} {label}: " + "; ".join(failures)


def test_01_welfare_price_equals_wholesale_cost():
    started = time.perf_counter()
    rng = np.random.default_rng(401)
    failures = []
    for _ in range(100):
        model, cost = helpers.random_model(rng, n_consumers=2)
        price = optimal_price(model, cost, 1.0)
        gap = np.abs(price - cost.mean).max()
        profit = abs(expected_rp(model, price, cost))
        if gap > 1e-12:
            failures.append(f"price off wholesale by {gap:.2e}")
        if profit > 1e-10:
            failures.append(f"profit {profit:.2e} not zero")
    _finish(1, "welfare price covers cost exactly", failures, started, 1.0)


def test_02_front_concave_with_matching_slopes():
    started = time.perf_counter()
    rng = np.random.default_rng(402)
    model, cost = helpers.random_model(rng)
    front = pareto_front(model, cost, np.linspace(0.0, 1.0, 101))
    cs, rp, eta = front.cs, front.rp, front.param
    scale = max(1.0, np.abs(rp).max())
    failures = []
    if not np.all(np.diff(rp) <= 1e-12 * scale):
        failures.append("profit not non-increasing along the front")
    slopes = np.diff(rp) / np.diff(cs)
    if not np.all(np.diff(slopes) <= 1e-8 * scale):
        failures.append("front not discretely concave in surplus")
    central = (rp[2:] - rp[:-2]) / (cs[2:] - cs[:-2])
    worst = np.abs(central + eta[1:-1]).max()
    if worst > 0.02:
        failures.append(f"interior slope off by {worst:.3f} (limit 0.02)")
    _finish(2, "surplus/profit front geometry", failures, started, 1.0)


def test_03_surplus_floor_roundtrip():
    started = time.perf_counter()
    rng = np.random.default_rng(403)
    model, cost = helpers.random_model(rng)
    failures = []
    for _ in range(20):
        eta = rng.uniform(0.05, 0.95)
        _, direct_cs, direct_rp = helpers.front_point(model, cost, eta)
        _, _, rp = oracles.constrained_optimal_price(model, cost, direct_cs)
        if abs(rp - direct_rp) > 1e-8:
            failures.append(f"eta={eta:.3f} round-trip rp gap {abs(rp - direct_rp):.2e}")
    _finish(3, "surplus floor round-trips the weighted solve", failures, started, 1.0)


def test_04_monte_carlo_consumption_matches_affine_model():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    params = helpers.random_params(rng)
    weather = helpers.DEFAULT_WEATHER
    model = build_consumer_model(params, weather)
    # 5 prices x 24 hour-means, two-sided: Bonferroni at a 1 % family-wise
    # false-alarm rate.  200k days keep the smallest flagged bias (3.93 SE
    # of 200k days, 2.78 SE of 100k) below the old 3-sigma test's 3 SE of
    # 100k days.
    threshold = statistics.NormalDist().inv_cdf(1.0 - 0.01 / (2 * 5 * 24))
    n_days = 200_000
    failures = []
    for trial in range(5):
        price = rng.uniform(0.0, 0.3, size=24)
        predicted = model.intercept_mean - model.gain @ price
        consumption, _, _ = simulate_days(params, price, weather, seed=500 + trial, n_days=n_days)
        se = consumption.std(axis=0, ddof=1) / np.sqrt(n_days)
        z = np.abs(consumption.mean(axis=0) - predicted) / se
        if z.max() > threshold:
            failures.append(f"price {trial}: worst hour at {z.max():.2f} standard errors (limit {threshold:.2f})")
    _finish(4, "simulated mean consumption is the affine map", failures, started, 60.0)


def test_05_closed_forms_match_brute_force_at_toy_scale():
    started = time.perf_counter()
    rng = np.random.default_rng(405)
    failures = []
    for trial in range(10):
        params = helpers.random_params(rng, horizon=3, noisy=False)
        weather = rng.uniform(25.0, 35.0, size=3)
        price = rng.uniform(0.0, 0.5, size=3)
        wholesale = WholesaleCost(mean=rng.uniform(0.01, 0.2, size=3))
        model = aggregate([build_consumer_model(params, weather)])

        demand = model.intercept_mean - model.gain @ price
        brute = oracles.brute_demand(*oracles.thermal(params), weather, price)
        d_err = np.linalg.norm(demand - brute) / max(1.0, np.linalg.norm(brute))
        cs_brute = oracles.brute_surplus(*oracles.thermal(params), weather, price)
        cs_err = abs(expected_cs(model, price) - cs_brute) / max(1.0, abs(cs_brute))
        rp_brute = float((price - wholesale.mean) @ brute)
        rp_err = abs(expected_rp(model, price, wholesale) - rp_brute) / max(1.0, abs(rp_brute))
        for name, err in (("demand", d_err), ("cs", cs_err), ("rp", rp_err)):
            if err > 1e-4:
                failures.append(f"trial {trial}: {name} relative error {err:.2e}")
    _finish(5, "closed forms equal brute-force optima", failures, started, 30.0)


def test_06_benchmark_tariffs_never_beat_the_front():
    started = time.perf_counter()
    rng = np.random.default_rng(406)
    model, cost = helpers.random_model(rng)
    _, _, greedy_rp = helpers.front_point(model, cost, 0.0)
    scale = max(1.0, abs(greedy_rp))
    zero_demand = model.solve(model.intercept_mean)
    level_hi = float(zero_demand.mean())
    level_lo = 0.5 * float(cost.mean.min())
    sweeps = {
        "cp": np.linspace(level_lo, level_hi, 200),
        "tou": np.linspace(level_lo, level_hi / 1.2, 200),
        "pmp": np.linspace(0.5, max(2.0, level_hi / float(cost.mean.mean())), 200),
    }
    failures = []
    for scheme, sweep in sweeps.items():
        trace = benchmark_trace(model, cost, scheme, sweep, tou_ratio=1.2, peak_start=9, peak_end=17)
        for param, cs, rp in zip(trace.param, trace.cs, trace.rp):
            margin = rp - profit_upper_bound(model, cost, cs)
            if margin > 1e-6 * scale:
                failures.append(f"{scheme} exceeds the front by {margin:.2e} at param {param:.3f}")
                break
    unit_markup = benchmark_trace(model, cost, "pmp", [1.0])
    _, welfare_cs, welfare_rp = helpers.front_point(model, cost, 1.0)
    if abs(unit_markup.cs[0] - welfare_cs) > 1e-10 or abs(unit_markup.rp[0] - welfare_rp) > 1e-10:
        failures.append("unit proportional markup does not reproduce the welfare point")
    _finish(6, "flat/time-of-use/markup tariffs are dominated", failures, started, 5.0)


def test_07_small_renewable_benefits_retailer_only():
    started = time.perf_counter()
    rng = np.random.default_rng(407)
    model, cost = helpers.random_model(rng)
    failures = []
    for eta in (0.0, 0.5, 1.0):
        price = optimal_price(model, cost, eta)
        demand = model.intercept_mean - model.gain @ price
        if demand.min() <= 0.0:
            failures.append(f"eta={eta}: test setup invalid, nonpositive demand")
            continue
        split = benefit_split(model, cost, RenewableModel(capacity=0.9 * float(demand.min())), eta)
        if abs(split.delta_cs) > 1e-9:
            failures.append(f"eta={eta}: consumer surplus moved by {split.delta_cs:.2e}")
        if split.delta_rp <= 0.0:
            failures.append(f"eta={eta}: retailer gain {split.delta_rp:.2e} not positive")
    _finish(7, "small renewable leaves the tariff unchanged", failures, started, 5.0)


def test_08_large_renewable_split_approaches_limit():
    started = time.perf_counter()
    rng = np.random.default_rng(408)
    model, cost = helpers.random_model(rng)
    failures = []
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        price = optimal_price(model, cost, eta)
        demand = model.intercept_mean - model.gain @ price
        split = benefit_split(model, cost, RenewableModel(capacity=100.0 * float(demand.mean())), eta)
        target = 1.0 / (3.0 - 2.0 * eta)
        if abs(split.fraction - target) > 0.05 * target:
            failures.append(f"eta={eta}: consumer share {split.fraction:.4f} vs {target:.4f}")
    _finish(8, "large-capacity benefit split", failures, started, 30.0)


def test_09_battery_dispatch_matches_grid_search():
    started = time.perf_counter()
    failures = []
    toy = BatteryParams(
        capacity=1.0, initial_soc=0.0, storage_eff=1.0, charge_eff=1.0,
        discharge_eff=1.0, charge_limit=1.0, discharge_limit=1.0,
    )
    toy_prices = np.array([0.1, 0.3])
    plan = arbitrage(toy_prices, toy)
    if abs(plan.profit - 0.2) > 1e-9:
        failures.append(f"two-hour toy profit {plan.profit:.6f} != 0.2")
    if abs(oracles.battery_grid_profit(toy_prices, toy) - 0.2) > 1e-9:
        failures.append("grid oracle disagrees on the toy instance")

    rng = np.random.default_rng(409)
    step = 0.01
    for trial in range(50):
        battery = dataclasses.replace(helpers.random_battery(rng), initial_soc=0.0)
        prices = rng.uniform(0.01, 0.5, size=2)
        lp = arbitrage(prices, battery)
        grid = oracles.battery_grid_profit(prices, battery, step=step)
        one_step = step * prices.sum() * (1.0 + 1.0 / battery.discharge_eff)
        if lp.profit < grid - 1e-9 or lp.profit - grid > one_step:
            failures.append(f"trial {trial}: lp {lp.profit:.6f} vs grid {grid:.6f}")
    _finish(9, "battery dispatch equals brute-force grid", failures, started, 30.0)


def test_10_storage_surplus_separates():
    started = time.perf_counter()
    rng = np.random.default_rng(410)
    model, _ = helpers.random_model(rng)
    failures = []
    for trial in range(50):
        battery = dataclasses.replace(helpers.random_battery(rng), initial_soc=0.0)
        price = rng.uniform(0.01, 0.4, size=24)
        gain = consumer_surplus_with_storage(model, price, battery) - expected_cs(model, price)
        profit = arbitrage(price, battery).profit
        if abs(gain - profit) > 1e-9:
            failures.append(f"trial {trial}: surplus gain {gain:.3e} != profit {profit:.3e}")
        if gain < -1e-12:
            failures.append(f"trial {trial}: owning a battery lost {gain:.3e}")
    _finish(10, "battery surplus separates into arbitrage profit", failures, started, 5.0)


def test_11_responsive_policy_beats_thermostats():
    started = time.perf_counter()
    weather = helpers.DEFAULT_WEATHER
    price = helpers.DEFAULT_WHOLESALE  # retail at wholesale
    population = [
        Population(
            alpha=[0.5], beta=[0.1], mu=[0.5], desired_temp=[np.full(24, temp)],
            process_noise_var=[0.01], obs_noise_var=[0.01],
        )
        for temp in (18.0, 19.0, 20.0, 21.0, 22.0)
    ]
    n_days = 2000
    rows = {"dr": [], 0.0: [], 2.0: []}
    for cid, params in enumerate(population):
        _, pay, disc = simulate_days(params, price, weather, seed=411, n_days=n_days, consumer_id=cid)
        rows["dr"].append((pay.mean(), disc.mean()))
        for tolerance in (0.0, 2.0):
            _, pay, disc = baseline_days(
                params, tolerance, price, weather, seed=411, n_days=n_days, consumer_id=cid
            )
            rows[tolerance].append((pay.mean(), disc.mean()))

    def mean_surplus(key):
        return -np.mean([p + d for p, d in rows[key]])

    failures = []
    if not mean_surplus("dr") >= mean_surplus(0.0):
        failures.append("responsive policy worse than the exact thermostat")
    if not mean_surplus(0.0) >= mean_surplus(2.0):
        failures.append("wide deadband outperformed the exact thermostat")
    pay0 = np.mean([p for p, _ in rows[0.0]])
    pay2 = np.mean([p for p, _ in rows[2.0]])
    disc0 = np.mean([d for _, d in rows[0.0]])
    disc2 = np.mean([d for _, d in rows[2.0]])
    if not pay2 < pay0:
        failures.append("wide deadband did not lower the bill")
    if not disc2 > disc0:
        failures.append("wide deadband did not raise discomfort")
    _finish(11, "policy ordering on synthetic data", failures, started, 10.0)


def test_12_cli_runs_are_reproducible(tmp_path, capsys):
    started = time.perf_counter()
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 42\n"
        "consumers:\n  count: 2\n  desired_temp: [18.0, 22.0]\n"
        "weather:\n  days: 2\nwholesale:\n  days: 2\n"
        "eta_grid: [0.0, 0.5, 1.0]\n"
        "benchmarks:\n  points: 6\n"
        "renewable:\n  capacity_grid: [5.0, 50.0]\n"
        "storage:\n  capacity: 4.0\n  charge_limit: 2.0\n  discharge_limit: 2.0\n"
        "  eta_grid: [0.5]\n  max_evals: 30\n"
        "simulate:\n  eta: 0.5\n  thermostat_tolerances: [0.0, 2.0]\n"
    )
    failures = []
    for command in ("pareto", "benchmarks", "renewable", "storage", "simulate"):
        out_a = tmp_path / command / "a"
        out_b = tmp_path / command / "b"
        for out in (out_a, out_b):
            code = cli_main([command, "--config", str(config), "--out", str(out)])
            if code != 0:
                failures.append(f"{command}: exit code {code}")
        capsys.readouterr()
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        for name in manifest_a["outputs"]:
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                failures.append(f"{command}: {name} differs between reruns")
        manifest_a.pop("wall_time_s"), manifest_b.pop("wall_time_s")
        if manifest_a != manifest_b:
            failures.append(f"{command}: manifests differ beyond wall time")
    with capsys.disabled():
        print()
        _finish(12, "identical seeds reproduce output bytes", failures, started, 120.0)
