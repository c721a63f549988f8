"""Independent oracles the test suite checks the library against.

Nothing in here reuses the library's closed forms: demand comes from
brute-force minimization of the consumer's day cost, battery profits from
grid enumeration, expectations from Monte Carlo, and the joint
storage-plus-HVAC problem from a general-purpose NLP solver.  The batched
simulator is replayed one consumer, one hour at a time, and its noise is
made out of place, one fresh array per step, by the tangent half-angle
Box-Muller the simulator uses and, as its yardstick, by calling ``cos``
and ``sin``.  The population model is
rebuilt from each consumer's scalar formulas, the simplex's kernels are
written out as the row-at-a-time loops and products they replace, the
battery LP's reduced-cost map and plan check as the ``np.delete`` and
``np.split`` forms their index-array versions replace, and the benchmark
tariffs as the per-family price code that their direction vectors replace.
Keeping the oracles dumb and slow is the point.

The last section is different: thin drivers over the library's own
rollouts and evaluators that only tests need (replicate days of one
consumer for Monte Carlo estimates, the rollout's exact noise-to-consumption
maps, mean demand, battery-owner objectives, the most profitable tariff
above a surplus floor),
and the one-tolerance-at-a-time thermostat baseline that the simulator's
stacked rollout of every tolerance must match bit for bit.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.optimize

from dahp import AffineDemandModel, BatteryParams, InfeasibleConstraintError, Population, WholesaleCost, arbitrage
from dahp.demand import as_forecast, as_prices
from dahp.pricing import _eta_at_cs, _front_geometry, expected_cs, expected_rp, pareto_front
from dahp.simulate import (
    DAY_NOISE_STREAM,
    REPLICATE_NOISE_STREAM,
    _noise,
    _rollout,
)

Outcome = tuple[np.ndarray, np.ndarray, np.ndarray]  # consumption, payment, discomfort per row


# ---------------------------------------------------------------------------
# thermal rollout and brute-force demand
# ---------------------------------------------------------------------------

def rollout_cost(alpha, beta, mu, setpoints, forecast, prices, powers) -> float:
    """Deterministic day cost (discomfort + bill) of an arbitrary power plan.

    The day starts with the indoor temperature on the first setpoint.
    """
    setpoints = np.asarray(setpoints, dtype=float)
    n = setpoints.size
    x = setpoints[0]
    cost = float(np.dot(prices, powers))
    for i in range(n):
        x = x + alpha * (forecast[i] - x) - beta * powers[i]
        cost += mu * (x - setpoints[i]) ** 2
    return cost


def quadratic_coefficients(fn, n: int):
    """Recover (H, g, c) of an exactly quadratic ``fn`` on R^n from
    evaluations: fn(p) = p @ H @ p / 2 + g @ p + c, to machine precision."""
    c = fn(np.zeros(n))
    h = np.empty((n, n))
    g = np.empty(n)
    plus = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        plus[i] = fn(e)
        minus = fn(-e)
        g[i] = 0.5 * (plus[i] - minus)
        h[i, i] = plus[i] + minus - 2.0 * c
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i] = e[j] = 1.0
            h[i, j] = h[j, i] = fn(e) - plus[i] - plus[j] + c
    return h, g, c


def brute_demand(alpha, beta, mu, setpoints, forecast, prices) -> np.ndarray:
    """Noise-free optimal consumption: exact minimizer of the quadratic
    day cost, found without using the library's closed forms."""
    prices = np.asarray(prices, dtype=float)
    n = np.asarray(setpoints).size

    def fn(p):
        return rollout_cost(alpha, beta, mu, setpoints, forecast, prices, p)

    h, g, _ = quadratic_coefficients(fn, n)
    return np.linalg.solve(h, -g)


def brute_affine_map(alpha, beta, mu, setpoints, forecast):
    """(gain, intercept) of the demand map recovered from brute-force
    optima at the zero price and at each unit price vector."""
    n = np.asarray(setpoints).size
    intercept = brute_demand(alpha, beta, mu, setpoints, forecast, np.zeros(n))
    gain = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        gain[:, j] = intercept - brute_demand(alpha, beta, mu, setpoints, forecast, e)
    return gain, intercept


def _floats(params: Population) -> tuple[float, float, float, float, float]:
    """(alpha, beta, mu, process_noise_var, obs_noise_var) of a one-row
    population as Python floats.  The oracles square them by multiplying, as
    the library does: a product rounds correctly on every platform, where
    ``**`` rounds as the C library's ``pow`` does."""
    return tuple(float(getattr(params, name)[0])
                 for name in ("alpha", "beta", "mu", "process_noise_var", "obs_noise_var"))


def thermal(params: Population) -> tuple[float, float, float, np.ndarray]:
    """(alpha, beta, mu, setpoints) of a one-row population, the arguments
    of the brute-force oracles above."""
    alpha, beta, mu, _, _ = _floats(params)
    return alpha, beta, mu, params.desired_temp[0]


def scalar_consumer_model(params, forecast):
    """(gain, intercept_mean, intercept_cov, cs_constant) of one consumer, a
    one-row population, computed hour by hour on Python floats: the
    reference the population model must match bit for bit when summed
    consumer by consumer."""
    alpha, beta, mu, q, r = _floats(params)
    t, n = params.desired_temp[0], params.horizon
    unit = 1.0 / (2.0 * mu * beta * beta)
    gain = np.zeros((n, n))
    gain[0, 0] = unit
    for i in range(1, n):
        gain[i, i] = (1.0 + (1.0 - alpha) * (1.0 - alpha)) * unit
        gain[i, i - 1] = gain[i - 1, i] = (alpha - 1.0) * unit
    intercept = np.empty(n)
    intercept[0] = ((1.0 - alpha) * t[0] + alpha * forecast[0] - t[0]) / beta
    for i in range(1, n):
        intercept[i] = ((1.0 - alpha) * t[i - 1] + alpha * forecast[i] - t[i]) / beta

    pred, gains, post = np.empty(n), np.empty(n), r
    for i in range(n):
        pred[i] = (1.0 - alpha) * (1.0 - alpha) * post + q
        denom = pred[i] + r
        gains[i] = pred[i] / denom if denom > 0.0 else 0.0
        post = (1.0 - gains[i]) * pred[i]
    scale = ((1.0 - alpha) / beta) * ((1.0 - alpha) / beta)
    xi_var = np.empty(n)
    xi_var[0] = r
    for m in range(1, n):
        xi_var[m] = gains[m - 1] * gains[m - 1] * (pred[m - 1] + r)
    cov = np.diag(scale * xi_var)
    gamma = -r
    for m in range(1, n):
        cov[0, m] = cov[m, 0] = scale * gains[m - 1] * (1.0 - alpha) * gamma
        gamma *= (1.0 - gains[m - 1]) * (1.0 - alpha)
    return gain, intercept, cov, -mu * float(pred.sum())


def brute_surplus(alpha, beta, mu, setpoints, forecast, prices) -> float:
    """Noise-free optimal consumer surplus: minus the minimized day cost."""
    best = brute_demand(alpha, beta, mu, setpoints, forecast, prices)
    return -rollout_cost(alpha, beta, mu, setpoints, forecast, prices, best)


# ---------------------------------------------------------------------------
# one consumer, one hour at a time: policy, filter and baseline
# ---------------------------------------------------------------------------

@dataclass
class EstimatorState:
    """Consumer's belief: posterior indoor estimate and next-hour forecast."""

    indoor_est: float
    indoor_var: float
    outdoor_pred: float


def optimal_policy_step(est: EstimatorState, prices, hour: int, params) -> float:
    """Energy to draw in ``hour`` (1-based): move the predicted indoor
    temperature onto the price-shifted target.

    The target sits ``(pi_i - (1 - alpha) * pi_{i+1}) / (2 mu beta)`` away
    from the setpoint, with the price beyond the horizon taken as zero.
    """
    alpha, beta, mu, _, _ = _floats(params)
    n = params.horizon
    if not 1 <= hour <= n:
        raise ValueError(f"hour must be in 1..{n}, got {hour}")
    pi_next = prices[hour] if hour < n else 0.0
    target = (prices[hour - 1] - (1.0 - alpha) * pi_next) / (2.0 * mu * beta) + params.desired_temp[0, hour - 1]
    drift = (1.0 - alpha) * est.indoor_est + alpha * est.outdoor_pred
    return (drift - target) / beta


def kalman_step(est: EstimatorState, obs, params, applied_power: float,
                next_outdoor_forecast: float | None = None) -> EstimatorState:
    """One predict/update cycle of the scalar indoor-temperature filter.

    ``obs`` is the (indoor, outdoor) reading taken after ``applied_power``
    acted for the hour.  The outdoor reading is not filtered: the day-ahead
    forecast is treated as known, so the returned state simply carries
    ``next_outdoor_forecast`` (or keeps the current one).
    """
    alpha, beta, _, q, r = _floats(params)
    pred_mean = (1.0 - alpha) * est.indoor_est + alpha * est.outdoor_pred - beta * applied_power
    pred_var = (1.0 - alpha) * (1.0 - alpha) * est.indoor_var + q
    denom = pred_var + r
    gain = pred_var / denom if denom > 0.0 else 0.0
    indoor_est = pred_mean + gain * (obs[0] - pred_mean)
    indoor_var = (1.0 - gain) * pred_var
    outdoor = est.outdoor_pred if next_outdoor_forecast is None else float(next_outdoor_forecast)
    return EstimatorState(indoor_est=indoor_est, indoor_var=indoor_var, outdoor_pred=outdoor)


def day_noise(seed: int, consumer_id: int, day: int, params):
    """The consumer-day's noise, re-derived one consumer and one normal at a
    time: the initial reading error, then hourly process noise, then hourly
    reading errors.

    The day's Philox key is hashed from ``(seed, DAY_NOISE_STREAM, day)``;
    the consumer reads ``width`` words (whole 4-word blocks covering its
    normals' word pairs) from counter ``consumer_id * width / 4``.  Normal
    ``j`` is Box-Muller on word pair ``j // 2``: the cosine for even ``j``,
    the sine for odd.
    """
    n = params.horizon
    width = 4 * math.ceil((2 * n + 2) / 4)
    key = np.random.SeedSequence((seed, DAY_NOISE_STREAM, day)).generate_state(2, np.uint64)
    philox = np.random.Philox(key=key, counter=[consumer_id * width // 4, 0, 0, 0])
    words = [int(word) for word in philox.random_raw(width)]
    normals = []
    for j in range(2 * n + 1):
        u1, u2 = (((word >> 11) + 0.5) / 2**53 for word in words[2 * (j // 2):2 * (j // 2) + 2])
        wave = math.cos if j % 2 == 0 else math.sin
        normals.append(math.sqrt(-2.0 * math.log(u1)) * wave(2.0 * math.pi * u2))
    *_, q, r = _floats(params)
    sv, sw = math.sqrt(r), math.sqrt(q)
    return sv * normals[0], np.array([sw * z for z in normals[1:n + 1]]), np.array([sv * z for z in normals[n + 1:]])


def box_muller(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` standard normals of each row of words, out of
    place: uniforms ``((word >> 11) + 0.5) * 2**-53``, and pair ``(u, v)``
    ``k`` gives normal ``2k`` (cosine) and ``2k + 1`` (sine) of the angle
    ``2 * pi * v``, through the tangent half-angle identities with ``t =
    tan(pi * v)`` and ``q = 1 + t * t``: ``cos = (2 - q) / q`` and ``sin =
    2 * t / q``.  Each step is a fresh array, ``tan`` a fresh contiguous
    one."""
    pairs = -(-count // 2)
    u = ((words[:, :2 * pairs] >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    t = np.tan(np.pi * u[:, 1::2])
    q = 1.0 + t * t
    scale = radius / q
    normals = np.empty((len(words), 2 * pairs))
    normals[:, 0::2] = (2.0 - q) * scale
    normals[:, 1::2] = 2.0 * t * scale
    return normals[:, :count]


def box_muller_trig(words: np.ndarray, count: int) -> np.ndarray:
    """``box_muller`` with the cosine and sine of the angle called directly,
    as the normals were made before ``NOISE_SCHEME`` 3: within rounding of
    the tangent form, not bit for bit."""
    pairs = -(-count // 2)
    u = ((words[:, :2 * pairs] >> np.uint64(11)) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    normals = np.empty((len(words), 2 * pairs))
    normals[:, 0::2] = radius * np.cos(angle)
    normals[:, 1::2] = radius * np.sin(angle)
    return normals[:, :count]


def block_noise(population: Population, seed: int, stream: tuple[int, ...], rows: Sequence[int]):
    """(v0, w, v) of each row of the ``(seed, *stream)`` noise stream: each
    row's words drawn from its own Philox counter, made into normals by
    ``box_muller`` and scaled by fresh products."""
    n = population.horizon
    width = 4 * math.ceil((2 * n + 2) / 4)
    key = np.random.SeedSequence((seed, *stream)).generate_state(2, np.uint64)
    words = np.array([np.random.Philox(key=key, counter=[row * width // 4, 0, 0, 0]).random_raw(width)
                      for row in rows])
    z = box_muller(words, 2 * n + 1)
    sv = np.sqrt(population.obs_noise_var)[:, None]
    sw = np.sqrt(population.process_noise_var)[:, None]
    return sv[:, 0] * z[:, 0], sw * z[:, 1:n + 1], sv * z[:, n + 1:]


def step_rollout(params, prices, forecast, v0, w, v):
    """(consumption, payment, discomfort) of the filtering consumer, one
    policy step and one filter step per hour."""
    alpha, beta, mu, _, r = _floats(params)
    t, n = params.desired_temp[0], params.horizon
    est = EstimatorState(indoor_est=t[0] + v0, indoor_var=r, outdoor_pred=forecast[0])
    x = t[0]
    consumption = np.empty(n)
    discomfort = 0.0
    for hour in range(1, n + 1):
        power = optimal_policy_step(est, prices, hour, params)
        consumption[hour - 1] = power
        x = x + alpha * (forecast[hour - 1] - x) - beta * power + w[hour - 1]
        discomfort += mu * (x - t[hour - 1]) ** 2
        nxt = forecast[hour] if hour < n else None
        est = kalman_step(est, (x + v[hour - 1], np.nan), params, power, next_outdoor_forecast=nxt)
    return consumption, float(np.dot(consumption, prices)), discomfort


def step_baseline(params, tolerance, prices, forecast, w):
    """(powers, payment, discomfort) of a thermostat holding the noise-free
    temperature at the edge of its tolerance band, hour by hour."""
    alpha, beta, mu, _, _ = _floats(params)
    t, n = params.desired_temp[0], params.horizon
    edge = tolerance if beta > 0 else -tolerance
    powers = np.empty(n)
    planned = x = t[0]
    discomfort = 0.0
    for i in range(n):
        target = t[i] + edge
        powers[i] = (planned + alpha * (forecast[i] - planned) - target) / beta
        planned = target
        x = x + alpha * (forecast[i] - x) - beta * powers[i] + w[i]
        discomfort += mu * (x - t[i]) ** 2
    return powers, float(np.dot(powers, prices)), discomfort


def csv_text(header, rows) -> str:
    """A CSV written one cell at a time: ints as ints, floats to four
    decimals, and a cell reading ``-0.0000`` replaced by ``0.0000``."""
    def cell(value) -> str:
        if isinstance(value, int):
            return str(value)
        text = f"{value:.4f}"
        return "0.0000" if text == "-0.0000" else text

    return "\n".join([",".join(header), *(",".join(map(cell, row)) for row in rows)]) + "\n"


# ---------------------------------------------------------------------------
# pricing oracles: single-hour grids and benchmark tariffs by family name
# ---------------------------------------------------------------------------

def scalar_optimal_price(gain, intercept, wholesale, eta, lo=0.0, hi=1.0, points=2_000_001):
    """Grid-search maximizer of rp + eta * cs for a one-hour model."""
    pi = np.linspace(lo, hi, points)
    demand = intercept - gain * pi
    cs = 0.5 * gain * pi * pi - intercept * pi
    rp = (pi - wholesale) * demand
    return float(pi[np.argmax(rp + eta * cs)])


def benchmark_prices(scheme: str, param, cost: WholesaleCost, tou_ratio: float, peak_start: int,
                     peak_end: int) -> np.ndarray:
    """A benchmark tariff built by its family's name, the way the library
    built them before a family became its direction vector: a flat price
    ``param`` every hour (``cp``); the same with the hours in
    ``[peak_start, peak_end)`` scaled by ``tou_ratio`` in place (``tou``);
    or ``param`` times the wholesale mean (``pmp``).  A vector of k
    parameters gives a (k, N) stack."""
    level = np.asarray(param, dtype=float)[..., None]
    if scheme == "cp":
        return np.repeat(level, cost.horizon, axis=-1)
    if scheme == "tou":
        assert 0 <= peak_start < peak_end <= cost.horizon
        prices = np.repeat(level, cost.horizon, axis=-1)
        prices[..., peak_start:peak_end] *= tou_ratio
        return prices
    assert scheme == "pmp"
    return level * cost.mean


# ---------------------------------------------------------------------------
# battery oracles
# ---------------------------------------------------------------------------

def battery_grid_profit(prices, battery, step: float = 0.01) -> float:
    """Best two-hour arbitrage profit on a grid of first-hour actions.

    The second-hour action is pinned by the terminal state-of-charge
    equality, so the search is one-dimensional: charge amounts and discharge
    amounts in hour one, each on a ``step`` grid.  Assumes positive prices
    (simultaneous charge+discharge is then never profitable).
    """
    p1, p2 = float(prices[0]), float(prices[1])
    kappa, tau, rho = battery.storage_eff, battery.charge_eff, battery.discharge_eff
    b0, cap = battery.initial_soc, battery.capacity
    tol = 1e-9
    best = -np.inf

    def settle_second_hour(s1):
        """Hour-2 action meeting the terminal condition, or None."""
        if s1 < -tol or s1 > cap + tol:
            return None
        diff = b0 / kappa - s1
        if diff >= 0.0:
            c2 = diff / tau
            if c2 > battery.charge_limit + tol:
                return None
            return c2, 0.0
        d2 = -diff * rho
        if d2 > battery.discharge_limit + tol:
            return None
        return 0.0, d2

    def action_grid(limit):
        grid = np.arange(0.0, limit + step / 2, step)
        return np.unique(np.minimum(grid, limit))  # never overshoot the limit

    for c1 in action_grid(battery.charge_limit):
        action = settle_second_hour(kappa * (b0 + tau * c1))
        if action is not None:
            c2, d2 = action
            best = max(best, -(p1 * c1 + p2 * c2) + p2 * d2)
    for d1 in action_grid(battery.discharge_limit):
        action = settle_second_hour(kappa * (b0 - d1 / rho))
        if action is not None:
            c2, d2 = action
            best = max(best, p1 * d1 - p2 * c2 + p2 * d2)
    return best


def joint_storage_surplus(alpha, beta, mu, setpoints, forecast, prices, battery) -> float:
    """Surplus of a consumer optimizing HVAC power and the battery jointly.

    Solves the coupled problem with SLSQP (state of charge eliminated into
    linear expressions), deliberately ignoring the separation structure the
    library exploits.  Noise-free.
    """
    prices = np.asarray(prices, dtype=float)
    n = prices.size
    kappa, tau, rho = battery.storage_eff, battery.charge_eff, battery.discharge_eff

    # soc(c, d) = base + m_charge @ c + m_discharge @ d  (all linear)
    base = battery.initial_soc * kappa ** np.arange(1, n + 1)
    m_charge = np.zeros((n, n))
    m_discharge = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            m_charge[i, j] = kappa ** (i - j + 1) * tau
            m_discharge[i, j] = -(kappa ** (i - j + 1)) / rho

    def split(z):
        return z[:n], z[n:2 * n], z[2 * n:]

    def objective(z):
        p, c, d = split(z)
        return rollout_cost(alpha, beta, mu, setpoints, forecast, prices, p) + prices @ (c - d)

    def soc_of(z):
        _, c, d = split(z)
        return base + m_charge @ c + m_discharge @ d

    constraints = [
        {"type": "eq", "fun": lambda z: soc_of(z)[-1] - battery.initial_soc},
        {"type": "ineq", "fun": lambda z: soc_of(z)},
        {"type": "ineq", "fun": lambda z: battery.capacity - soc_of(z)},
    ]
    bounds = (
        [(None, None)] * n
        + [(0.0, battery.charge_limit)] * n
        + [(0.0, battery.discharge_limit)] * n
    )
    z0 = np.zeros(3 * n)
    out = scipy.optimize.minimize(
        objective, z0, method="SLSQP", bounds=bounds, constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert out.success, f"joint oracle failed to converge: {out.message}"
    return -float(out.fun)


# ---------------------------------------------------------------------------
# simplex and battery-plan kernels, one row at a time
# ---------------------------------------------------------------------------

def objective_row_by_loop(tableau: np.ndarray, basis: Sequence[int], costs: np.ndarray) -> np.ndarray:
    """Phase 2's first reduced-cost row: the costs minus c_j times each basis
    row whose cost c_j is nonzero, subtracted one row after another."""
    row = costs.copy()
    for i, j in enumerate(basis):
        if costs[j] != 0.0:
            row -= costs[j] * tableau[i]
    return row


def dense_pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot on ``tableau[row, col]`` by a rank-1 update of every other row,
    those with a zero in the pivot column too."""
    tableau[row] /= tableau[row, col]
    eliminate = tableau[:, col].copy()
    eliminate[row] = 0.0
    tableau -= eliminate[:, np.newaxis] * tableau[row]


def reduced_cost_map_by_delete(result, cost_map: np.ndarray) -> np.ndarray:
    """The battery LP's map G from a tariff to its nonbasic reduced costs,
    with the (variables, N) ``cost_map`` stacked over a zero row per slack
    and the nonbasic columns listed by ``np.delete`` of the basis."""
    inverse_a = result.tableau[:-1, :-1]
    slacks = np.zeros((inverse_a.shape[1] - result.variables, cost_map.shape[1]))
    price_map = np.vstack([cost_map, slacks])
    free = np.delete(np.arange(inverse_a.shape[1]), result.basis)
    return price_map[free] - inverse_a[:, free].T @ price_map[result.basis]


def validate_point_by_split(x: np.ndarray, battery: BatteryParams, plan_feasibility: float) -> None:
    """The battery plan check from the battery alone: its tolerance scaled
    by the largest finite size, the point cut by ``np.split``, and each
    hour's previous state of charge concatenated."""
    sizes = np.array([1.0, battery.capacity, battery.charge_limit, battery.discharge_limit])
    tol = plan_feasibility * sizes[np.isfinite(sizes)].max()
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


def strictly_optimal_by_rows(g: np.ndarray, stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether all reduced costs ``prices @ G.T`` lie below -tol, at each
    tariff of a stack, from the single-tariff product of each row."""
    return np.array([(pi @ g.T).max() < -tol for pi in stack], dtype=bool)


# ---------------------------------------------------------------------------
# stochastic expectation oracles
# ---------------------------------------------------------------------------

def mc_uniform_shortfall(demand, capacity, n_draws=1_000_000, seed=0) -> float:
    """Monte Carlo E[(demand - q)+] with q ~ Uniform[0, capacity]."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.0, capacity, size=n_draws)
    return float(np.maximum(demand - q, 0.0).mean())


def steady_state_posterior_variance(alpha, process_noise_var, obs_noise_var) -> float:
    """Fixed point of the scalar Riccati recursion, via its quadratic root.

    With a = (1-alpha)^2, the steady prediction variance s solves
    s = a * s * r / (s + r) + q, i.e. s^2 + (r - a r - q) s - q r = 0.
    """
    a = (1.0 - alpha) ** 2
    q, r = process_noise_var, obs_noise_var
    if r == 0.0:
        return 0.0
    coef_b = r - a * r - q
    s = 0.5 * (-coef_b + np.sqrt(coef_b * coef_b + 4.0 * q * r))
    return s * r / (s + r)


# ---------------------------------------------------------------------------
# test-only drivers over the library
# ---------------------------------------------------------------------------

class NegativeDemandWarning(UserWarning):
    """Mean demand went negative for at least one hour (price too high)."""


def mean_demand(model: AffineDemandModel, prices: Sequence[float]) -> np.ndarray:
    """Expected hourly demand ``-gain @ prices + intercept_mean``.

    Negative entries are legal (prices above the zero-demand level) but
    usually indicate a mis-scaled tariff, so they raise
    ``NegativeDemandWarning`` rather than an error.
    """
    pi = as_prices(prices, model.horizon)
    demand = model.intercept_mean - model.gain @ pi
    if np.any(demand < 0.0):
        warnings.warn(
            "mean demand is negative in at least one hour", NegativeDemandWarning, stacklevel=2
        )
    return demand


def baseline_powers(params: Population, forecast: np.ndarray, tolerance: float) -> np.ndarray:
    """Open-loop powers of one tolerance, (consumers, hours), holding the
    noise-free trajectory at the tolerance band edge (above the setpoint
    when the unit cools, below when it heats)."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    alpha, beta = params.alpha[:, None], params.beta[:, None]
    t = params.desired_temp
    band = t + np.where(beta > 0, tolerance, -tolerance)
    previous = np.concatenate([t[:, :1], band[:, :-1]], axis=1)
    return ((1.0 - alpha) * previous + alpha * forecast - band) / beta


def baseline_rollout(params: Population, powers: np.ndarray, forecast: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Discomfort per row of the noisy evolution under open-loop ``powers``:
    row ``k`` is consumer ``k``, or, for a population of one, replicate
    day ``k``."""
    alpha, beta, mu = params.alpha, params.beta, params.mu
    t = params.desired_temp
    x = np.full(len(w), t[:, 0])
    discomfort = np.zeros(len(w))
    for i in range(params.horizon):
        x = x + alpha * (forecast[i] - x) - beta * powers[:, i] + w[:, i]
        deviation = x - t[:, i]
        discomfort += mu * (deviation * deviation)  # hour by hour, not a pairwise row sum
    return discomfort


def _replicate_days(params: Population, prices, weather, seed: int, n_days: int, consumer_id: int):
    """The validated prices and forecast and ``n_days`` rows of noise of a
    one-row population: the simulator's layout with days as rows of the
    ``(seed, REPLICATE_NOISE_STREAM, consumer_id)`` stream."""
    noise = _noise(params, seed, (REPLICATE_NOISE_STREAM, consumer_id), n_days)
    return as_prices(prices, params.horizon), as_forecast(weather, params.horizon), *noise


def simulate_days(params: Population, prices: Sequence[float], weather: Sequence[float], seed: int,
                  n_days: int, consumer_id: int = 0) -> Outcome:
    """Replicate days of one consumer for Monte Carlo estimation.

    Returns (consumption, payment, discomfort) stacked over days; surplus is
    ``-(discomfort + payment)`` rowwise when needed.
    """
    pi, forecast, v0, w, v = _replicate_days(params, prices, weather, seed, n_days, consumer_id)
    (consumption,), (discomfort,) = _rollout(params, pi, forecast, (), v0, w, v)
    return consumption, consumption @ pi, discomfort


def rollout_maps(population: Population, prices: Sequence[float], forecast: Sequence[float]):
    """Policy 0's noise-free consumption (consumers, N), and each consumer's
    map L (consumers, 2N + 1, N) from its noise (v0, w, v) to its
    consumption.

    Given the prices and the forecast, the rollout is affine in the noise:
    row ``j`` of ``L[k]`` is consumer ``k``'s response to a unit impulse in
    noise entry ``j``, read from one more ``_rollout`` with that impulse in
    every consumer's row."""
    n, count = population.horizon, len(population)
    pi, forecast = as_prices(prices, n), as_forecast(forecast, n)

    def consumption(noise: np.ndarray) -> np.ndarray:
        (rows,), _ = _rollout(population, pi, forecast, (), noise[:, 0], noise[:, 1:n + 1], noise[:, n + 1:])
        return rows

    base = consumption(np.zeros((count, 2 * n + 1)))
    maps = np.empty((count, 2 * n + 1, n))
    for j in range(2 * n + 1):
        impulse = np.zeros((count, 2 * n + 1))
        impulse[:, j] = 1.0
        maps[:, j] = consumption(impulse) - base
    return base, maps


def baseline_days(params: Population, tolerance: float, prices: Sequence[float], weather: Sequence[float],
                  seed: int, n_days: int, consumer_id: int = 0) -> Outcome:
    """Replicate days of one consumer's thermostat baseline (shared noise
    layout with ``simulate_days``, so the two are comparable seed-for-seed)."""
    pi, forecast, _, w, _ = _replicate_days(params, prices, weather, seed, n_days, consumer_id)
    powers = baseline_powers(params, forecast, tolerance)
    discomfort = baseline_rollout(params, powers, forecast, w)
    return np.repeat(powers, n_days, axis=0), np.full(n_days, float(powers[0] @ pi)), discomfort


def consumer_surplus_with_storage(
    model: AffineDemandModel,
    prices: Sequence[float],
    battery: BatteryParams,
) -> float:
    """Expected surplus of a consumer who owns a battery.

    Net metering separates the decision problems, so the total is the
    thermal surplus plus the battery's arbitrage profit.
    """
    return expected_cs(model, prices) + arbitrage(prices, battery).profit


def population_net_load(prices: Sequence[float], batteries: Sequence[BatteryParams], horizon: int) -> np.ndarray:
    """Summed optimal net battery load of a population at one tariff.

    Identical battery specs share a single LP solve.
    """
    total = np.zeros(horizon)
    for battery, count in Counter(batteries).items():
        total += count * arbitrage(prices, battery).net_load
    return total


def retailer_objective_with_storage(
    model: AffineDemandModel,
    cost: WholesaleCost,
    batteries: Sequence[BatteryParams],
    prices: Sequence[float],
    eta: float,
) -> float:
    """Weighted retail objective ``rp + eta * cs`` when consumers operate
    batteries: their net load n adds ``(prices - wholesale) @ n`` to profit
    and subtracts its energy bill ``prices @ n`` from surplus."""
    pi = as_prices(prices, model.horizon)
    net = population_net_load(pi, batteries, model.horizon)
    cs = expected_cs(model, pi) - float(pi @ net)
    rp = expected_rp(model, pi, cost) + float((pi - cost.mean) @ net)
    return rp + eta * cs


SURPLUS_FLOOR_RTOL = 1e-8  # |cs - floor| <= rtol * max(1, |floor|)


def constrained_optimal_price(
    model: AffineDemandModel, cost: WholesaleCost, cs_floor: float
) -> tuple[np.ndarray, float, float]:
    """Maximize profit subject to ``cs >= cs_floor``.

    Equivalent to picking the weight whose optimal tariff meets the floor,
    which the front geometry gives in closed form.  Returns
    ``(price, cs, rp)``.  Floors above the maximum achievable surplus raise
    ``InfeasibleConstraintError`` naming that maximum.
    """
    floor = float(cs_floor)
    ends = pareto_front(model, cost, [0.0, 1.0])
    (cs0, cs1), (rp0, rp1) = ends.cs.tolist(), ends.rp.tolist()
    if floor <= cs0:
        return ends.price[0], cs0, rp0
    scale = max(1.0, abs(floor))
    if floor > cs1 + SURPLUS_FLOOR_RTOL * scale:
        raise InfeasibleConstraintError(
            f"surplus floor {floor:.6g} exceeds the maximum achievable "
            f"expected consumer surplus {cs1:.6g}"
        )
    if floor >= cs1:
        return ends.price[1], cs1, rp1
    q, k = _front_geometry(model, cost)
    eta = min(max(_eta_at_cs(q, k, floor), 0.0), 1.0)
    _, (price,), (cs,), (rp,) = pareto_front(model, cost, [eta])
    if abs(cs - floor) > SURPLUS_FLOOR_RTOL * scale:
        raise InfeasibleConstraintError(
            f"closed-form weight left |cs - floor| = {abs(cs - floor):.3e} above tolerance"
        )
    return price, float(cs), float(rp)
