"""Output checks, one per CLI command, reading only the files a command wrote.

Each check returns a list of problems; an empty list means the outputs are
correct.  CSV cells carry four decimals, so identities are tested to the
rounding of the cells involved.
"""
from __future__ import annotations

import csv
import hashlib
import json
from functools import cached_property
from pathlib import Path

import numpy as np

CELL = 5e-5  # half a unit in the fourth decimal: the rounding of one CSV cell


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def digest(path: Path) -> str:
    """sha256 of an output file; the manifest's wall time, its one volatile
    field, is dropped first."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("wall_time_s", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _identity(label: str, lhs: np.ndarray, rhs: np.ndarray, cells: int) -> list[str]:
    gap = np.abs(lhs - rhs)
    worst = int(np.argmax(gap)) if gap.size else 0
    if gap.size and gap[worst] > cells * CELL * (1 + 1e-9):
        return [f"{label}: off by {gap[worst]:.3e} at entry {worst + 1}"]
    return []


def check_tradeoff(out: Path, ctx) -> list[str]:
    _, t = read_csv(out / "tradeoff.csv")
    eta, cs, rp, sw, price = t[:, 0], t[:, 1], t[:, 2], t[:, 3], t[:, 4:]
    problems = []
    if len(eta) != len(ctx.eta_grid) or not np.allclose(eta, ctx.eta_grid, atol=CELL):
        problems.append("tradeoff.csv: eta column is not the configured grid")
        return problems
    problems += _identity("tradeoff.csv sw = cs + rp", sw, cs + rp, 3)
    if np.any(np.diff(cs) < -2 * CELL):
        problems.append("tradeoff.csv: cs decreases with eta")
    if np.any(np.diff(rp) > 2 * CELL):
        problems.append("tradeoff.csv: rp increases with eta")
    if eta[-1] == 1.0:
        problems += _identity("tradeoff.csv price at eta=1 vs wholesale mean", price[-1], ctx.wholesale_mean, 1)
        if abs(rp[-1]) > 2 * CELL:
            problems.append(f"tradeoff.csv: rp at eta=1 is {rp[-1]}, not 0")
    return problems


def _chords(front: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Profit on the sampled front's chords at ``cs``; beyond its cs range,
    the nearest end's profit (the front does not rise past its welfare end)."""
    order = np.argsort(front[:, 0])
    return np.interp(cs, front[order, 0], front[order, 1], left=front[:, 1].max(), right=front[order[-1], 1])


def front_tolerance(front: np.ndarray) -> float:
    """How far a tariff may sit above the chords of the concave front.

    A chord undercuts the front by its sagitta (2.7e-4 on the demo front).
    Each sample's height above the chord of its two neighbours spans two
    intervals, about four sagittas, so their maximum bounds the gap.
    """
    order = np.argsort(front[:, 0])
    cs, rp = front[order, 0], front[order, 1]
    span = np.maximum(cs[2:] - cs[:-2], np.finfo(float).tiny)
    above = rp[1:-1] - (rp[:-2] + (rp[2:] - rp[:-2]) * (cs[1:-1] - cs[:-2]) / span)
    return max(float(above.max(initial=0.0)), 0.0) + 2 * CELL


def check_benchmarks(out: Path, ctx) -> list[str]:
    _, front = read_csv(out / "benchmark_dahp.csv")
    problems = []
    if len(front) != ctx.benchmark_points:
        problems.append("benchmark_dahp.csv: wrong number of points")
    tolerance = front_tolerance(front[:, 1:])
    for scheme in ("cp", "tou", "pmp"):
        _, trace = read_csv(out / f"benchmark_{scheme}.csv")
        if len(trace) != ctx.benchmark_points:
            problems.append(f"benchmark_{scheme}.csv: wrong number of points")
        excess = float(np.max(trace[:, 2] - _chords(front[:, 1:], trace[:, 1])))
        if excess > tolerance:
            problems.append(f"benchmark_{scheme}.csv beats the dahp front by {excess:.3e} (tolerance {tolerance:.3e})")
    return problems


def check_renewable(out: Path, ctx) -> list[str]:
    _, t = read_csv(out / "renewable.csv")
    problems = []
    if len(t) != len(ctx.eta_grid) * len(ctx.capacity_grid):
        problems.append("renewable.csv: row count is not etas x capacities")
    delta_rp, fraction = t[:, 3], t[:, 4]
    if np.any(fraction < 0.0) or np.any(fraction > 1.0):
        problems.append("renewable.csv: fraction outside [0, 1]")
    if np.any(delta_rp < 0.0):
        problems.append("renewable.csv: delta_rp is negative")
    return problems


def _day_rows(path: Path, surplus_col: int, expected_rows: int) -> list[str]:
    _, t = read_csv(path)
    problems = []
    if len(t) != expected_rows:
        problems.append(f"{path.name}: {len(t)} rows, expected {expected_rows}")
    payment, discomfort, surplus = t[:, surplus_col - 2], t[:, surplus_col - 1], t[:, surplus_col]
    problems += _identity(f"{path.name} surplus = -(payment + discomfort)", surplus, -(payment + discomfort), 3)
    return problems


def check_simulate(out: Path, ctx) -> list[str]:
    rows = ctx.consumers * ctx.days
    problems = _day_rows(out / "simulate.csv", 4, rows)
    if ctx.tolerances:
        problems += _day_rows(out / "baseline.csv", 5, rows * len(ctx.tolerances))
    return problems


def check_storage(out: Path, ctx) -> list[str]:
    """cs and rp must match an independent ``scipy.optimize.linprog`` solve
    of the battery LP at the written tariff.

    The battery plan is not unique at indifference prices, but its profit
    is, which pins cs; rp must then fit some optimal plan, which bounds the
    wholesale cost of the plan between its extremes over the optimal face.
    The written tariff is rounded to four decimals, so both identities
    carry the first-order effect of that rounding.
    """
    _, t = read_csv(out / "storage.csv")
    problems = []
    if len(t) != len(ctx.storage_eta_grid):
        return ["storage.csv: one row per storage eta expected"]
    lam = ctx.wholesale_mean
    for row in t:
        eta, cs, rp, price = row[0], row[1], row[2], row[4:]
        model = ctx.model
        demand = model.intercept_mean - model.gain @ price
        cs_thermal = 0.5 * price @ model.gain @ price - price @ model.intercept_mean + model.cs_constant
        rp_thermal = (price - lam) @ demand
        profit, cost_lo, cost_hi, rate = ctx.battery_lp(price)
        count = ctx.battery_count
        # first-order change of each quantity under a price move of CELL per hour
        d_cs = CELL * float(np.sum(np.abs(demand) + count * rate))
        d_rp = CELL * float(np.sum(np.abs(demand) + np.abs(model.gain @ (price - lam)) + 2 * count * rate))
        cs_lp = cs_thermal + count * profit
        if abs(cs - cs_lp) > d_cs + 2 * CELL:
            problems.append(f"storage.csv eta={eta}: cs {cs} vs linprog {cs_lp:.4f}")
        # rp = rp_thermal + price@net - lam@net with price@net = -profit
        lam_net = rp_thermal - count * profit - rp
        if not count * cost_lo - d_rp - 2 * CELL <= lam_net <= count * cost_hi + d_rp + 2 * CELL:
            problems.append(f"storage.csv eta={eta}: rp {rp} fits no optimal battery plan")
    return problems


class Context:
    """What the checks need to know about a workload's inputs: the resolved
    config, and the seeded weather and prices the program was given."""

    def __init__(self, config_path: Path, weather: np.ndarray, prices_mwh: np.ndarray):
        from dahp.config import batteries_from_spec, load_config, resolve_eta_grid

        self.config = load_config(config_path)
        self.weather = weather
        self.wholesale_mean = prices_mwh.mean(axis=0) / 1000.0  # $/MWh -> $/kWh
        self.days = len(weather)
        self.consumers = self.config.consumers.count
        self.eta_grid = resolve_eta_grid(self.config.eta_grid)
        self.storage_eta_grid = resolve_eta_grid(self.config.storage.eta_grid)
        self.capacity_grid = list(self.config.renewable.capacity_grid)
        self.benchmark_points = self.config.benchmarks.points
        self.tolerances = list(self.config.simulate.thermostat_tolerances)
        self.battery_count = self.config.storage.count
        self.battery = batteries_from_spec(self.config.storage)[0]

    @cached_property
    def model(self):
        """Population demand model on the mean day (the thermal part of the
        storage study; the battery part is what ``battery_lp`` re-derives)."""
        from dahp.config import draw_population
        from dahp.demand import aggregate, build_consumer_model

        weather = self.weather.mean(axis=0)
        population = draw_population(self.config.consumers, self.config.seed)
        return aggregate([build_consumer_model(p, weather) for p in population])

    def battery_lp(self, price: np.ndarray) -> tuple[float, float, float, float]:
        """Solve one battery's arbitrage LP with ``scipy.optimize.linprog``.

        Returns the optimal profit, the least and greatest wholesale cost
        ``lambda @ net`` over plans within the price-rounding slack of
        optimal, and the largest hourly net load a plan can have.
        """
        from scipy.optimize import linprog

        b, n = self.battery, len(price)
        kappa, tau, rho = b.storage_eff, b.charge_eff, b.discharge_eff
        # variables: charge (n), discharge (n), soc (n)
        eq = np.zeros((n + 1, 3 * n))
        rhs = np.zeros(n + 1)
        for i in range(n):
            eq[i, 2 * n + i] = 1.0
            eq[i, i] = -kappa * tau
            eq[i, n + i] = kappa / rho
            if i:
                eq[i, 2 * n + i - 1] = -kappa
        rhs[0] = kappa * b.initial_soc
        eq[n, 3 * n - 1] = 1.0
        rhs[n] = b.initial_soc
        bounds = [(0, b.charge_limit)] * n + [(0, b.discharge_limit)] * n + [(0, b.capacity)] * n
        constraints = dict(A_eq=eq, b_eq=rhs, bounds=bounds, method="highs")
        best = linprog(_on_net_load(price), **constraints)
        if best.status != 0:
            raise RuntimeError(f"reference battery LP failed: {best.message}")
        rate = max(b.charge_limit, b.discharge_limit)
        # A plan optimal at the unrounded tariff is within this much of
        # optimal at the written one: each hour's price moved by <= CELL.
        slack = 2.0 * rate * n * CELL + 1e-9
        face = dict(A_ub=[_on_net_load(price)], b_ub=[best.fun + slack], **constraints)
        lo = linprog(_on_net_load(self.wholesale_mean), **face)
        hi = linprog(-_on_net_load(self.wholesale_mean), **face)
        return -float(best.fun), float(lo.fun), -float(hi.fun), rate


def _on_net_load(hourly: np.ndarray) -> np.ndarray:
    """LP cost vector of ``hourly @ (charge - discharge)``."""
    return np.concatenate([hourly, -hourly, np.zeros(len(hourly))])


CHECKS = {
    "pareto": check_tradeoff,
    "benchmarks": check_benchmarks,
    "renewable": check_renewable,
    "storage": check_storage,
    "simulate": check_simulate,
}
