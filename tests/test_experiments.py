"""Tests for the experiment pipelines' sweep construction and CSV writer."""
import numpy as np
import pytest

import oracles
from dahp.config import BenchmarkSpec, ExperimentConfig, PopulationSpec
from dahp.experiments import _build_workspace, _default_sweeps, _write_csv
from dahp.pricing import benchmark_prices


@pytest.mark.parametrize("ratio", [1.2, 2.0])
def test_tou_sweep_peak_ends_at_zero_demand_price(ratio):
    config = ExperimentConfig(seed=3, consumers=PopulationSpec(count=3), benchmarks=BenchmarkSpec(tou_ratio=ratio))
    ws = _build_workspace(config)
    zero_demand_level = float(np.mean(ws.model.solve(ws.model.intercept_mean)))
    last = _default_sweeps(ws, 5, ratio)["tou"][-1]
    prices = benchmark_prices("tou", last, ws.cost, ratio, peak_start=9, peak_end=17)
    assert prices[9:17] == pytest.approx(zero_demand_level, rel=1e-14)
    assert prices[:9] == pytest.approx(zero_demand_level / ratio, rel=1e-14)


def test_csv_writer_matches_the_cell_by_cell_oracle(tmp_path):
    rng = np.random.default_rng(67)
    edges = [0.0, -0.0, -0.00004, -0.00005, -0.00006, 0.00005, 0.00015, -0.99995, 1e6 + 0.5, -123.45675]
    floats = np.concatenate([edges, rng.normal(0.0, 10.0, 500), rng.normal(0.0, 1e-4, 500)])
    ints = np.arange(len(floats)) * 7 - 20
    columns = [ints, floats, -floats, np.round(floats, 4), ints[::-1]]
    _write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e"], columns)
    rows = zip(*(column.tolist() for column in columns))
    assert (tmp_path / "t.csv").read_text() == oracles.csv_text(["a", "b", "c", "d", "e"], rows)


def test_csv_writer_float_rows(tmp_path):
    rows = [[0.5, -0.0, 2.0], [-1e-5, 3.25, -7.0]]
    _write_csv(tmp_path / "t.csv", ["x", "y", "z"], np.array(rows, dtype=float).T)
    assert (tmp_path / "t.csv").read_text() == oracles.csv_text(["x", "y", "z"], rows)
    assert (tmp_path / "t.csv").read_text() == "x,y,z\n0.5000,0.0000,2.0000\n0.0000,3.2500,-7.0000\n"
