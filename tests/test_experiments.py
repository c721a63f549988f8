"""Tests for the experiment pipelines' sweep construction."""
import numpy as np
import pytest

from dahp.config import BenchmarkSpec, ExperimentConfig, PopulationSpec
from dahp.experiments import _build_workspace, _default_sweeps
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
