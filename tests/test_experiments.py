"""Tests for the experiment pipelines' inputs and tables, sweep construction, CSV assembly and CSV writer."""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from dahp.config import BenchmarkSpec, ExperimentConfig, PopulationSpec, load_config
from dahp.errors import ConfigError, NumericalError
from dahp.experiments import (
    _CHUNK_CELLS,
    _PRICE_COLUMNS,
    _RUNNERS,
    COMMANDS,
    _csv_body,
    _default_sweeps,
    _percent_body,
    _ticks,
    _write_tables,
    load_inputs,
    run_benchmarks,
    run_experiment,
    run_pareto,
)
from dahp.pricing import benchmark_prices, expected_cs, expected_rp, optimal_price

ROOT = Path(__file__).resolve().parents[1]


def _readme_outputs() -> dict[str, list[tuple[str, list[str]]]]:
    """command -> its (file, header) pairs in the README's Outputs table,
    with ``{a,b}`` file names and ``price_01..price_24`` expanded."""
    section = (ROOT / "README.md").read_text().split("\n## Outputs\n")[1].split("\n## ")[0]
    outputs = {}
    for command, file, columns in re.findall(r"^\| `(\w+)` \| `([^`]+)` \| `([^`]+)` \|$", section, re.M):
        header = columns.replace("price_01..price_24", ",".join(_PRICE_COLUMNS)).split(",")
        stem, _, variants = file.partition("{")
        variants, _, suffix = variants.partition("}")
        names = [f"{stem}{variant}{suffix}" for variant in variants.split(",")] if suffix else [file]
        outputs.setdefault(command, []).extend((name, header) for name in names)
    return outputs


def test_every_study_returns_the_readme_tables_without_opening_a_file(monkeypatch):
    config = load_config(ROOT / "configs" / "demo.yaml")
    inputs = load_inputs(config)
    expected = _readme_outputs()
    assert list(expected) == list(COMMANDS)

    def no_file(*args, **kwargs):
        raise AssertionError(f"a study opened a file: {args}")

    monkeypatch.setattr("builtins.open", no_file)
    monkeypatch.setattr(Path, "open", no_file)
    for command, study in _RUNNERS.items():
        tables, _ = study(config, *inputs)
        assert [(name, list(header)) for name, (header, _) in tables.items()] == expected[command], command


@pytest.mark.parametrize("ratio", [1.2, 2.0])
def test_tou_sweep_peak_ends_at_zero_demand_price(ratio):
    config = ExperimentConfig(seed=3, consumers=PopulationSpec(count=3), benchmarks=BenchmarkSpec(tou_ratio=ratio))
    model, cost = helpers.mean_day_market(config)
    zero_demand_level = float(np.mean(model.solve(model.intercept_mean)))
    last = _default_sweeps(model, cost, 5, ratio)["tou"][-1]
    prices = benchmark_prices("tou", last, cost, ratio, peak_start=9, peak_end=17)
    assert prices[9:17] == pytest.approx(zero_demand_level, rel=1e-14)
    assert prices[:9] == pytest.approx(zero_demand_level / ratio, rel=1e-14)


def test_pipeline_csvs_match_rows_built_one_tariff_at_a_time(tmp_path):
    spec = BenchmarkSpec(points=7, tou_ratio=1.5, peak_start=3, peak_end=20)
    config = ExperimentConfig(seed=5, consumers=PopulationSpec(count=4), eta_grid=[0.0, 1.0, 11], benchmarks=spec)
    model, cost = helpers.mean_day_market(config)
    inputs = load_inputs(config)

    def row(param, price):
        return [float(param), expected_cs(model, price), expected_rp(model, price, cost)]

    tables, counters = run_pareto(config, *inputs)
    assert (_write_tables(tmp_path, tables), counters) == (["tradeoff.csv"], {})
    tradeoff = []
    for eta in np.linspace(0.0, 1.0, 11):
        price = optimal_price(model, cost, eta)
        cs, rp = expected_cs(model, price), expected_rp(model, price, cost)
        tradeoff.append([float(eta), cs, rp, cs + rp, *price.tolist()])
    header = ["eta", "cs", "rp", "sw", *_PRICE_COLUMNS]
    assert (tmp_path / "tradeoff.csv").read_text() == oracles.csv_text(header, tradeoff)

    tables, _ = run_benchmarks(config, *inputs)
    files = _write_tables(tmp_path, tables)
    assert files == ["benchmark_dahp.csv", "benchmark_cp.csv", "benchmark_tou.csv", "benchmark_pmp.csv"]
    expected = {"dahp": [row(eta, optimal_price(model, cost, eta)) for eta in np.linspace(0.0, 1.0, 7)]}
    for scheme, sweep in _default_sweeps(model, cost, 7, 1.5).items():
        expected[scheme] = [row(param, benchmark_prices(scheme, param, cost, 1.5, 3, 20)) for param in sweep]
    for scheme, rows in expected.items():
        text = (tmp_path / f"benchmark_{scheme}.csv").read_text()
        assert text == oracles.csv_text(["param", "cs", "rp"], rows), scheme


def test_csv_writer_matches_the_cell_by_cell_oracle(tmp_path):
    rng = np.random.default_rng(67)
    edges = [0.0, -0.0, -0.00004, -0.00005, -0.00006, 0.00005, 0.00015, -0.99995, 1e6 + 0.5, -123.45675]
    floats = np.concatenate([edges, rng.normal(0.0, 10.0, 500), rng.normal(0.0, 1e-4, 500)])
    ints = np.arange(len(floats)) * 7 - 20
    columns = [ints, floats, -floats, np.round(floats, 4), ints[::-1]]
    assert _write_tables(tmp_path, {"t.csv": (["a", "b", "c", "d", "e"], columns)}) == ["t.csv"]
    rows = zip(*(column.tolist() for column in columns))
    assert (tmp_path / "t.csv").read_text() == oracles.csv_text(["a", "b", "c", "d", "e"], rows)


def test_csv_writer_float_rows(tmp_path):
    rows = [[0.5, -0.0, 2.0], [-1e-5, 3.25, -7.0]]
    _write_tables(tmp_path, {"t.csv": (["x", "y", "z"], np.array(rows, dtype=float).T)})
    assert (tmp_path / "t.csv").read_text() == oracles.csv_text(["x", "y", "z"], rows)
    assert (tmp_path / "t.csv").read_text() == "x,y,z\n0.5000,0.0000,2.0000\n0.0000,3.2500,-7.0000\n"


# Float cells for the writer's fast path and its fallback: any float64
# (nan, infinities, signed zeros and subnormals included), values a few
# ulps from a rounding tie k * 1e-4 + 5e-5, values either side of the
# 2**40 / 1e4 cut below which cells are formatted in numpy, and ordinary
# values that the fast path certifies.
def _ulps(x: float, steps: int) -> float:
    """``x`` moved by ``steps`` ulps."""
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, np.copysign(np.inf, steps)))
    return x


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
NEAR_TIE = st.builds(lambda k, steps: _ulps(k * 1e-4 + 5e-5, steps),
                     st.integers(-10**9, 10**9), st.integers(-4, 4))
AT_CUT = st.builds(lambda sign, steps: sign * _ulps(2.0**40 / 1e4, steps),
                   st.sampled_from([-1.0, 1.0]), st.integers(-4, 4))
ORDINARY = st.floats(-1e6, 1e6)
INTS = st.integers(-10**6, 10**6) | st.integers(-2**63, 2**63 - 1)


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 8))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        cells = draw(st.sampled_from([ANY_FLOAT, NEAR_TIE, AT_CUT, ORDINARY, ORDINARY | NEAR_TIE, INTS]))
        values = draw(st.lists(cells, min_size=rows, max_size=rows))
        columns.append(np.array(values, dtype=np.int64 if cells is INTS else float))
    return columns


def _oracle_body(columns) -> str:
    """The oracle's CSV text of ``columns`` without its header line."""
    rows = zip(*(column.tolist() for column in columns))
    return oracles.csv_text(["header"], rows).split("\n", 1)[1]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tables())
def test_csv_writer_matches_the_oracle_on_any_table(columns):
    assert b"".join(_csv_body(columns)).decode() == _oracle_body(columns)


def test_numpy_formatting_matches_the_percent_path_across_chunks():
    rng = np.random.default_rng(68)
    floats = np.concatenate([rng.normal(0.0, 10.0 ** rng.integers(-5, 7, 4000)), [0.0, -0.0, 5e-324, -4e-5]])
    columns = [np.arange(len(floats)) - 7, floats, -floats, np.round(floats, 4), np.zeros(len(floats), np.uint8)]
    assert _ticks(columns) is not None and len(floats) * len(columns) > 2 * _CHUNK_CELLS
    assert b"".join(_csv_body(columns)).decode() == _percent_body(columns)


def test_one_uncertifiable_cell_sends_the_table_through_the_fallback():
    rng = np.random.default_rng(69)
    floats = rng.normal(0.0, 100.0, _CHUNK_CELLS)
    ids = np.arange(len(floats))
    for bad in (np.nan, -np.inf, 2.0**40 / 1e4, 1.00005, -12.34565):
        column = floats.copy()
        column[-17] = bad  # in the last chunk
        assert _ticks([ids, floats]) is not None and _ticks([ids, column]) is None
        assert b"".join(_csv_body([ids, column])).decode() == _oracle_body([ids, column])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cell_is_a_numerical_error_and_writes_nothing(tmp_path, bad):
    # the bad table comes last: no table is written before every cell is checked
    column = np.array([1.0, bad, 3.0])
    tables = {"a.csv": (["id"], [np.arange(3)]), "t.csv": (["id", "x"], [np.arange(3), column])}
    with pytest.raises(NumericalError, match=r"t\.csv: column 'x' is not finite"):
        _write_tables(tmp_path, tables)
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown command 'plot'"):
        run_experiment(ExperimentConfig(seed=1), "plot", tmp_path / "out")
    assert not (tmp_path / "out").exists()
