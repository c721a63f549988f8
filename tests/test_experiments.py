"""Tests for the experiment pipelines' inputs and tables, sweep construction, CSV assembly and CSV writer."""
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from dahp.cli import main
from dahp.config import BenchmarkSpec, ExperimentConfig, PopulationSpec, load_config
from dahp.errors import ConfigError, NumericalError
from dahp.experiments import (
    _CHUNK_CELLS,
    _PRICE_COLUMNS,
    _RUNNERS,
    COMMANDS,
    _benchmark_families,
    _csv_body,
    _percent_body,
    _ticks,
    _write,
    _write_tables,
    load_inputs,
    run_benchmarks,
    run_experiment,
    run_pareto,
)
from dahp.pricing import benchmark_trace, expected_cs, expected_rp, optimal_price

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
    sweep, direction = _benchmark_families(model, cost, config.benchmarks)["tou"]
    prices = sweep[-1] * direction
    assert prices[9:17] == pytest.approx(zero_demand_level, rel=1e-14)
    assert prices[:9] == pytest.approx(zero_demand_level / ratio, rel=1e-14)


def test_benchmark_families_are_theta_times_their_direction():
    spec = BenchmarkSpec(points=5, tou_ratio=1.5, peak_start=3, peak_end=20)
    config = ExperimentConfig(seed=3, consumers=PopulationSpec(count=3), benchmarks=spec)
    model, cost = helpers.mean_day_market(config)
    families = _benchmark_families(model, cost, spec)
    assert list(families) == ["cp", "tou", "pmp"]
    directions = {family: direction for family, (_, direction) in families.items()}
    assert np.array_equal(directions["cp"], np.ones(24))
    assert np.array_equal(directions["tou"], np.r_[np.ones(3), np.full(17, 1.5), np.ones(4)])
    assert np.array_equal(directions["pmp"], cost.mean)
    for family, (sweep, direction) in families.items():
        assert sweep.shape == (5,)
        trace = benchmark_trace(model, cost, sweep, direction)
        assert np.array_equal(trace.price, oracles.benchmark_prices(family, sweep, cost, 1.5, 3, 20)), family


@pytest.mark.parametrize("peak_start, peak_end", [(3, 20), (0, 24), (0, 1), (23, 24)])
def test_pipeline_csvs_match_rows_built_one_tariff_at_a_time(tmp_path, peak_start, peak_end):
    spec = BenchmarkSpec(points=7, tou_ratio=1.5, peak_start=peak_start, peak_end=peak_end)
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
    for family, (sweep, _) in _benchmark_families(model, cost, spec).items():
        expected[family] = [row(param, oracles.benchmark_prices(family, param, cost, 1.5, peak_start, peak_end))
                            for param in sweep]
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
DTYPES = {INTS: np.int64, st.booleans(): bool}


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 8))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        cells = draw(st.sampled_from([ANY_FLOAT, NEAR_TIE, AT_CUT, ORDINARY, ORDINARY | NEAR_TIE, *DTYPES]))
        values = draw(st.lists(cells, min_size=rows, max_size=rows))
        columns.append(np.array(values, dtype=DTYPES.get(cells, float)))
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


@pytest.mark.parametrize("other", [1.5, np.nan], ids=["certified", "fallback"])
def test_a_bool_column_is_written_as_integers_by_both_formatters(other):
    # a bool cell's bytes must not depend on whether another cell of the
    # table sends it through numpy's formatting or the % fallback
    columns = [np.array([True, False]), np.array([other, 2.25])]
    assert b"".join(_csv_body(columns)).decode() == f"1,{other:.4f}\n0,2.2500\n"
    assert _percent_body(columns) == f"1,{other:.4f}\n0,2.2500\n"


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


OLD = b"an earlier run's file, longer than the short rewrite\n" * 40


@pytest.mark.parametrize("new", [b"short\n", OLD + b"and then some more\n" * 500, OLD],
                         ids=["shorter", "longer", "identical"])
def test_a_rewrite_leaves_exactly_the_new_bytes_in_the_same_file(tmp_path, new):
    path = tmp_path / "t.csv"
    path.write_bytes(OLD)
    path.chmod(0o604)
    before = path.stat()
    _write(path, [new[:7], new[7:]])
    after = path.stat()
    assert path.read_bytes() == new
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)


def test_a_new_file_gets_the_mode_open_wb_gives(tmp_path):
    _write(tmp_path / "new.csv", [b"a\n"])
    with (tmp_path / "reference.csv").open("wb"):
        pass
    assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "reference.csv").stat().st_mode
    assert (tmp_path / "new.csv").read_bytes() == b"a\n"


def test_the_open_asks_for_binary_mode_where_the_platform_has_one(tmp_path, monkeypatch):
    # Windows opens a descriptor in text mode (LF written as CRLF) unless
    # O_BINARY is passed, as open("wb") passes it; other platforms have none
    binary = 1 << 29
    monkeypatch.setattr(os, "O_BINARY", binary, raising=False)
    real_open, flags_seen = os.open, []

    def recording_open(path, flags, *args, **kwargs):
        flags_seen.append(flags)
        return real_open(path, flags & ~binary, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    _write(tmp_path / "t.csv", [b"a\nb\n"])
    assert flags_seen == [os.O_WRONLY | os.O_CREAT | binary]
    assert (tmp_path / "t.csv").read_bytes() == b"a\nb\n"


def test_a_symlinked_output_is_written_through_and_stays_a_link(tmp_path):
    target = tmp_path / "kept" / "t.csv"
    target.parent.mkdir()
    target.write_bytes(OLD)
    link = tmp_path / "t.csv"
    link.symlink_to(target)
    _write(link, [b"new\n"])
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b"new\n"


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_an_output_linked_to_the_null_device_is_written_without_a_cut(tmp_path):
    # a device has no size to cut, and O_TRUNC leaves it alone too
    link = tmp_path / "t.csv"
    link.symlink_to(os.devnull)
    _write(link, [b"discarded\n"])
    assert link.is_symlink()


def test_a_write_that_fails_part_way_leaves_only_what_was_written(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(OLD)

    def chunks():
        yield b"first chunk\n"
        raise OSError(errno.EIO, "the second chunk failed")

    with pytest.raises(ConfigError, match="cannot write .*t\\.csv.*the second chunk failed"):
        _write(path, chunks())
    assert path.read_bytes() == b"first chunk\n"


def test_a_read_only_existing_output_exits_2_and_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "tradeoff.csv").write_bytes(OLD)
    (out / "tradeoff.csv").chmod(0o444)
    if os.geteuid() == 0:
        # root opens a file for writing whatever its mode bits: refuse the
        # open as the kernel does for any other user
        real_open = os.open

        def open_as_a_user(path, flags, *args, **kwargs):
            if flags & (os.O_WRONLY | os.O_RDWR) and os.path.exists(path) and not os.stat(path).st_mode & 0o222:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", open_as_a_user)
    code = main(["pareto", "--config", str(helpers.demo_config(tmp_path)), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    record = json.loads(captured.err)
    assert record["error"] == "config" and "cannot write" in record["message"]
    assert (out / "tradeoff.csv").read_bytes() == OLD
    assert not (out / "manifest.json").exists()


def test_a_shrinking_rerun_into_one_directory_gives_a_fresh_runs_bytes(tmp_path, capsys):
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    config = str(helpers.demo_config(tmp_path, [("benchmarks.points", 200)]))
    assert main(["benchmarks", "--config", config, "--out", str(rerun)]) == 0
    before = {path.name: path.stat().st_size for path in rerun.iterdir()}
    config = str(helpers.demo_config(tmp_path, [("benchmarks.points", 50)]))
    assert main(["benchmarks", "--config", config, "--out", str(rerun)]) == 0
    assert main(["benchmarks", "--config", config, "--out", str(fresh)]) == 0
    capsys.readouterr()
    names = json.loads((fresh / "manifest.json").read_text())["outputs"]
    assert sorted(before) == sorted([*names, "manifest.json"])
    for name in names:
        assert before[name] > (fresh / name).stat().st_size  # every file shrank
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name

    def manifest(out):
        return re.sub(rb'"wall_time_s": [0-9.e+-]+', b'"wall_time_s": 0', (out / "manifest.json").read_bytes())

    assert manifest(rerun) == manifest(fresh)
