"""Tests for CSV ingestion and the synthetic data generators."""
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers

from dahp.errors import DataError
from dahp.timeseries import (
    HourlySeries,
    load_series,
    mean_day,
    synthetic_weather,
    synthetic_wholesale,
)


def _write_wide(path, days):
    header = "date," + ",".join(f"h{i:02d}" for i in range(1, 25))
    lines = [header]
    for day, values in days:
        lines.append(day + "," + ",".join(f"{v:.6f}" for v in values))
    path.write_text("\n".join(lines) + "\n")


def _write_long(path, days):
    lines = ["timestamp,value"]
    for day, values in days:
        for hour, v in enumerate(values):
            lines.append(f"{day}T{hour:02d}:00:00,{v:.6f}")
    path.write_text("\n".join(lines) + "\n")


def test_wide_format_roundtrip(tmp_path):
    rng = np.random.default_rng(130)
    days = [(f"2024-07-{d:02d}", rng.uniform(15, 35, size=24)) for d in range(1, 31)]
    f = tmp_path / "weather.csv"
    _write_wide(f, days)
    series = load_series(f, "weather")
    assert len(series) == 30
    assert series[0].date == "2024-07-01"
    assert series[0].unit == "degC"
    assert np.allclose(series[4].values, days[4][1], atol=1e-6)


def test_long_format_equals_wide_format(tmp_path):
    rng = np.random.default_rng(131)
    days = [(f"2024-06-{d:02d}", rng.uniform(20, 90, size=24)) for d in range(1, 4)]
    wide, long = tmp_path / "wide.csv", tmp_path / "long.csv"
    _write_wide(wide, days)
    _write_long(long, days)
    a = load_series(wide, "price")
    b = load_series(long, "price")
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        assert x.date == y.date
        assert np.allclose(x.values, y.values, atol=0.0)


DAY_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24, max_size=24)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_shuffled_wide_and_long_files_load_the_same_days_in_date_order(tmp_path_factory, data):
    ordinals = data.draw(st.lists(st.integers(730_000, 740_000), min_size=1, max_size=5, unique=True))
    dates = [date.fromordinal(ordinal).isoformat() for ordinal in ordinals]
    days = np.array(data.draw(st.lists(DAY_VALUES, min_size=len(dates), max_size=len(dates))))
    expected = days[np.argsort(dates)].view(np.uint64)
    for layout in ("wide", "long"):
        rows = data.draw(st.permutations(helpers.series_rows(dates, days, layout)))
        for at in data.draw(st.lists(st.integers(0, len(rows)), max_size=3)):
            rows.insert(at, "")
        series = load_series(helpers.write_series(tmp_path_factory.mktemp(layout) / "weather.csv", layout, rows),
                             "weather")
        assert [s.date for s in series] == sorted(dates), layout
        assert np.array_equal(np.array([s.values for s in series]).view(np.uint64), expected), layout


def test_price_unit_conversion(tmp_path):
    f = tmp_path / "prices.csv"
    _write_wide(f, [("2024-01-01", np.full(24, 50.0))])  # $50/MWh
    series = load_series(f, "price")
    assert np.allclose(series[0].values, 0.05)  # $/kWh
    assert series[0].unit == "usd_per_kwh"
    weather = load_series(f, "weather")
    assert np.allclose(weather[0].values, 50.0)  # no conversion


def test_wide_bad_row_names_line(tmp_path):
    f = tmp_path / "weather.csv"
    rng = np.random.default_rng(132)
    _write_wide(f, [("2024-07-01", rng.uniform(15, 35, 24)), ("2024-07-02", rng.uniform(15, 35, 24))])
    content = f.read_text().splitlines()
    content[2] = ",".join(content[2].split(",")[:-1])  # drop one column on line 3
    f.write_text("\n".join(content) + "\n")
    with pytest.raises(DataError) as info:
        load_series(f, "weather")
    assert "3" in str(info.value)


def test_wide_unparseable_cell_names_line(tmp_path):
    f = tmp_path / "weather.csv"
    _write_wide(f, [("2024-07-01", np.full(24, 20.0))])
    f.write_text(f.read_text().replace("20.000000", "oops", 1))
    with pytest.raises(DataError) as info:
        load_series(f, "weather")
    assert "2" in str(info.value)


def test_long_missing_hour_reports_day(tmp_path):
    f = tmp_path / "prices.csv"
    _write_long(f, [("2024-06-01", np.full(24, 40.0))])
    content = f.read_text().splitlines()
    del content[8]  # remove one hour row
    f.write_text("\n".join(content) + "\n")
    with pytest.raises(DataError) as info:
        load_series(f, "price")
    assert "2024-06-01" in str(info.value) and "missing hours" in str(info.value)


def test_long_duplicate_hour_rejected(tmp_path):
    f = tmp_path / "prices.csv"
    _write_long(f, [("2024-06-01", np.full(24, 40.0))])
    with open(f, "a") as handle:
        handle.write("2024-06-01T05:00:00,41.0\n")
    with pytest.raises(DataError) as info:
        load_series(f, "price")
    assert "26" in str(info.value)  # 1 header + 24 rows + 1 duplicate


def test_unknown_header_rejected(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("time,price\n2024-06-01T00:00:00,40\n")
    with pytest.raises(DataError):
        load_series(f, "price")


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(DataError):
        load_series(f, "weather")


@pytest.mark.parametrize("header", ["timestamp,value", "date," + ",".join(f"h{i:02d}" for i in range(1, 25))])
def test_header_and_blank_lines_only_rejected(tmp_path, header):
    f = tmp_path / "weather.csv"
    f.write_text(header + "\n\n\n")
    with pytest.raises(DataError, match="no data rows"):
        load_series(f, "weather")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_series(tmp_path / "nope.csv", "weather")


def test_bad_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_series(tmp_path / "x.csv", "humidity")


def test_blank_rows_skipped_but_numbering_kept(tmp_path):
    f = tmp_path / "weather.csv"
    rng = np.random.default_rng(133)
    _write_wide(f, [("2024-07-01", rng.uniform(15, 35, 24)), ("2024-07-02", rng.uniform(15, 35, 24))])
    content = f.read_text().splitlines()
    content.insert(2, "")  # blank line between the two data rows
    content[3] = "bad-date," + ",".join(content[3].split(",")[1:])
    f.write_text("\n".join(content) + "\n")
    with pytest.raises(DataError) as info:
        load_series(f, "weather")
    assert "4" in str(info.value)


def test_line_numbers_count_the_lines_of_a_quoted_multi_line_cell(tmp_path):
    f = tmp_path / "weather.csv"
    _write_wide(f, [("2024-07-01", np.full(24, 20.0)), ("2024-07-02", np.full(24, 20.0))])
    content = f.read_text().splitlines()
    content[1] = content[1].replace("20.000000", '"20.000000\n"', 1)  # lines 2 and 3 hold one row
    content[2] = content[2].replace("20.000000", "oops", 1)  # on line 4
    f.write_text("\n".join(content) + "\n")
    with pytest.raises(DataError, match=r"lines \[4\]"):
        load_series(f, "weather")


def test_hourly_series_validation():
    with pytest.raises(DataError):
        HourlySeries(date="2024-01-01", values=np.zeros(23), unit="degC")
    with pytest.raises(DataError):
        HourlySeries(date="2024-01-01", values=np.full(24, np.nan), unit="degC")


def test_synthetic_weather_shape():
    series = synthetic_weather(3)
    assert len(series) == 3
    assert series[0].date == "2000-01-01" and series[2].date == "2000-01-03"
    values = series[0].values
    assert values.argmin() == 5 and values.min() == pytest.approx(22.0)
    assert values.argmax() == 15 and values.max() == pytest.approx(35.0)
    # smooth single rise and fall around the clock
    rising = np.diff(values[5:16])
    assert np.all(rising > 0)


def test_synthetic_wholesale_shape():
    series = synthetic_wholesale(2)
    values = series[0].values
    assert np.all(values > 0.0)
    assert values.max() < 0.15  # $/kWh scale, not $/MWh
    # two local peaks: morning and evening
    local_max = [h for h in range(1, 23) if values[h] > values[h - 1] and values[h] > values[h + 1]]
    assert len(local_max) == 2
    assert 7 <= local_max[0] <= 10 and 17 <= local_max[1] <= 20


def test_mean_day():
    series = synthetic_weather(4)
    assert np.allclose(mean_day(series), series[0].values)
    with pytest.raises(DataError):
        mean_day([])
