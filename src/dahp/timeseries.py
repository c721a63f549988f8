"""Hourly series ingestion and synthetic defaults.

Two CSV layouts are accepted and auto-detected from the header:

* wide: ``date,h01,...,h24`` with one row per day;
* long: ``timestamp,value`` with one row per hour.

Each data row, in either layout, is read as ``(day, first hour, values)``
(a wide row is a day's 24 hours from hour 0, a long row one hour), and one
loop checks the rows of both: days come out in date order and must cover
hours 00-23 exactly once.  Blank lines are skipped.  A row that is
malformed, holds a non-finite value or repeats an hour already given raises
``DataError`` naming the file and the rows' 1-based line numbers, as does a
day with missing hours.

Wholesale price files are expected in $/MWh (the standard market quote) and
are converted to $/kWh on load; weather files are degrees Celsius and pass
through unchanged.  Files are read as UTF-8, and one that is not raises
``DataError``.
"""
from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .demand import HOURS_PER_DAY
from .errors import DataError

SERIES_KINDS = ("weather", "price")
_UNIT = {"weather": "degC", "price": "usd_per_kwh"}


@dataclass(eq=False)
class HourlySeries:
    """One day of hourly values, already in package-internal units."""

    date: str
    values: np.ndarray
    unit: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (HOURS_PER_DAY,):
            raise DataError(f"hourly series must have {HOURS_PER_DAY} values")
        if not np.all(np.isfinite(self.values)):
            raise DataError("hourly series must be finite")


def load_series(path: str | Path, kind: str) -> list[HourlySeries]:
    """Load a CSV of hourly data as a list of day series in date order.

    ``kind`` is "weather" or "price"; prices are converted from $/MWh to
    $/kWh here so everything downstream works in consumer units.
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, row) for row in reader]  # a quoted cell may span lines
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows or not rows[0][1]:
        raise DataError(f"{path}: file is empty or starts with a blank line")
    header = rows[0][1]
    read = _LAYOUTS.get(tuple(cell.strip().lower() for cell in header))
    if read is None:
        raise DataError(
            f"{path}: unrecognized header {header!r}; expected 'date,h01..h24' or 'timestamp,value'"
        )
    days = defaultdict(lambda: ([None] * HOURS_PER_DAY, []))  # day -> (its values, None if not given; its lines)
    bad_lines = []
    for line_no, row in rows[1:]:
        if not row:
            continue
        try:
            day, first, values = read(row)
        except ValueError:
            bad_lines.append(line_no)
            continue
        hours, lines = days[day]
        given = slice(first, first + len(values))
        if not all(map(math.isfinite, values)) or hours[given].count(None) < len(values):
            bad_lines.append(line_no)
            continue
        hours[given] = values
        lines.append(line_no)
    if bad_lines:
        raise DataError(f"{path}: malformed, non-finite or duplicate rows at lines {bad_lines}")
    if not days:
        raise DataError(f"{path}: no data rows")
    scale = 1e-3 if kind == "price" else 1.0  # $/MWh -> $/kWh
    series = []
    for day in sorted(days):
        hours, lines = days[day]
        if None in hours:
            missing = [hour for hour, value in enumerate(hours) if value is None]
            raise DataError(f"{path}: day {day} (lines {lines}) is missing hours {missing}")
        series.append(HourlySeries(date=day, values=scale * np.array(hours), unit=_UNIT[kind]))
    return series


def _wide_row(row: list[str]) -> tuple[str, int, list[float]]:
    """A ``date,h01..h24`` row: its day's 24 values from hour 0."""
    if len(row) != HOURS_PER_DAY + 1:
        raise ValueError(f"expected {HOURS_PER_DAY + 1} cells")
    return date.fromisoformat(row[0].strip()).isoformat(), 0, [float(cell) for cell in row[1:]]


def _long_row(row: list[str]) -> tuple[str, int, list[float]]:
    """A ``timestamp,value`` row stamped on the hour: that hour's value."""
    stamp_text, value = row
    stamp = datetime.fromisoformat(stamp_text.strip())
    if stamp.minute or stamp.second or stamp.microsecond:
        raise ValueError("timestamp is not on the hour")
    return stamp.date().isoformat(), stamp.hour, [float(value)]


_LAYOUTS = {  # header -> its row reader
    ("date", *(f"h{i:02d}" for i in range(1, HOURS_PER_DAY + 1))): _wide_row,
    ("timestamp", "value"): _long_row,
}


# ---------------------------------------------------------------------------
# synthetic defaults
# ---------------------------------------------------------------------------

_SYNTHETIC_EPOCH = date(2000, 1, 1)


def synthetic_weather(days: int = 1) -> list[HourlySeries]:
    """Hot summer day repeated: 22 degC trough at 05:00 rising on a smooth
    half-cosine to a 35 degC peak at 15:00, then easing back overnight."""
    trough_h, trough_t = 5.0, 22.0
    peak_h, peak_t = 15.0, 35.0
    span = peak_t - trough_t
    values = np.empty(HOURS_PER_DAY)
    for h in range(HOURS_PER_DAY):
        if trough_h <= h <= peak_h:
            values[h] = trough_t + span * 0.5 * (1.0 - np.cos(np.pi * (h - trough_h) / (peak_h - trough_h)))
        else:
            hh = h + HOURS_PER_DAY if h < trough_h else h
            values[h] = peak_t - span * 0.5 * (1.0 - np.cos(np.pi * (hh - peak_h) / (HOURS_PER_DAY + trough_h - peak_h)))
    return [
        HourlySeries(date=(_SYNTHETIC_EPOCH + timedelta(days=d)).isoformat(), values=values.copy(), unit="degC")
        for d in range(days)
    ]


def synthetic_wholesale(days: int = 1) -> list[HourlySeries]:
    """Two-peak wholesale day in $/kWh: morning and evening ramps on a flat
    overnight base, spanning roughly $0.05-0.12 per kWh."""
    hours = np.arange(HOURS_PER_DAY, dtype=float)
    values = (
        0.05
        + 0.04 * np.exp(-((hours - 8.5) ** 2) / 6.0)
        + 0.07 * np.exp(-((hours - 18.5) ** 2) / 8.0)
    )
    return [
        HourlySeries(date=(_SYNTHETIC_EPOCH + timedelta(days=d)).isoformat(), values=values.copy(), unit="usd_per_kwh")
        for d in range(days)
    ]


def mean_day(series: list[HourlySeries]) -> np.ndarray:
    """Average the days of a series into one representative 24-hour vector."""
    if not series:
        raise DataError("cannot average an empty series")
    return np.mean([s.values for s in series], axis=0)
