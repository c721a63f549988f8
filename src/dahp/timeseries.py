"""Hourly series ingestion and synthetic defaults.

Two CSV layouts are accepted and auto-detected from the header:

* wide: ``date,h01,...,h24`` with one row per day;
* long: ``timestamp,value`` with one row per hour, grouped into days that
  must cover hours 00-23 exactly once.

Wholesale price files are expected in $/MWh (the standard market quote) and
are converted to $/kWh on load; weather files are degrees Celsius and pass
through unchanged.  Files are read as UTF-8, and one that is not raises
``DataError``; malformed rows raise it listing the 1-based line numbers
involved.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from .demand import HOURS_PER_DAY
from .errors import DataError

SERIES_KINDS = ("weather", "price")
_WIDE_HEADER = ["date"] + [f"h{i:02d}" for i in range(1, HOURS_PER_DAY + 1)]
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
    """Load a CSV of hourly data as a list of day series.

    ``kind`` is "weather" or "price"; prices are converted from $/MWh to
    $/kWh here so everything downstream works in consumer units.
    """
    if kind not in SERIES_KINDS:
        raise ValueError(f"kind must be one of {SERIES_KINDS}, got {kind!r}")
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows or not rows[0]:
        raise DataError(f"{path}: file is empty or starts with a blank line")
    header = [cell.strip().lower() for cell in rows[0]]
    if header == _WIDE_HEADER:
        days = _parse_wide(rows, path)
    elif header == ["timestamp", "value"]:
        days = _parse_long(rows, path)
    else:
        raise DataError(
            f"{path}: unrecognized header {rows[0]!r}; expected 'date,h01..h24' or 'timestamp,value'"
        )
    scale = 1e-3 if kind == "price" else 1.0  # $/MWh -> $/kWh
    return [HourlySeries(date=d, values=scale * values, unit=_UNIT[kind]) for d, values in days]


def _parse_wide(rows: list[list[str]], path: Path) -> list[tuple[str, np.ndarray]]:
    days = []
    bad_lines = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != HOURS_PER_DAY + 1:
            bad_lines.append(line_no)
            continue
        try:
            day = date.fromisoformat(row[0].strip()).isoformat()
            values = np.array([float(cell) for cell in row[1:]])
        except ValueError:
            bad_lines.append(line_no)
            continue
        days.append((day, values))
    if bad_lines:
        raise DataError(f"{path}: malformed rows at lines {bad_lines}")
    if not days:
        raise DataError(f"{path}: no data rows")
    return days


def _parse_long(rows: list[list[str]], path: Path) -> list[tuple[str, np.ndarray]]:
    by_day: dict[str, dict[int, float]] = {}
    lines_by_day: dict[str, list[int]] = {}
    bad_lines = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            bad_lines.append(line_no)
            continue
        try:
            stamp = datetime.fromisoformat(row[0].strip())
            value = float(row[1])
        except ValueError:
            bad_lines.append(line_no)
            continue
        day = stamp.date().isoformat()
        hours = by_day.setdefault(day, {})
        if stamp.hour in hours:
            bad_lines.append(line_no)
            continue
        hours[stamp.hour] = value
        lines_by_day.setdefault(day, []).append(line_no)
    if bad_lines:
        raise DataError(f"{path}: malformed or duplicate rows at lines {bad_lines}")
    if not by_day:
        raise DataError(f"{path}: no data rows")
    days = []
    for day in sorted(by_day):
        hours = by_day[day]
        missing = sorted(set(range(HOURS_PER_DAY)) - set(hours))
        if missing:
            raise DataError(
                f"{path}: day {day} (lines {lines_by_day[day]}) is missing hours {missing}"
            )
        days.append((day, np.array([hours[h] for h in range(HOURS_PER_DAY)])))
    return days


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
