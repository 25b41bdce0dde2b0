"""Annual GDP-per-capita series: CSV loading, growth-rate splicing, log gaps.

File format is UTF-8 CSV with header ``year,value,source_tag`` (source_tag
optional).  No interpolation anywhere: operations fail loudly on missing
years rather than silently inventing data.
"""

from __future__ import annotations

import csv
import io
import math
import os
from pathlib import Path

from .decomposition import GapDenominator
from .errors import DataValidationError, _parsed, _Value, number


class Observation(_Value):
    __slots__ = ("year", "value", "source_tag")
    _defaults = ("",)


class GdpSeries(_Value):
    """Ordered annual observations: each year an ``int`` within float range,
    the years strictly increasing, and each value a positive finite number."""

    __slots__ = ("observations", "label")
    _defaults = ("",)
    _collections = ("observations",)

    def __post_init__(self) -> None:
        if not self.observations:
            raise DataValidationError(f"empty series {self.label!r}")
        prev = None
        for obs in self.observations:
            if type(obs.year) is not int:
                raise DataValidationError(f"series {self.label!r}: year {obs.year!r} is not an int")
            number(obs.year, "series {!r} year", DataValidationError, self.label)
            if prev is not None and obs.year <= prev:
                raise DataValidationError(
                    f"series {self.label!r}: years not strictly increasing at {obs.year}"
                )
            if not number(obs.value, "series {!r} value in {}", DataValidationError,
                          self.label, obs.year) > 0:
                raise DataValidationError(
                    f"series {self.label!r}: non-positive value {obs.value} in {obs.year}"
                )
            prev = obs.year

    def has_year(self, year: int) -> bool:
        return any(o.year == year for o in self.observations)

    def value(self, year: int) -> float:
        for o in self.observations:
            if o.year == year:
                return o.value
        raise DataValidationError(f"series {self.label!r}: no observation for {year}")


def load_series(path: str | Path) -> GdpSeries:
    """Parse a CSV series file, labelled by its stem; a malformed row is named
    by its line.  Unchanged bytes at one path are parsed once per process."""
    name = os.fspath(path)
    try:
        with open(name, "rb") as file:
            data = file.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise DataValidationError(
            f"series file not found or not readable: {name or repr(name)} ({exc.strerror})"
        ) from None
    return _parsed(_series_from_csv, name, data)


def _series_from_csv(path: str, data: bytes) -> GdpSeries:
    try:
        records = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataValidationError(f"{path}: unreadable CSV ({exc})") from None
    if not records:
        raise DataValidationError(f"{path}: empty series (no header)")
    header = records[0]
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["year", "value"]:
        raise DataValidationError(
            f"{path}:1: header must be 'year,value[,source_tag]', got {','.join(header)!r}"
        )
    rows: list[Observation] = []
    for lineno, row in enumerate(records[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise DataValidationError(f"{path}:{lineno}: expected year,value[,source_tag]")
        try:
            year = int(row[0])
            value = float(row[1])
        except ValueError:
            raise DataValidationError(
                f"{path}:{lineno}: malformed row {','.join(row)!r}"
            ) from None
        tag = row[2].strip() if len(row) > 2 else ""
        rows.append(Observation(year, value, tag))
    if not rows:
        raise DataValidationError(f"{path}: empty series")
    # re-raise invariant violations with the file in the message
    try:
        return GdpSeries(rows, Path(path).stem)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def _check_year(year: object, what: str) -> None:
    """The rule of a calendar year: an ``int``, not a bool, within float range."""
    if type(year) is not int:
        raise DataValidationError(f"{what} must be an int, got {year!r}")
    number(year, what, DataValidationError)


def splice(base: GdpSeries, extension: GdpSeries, splice_year: int) -> GdpSeries:
    """Extend `base` beyond `splice_year` using `extension`'s growth rates.

    Output equals ``base`` through ``splice_year``; every later value is
    ``value[t-1] * extension[t]/extension[t-1]``, with consecutive-year
    links required (a gap in the extension raises rather than bridging).
    Spliced rows are tagged ``spliced:<extension label>``.
    """
    _check_year(splice_year, "splice_year")
    for s, name in ((base, "base"), (extension, "extension")):
        if not s.has_year(splice_year):
            raise DataValidationError(
                f"splice year {splice_year} not present in {name} series {s.label!r}"
            )
    out = [o for o in base.observations if o.year <= splice_year]
    values = {o.year: o.value for o in extension.observations}
    prev_year, prev_value = splice_year, out[-1].value
    for year in [y for y in values if y > splice_year]:
        if year != prev_year + 1:
            raise DataValidationError(
                f"missing growth link: extension {extension.label!r} jumps "
                f"{prev_year} -> {year}"
            )
        prev_value = prev_value * (values[year] / values[prev_year])
        out.append(Observation(year, prev_value, f"spliced:{extension.label}"))
        prev_year = year
    return GdpSeries(out, label=base.label)


def log_gap(synthetic: GdpSeries, historical: GdpSeries, year: int) -> GapDenominator:
    """ln(synthetic[year] / historical[year]) as an explicit denominator."""
    _check_year(year, "year")
    syn, hist = synthetic.value(year), historical.value(year)
    ratio = syn / hist  # zero or inf beyond float range, though its log is a float
    gap = math.log(ratio) if 0 < ratio < math.inf else math.log(syn) - math.log(hist)
    return GapDenominator.explicit(gap)
