"""Output checks: the benchmark's own closed-form oracle for every table.

The program's outputs are parsed back from the rendered text (Markdown or
CSV) and compared with cells recomputed here from the paper's formulas:

* finite horizon:  ``years * log1p(epsilon * dl_pp / 100)``
* log-linear:      ``s * dl``
* log-log:         ``e * ln(lambda0 / lambda_cf)``
* additive-log:    ``theta = effect / gap``
* geometric:       ``theta = g_ne / (g_ns + g_ne + g_ns * g_ne)`` with the
  policy component as the residual ``g_ns = expm1(gap - effect)``.

A numeric cell passes when it equals the recomputed value at the rendered
precision (half a unit in the last printed decimal).  Nothing here imports
the program.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable

from gen import Model

#: The six packaged studies, as printed in the tables.
PACKAGED_MODELS = (
    Model("yanikkaya", "Yanikkaya (2003)", "log_linear_level", 0.41, 0.018, 12),
    Model("raghutla", "Raghutla (2020)", "log_log_level", 0.186),
    Model("sala_i_martin", "Sala-i-Martin et al. (2004)", "log_linear_level", 1.04),
    Model("frankel_romer", "Frankel and Romer (1999)", "log_linear_level", 1.97),
    Model("alcala_ciccone", "Alcala and Ciccone (2004)", "log_log_level", 1.23),
    Model("feyrer", "Feyrer (2019)", "log_log_level", 1.2624434389140273),
)

TABLE_C1_DELTA = 0.174  # calibrated C1 openness change of the effect/share tables
GAP_2024 = 1.085  # default denominator, log points
GAP_1972 = math.log1p(1.24095)  # finite-horizon rows are measured against this
REPLICATION_EPSILON = 0.018

#: Published log-linear share cells the gap audit backs the denominator out of.
PUBLISHED_SHARES = (
    ("yanikkaya", "C1", 0.066),
    ("yanikkaya", "C2", 0.136),
    ("yanikkaya", "C3", 0.165),
    ("sala_i_martin", "C1", 0.166),
    ("sala_i_martin", "C2", 0.344),
    ("sala_i_martin", "C3", 0.417),
    ("frankel_romer", "C1", 0.315),
    ("frankel_romer", "C2", 0.653),
    ("frankel_romer", "C3", 0.792),
)

#: Replication cells printed in the paper (percent, 12-year effects).
PUBLISHED_REPLICATION = (("C1", "3.8"), ("C2", "8.1"), ("C3", "9.9"))


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One table row of a model: finite (``years`` set) or steady state."""

    model: Model
    years: int | None

    @property
    def horizon(self) -> str:
        return f"{self.years}-year" if self.years else "long-run"

    @property
    def label(self) -> str:
        if self.model.years is None:
            return self.model.display
        return f"{self.model.display}, {self.horizon}"

    @property
    def coefficient_label(self) -> str:
        if self.years:
            return f"{self.model.epsilon:.3f}/pp"
        return f"{self.model.level_coefficient:.2f}"

    def effect(self, dl: float, lam0: float) -> tuple[float, float]:
        """(log points, relative level) of an openness change ``dl``."""
        if self.years:
            return finite_effect(self.model.epsilon, dl * 100.0, self.years)
        if self.model.form == "log_log_level":
            lp = self.model.level_coefficient * math.log(lam0 / (lam0 - dl))
        else:
            lp = self.model.level_coefficient * dl
        return lp, math.expm1(lp)


def finite_effect(epsilon: float, dl_pp: float, years: int) -> tuple[float, float]:
    annual = epsilon * dl_pp / 100.0
    if years == 1:
        return math.log1p(annual), annual
    lp = years * math.log1p(annual)
    return lp, math.expm1(lp)


def additive_theta(lp: float, gap: float) -> float:
    return lp / gap


def geometric_theta(lp: float, rel: float, gap: float) -> float:
    g_ns = math.expm1(gap - lp)
    return rel / (g_ns + rel + g_ns * rel)


def expand(models: tuple[Model, ...] | list[Model], years: int | None) -> list[Row]:
    rows = []
    for m in models:
        if m.years is None:
            rows.append(Row(m, None))
        else:
            rows += [Row(m, years or m.years), Row(m, None)]
    return rows


def dollar_scenarios(inputs: dict[str, float], c1: float | None) -> list[tuple[str, float]]:
    g = inputs["gdp_1958"]
    us = inputs["trade_with_us_1958"]
    return [
        ("C1", c1 if c1 is not None else inputs["trade_gap_vs_synthetic_1972"] / g),
        ("C2", us / g),
        ("C3", (us + inputs["synthetic_export_excess_1972"]) / g),
    ]


# --------------------------------------------------------------------------
# expected tables
# --------------------------------------------------------------------------

@dataclass
class Expected:
    """Header, row count and a function giving the expected cells of row r.

    Expected cells are strings (compared exactly) or floats (compared at
    ``decimals`` places).
    """

    columns: list[str]
    n_rows: int
    row: Callable[[int], list[object]]
    decimals: int = 1


def expect_effect_table(
    models, inputs, lam0: float, gap: float, years: int | None, geometric: bool
) -> Expected:
    """Table 2 (``geometric=False``) or Table A3 (``geometric=True``)."""
    scen = dollar_scenarios(inputs, TABLE_C1_DELTA)
    rows = expand(models, years)

    def row(r: int) -> list[object]:
        rr = rows[r]
        effects = [rr.effect(dl, lam0) for _, dl in scen]
        cells: list[object] = [rr.label, rr.coefficient_label]
        if not geometric:
            cells += [100.0 * rel for _, rel in effects]
        for lp, rel in effects:
            if rr.years:
                theta = geometric_theta(lp, rel, GAP_1972)
            elif geometric:
                theta = geometric_theta(lp, rel, gap)
            else:
                theta = additive_theta(lp, gap)
            cells.append(100.0 * theta)
        return cells

    ids = [sid for sid, _ in scen]
    columns = ["model", "elasticity"]
    if not geometric:
        columns += [f"effect_{s}_pct" for s in ids]
    columns += [f"share_{s}_pct" for s in ids]
    return Expected(columns, len(rows), row)


def expect_replication(inputs, years: int) -> Expected:
    scen = dollar_scenarios(inputs, None)

    def row(r: int) -> list[object]:
        sid, dl = scen[r]
        ratio = round(dl * 100.0, 1)
        _, rel = finite_effect(REPLICATION_EPSILON, ratio, years)
        return [sid, ratio, 100.0 * rel]

    return Expected(["scenario", "trade_ratio_change_pp", "growth_effect_pct"], 3, row)


def expect_gap_audit(inputs) -> Expected:
    deltas = dict(dollar_scenarios(inputs, TABLE_C1_DELTA))
    by_name = {m.name: m for m in PACKAGED_MODELS}

    def row(r: int) -> list[object]:
        name, sid, share = PUBLISHED_SHARES[r]
        m = by_name[name]
        lp = m.level_coefficient * deltas[sid]
        return [m.display, sid, lp, 100.0 * share, lp / share]

    columns = ["model", "scenario", "effect_log_points", "published_share_pct", "implied_gap"]
    return Expected(columns, len(PUBLISHED_SHARES), row, decimals=6)


def expect_grid(models, inputs, lam0: float, custom, gap: float, years: int | None) -> Expected:
    scen = dollar_scenarios(inputs, TABLE_C1_DELTA) + list(custom)
    rows = expand(models, years)
    n_scen = len(scen)

    def row(r: int) -> list[object]:
        rr = rows[r // n_scen]
        sid, dl = scen[r % n_scen]
        lp, rel = rr.effect(dl, lam0)
        return [
            rr.model.display,
            rr.horizon,
            sid,
            f"{dl:.6f}",
            100.0 * rel,
            100.0 * additive_theta(lp, gap),
            100.0 * geometric_theta(lp, rel, gap),
        ]

    columns = [
        "model", "horizon", "scenario", "delta_lambda", "effect_pct",
        "theta_additive_log_pct", "theta_geometric_pct",
    ]
    return Expected(columns, len(rows) * n_scen, row)


# --------------------------------------------------------------------------
# comparing rendered text with the expectation
# --------------------------------------------------------------------------

def _split_md(line: str) -> list[str]:
    return [c.strip() for c in line.strip()[1:-1].split("|")]


def table_lines(text: str, fmt: str) -> tuple[list[str], list[str]]:
    """(header cells, raw data-row lines) of a rendered table."""
    lines = text.split("\n")
    if fmt == "md":
        body = [ln for ln in lines if ln.startswith("|")]
        return (_split_md(body[0]) if body else []), body[2:]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    return (next(csv.reader(body[:1]), [])), body[1:]


def cell_matches(text: str, expected: object, decimals: int) -> bool:
    if isinstance(expected, str):
        return text == expected
    try:
        value = float(text)
    except ValueError:
        return False
    half_unit = 0.5 * 10.0 ** -decimals
    return abs(value - expected) <= half_unit * (1 + 1e-9) + 1e-12 * abs(expected)


def check_table(
    text: str, fmt: str, exp: Expected, rng: random.Random, sample: int
) -> list[str]:
    """Errors found comparing ``text`` with ``exp`` on ``sample`` random rows."""
    header, rows = table_lines(text, fmt)
    if header != exp.columns:
        return [f"header {header} != {exp.columns}"]
    if len(rows) != exp.n_rows:
        return [f"{len(rows)} rows, expected {exp.n_rows}"]
    picks = range(exp.n_rows) if exp.n_rows <= sample else rng.sample(range(exp.n_rows), sample)
    errors = []
    for r in picks:
        got = _split_md(rows[r]) if fmt == "md" else next(csv.reader([rows[r]]))
        want = exp.row(r)
        if len(got) != len(want) or not all(
            cell_matches(g, w, exp.decimals) for g, w in zip(got, want)
        ):
            errors.append(f"row {r}: {got} != {want}")
    return errors


def row_count(text: str, fmt: str) -> int:
    return len(table_lines(text, fmt)[1])


def check_published_replication(text: str, fmt: str) -> list[str]:
    """The paper's printed 12-year effects: 3.8, 8.1 and 9.9 percent."""
    _, rows = table_lines(text, fmt)
    got = [
        tuple(_split_md(r) if fmt == "md" else next(csv.reader([r]))) for r in rows
    ]
    want = [(sid, cell) for sid, cell in PUBLISHED_REPLICATION]
    if [(g[0], g[-1]) for g in got] != want:
        return [f"replication cells {got} do not match published {want}"]
    return []
