"""Table builders and renderers: replication, effect/share grids, gap audit.

Builders return a :class:`ResultTable` holding full-precision floats;
display rounding happens in the renderers only and never feeds back into
any computation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Iterator, Sequence

from .decomposition import GapDenominator, additive_log_thetas, backout_gap, geometric_thetas_of_gap
from .effects import effect_columns, evaluate, finite_horizon_effect, shock_columns
from .elasticities import (
    ElasticityModel,
    ElasticityRegistry,
    Horizon,
    HorizonKind,
    seed_registry,
)
from .errors import ConfigurationError, DataValidationError
from .scenarios import (
    ScenarioConfig,
    TradeShockScenario,
    build_scenarios,
    custom_scenario,
    default_scenario_config,
    us_trade_scenarios,
)

#: Openness change used for scenario C1 in the effect/share tables.  The
#: published grid is only consistent with a C1 change of ~0.174 unit shares
#: (0.554 baseline minus a 0.380 counterfactual 1972 share) rather than the
#: 0.1707 dollar ratio used by the replication table; back-solving every C1
#: column cell bounds the value to [0.1727, 0.1761].  The replication table
#: keeps the dollar-based ratio.
TABLE_C1_DELTA_LAMBDA = 0.174

#: Published share cells for the nine log-linear (model x scenario) grid
#: cells, as fractions.  These are calibration data for the gap back-out
#: audit: each cell implies gap = effect_log_points / share.
PUBLISHED_LOG_LINEAR_SHARES: dict[tuple[str, str], float] = {
    ("yanikkaya", "C1"): 0.066,
    ("yanikkaya", "C2"): 0.136,
    ("yanikkaya", "C3"): 0.165,
    ("sala_i_martin", "C1"): 0.166,
    ("sala_i_martin", "C2"): 0.344,
    ("sala_i_martin", "C3"): 0.417,
    ("frankel_romer", "C1"): 0.315,
    ("frankel_romer", "C2"): 0.653,
    ("frankel_romer", "C3"): 0.792,
}

_DISPLAY_NAMES = {
    "yanikkaya": "Yanikkaya (2003)",
    "raghutla": "Raghutla (2020)",
    "sala_i_martin": "Sala-i-Martin et al. (2004)",
    "frankel_romer": "Frankel and Romer (1999)",
    "alcala_ciccone": "Alcala and Ciccone (2004)",
    "feyrer": "Feyrer (2019)",
}


@dataclass(frozen=True)
class ResultTable:
    caption: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    footnotes: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# the evaluation core: rows, scenarios and cells
# --------------------------------------------------------------------------

#: A table row: (model at the row's horizon, display name, row label).
_Row = tuple[ElasticityModel, str, str]


def expand_rows(registry: ElasticityRegistry, years: int | None = None) -> list[_Row]:
    """One table row per (model, horizon), as (model, display, row label).

    A model whose default horizon is finite gets two rows — the compounded
    finite-horizon effect and the steady-state effect of its level form —
    with the horizon folded into the row label.  Steady-state models get
    one row labelled by the study alone.
    """
    rows: list[_Row] = []
    for model in registry:
        display = _DISPLAY_NAMES.get(model.name, model.name)
        if model.horizon.kind is HorizonKind.FINITE:
            horizon = Horizon.finite(model.horizon.years if years is None else years)
            rows.append(
                (
                    replace(model, horizon=horizon),
                    display,
                    f"{display}, {horizon.describe()}",
                )
            )
            rows.append(
                (
                    replace(model, horizon=Horizon.steady_state()),
                    display,
                    f"{display}, long-run",
                )
            )
        else:
            rows.append((model, display, display))
    return rows


def _coefficient_label(model: ElasticityModel) -> str:
    if model.horizon.kind is HorizonKind.FINITE:
        return f"{model.short_run_epsilon:.3f}/pp"
    return f"{model.form.level_coefficient():.2f}"


def _table_scenarios(
    config: ScenarioConfig, lambda_baseline: float | None = None
) -> tuple[TradeShockScenario, ...]:
    """C1-C3 at the config's or the given baseline, C1 at the calibrated table change."""
    lam0 = config.lambda_baseline if lambda_baseline is None else lambda_baseline
    c1 = custom_scenario("C1", TABLE_C1_DELTA_LAMBDA, lam0, "calibrated 1972 openness-share change")
    return (c1, *us_trade_scenarios(config.inputs, lam0))


#: The share kernel of a column of effects: (log points, relative levels, gap) -> thetas.
_ShareKernel = Callable[[list[float], list[float], float], list[float]]


def _cells(
    registry: ElasticityRegistry,
    scenarios: tuple[TradeShockScenario, ...],
    gap: GapDenominator,
    share_fns: tuple[_ShareKernel, ...],
    years: int | None = None,
    finite_gap: GapDenominator | None = None,
) -> Iterator[tuple[_Row, list[float], list[list[float]]]]:
    """Every model row with its relative levels and one share % column per
    share kernel, each a column over ``scenarios``, on plain floats.

    A row whose column pass fails runs again one scenario at a time, so the
    error names the row and its first bad cell.  Given ``finite_gap`` (Tables
    2 and A3), finite-horizon rows, which end at the original comparison
    window, are measured geometrically against that 1972 gap whatever the
    share kernel: the convention of the study being replicated.
    """
    share_gap = gap.checked_log_points()
    finite_fns = (geometric_thetas_of_gap,) * len(share_fns)
    shocks = shock_columns(scenarios)
    for row in expand_rows(registry, years):
        model = row[0]
        finite = finite_gap is not None and model.horizon.kind is HorizonKind.FINITE
        fns, total = (finite_fns, finite_gap.log_points) if finite else (share_fns, share_gap)
        try:
            log_points, relative_levels = effect_columns(model, shocks)
            shares = [
                [100.0 * theta for theta in share(log_points, relative_levels, total)]
                for share in fns
            ]
        except DataValidationError as error:
            for scenario in scenarios:  # name the first bad cell in scenario order
                try:
                    cell = effect_columns(model, shock_columns((scenario,)))
                    [share(*cell, total) for share in fns]
                except DataValidationError as exc:
                    error = DataValidationError(f"{row[2]}, scenario {scenario.id}: {exc}")
                    break
            raise error
        yield row, relative_levels, shares


# --------------------------------------------------------------------------
# table builders
# --------------------------------------------------------------------------

def build_replication_table(
    config: ScenarioConfig | None = None,
    lambda_baseline: float | None = None,
    years: int = 12,
) -> ResultTable:
    """Re-derive the original study's growth effects from dollar magnitudes.

    Trade-ratio changes are reported at one decimal (percentage points) and
    the growth effects compound those one-decimal ratios, reproducing the
    original computation, which worked from the printed ratios.
    """
    config = config or default_scenario_config()
    lam0 = config.lambda_baseline if lambda_baseline is None else lambda_baseline
    model = seed_registry().get("yanikkaya")
    rows = []
    for scenario in build_scenarios(config.inputs, lam0):
        ratio_pp = round(scenario.delta_lambda_pp, 1)
        effect = finite_horizon_effect(
            model.short_run_epsilon, ratio_pp, years, model.name, scenario.id
        )
        rows.append((scenario.id, ratio_pp, 100.0 * effect.relative_level))
    return ResultTable(
        caption=f"Replication: trade-ratio changes and {years}-year growth effects",
        columns=("scenario", "trade_ratio_change_pp", "growth_effect_pct"),
        rows=tuple(rows),
        footnotes=(
            f"growth effects compound {model.short_run_epsilon:g} growth points per "
            f"percentage point of openness for {years} year" + ("s" if years != 1 else ""),
            "ratios are percentage points of 1958 GDP; effects compound the "
            "one-decimal ratios as originally published",
            _inputs_footnote(config),
        ),
    )


def _share_table(
    caption: str,
    scheme: str,
    share: _ShareKernel,
    with_effects: bool,
    registry: ElasticityRegistry | None,
    config: ScenarioConfig | None,
    gap: GapDenominator | None,
    lambda_baseline: float | None,
    years: int | None,
) -> ResultTable:
    """Table 2 or A3: per model row, its label, its coefficient, the effects
    (if ``with_effects``) and then the ``scheme`` shares, one per scenario."""
    registry = seed_registry() if registry is None else registry
    config = config or default_scenario_config()
    gap = gap or GapDenominator.calibrated_2024()
    gap_1972 = GapDenominator.gap_1972()
    scenarios = _table_scenarios(config, lambda_baseline)
    ids = [s.id for s in scenarios]
    rows = []
    for (model, _display, label), relative_levels, (shares,) in _cells(
        registry, scenarios, gap, (share,), years, gap_1972
    ):
        effects = [100.0 * rel for rel in relative_levels] if with_effects else []
        rows.append((label, _coefficient_label(model), *effects, *shares))
    return ResultTable(
        caption=caption,
        columns=("model", "elasticity")
        + tuple(f"effect_{i}_pct" for i in ids if with_effects)
        + tuple(f"share_{i}_pct" for i in ids),
        rows=tuple(rows),
        footnotes=(
            f"shares: {scheme} decomposition against the "
            f"{gap.describe()} (synthetic = {1.0 + gap.relative_level:.2f}x historical)",
            "finite-horizon rows: geometric share of the 1972 gap "
            f"({gap_1972.relative_level:.4f} relative), the original study's convention",
            f"baseline openness {scenarios[0].lambda_baseline:g}; scenario openness changes "
            + ", ".join(f"{s.id} = {s.delta_lambda:.4f}" for s in scenarios)
            + "; C1 calibrated (see TABLE_C1_DELTA_LAMBDA)",
            _inputs_footnote(config),
        ),
    )


def build_table2(
    registry: ElasticityRegistry | None = None,
    config: ScenarioConfig | None = None,
    gap: GapDenominator | None = None,
    lambda_baseline: float | None = None,
    years: int | None = None,
) -> ResultTable:
    """Effects and additive-log shares for every model x scenario."""
    return _share_table(
        "Embargo effects and share of underperformance (additive-log shares)",
        "additive-log", additive_log_thetas, True,
        registry, config, gap, lambda_baseline, years,
    )


def build_table_a3(
    registry: ElasticityRegistry | None = None,
    config: ScenarioConfig | None = None,
    gap: GapDenominator | None = None,
    lambda_baseline: float | None = None,
    years: int | None = None,
) -> ResultTable:
    """Same grid with geometric shares throughout."""
    return _share_table(
        "Embargo share of underperformance (geometric shares)",
        "geometric", geometric_thetas_of_gap, False,
        registry, config, gap, lambda_baseline, years,
    )


def build_grid(
    registry: ElasticityRegistry | None = None,
    config: ScenarioConfig | None = None,
    gap: GapDenominator | None = None,
    years: int | None = None,
) -> ResultTable:
    """Cartesian sensitivity grid: every model row x every scenario.

    The additive-log and geometric shares appear side by side as columns;
    all rows are measured against the single ``gap``.  Row order is registry
    order, then scenario id.
    """
    registry = seed_registry() if registry is None else registry
    config = config or default_scenario_config()
    gap = gap or GapDenominator.calibrated_2024()
    scenarios = _table_scenarios(config) + config.custom_scenarios
    ids = [scenario.id for scenario in scenarios]
    shocks = [f"{scenario.delta_lambda:.6f}" for scenario in scenarios]
    shares = (additive_log_thetas, geometric_thetas_of_gap)
    rows = []
    for (model, display, _label), relative_levels, thetas in _cells(
        registry, scenarios, gap, shares, years
    ):
        effects = [100.0 * rel for rel in relative_levels]
        horizon = model.horizon.describe()
        rows.extend(zip(repeat(display), repeat(horizon), ids, shocks, effects, *thetas))
    return ResultTable(
        caption="Sensitivity grid: embargo effect and gap share per model and scenario",
        columns=("model", "horizon", "scenario", "delta_lambda", "effect_pct",
                 "theta_additive_log_pct", "theta_geometric_pct"),
        rows=tuple(rows),
        footnotes=(
            f"all shares measured against the {gap.describe()}",
            f"baseline openness {config.lambda_baseline:g}",
            _inputs_footnote(config),
        ),
    )


def build_gap_audit(
    config: ScenarioConfig | None = None, lambda_baseline: float | None = None
) -> ResultTable:
    """Back out the gap each published log-linear share cell implies.

    The calibrated 2024 denominator is not printed anywhere; this table is
    the evidence for it.  Every published share of a log-linear model
    implies gap = effect_log_points / share; the audit lists all nine,
    their median, and the adopted default.  The published cells belong to
    the seed registry's models, so the audit reads those.
    """
    registry = seed_registry()
    config = config or default_scenario_config()
    adopted = GapDenominator.calibrated_2024()
    names = dict.fromkeys(name for name, _ in PUBLISHED_LOG_LINEAR_SHARES)
    # log-linear steady-state effects regardless of each model's default horizon
    steady = Horizon.steady_state()
    models = [replace(registry.get(n), horizon=steady) for n in names]
    scenarios = _table_scenarios(config, lambda_baseline)
    rows = []
    for model in models:
        for scenario in scenarios:
            effect = evaluate(model, scenario)
            share = PUBLISHED_LOG_LINEAR_SHARES[model.name, scenario.id]
            rows.append(
                (_DISPLAY_NAMES[model.name], scenario.id, effect.log_points, 100.0 * share,
                 backout_gap(effect, share))
            )
    implied = [row[-1] for row in rows]
    return ResultTable(
        caption="Gap back-out audit: denominator implied by each published share cell",
        columns=("model", "scenario", "effect_log_points", "published_share_pct", "implied_gap"),
        rows=tuple(rows),
        footnotes=(
            f"implied gaps span [{min(implied):.6f}, {max(implied):.6f}] "
            f"log points; median {sorted(implied)[len(implied) // 2]:.6f}",
            f"adopted default: {adopted.log_points} log points "
            f"(synthetic = {1.0 + adopted.relative_level:.2f}x historical)",
        ),
    )


def _inputs_footnote(config: ScenarioConfig) -> str:
    i = config.inputs
    return (
        "inputs (1957 USD millions): trade gap vs synthetic "
        f"{i.trade_gap_vs_synthetic_1972:g}, US trade {i.trade_with_us_1958:g}, "
        f"synthetic export excess {i.synthetic_export_excess_1972:g}, "
        f"GDP {i.gdp_1958:g}"
    )


# --------------------------------------------------------------------------
# renderers — the only place display rounding happens
# --------------------------------------------------------------------------

def _format_cell(cell: object, decimals: int) -> str:
    if isinstance(cell, float):
        if not math.isfinite(cell):  # no table ever prints nan or inf
            raise DataValidationError(
                f"table cell out of float range ({cell}): check input magnitudes"
            )
        return f"{cell:.{decimals}f}"
    return str(cell)


def _columns(table: ResultTable, decimals: int) -> tuple[list[str], list[Sequence[object]]]:
    """A %-conversion and the cells of each column: a column of finite floats
    stays raw under ``%.{decimals}f``; any other is strings under ``%s``, an
    all-str column as it is and others formatted per cell."""
    specs = ["%s"] * len(table.columns)
    cols: list[Sequence[object]] = [()] * len(table.columns)
    try:
        for i, col in enumerate(zip(*table.rows)):
            kinds = set(map(type, col))
            if kinds == {float} and all(map(math.isfinite, col)):
                specs[i], cols[i] = f"%.{decimals}f", col
            else:
                cols[i] = col if kinds == {str} else [_format_cell(c, decimals) for c in col]
    except DataValidationError as error:  # name the first bad cell in row-major order
        try:
            [_format_cell(c, decimals) for row in table.rows for c in row]
        except DataValidationError as exc:
            error = exc
        raise error
    return specs, cols


def render_csv(table: ResultTable, decimals: int = 1) -> str:
    specs, cols = _columns(table, decimals)
    buf = io.StringIO()
    buf.write(f"# {table.caption}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    strs = [col for spec, col in zip(specs, cols) if spec == "%s"]
    text = "".join(map("".join, strs))
    if all(map(all, strs)) and not ("," in text or '"' in text or "\r" in text or "\n" in text):
        buf.writelines(map((",".join(specs) + "\n").__mod__, zip(*cols)))
    else:  # csv.writer quotes these cells, by rules that differ between Python versions
        cells = (col if spec == "%s" else map(spec.__mod__, col) for spec, col in zip(specs, cols))
        writer.writerows(zip(*cells))
    for note in table.footnotes:
        buf.write(f"# {note}\n")
    return buf.getvalue()


def _width(name: str, spec: str, col: Sequence[object]) -> int:
    """A Markdown column's width: its name's or its longest cell's."""
    if spec == "%s":
        return max(len(name), max(map(len, col), default=0))
    lo, hi = min(col), max(col)  # fixed-point text grows with |x|, plus a sign
    if lo == 0 and any(math.copysign(1.0, x) < 0 for x in col):
        lo = -0.0  # min() may pick a 0.0, one narrower than a -0.0
    return max(len(name), len(spec % lo), len(spec % hi))


def render_markdown(table: ResultTable, decimals: int = 1) -> str:
    specs, cols = _columns(table, decimals)
    widths = list(map(_width, table.columns, specs, cols))
    row = "| " + " | ".join(f"%-{w}{spec[1:]}" for w, spec in zip(widths, specs)) + " |"
    header = "| " + " | ".join(map(str.ljust, table.columns, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = [f"**{table.caption}**", "", header, rule, *map(row.__mod__, zip(*cols))]
    lines += ["", *(f"- {note}" for note in table.footnotes)]
    return "\n".join(lines) + "\n"


def render(table: ResultTable, fmt: str, decimals: int = 1) -> str:
    if fmt == "csv":
        return render_csv(table, decimals)
    if fmt == "md":
        return render_markdown(table, decimals)
    raise ConfigurationError(f"unknown output format {fmt!r}")
