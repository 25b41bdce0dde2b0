"""Table builders and renderers: replication, effect/share grids, gap audit.

Builders return a :class:`ResultTable` of full-precision floats, rounded for
display by the renderers only, and of text: the coefficient column (``.2f``,
``.3f/pp``), the grid's ``delta_lambda`` column (``.6f``) and the footnotes.
"""

from __future__ import annotations

import math
from itertools import chain, islice, product, repeat
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .decomposition import GapDenominator, additive_log_thetas, backout_gap, geometric_thetas_of_gap
from .effects import (
    EffectRow,
    Shocks,
    effect_cells,
    effect_row,
    finite_horizon_effect,
    shock_columns,
    steady_state_effect_loglinear,
)
from .elasticities import ElasticityRegistry, _check_years, seed_registry
from .errors import _FLOAT_MAX, _PARSED_FILES, ConfigurationError, DataValidationError, _Value
from .scenarios import (
    ScenarioConfig,
    TradeShockScenario,
    _check_baseline,
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


#: A block of a table's rows, one entry per column: a ``str`` is one cell
#: shared by every row of the block, and any other entry holds the block's
#: cells in that column, one per row.
Block = tuple[object, ...]


def _length(block: Block) -> int:
    """A block's row count: none if it holds shared cells only."""
    return len(next((col for col in block if not isinstance(col, str)), ()))


def _texts(texts: Sequence[str], what: str) -> tuple[str, ...]:
    """``texts`` as a tuple, if it is a collection of ``str`` and not one ``str``."""
    if not isinstance(texts, str):
        texts = tuple(texts)
        if all(isinstance(text, str) for text in texts):
            return texts
    raise ConfigurationError(f"{what} must be a collection of str, got {texts!r}")


class ResultTable(_Value):
    """A table held as column blocks, its rows running block by block.
    ``rows``, given in place of ``blocks``, makes one block of those rows.
    Each block has one entry per column, and its cell columns are of one length."""

    __slots__ = ("caption", "columns", "blocks", "footnotes")

    def __init__(
        self,
        caption: str,
        columns: tuple[str, ...],
        blocks: tuple[Block, ...] = (),
        footnotes: tuple[str, ...] = (),
        *,
        rows: Sequence[Sequence[object]] | None = None,
    ) -> None:
        columns = _texts(columns, f"table {caption!r}: columns")
        footnotes = _texts(footnotes, f"table {caption!r}: footnotes")
        if rows is not None:
            rows = list(rows)
            for i, row in enumerate(rows):
                if len(row) != len(columns):
                    raise ConfigurationError(
                        f"table {caption!r}: row {i} has {len(row)} cells for columns {columns!r}"
                    )
            blocks = (tuple(zip(*rows)),) if rows else ()
        for k, block in enumerate(blocks := tuple(blocks)):
            if len(block) != len(columns):
                raise ConfigurationError(
                    f"table {caption!r}: block {k} has {len(block)} entries for columns {columns!r}"
                )
            sized = [(name, len(c)) for name, c in zip(columns, block) if not isinstance(c, str)]
            for name, length in sized:
                if length != sized[0][1]:
                    raise ConfigurationError(
                        f"table {caption!r}: block {k}: column {name!r} has {length} cells, "
                        f"column {sized[0][0]!r} has {sized[0][1]}"
                    )
        self.__setstate__((caption, columns, blocks, footnotes))

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        """Every row as a tuple of cells."""
        return tuple(
            row for block in self.blocks
            for row in zip(*(repeat(c, _length(block)) if isinstance(c, str) else c for c in block))
        )


# --------------------------------------------------------------------------
# the evaluation core: rows, scenarios and cells
# --------------------------------------------------------------------------

def _horizon(years: int | None) -> str:
    """A row's horizon as printed: ``N-year``, or ``long-run`` if None."""
    return "long-run" if years is None else f"{years}-year"


class _Rows(NamedTuple):
    """A table's model rows as columns (label, study, horizon, printed coefficient and
    effect parameters), and the indices of its steady-state and finite-horizon rows."""

    labels: list[str]
    displays: list[str]
    horizons: list[str]
    coefficients: list[str]
    effects: list[EffectRow]
    steady: list[int]
    finite: list[int]


#: id of a registry -> (the registry, kept so no other object takes its id; its rows).
_ROWS: dict[int, tuple[ElasticityRegistry, _Rows]] = {}


def expand_rows(registry: ElasticityRegistry, years: int | None = None) -> _Rows:
    """One table row per (model, horizon), as columns the caller owns.

    A model whose default horizon is finite gets two rows — the compounded
    finite-horizon effect and the steady-state effect of its level form —
    with the horizon folded into the row label.  Steady-state models get
    one row labelled by the study alone.  ``years``, if given, replaces
    every finite horizon's years.  A registry's rows are derived once.
    """
    if years is not None:
        _check_years(years)
    entry = _ROWS.get(id(registry))
    if entry is None or entry[0] is not registry:
        rows, steady, finite = [], [], []
        for model, level in zip(registry.models, registry.levels):
            display = _DISPLAY_NAMES.get(model.name, model.name)
            own_years, epsilon = model.years, model.short_run_epsilon
            for n in (*(() if own_years is None else (own_years,)), None):
                text = _horizon(n)
                (steady if n is None else finite).append(len(rows))
                rows.append((
                    display if own_years is None else f"{display}, {text}", display, text,
                    f"{level:.2f}" if n is None else f"{epsilon:.3f}/pp",
                    effect_row(model.form, level, epsilon, n),
                ))
        entry = _ROWS[id(registry)] = (registry, _Rows(*map(list, zip(*rows)), steady, finite))
        if len(_ROWS) > _PARSED_FILES:
            _ROWS.pop(next(iter(_ROWS)), None)
    rows = _Rows(*map(list, entry[1]))
    for i in rows.finite if years is not None else ():
        rows.horizons[i] = _horizon(years)
        rows.labels[i] = f"{rows.displays[i]}, {rows.horizons[i]}"
        rows.effects[i] = (years, *rows.effects[i][1:])
    return rows


def _table_scenarios(
    config: ScenarioConfig, lambda_baseline: float | None = None
) -> tuple[TradeShockScenario, ...]:
    """C1-C3 at the config's or the given baseline, C1 at the calibrated table change."""
    lam0 = config.lambda_baseline if lambda_baseline is None else _check_baseline(lambda_baseline)
    c1 = custom_scenario("C1", TABLE_C1_DELTA_LAMBDA, lam0, "calibrated 1972 openness-share change")
    return (c1, *us_trade_scenarios(config.inputs, lam0))


#: The share kernel of a column of effects: (log points, relative levels, gap, scale) -> thetas.
_ShareKernel = Callable[[list[float], list[float], float, float], list[float]]

#: The most cells one pass of the kernels takes: enough to spread their
#: set-up over many short rows, few enough that a long row's columns (the
#: grid's thousands of scenarios) stay in the processor's cache.  The
#: renderers format at most this many rows in one %-call.
_PASS_CELLS = 2048


class _Floats(tuple):
    """A float column the core has screened, every cell finite: renderers take it as it is."""

    __slots__ = ()


def _cells(
    registry: ElasticityRegistry,
    ids: Sequence[str],
    shocks: Shocks,
    gap: GapDenominator,
    share_fns: tuple[_ShareKernel, ...],
    years: int | None = None,
    finite_gap: GapDenominator | None = None,
) -> tuple[_Rows, list[int], list[list[float]]]:
    """The model rows; each row's position ``p``, its cells being ``[p * n:(p + 1) * n]``
    of a column for the ``n`` scenarios ``ids`` with ``shocks``; and the percent columns,
    on plain floats: an effect % column and one share % column per share kernel.

    The cells of all steady-state rows go through the kernels in one pass,
    and those of all finite-horizon rows in another; a pass of more than
    ``_PASS_CELLS`` cells is split by rows.  If a pass fails, on a bad input
    or on a percent cell beyond float range, the cells run again one at a
    time in row-major order, so the error names the first bad cell and its
    row.  Given ``finite_gap`` (Tables 2 and A3),
    finite-horizon rows, which end at the original comparison window, are
    measured geometrically against that 1972 gap whatever the share kernel:
    the convention of the study being replicated.
    """
    share_gap = gap.checked_log_points()
    rows = expand_rows(registry, years)
    finite_fns = (geometric_thetas_of_gap,) * len(share_fns)

    def columns_of(effects: list[EffectRow], shocks: Shocks) -> list[list[float]]:
        """The percent columns of the cells of ``effects``; a non-finite cell raises."""
        at_1972 = finite_gap is not None and effects[0][0] is not None
        fns, total = (finite_fns, finite_gap.log_points) if at_1972 else (share_fns, share_gap)
        log_points, relative_levels = effect_cells(effects, shocks)
        columns = [[100.0 * rel for rel in relative_levels]] + [
            share(log_points, relative_levels, total, 100.0) for share in fns
        ]
        # a finite sum means finite cells; a sum of finite cells that overflowed finds none bad
        if not math.isfinite(sum(map(sum, columns))):
            for j in (j for col in columns for j, x in enumerate(col) if not math.isfinite(x)):
                raise DataValidationError(
                    f"percent cell of a {log_points[j]!r} log-point effect against a {total!r} "
                    "log-point gap is out of float range"
                )
        return columns

    n = len(ids)
    step = max(1, _PASS_CELLS // n)  # rows per pass
    passes: list[list[list[float]]] = []
    try:
        for group in (rows.steady, rows.finite):
            for k in range(0, len(group), step):
                passes.append(columns_of([rows.effects[i] for i in group[k:k + step]], shocks))
    except DataValidationError as error:
        for i, j in product(range(len(rows.effects)), range(n)):  # the first bad cell, row-major
            try:
                columns_of([rows.effects[i]], tuple([column[j]] for column in shocks))
            except DataValidationError as exc:
                error = DataValidationError(f"{rows.labels[i]}, scenario {ids[j]}: {exc}")
                break
        raise error
    order = rows.steady + rows.finite
    columns = [list(chain.from_iterable(column)) for column in zip(*passes)]
    return rows, sorted(range(len(order)), key=order.__getitem__), columns


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
    lam0 = config.lambda_baseline if lambda_baseline is None else _check_baseline(lambda_baseline)
    model = seed_registry().get("yanikkaya")
    rows = []
    for scenario in build_scenarios(config.inputs, lam0):
        ratio_pp = round(scenario.delta_lambda_pp, 1)
        label = f"{_horizon(_check_years(years))}, scenario {scenario.id}"  # years checked first
        effect = finite_horizon_effect(model.short_run_epsilon, ratio_pp, years, label)
        percent = 100.0 * effect.relative_level
        if not math.isfinite(percent):
            raise DataValidationError(
                f"{label}: percent cell of a {effect.log_points!r} log-point effect "
                "is out of float range"
            )
        rows.append((scenario.id, ratio_pp, percent))
    return ResultTable(
        caption=f"Replication: trade-ratio changes and {years}-year growth effects",
        columns=("scenario", "trade_ratio_change_pp", "growth_effect_pct"),
        rows=rows,
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
    shocks = shock_columns([s.delta_lambda for s in scenarios], scenarios[0].lambda_baseline)
    rows, positions, columns = _cells(registry, ids, shocks, gap, (share,), years, gap_1972)
    gather = itemgetter(*positions) if len(positions) > 1 else tuple  # a bare cell for one
    return ResultTable(
        caption=caption,
        columns=("model", "elasticity")
        + tuple(f"effect_{i}_pct" for i in ids if with_effects)
        + tuple(f"share_{i}_pct" for i in ids),
        blocks=((
            rows.labels, rows.coefficients,
            *(_Floats(gather(columns[c][j::len(ids)]))
              for c in ((0, 1) if with_effects else (1,)) for j in range(len(ids))),
        ),),
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
    scenarios = (*_table_scenarios(config), *config.custom_scenarios)
    ids = [s.id for s in scenarios]
    delta_lambdas = [s.delta_lambda for s in scenarios]
    shocks = [f"{dl:.6f}" for dl in delta_lambdas]
    rows, positions, columns = _cells(
        registry, ids, shock_columns(delta_lambdas, config.lambda_baseline), gap,
        (additive_log_thetas, geometric_thetas_of_gap), years,
    )
    n = len(ids)
    return ResultTable(
        caption="Sensitivity grid: embargo effect and gap share per model and scenario",
        columns=("model", "horizon", "scenario", "delta_lambda", "effect_pct",
                 "theta_additive_log_pct", "theta_geometric_pct"),
        blocks=tuple(
            (display, horizon, ids, shocks, *(_Floats(c[p * n:(p + 1) * n]) for c in columns))
            for display, horizon, p in zip(rows.displays, rows.horizons, positions)
        ),
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
    levels = {m.name: level for m, level in zip(registry.models, registry.levels)}
    scenarios = {s.id: s for s in _table_scenarios(config, lambda_baseline)}
    rows = []
    for (name, sid), share in PUBLISHED_LOG_LINEAR_SHARES.items():
        # log-linear steady-state effects regardless of each model's default horizon
        effect = steady_state_effect_loglinear(levels[name], scenarios[sid])
        rows.append(
            (_DISPLAY_NAMES[name], sid, effect.log_points, 100.0 * share,
             backout_gap(effect, share))
        )
    implied = [row[-1] for row in rows]
    return ResultTable(
        caption="Gap back-out audit: denominator implied by each published share cell",
        columns=("model", "scenario", "effect_log_points", "published_share_pct", "implied_gap"),
        rows=rows,
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
# renderers — the only place a float cell is rounded for display
# --------------------------------------------------------------------------

def _format_cell(cell: object, decimals: int) -> str:
    if isinstance(cell, float):
        if not math.isfinite(cell):  # no table ever prints nan or inf
            raise DataValidationError(
                f"table cell out of float range ({cell}): check input magnitudes"
            )
        return f"{cell:.{decimals}f}"
    return str(cell)


#: A %-conversion and the cells of one column of a block.  Floats with a finite
#: sum (so each is finite) stay raw under ``%.{decimals}f``; any other column is
#: strings under ``%s``, an all-str column as it is and others formatted per
#: cell.  A shared cell's conversion is its own text, escaped, and its cells that text.
_Part = tuple[str, Sequence[object]]


def _parts(
    table: ResultTable, decimals: int, finish: Callable[[_Part], tuple[Any, ...]]
) -> list[list[tuple[Any, ...]]]:
    """The parts of each block that has rows, in order, each through the renderer's
    ``finish``, which keeps the cells second; a column in many blocks goes through once."""
    if type(decimals) is not int or not 0 <= decimals <= 1074:  # any float is exact at 1074 places
        big = type(decimals) is int and abs(decimals) > _FLOAT_MAX  # shown as number() shows it
        shown = f"an int of {decimals.bit_length()} bits" if big else repr(decimals)
        raise ConfigurationError(f"decimals must be a whole number in [0, 1074], got {shown}")
    spec = f"%.{decimals}f"
    seen: dict[int, tuple[Any, ...]] = {}  # id of a column -> its part; the table keeps each alive
    blocks = []
    try:
        for block in table.blocks:
            if not _length(block):
                continue
            for col in block:
                if id(col) in seen:
                    continue
                if isinstance(col, str):
                    part: _Part = (col.replace("%", "%%"), col)
                # the core's screened floats; else a sum is finite only if every cell
                # is, and one that overflows sends the cells through _format_cell
                elif type(col) is _Floats or (
                    (kinds := set(map(type, col))) == {float} and math.isfinite(sum(col))
                ):
                    part = (spec, col)
                else:
                    cells = col if kinds == {str} else [_format_cell(c, decimals) for c in col]
                    part = ("%s", cells)
                seen[id(col)] = finish(part)
            blocks.append([seen[id(col)] for col in block])
    except DataValidationError as error:  # name the first bad cell in row-major order
        try:
            [_format_cell(c, decimals) for row in table.rows for c in row]
        except DataValidationError as exc:
            error = exc
        raise error
    return blocks


def _formatted(template: str, parts: list[tuple[Any, ...]]) -> Iterator[str]:
    """A block's rows through its ``template``, one %-call per ``_PASS_CELLS`` rows."""
    cols = [part[1] for part in parts if not isinstance(part[1], str)]
    rows = zip(*cols)
    for _ in range(0, len(cols[0]), _PASS_CELLS):
        cells = tuple(chain.from_iterable(islice(rows, _PASS_CELLS)))
        yield (template * (len(cells) // len(cols))) % cells


def _csv_field(text: str, lone: bool = False) -> str:
    """``text`` as a CSV field: quoted, quotes doubled, if it holds a comma, quote or line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or '""' * lone


def _csv_part(spec: str, cells: Sequence[object] | str, lone: bool) -> _Part:
    """A shared cell as a CSV field; each cell of a ``%s`` column, if ``lone`` or one is quoted."""
    if isinstance(cells, str):
        field = _csv_field(cells, lone)
        return field.replace("%", "%%"), field
    quote = spec == "%s" and (lone or _csv_field(text := "".join(cells)) != text)
    return spec, [_csv_field(c, lone) for c in cells] if quote else cells


def _csv_chunks(table: ResultTable, decimals: int) -> Iterator[str]:
    lone = len(table.columns) == 1  # then an empty field is written "", so no row is blank
    blocks = _parts(table, decimals, lambda part: _csv_part(*part, lone))
    yield f"# {table.caption}\n" + ",".join(_csv_field(c, lone) for c in table.columns) + "\n"
    for parts in blocks:
        yield from _formatted(",".join(s for s, _c in parts) + "\n", parts)
    yield "".join(f"# {note}\n" for note in table.footnotes)


def render_csv(table: ResultTable, decimals: int = 1) -> str:
    return "".join(_csv_chunks(table, decimals))


def _width(spec: str, cells: Sequence[object]) -> int:
    """The width of a block's column in Markdown: its longest cell's."""
    if isinstance(cells, str):
        return len(cells)
    if spec == "%s":
        return max(map(len, cells), default=0)
    lo, hi = min(cells), max(cells)  # fixed-point text grows with |x|, plus a sign
    if lo == 0 and any(math.copysign(1.0, x) < 0 for x in cells):
        lo = -0.0  # min() may pick a 0.0, one narrower than a -0.0
    return max(len(spec % lo), len(spec % hi))


def _markdown_chunks(table: ResultTable, decimals: int) -> Iterator[str]:
    blocks = _parts(table, decimals, lambda part: (*part, _width(*part)))
    widths = [len(name) for name in table.columns]
    for parts in blocks:  # the widest cell of any block
        widths = [max(w, part[2]) for w, part in zip(widths, parts)]
    header = "| " + " | ".join(map(str.ljust, table.columns, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    yield f"**{table.caption}**\n\n{header}\n{rule}\n"
    for parts in blocks:
        template = "| " + " | ".join(
            cells.ljust(w).replace("%", "%%") if isinstance(cells, str) else f"%-{w}{s[1:]}"
            for (s, cells, _w), w in zip(parts, widths)
        ) + " |\n"
        yield from _formatted(template, parts)
    yield "".join(f"\n- {note}" for note in table.footnotes) + "\n"


def render_markdown(table: ResultTable, decimals: int = 1) -> str:
    return "".join(_markdown_chunks(table, decimals))


def render_chunks(table: ResultTable, fmt: str, decimals: int = 1) -> Iterator[str]:
    """``render``'s text in chunks; every check runs before the first."""
    chunks = {"csv": _csv_chunks, "md": _markdown_chunks}.get(fmt)
    if chunks is None:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    return chunks(table, decimals)


def render(table: ResultTable, fmt: str, decimals: int = 1) -> str:
    render_chunks(table, fmt, decimals)  # raises on an unknown format, and makes no text
    return (render_csv if fmt == "csv" else render_markdown)(table, decimals)
