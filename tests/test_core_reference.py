"""The float table core against a literal reference of its per-cell arithmetic.

The reference below restates, operation for operation, what one table cell
computes: the effect as a ``(log_points, relative_level)`` pair under the
row's form and horizon, then each scheme's share of the gap.  It is written
out here rather than imported, so that the tables are compared with an
independent transcription and not with themselves.  Effect and share
percentages must be equal with ``==``, and an invalid draw must raise the
same exception class as the reference, naming the same first bad row and
scenario.
"""

import copy
import math
import pickle
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ElasticityModel,
    ElasticityRegistry,
    FormKind,
    GapDenominator,
    GrowthEffect,
    ResultTable,
    ScenarioConfig,
    TradeShockScenario,
    build_grid,
    build_scenarios,
    build_table2,
    build_table_a3,
    default_scenario_config,
    geometric_share_of_gap,
    render,
)
from tradegap import report
from tradegap.effects import effect_row

MAX_GAP = math.log(sys.float_info.max)
GAP_1972 = math.log1p(1.24095)
C1_DELTA_LAMBDA = 0.174


# ------------------------------------------------------------- the reference

def ref_expm1(log_points):
    try:
        return math.expm1(log_points)
    except OverflowError:
        return math.inf


def ref_effect(row, delta_lambda, lambda_baseline):
    """(log_points, relative_level) of one cell; ``row`` is (kind, coefficient, years)."""
    kind, coefficient, years = row
    if kind == "finite":
        annual = coefficient * (delta_lambda * 100.0) / 100.0
        if annual <= -1.0:
            raise DataValidationError("degenerate compounding")
        if years == 1:
            log_points, relative_level = math.log1p(annual), annual
        else:
            log_points = years * math.log1p(annual)
            relative_level = ref_expm1(log_points)
    elif kind == "loglog":
        if lambda_baseline - delta_lambda <= 0:
            raise DataValidationError("non-positive counterfactual openness")
        log_points = coefficient * math.log(lambda_baseline / (lambda_baseline - delta_lambda))
        relative_level = ref_expm1(log_points)
    else:
        log_points = coefficient * delta_lambda
        relative_level = ref_expm1(log_points)
    if not math.isfinite(relative_level):
        raise DataValidationError("out of float range")
    if not math.isfinite(log_points):
        raise DataValidationError("out of float range")
    if not math.isclose(relative_level, math.expm1(log_points), rel_tol=1e-12, abs_tol=1e-15):
        raise DataValidationError("inconsistent encodings")
    return log_points, relative_level


def ref_additive_log(log_points, _relative_level, gap):
    if gap <= 0:
        raise DataValidationError("no underperformance")
    return log_points / gap


def ref_geometric(_log_points, relative_level, gap):
    """Policy is the residual, (1 + g_NE)(1 + g_NS) = exp(gap): the total
    relative gap is expm1(gap) whatever the effect."""
    if relative_level <= -1:
        raise DataValidationError("must exceed -1")
    return relative_level / math.expm1(gap)


def ref_rows(name, form, horizon, epsilon, years):
    """The labelled table rows of one model: a finite-horizon model gets a
    compounded row and a steady-state row, a steady-state model one row."""
    kind, *coefficients = form
    if kind == "growth":
        alpha1, alpha2 = coefficients
        steady = ("loglinear", -alpha2 / alpha1, None)
    else:
        steady = (kind, coefficients[0], None)
    if horizon is None:
        return [(name, steady)]
    years = horizon if years is None else years
    return [(f"{name}, {years}-year", ("finite", epsilon, years)), (f"{name}, long-run", steady)]


def ref_cells(rows, shocks, lambda_baseline, gap, schemes, finite_gap=None):
    """[(effect %, [share % per scheme])] in table order, or the first error.

    ``rows`` holds (label, row) pairs and ``shocks`` maps each scenario id to
    its delta_lambda.  A cell error is raised again as ``<label>, scenario
    <id>: <message>`` for the first failing cell in row-major order.
    """
    if not 0 < gap < MAX_GAP:
        raise ConfigurationError("gap out of range")
    cells = []
    for label, row in rows:
        finite = finite_gap is not None and row[0] == "finite"
        for sid, delta_lambda in shocks.items():
            try:
                log_points, relative_level = ref_effect(row, delta_lambda, lambda_baseline)
                if finite:
                    shares = [
                        ref_geometric(log_points, relative_level, finite_gap) for _ in schemes
                    ]
                else:
                    shares = [share(log_points, relative_level, gap) for share in schemes]
                percents = (100.0 * relative_level, [100.0 * theta for theta in shares])
                if not all(map(math.isfinite, [percents[0], *percents[1]])):
                    raise DataValidationError("percent cell out of float range")
            except DataValidationError as exc:
                raise DataValidationError(f"{label}, scenario {sid}: {exc}") from exc
            cells.append(percents)
    return cells


# ---------------------------------------------------------------- the draws

def coefficient():
    return st.one_of(st.floats(-5, 5), st.floats(-1e4, 1e4))


forms = st.one_of(
    st.tuples(st.just("growth"), st.floats(-1, -1e-4), st.floats(-1, 1)),
    st.tuples(st.just("loglinear"), coefficient()),
    st.tuples(st.just("loglog"), coefficient()),
)
gaps = st.one_of(
    st.floats(1e-3, 3), st.floats(1e-3, 3), st.floats(3, 720),
    st.sampled_from([0.0, -1.0, 709.0, MAX_GAP]),
)
horizons = st.none() | st.integers(1, 60)  # None: steady state
year_overrides = st.none() | st.integers(1, 60)
#: A second (years, lambda_baseline, gap) to build on the same registry object.
second_draws = st.tuples(year_overrides, st.floats(0.45, 0.99), gaps)


#: 1-8 models of mixed forms and horizons: (form, horizon, epsilon) each.
models = st.lists(
    st.tuples(forms, horizons, st.one_of(st.floats(-10, 10), st.floats(-1e3, 1e3))),
    min_size=1, max_size=8,
)


FORM_KINDS = {
    "growth": FormKind.GROWTH_WITH_CONVERGENCE,
    "loglinear": FormKind.LOG_LINEAR_LEVEL,
    "loglog": FormKind.LOG_LOG_LEVEL,
}


def model_of(name, form, horizon, epsilon):
    kind, *coefficients = form
    coefficient = tuple(coefficients) if kind == "growth" else coefficients[0]
    if horizon is None:
        return ElasticityModel(name, FORM_KINDS[kind], coefficient)
    return ElasticityModel(name, FORM_KINDS[kind], coefficient, horizon, short_run_epsilon=epsilon)


def registry_and_rows(drawn, years):
    """The registry of the drawn models, named m0, m1, ..., and its reference rows."""
    names = [f"m{i}" for i in range(len(drawn))]
    registry = ElasticityRegistry([model_of(name, *model) for name, model in zip(names, drawn)])
    rows = [row for name, model in zip(names, drawn) for row in ref_rows(name, *model, years)]
    return registry, rows


#: Cells per pass of the table core: the default, and sizes that split the
#: rows of every draw into several passes.
pass_sizes = st.sampled_from([report._PASS_CELLS, 7, 1])


def in_passes_of(pass_cells, build):
    """``build`` with the table core's passes capped at ``pass_cells`` cells."""
    def run():
        default, report._PASS_CELLS = report._PASS_CELLS, pass_cells
        try:
            return build()
        finally:
            report._PASS_CELLS = default
    return run


def check(build, expected, project):
    """``build()`` projected to [(effect %, [share %...])] equals ``expected()``,
    or both raise the same exception class, a cell error naming the same
    first failing row and scenario."""
    try:
        want = expected()
    except (ConfigurationError, DataValidationError) as exc:
        with pytest.raises(type(exc)) as info:
            build()
        assert type(info.value) is type(exc), (info.value, exc)
        if isinstance(exc, DataValidationError):
            cell = str(exc).split(":")[0]
            assert str(info.value).startswith(f"{cell}:"), (info.value, exc)
        return
    assert project(build()) == want


# ---------------------------------------------------------------- the tests

@settings(max_examples=300, deadline=None)
@given(
    drawn=models,
    years=year_overrides,
    lambda_baseline=st.floats(0.45, 0.99),
    fraction=st.floats(0, 1, exclude_max=True),
    gap=gaps,
    pass_cells=pass_sizes,
    again=second_draws,
)
# a growth factor of exactly zero at C1 (annual rate -1.0)
@example(
    drawn=[(("loglinear", 1.0), 12, -5.74712643678161)], years=1,
    lambda_baseline=0.554, fraction=0.0, gap=1.085, pass_cells=report._PASS_CELLS,
    again=(7, 0.6, 2.0),
)
def test_grid_matches_reference(drawn, years, lambda_baseline, fraction, gap, pass_cells, again):
    """Built twice on one registry object, the second time with a second draw."""
    assume(fraction * again[1] < again[1] and fraction * lambda_baseline < lambda_baseline)
    registry, _ = registry_and_rows(drawn, years)
    for years, lambda_baseline, gap in ((years, lambda_baseline, gap), again):
        check_grid(registry, drawn, years, lambda_baseline, fraction, gap, pass_cells)


def check_grid(registry, drawn, years, lambda_baseline, fraction, gap, pass_cells):
    base = default_scenario_config()
    custom = TradeShockScenario("X", fraction * lambda_baseline, lambda_baseline)
    config = ScenarioConfig(base.inputs, lambda_baseline, (custom,))
    _, c2, c3 = build_scenarios(base.inputs, lambda_baseline)
    shocks = {
        "C1": C1_DELTA_LAMBDA, "C2": c2.delta_lambda, "C3": c3.delta_lambda,
        "X": custom.delta_lambda,
    }
    _, rows = registry_and_rows(drawn, years)
    check(
        in_passes_of(pass_cells, lambda: build_grid(
            registry=registry, config=config, gap=GapDenominator.explicit(gap), years=years
        )),
        lambda: ref_cells(
            rows, shocks, lambda_baseline, gap, (ref_additive_log, ref_geometric),
        ),
        lambda table: [(row[4], list(row[5:])) for row in table.rows],
    )


@settings(max_examples=200, deadline=None)
@given(
    drawn=models,
    years=year_overrides,
    lambda_baseline=st.floats(0.45, 0.99),
    gap=gaps,
    geometric=st.booleans(),
    pass_cells=pass_sizes,
    again=second_draws,
)
# one year of a rate whose expm1(log1p(rate)) is one ulp above it, at C1
@example(
    drawn=[(("loglinear", 1.0), 12, 0.11)], years=1, lambda_baseline=0.554, gap=1.085,
    geometric=False, pass_cells=report._PASS_CELLS, again=(None, 0.554, 1.085),
)
def test_tables_2_and_a3_match_reference(
    drawn, years, lambda_baseline, gap, geometric, pass_cells, again
):
    """Finite-horizon rows are measured geometrically against the 1972 gap.
    The table is built twice on one registry object, with a second draw of
    years, baseline and gap, so that rows derived once serve both builds."""
    registry, _ = registry_and_rows(drawn, years)
    for years, lambda_baseline, gap in ((years, lambda_baseline, gap), again):
        check_tables(registry, drawn, years, lambda_baseline, gap, geometric, pass_cells)


def check_tables(registry, drawn, years, lambda_baseline, gap, geometric, pass_cells):
    inputs = default_scenario_config().inputs
    _, c2, c3 = build_scenarios(inputs, lambda_baseline)
    shocks = {"C1": C1_DELTA_LAMBDA, "C2": c2.delta_lambda, "C3": c3.delta_lambda}
    _, rows = registry_and_rows(drawn, years)
    if geometric:  # Table A3 prints the three shares only
        build, scheme = build_table_a3, ref_geometric

        def project(table):
            return [[share] for row in table.rows for share in row[2:]]

        def pick(cells):
            return [shares for _, shares in cells]
    else:  # Table 2 prints three effects, then three shares
        build, scheme = build_table2, ref_additive_log

        def project(table):
            return [
                (effect, [share])
                for row in table.rows
                for effect, share in zip(row[2:5], row[5:8])
            ]

        def pick(cells):
            return cells
    check(
        in_passes_of(pass_cells, lambda: build(
            registry=registry, gap=GapDenominator.explicit(gap),
            lambda_baseline=lambda_baseline, years=years,
        )),
        lambda: pick(ref_cells(rows, shocks, lambda_baseline, gap, (scheme,), GAP_1972)),
        project,
    )


@pytest.mark.parametrize("pass_cells", [report._PASS_CELLS, 1])
@pytest.mark.parametrize("build", [build_grid, build_table2, build_table_a3])
def test_first_bad_cell_in_row_major_order_is_named(build, pass_cells):
    """Rows 3 and 5 hold bad cells: row 3 from scenario C2 on (a finite-horizon
    growth factor below zero), row 5 from C1 on (a steady-state effect beyond
    float range).  Row 3's C2 cell is named, though row 5's C1 cell comes
    first in scenario order and the steady-state rows run as one group."""
    drawn = [
        (("loglinear", 1.0), None, 0.0),
        (("loglog", 0.5), None, 0.0),
        (("growth", -0.05, 0.02), None, 0.0),
        (("loglinear", 1.0), 12, -4.0),  # rows 3 and 4: -4 * 36.1 / 100 at C2
        (("loglinear", 1e4), None, 0.0),  # row 5: 1e4 * 0.174 at C1
    ]
    registry, rows = registry_and_rows(drawn, None)
    assert [label for label, _row in rows][3:] == ["m3, 12-year", "m3, long-run", "m4"]
    with pytest.raises(DataValidationError, match="^m3, 12-year, scenario C2: degenerate"):
        in_passes_of(pass_cells, lambda: build(registry=registry))()


# ------------------------------------------------ geometric shares, 60 digits

def exact_geometric(log_points, gap):
    """(e^c - 1) / (e^G - 1) to 60 digits, at the floats ``log_points`` and ``gap``."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(log_points).exp() - 1) / (Decimal(gap).exp() - 1)


@pytest.mark.parametrize("gap", [1.085, 2.0, 5.0, 8.0, 12.0, 20.0, 40.0])
def test_geometric_shares_match_a_60_digit_reference(gap):
    """The scalar share and the Table A3 and grid cells of effects of
    c = k * gap log points are within 1e-15 relative of the exact share."""
    ks = (0.1, 0.5, 0.9, 1.5, 3.0)
    total = GapDenominator.explicit(gap)
    cells = [
        (k * gap, 100.0 * geometric_share_of_gap(
            GrowthEffect(k * gap, math.expm1(k * gap), "X"), total).theta)
        for k in ks
    ]
    # Table A3's C1 effect of a log-linear model of coefficient s is s * 0.174
    coefficients = [k * gap / C1_DELTA_LAMBDA for k in ks]
    registry = ElasticityRegistry([
        model_of(f"m{i}", ("loglinear", s), None, 0.0) for i, s in enumerate(coefficients)
    ])
    table = build_table_a3(registry=registry, gap=total)
    cells += [(s * C1_DELTA_LAMBDA, row[2]) for s, row in zip(coefficients, table.rows)]
    # the grid's effect of coefficient 2c at a custom 0.5 openness change is c exactly
    registry = ElasticityRegistry([
        model_of(f"m{i}", ("loglinear", 2 * k * gap), None, 0.0) for i, k in enumerate(ks)
    ])
    base = default_scenario_config()
    lam0 = base.lambda_baseline
    config = ScenarioConfig(base.inputs, lam0, (TradeShockScenario("X", 0.5, lam0),))
    grid = build_grid(registry=registry, config=config, gap=total)
    cells += [(k * gap, row[6]) for k, row in zip(ks, (r for r in grid.rows if r[2] == "X"))]
    assert len(cells) == 3 * len(ks)
    for c, percent in cells:
        want = 100 * exact_geometric(c, gap)
        assert abs(Decimal(percent) - want) <= want * Decimal("1e-15"), (c, percent, want)


# ------------------------------------------------ rows derived once per registry

MIXED = [
    (("loglinear", 0.41), 12, 0.018),
    (("loglog", 1.23), None, 0.0),
    (("growth", -0.05, 0.02), 6, 0.01),
    (("loglinear", 1.97), None, 0.0),
]


def bytes_of(table):
    return render(table, "md") + render(table, "csv")


def test_rows_the_caller_gets_are_its_own():
    registry, _ = registry_and_rows(MIXED, None)
    want = [bytes_of(build(registry=registry, years=years))
            for build in (build_table2, build_table_a3) for years in (None, 7)]
    rows = report.expand_rows(registry, 7)
    assert rows.labels[:3] == ["m0, 7-year", "m0, long-run", "m1"]
    for column in rows:
        column.reverse()
        column.append(column[0])
    assert report.expand_rows(registry, None).labels[:2] == ["m0, 12-year", "m0, long-run"]
    assert [bytes_of(build(registry=registry, years=years))
            for build in (build_table2, build_table_a3) for years in (None, 7)] == want


def test_equal_registries_a_stale_entry_and_an_overfull_memo_give_the_same_bytes():
    """The memo is keyed by id and hits only on the same object: an equal
    registry derives its own rows, a memo entry under the id of a registry
    that holds another registry is passed over, and a memo filled past its
    bound evicts its oldest entry."""
    first, _ = registry_and_rows(MIXED, None)
    twin, _ = registry_and_rows(MIXED, None)
    assert twin == first and twin is not first
    want = bytes_of(build_table2(registry=first, years=3))
    assert bytes_of(build_table2(registry=twin, years=3)) == want

    other, _ = registry_and_rows(MIXED[1:], None)
    report.expand_rows(other)
    report._ROWS[id(first)] = report._ROWS[id(other)]  # replaced by the next build on first
    assert bytes_of(build_table2(registry=first, years=3)) == want
    assert report._ROWS[id(first)][0] is first

    others = [registry_and_rows(MIXED, None)[0] for _ in range(report._PARSED_FILES)]
    for registry in others:
        build_table_a3(registry=registry)
    assert len(report._ROWS) == report._PARSED_FILES and id(first) not in report._ROWS
    assert bytes_of(build_table2(registry=first, years=3)) == want


def test_rows_are_derived_once_per_registry(monkeypatch):
    registry, rows = registry_and_rows(MIXED, None)
    calls = []

    def counted(*args):
        calls.append(args)
        return effect_row(*args)

    monkeypatch.setattr(report, "effect_row", counted)
    builds = [
        build_table2(registry=registry),
        build_table_a3(registry=registry, years=5),
        build_table2(registry=registry, years=30, lambda_baseline=0.6),
        build_table_a3(registry=registry, gap=GapDenominator.explicit(2.0)),
        build_table2(registry=registry, years=1, gap=GapDenominator.explicit(0.5)),
    ]
    assert all(len(table.rows) == len(rows) for table in builds)
    assert len(calls) == len(rows)  # one derivation, by the first build


@pytest.mark.parametrize("build", [build_table2, build_table_a3, build_grid])
def test_core_table_renders_the_same_from_copies(build):
    """The core hands its float columns over screened; a copy of them into
    plain lists goes through the renderers' own checks, to the same bytes."""
    table = build(registry=registry_and_rows(MIXED, None)[0])
    floats = [col for block in table.blocks for col in block if type(col) is report._Floats]
    assert len(floats) == (6 if build is build_table2 else 3) * len(table.blocks)
    plain = ResultTable(
        table.caption, table.columns,
        tuple(tuple(c if isinstance(c, str) else list(c) for c in block) for block in table.blocks),
        table.footnotes,
    )
    copies = [copy.deepcopy(table)] + [
        pickle.loads(pickle.dumps(table, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    assert all(other == table for other in copies)
    assert all(bytes_of(other) == bytes_of(table) for other in [plain, *copies])
