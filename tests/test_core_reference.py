"""The float table core against a literal reference of its per-cell arithmetic.

The reference below restates, operation for operation, what one table cell
computes: the effect as a ``(log_points, relative_level)`` pair under the
row's form and horizon, then each scheme's share of the gap.  It is written
out here rather than imported, so that the tables are compared with an
independent transcription and not with themselves.  Effect and share
percentages must be equal with ``==``, and an invalid draw must raise the
same exception class as the reference, naming the same first bad scenario.
"""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ElasticityModel,
    ElasticityRegistry,
    FunctionalForm,
    GapDenominator,
    Horizon,
    ScenarioConfig,
    TradeShockScenario,
    build_grid,
    build_scenarios,
    build_table2,
    build_table_a3,
    default_scenario_config,
)

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


def ref_geometric(log_points, relative_level, gap):
    try:
        g_ns = math.expm1(gap - log_points)
    except OverflowError:  # an effect hundreds of log points below zero
        raise DataValidationError("policy residual out of float range") from None
    g_ne = relative_level
    if g_ne <= -1 or g_ns <= -1:
        raise DataValidationError("must exceed -1")
    denominator = g_ns + g_ne + g_ns * g_ne
    if denominator == 0:
        raise DataValidationError("degenerate")
    return g_ne / denominator


def ref_rows(form, horizon, epsilon, years):
    """The table rows of one model: a finite-horizon model gets a compounded
    row and a steady-state row, a steady-state model one row."""
    kind, *coefficients = form
    if kind == "growth":
        alpha1, alpha2 = coefficients
        steady = ("loglinear", -alpha2 / alpha1, None)
    else:
        steady = (kind, coefficients[0], None)
    if horizon is None:
        return [steady]
    return [("finite", epsilon, horizon if years is None else years), steady]


def ref_cells(rows, shocks, lambda_baseline, gap, schemes, finite_gap=None):
    """[(effect %, [share % per scheme])] in table order, or the first error.

    ``shocks`` maps each scenario id to its delta_lambda.  A cell error is
    raised again as ``scenario <id>: <message>`` for the first failing cell.
    """
    if not 0 < gap < MAX_GAP:
        raise ConfigurationError("gap out of range")
    cells = []
    for row in rows:
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
            except DataValidationError as exc:
                raise DataValidationError(f"scenario {sid}: {exc}") from exc
            cells.append((100.0 * relative_level, [100.0 * theta for theta in shares]))
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


def model_of(form, horizon, epsilon):
    kind, *coefficients = form
    if kind == "growth":
        functional_form = FunctionalForm.growth_with_convergence(*coefficients)
    elif kind == "loglinear":
        functional_form = FunctionalForm.log_linear(coefficients[0])
    else:
        functional_form = FunctionalForm.log_log(coefficients[0])
    if horizon is None:
        return ElasticityModel("drawn", functional_form, Horizon.steady_state())
    return ElasticityModel(
        "drawn", functional_form, Horizon.finite(horizon), short_run_epsilon=epsilon
    )


def check(build, expected, project):
    """``build()`` projected to [(effect %, [share %...])] equals ``expected()``,
    or both raise the same exception class, a cell error naming the same
    first failing scenario."""
    try:
        want = expected()
    except (ConfigurationError, DataValidationError) as exc:
        with pytest.raises(type(exc)) as info:
            build()
        assert type(info.value) is type(exc), (info.value, exc)
        if isinstance(exc, DataValidationError):
            scenario = str(exc).split(":")[0]
            assert f"{scenario}:" in str(info.value), (info.value, exc)
        return
    assert project(build()) == want


# ---------------------------------------------------------------- the tests

@settings(max_examples=300, deadline=None)
@given(
    form=forms,
    horizon=horizons,
    epsilon=st.one_of(st.floats(-10, 10), st.floats(-1e3, 1e3)),
    years=year_overrides,
    lambda_baseline=st.floats(0.45, 0.99),
    fraction=st.floats(0, 1, exclude_max=True),
    gap=gaps,
)
# a growth factor of exactly zero at C1 (annual rate -1.0)
@example(
    form=("loglinear", 1.0), horizon=12, epsilon=-5.74712643678161, years=1,
    lambda_baseline=0.554, fraction=0.0, gap=1.085,
)
def test_grid_matches_reference(form, horizon, epsilon, years, lambda_baseline, fraction, gap):
    assume(fraction * lambda_baseline < lambda_baseline)
    base = default_scenario_config()
    custom = TradeShockScenario("X", fraction * lambda_baseline, lambda_baseline)
    config = ScenarioConfig(base.inputs, lambda_baseline, (custom,))
    _, c2, c3 = build_scenarios(base.inputs, lambda_baseline)
    shocks = {
        "C1": C1_DELTA_LAMBDA, "C2": c2.delta_lambda, "C3": c3.delta_lambda,
        "X": custom.delta_lambda,
    }
    registry = ElasticityRegistry([model_of(form, horizon, epsilon)])
    check(
        lambda: build_grid(
            registry=registry, config=config, gap=GapDenominator.explicit(gap), years=years
        ),
        lambda: ref_cells(
            ref_rows(form, horizon, epsilon, years), shocks, lambda_baseline, gap,
            (ref_additive_log, ref_geometric),
        ),
        lambda table: [(row[4], list(row[5:])) for row in table.rows],
    )


@settings(max_examples=200, deadline=None)
@given(
    form=forms,
    horizon=horizons,
    epsilon=st.one_of(st.floats(-10, 10), st.floats(-1e3, 1e3)),
    years=year_overrides,
    lambda_baseline=st.floats(0.45, 0.99),
    gap=gaps,
    geometric=st.booleans(),
)
def test_tables_2_and_a3_match_reference(
    form, horizon, epsilon, years, lambda_baseline, gap, geometric
):
    """Finite-horizon rows are measured geometrically against the 1972 gap."""
    inputs = default_scenario_config().inputs
    _, c2, c3 = build_scenarios(inputs, lambda_baseline)
    shocks = {"C1": C1_DELTA_LAMBDA, "C2": c2.delta_lambda, "C3": c3.delta_lambda}
    registry = ElasticityRegistry([model_of(form, horizon, epsilon)])
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
        lambda: build(
            registry=registry, gap=GapDenominator.explicit(gap),
            lambda_baseline=lambda_baseline, years=years,
        ),
        lambda: pick(
            ref_cells(
                ref_rows(form, horizon, epsilon, years), shocks, lambda_baseline, gap,
                (scheme,), finite_gap=GAP_1972,
            )
        ),
        project,
    )
