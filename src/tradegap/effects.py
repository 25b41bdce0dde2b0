"""Income effects of a trade shock under a chosen elasticity and horizon.

Every effect is carried in two equivalent encodings at once — a log-point
change and a relative level change, tied together by
``relative_level = exp(log_points) - 1`` — because the decomposition
schemes downstream consume different encodings (additive-log wants
log-points, the geometric scheme wants relative levels).

Three evaluation paths:

* finite horizon: a growth-rate boost of ``epsilon * delta_lambda_pp``
  (epsilon in growth points per percentage point) compounded for ``years``,
  so ``relative_level = (1 + epsilon*dl_pp/100)**years - 1``;
* steady-state log-linear: ``log_points = s * delta_lambda`` (unit share);
* steady-state log-log: ``log_points = e * ln(lambda0 / lambda_cf)`` — the
  income gain from restoring openness from the post-shock share back to
  baseline.

Each path is a column kernel: it maps per-cell columns to the cells'
``(log_points, relative_levels)`` columns, checking every cell in bulk.
The table builders call :func:`effect_cells` once over all finite-horizon
rows and once over all steady-state rows; the public functions run the
same kernels on one row.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Callable, Sequence

from .elasticities import ElasticityModel, FormKind, _check_years
from .errors import DataValidationError, _Value
from .scenarios import TradeShockScenario

#: Columns of effects, one entry per scenario: (log points, relative levels).
Effects = tuple[list[float], list[float]]
#: Scenario columns: delta_lambda, delta_lambda_pp and ln(lambda0 / lambda_cf).
Shocks = tuple[list[float], list[float], list[float]]


def shock_columns(delta_lambdas: Sequence[float], lambda_baseline: float) -> Shocks:
    """The columns of scenarios with openness changes ``delta_lambdas`` from
    one ``lambda_baseline``, read once per table."""
    return (
        list(delta_lambdas), [dl * 100.0 for dl in delta_lambdas],
        [math.log(lambda_baseline / (lambda_baseline - dl)) for dl in delta_lambdas],
    )


def _out_of_range(log_points: float) -> DataValidationError:
    return DataValidationError(f"effect of {log_points!r} log points is out of float range")


def _checked(log_points: float, relative_level: float) -> Effects:
    """The effect as one-cell columns, if it keeps the invariants of every
    effect: finite, and the encodings within 1e-12."""
    if not (math.isfinite(log_points) and math.isfinite(relative_level)):
        raise _out_of_range(log_points)
    try:
        expected = math.expm1(log_points)
    except OverflowError:  # no finite relative level encodes it
        raise _out_of_range(log_points) from None
    if not math.isclose(relative_level, expected, rel_tol=1e-12, abs_tol=1e-15):
        raise DataValidationError(
            f"inconsistent effect encodings: log_points={log_points!r} "
            f"but relative_level={relative_level!r}"
        )
    return [log_points], [relative_level]


def _from_log_points(log_points: list[float]) -> Effects:
    try:
        relative_levels = list(map(math.expm1, log_points))
    except OverflowError:  # expm1 is increasing, so the largest effect overflowed
        raise _out_of_range(max(log_points)) from None
    if not all(map(math.isfinite, log_points)):  # expm1 keeps a nan or +inf, maps -inf to -1
        raise _out_of_range(next(lp for lp in log_points if not math.isfinite(lp)))
    return log_points, relative_levels


def _compounded(epsilons: list[float], years: list[int], delta_lambda_pp: list[float]) -> Effects:
    annuals = [epsilon * pp / 100.0 for epsilon, pp in zip(epsilons, delta_lambda_pp)]
    if not min(annuals) > -1.0:
        for annual in annuals:
            if annual <= -1.0:
                raise DataValidationError(
                    f"degenerate compounding: growth factor {1.0 + annual} is non-positive"
                )
    log_points, relative_levels = _from_log_points(
        [n * math.log1p(annual) for n, annual in zip(years, annuals)]
    )
    if 1 in years:  # one year: the annual rate itself, with no compounding noise
        relative_levels = [
            annual if n == 1 else rel for n, annual, rel in zip(years, annuals, relative_levels)
        ]
    return log_points, relative_levels


def _cell(scenario_id: str, kernel: Callable[..., Effects], *args: object) -> tuple[float, float]:
    """One cell through a column kernel, its errors naming the scenario."""
    try:
        (log_points,), (relative_level,) = kernel(*args)
    except DataValidationError as exc:
        raise DataValidationError(f"{scenario_id}: {exc}") from exc
    return log_points, relative_level


class GrowthEffect(_Value):
    """A shock's income effect in log points and as a relative level change."""

    __slots__ = ("log_points", "relative_level", "scenario_id")

    def __post_init__(self) -> None:
        _cell(self.scenario_id, _checked, self.log_points, self.relative_level)


def finite_horizon_effect(
    epsilon: float,
    delta_lambda_pp: float,
    years: int,
    scenario_id: str = "custom",
) -> GrowthEffect:
    """Compound an ``epsilon * delta_lambda_pp`` growth boost for ``years``.

    Parameters
    ----------
    epsilon:
        Growth points per *percentage point* of openness.
    delta_lambda_pp:
        Openness change in percentage points.
    years:
        Number of compounding periods, >= 1.

    With ``years=1`` the relative level change equals
    ``epsilon * delta_lambda_pp / 100`` exactly (no compounding noise).
    """
    _check_years(years)  # first: it rejects years < 1 or beyond float range
    cell = _cell(scenario_id, _compounded, [epsilon], [years], [delta_lambda_pp])
    return GrowthEffect(*cell, scenario_id)


def steady_state_effect_loglinear(
    semi_elasticity: float, scenario: TradeShockScenario
) -> GrowthEffect:
    """Steady-state effect of a log-linear level form: ``s * delta_lambda``."""
    return evaluate(ElasticityModel("custom", FormKind.LOG_LINEAR_LEVEL, semi_elasticity), scenario)


#: A model row's effect parameters: its years (None at the steady state), its
#: coefficient, and the index of the scenario column in ``Shocks`` it scales.
EffectRow = tuple[int | None, float, int]


def effect_row(
    form: FormKind, level: float, epsilon: float | None, years: int | None
) -> EffectRow:
    """The parameters of a model row of ``form`` with level coefficient
    ``level``, compounding ``epsilon`` for ``years`` or, if None, at the
    steady state.

    This is the single place where the percentage-point convention of
    ``short_run_epsilon`` meets the unit-share convention of the level
    forms: finite horizons receive ``delta_lambda_pp``, level forms receive
    ``delta_lambda`` (log-linear, or the steady-state limit of a growth
    form) or ``ln(lambda0 / lambda_cf)`` (log-log).
    """
    if years is not None:
        return years, epsilon, 1
    return None, level, 2 if form is FormKind.LOG_LOG_LEVEL else 0


def effect_cells(rows: Sequence[EffectRow], shocks: Shocks) -> Effects:
    """The effects of model ``rows`` over the scenario columns ``shocks``,
    row-major in one list per quantity.  The rows are all at finite horizons
    or all at the steady state, so one kernel runs over all of their cells:
    a level form's effect is its coefficient times its scenario column."""
    if rows[0][0] is None:
        return _from_log_points([c * x for _years, c, col in rows for x in shocks[col]])
    n = len(shocks[1])
    return _compounded(
        list(chain.from_iterable(repeat(epsilon, n) for _years, epsilon, _col in rows)),
        list(chain.from_iterable(repeat(years, n) for years, _epsilon, _col in rows)),
        shocks[1] * len(rows),
    )


def evaluate(model: ElasticityModel, scenario: TradeShockScenario) -> GrowthEffect:
    """Evaluate a model at a scenario, over the model's own horizon."""
    shocks = shock_columns((scenario.delta_lambda,), scenario.lambda_baseline)
    row = effect_row(model.form, model.level_coefficient(), model.short_run_epsilon, model.years)
    cell = _cell(scenario.id, effect_cells, [row], shocks)
    return GrowthEffect(*cell, scenario.id)
