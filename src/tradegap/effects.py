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

Each path is a column kernel: it maps a model row's scenario columns to its
``(log_points, relative_levels)`` columns, checking every cell in bulk.
The table builders call :func:`effect_columns` once per model row; the
public functions run the same kernels on one-element columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .elasticities import ElasticityModel, FormKind, FunctionalForm, Horizon, HorizonKind
from .errors import DataValidationError
from .scenarios import TradeShockScenario

#: Columns of effects, one entry per scenario: (log points, relative levels).
Effects = tuple[list[float], list[float]]
#: Scenario columns: delta_lambda, delta_lambda_pp and ln(lambda0 / lambda_cf).
Shocks = tuple[list[float], list[float], list[float]]


def shock_columns(scenarios: Sequence[TradeShockScenario]) -> Shocks:
    """The scenario columns, read once per table."""
    return (
        [s.delta_lambda for s in scenarios], [s.delta_lambda_pp for s in scenarios],
        [math.log(s.lambda_baseline / s.lambda_counterfactual) for s in scenarios],
    )


def _out_of_range(log_points: float) -> DataValidationError:
    return DataValidationError(f"effect of {log_points!r} log points is out of float range")


def _checked(log_points: float, relative_level: float) -> None:
    """The invariants of every effect: finite, and the encodings within 1e-12."""
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


def _screened(log_points: list[float], relative_levels: list[float]) -> Effects:
    """Check every cell in bulk: finite, and encodings equal to the last bit.
    Otherwise rescan with ``_checked``, which raises for the first bad cell and
    lets encodings that differ within 1e-12 pass."""
    try:
        expected = list(map(math.expm1, log_points))
    except OverflowError:  # an effect beyond float range, which the rescan names
        expected = []
    if not (all(map(math.isfinite, log_points + relative_levels)) and relative_levels == expected):
        for lp, rel in zip(log_points, relative_levels):
            _checked(lp, rel)
    return log_points, relative_levels


def _from_log_points(log_points: list[float]) -> Effects:
    try:
        relative_levels = list(map(math.expm1, log_points))
    except OverflowError:  # expm1 is increasing, so the largest effect overflowed
        raise _out_of_range(max(log_points)) from None
    if not all(map(math.isfinite, log_points)):  # expm1 keeps a nan or +inf, maps -inf to -1
        raise _out_of_range(next(lp for lp in log_points if not math.isfinite(lp)))
    return log_points, relative_levels


def _compounded(epsilon: float, years: int, delta_lambda_pp: list[float]) -> Effects:
    annuals = [epsilon * pp / 100.0 for pp in delta_lambda_pp]
    if not min(annuals) > -1.0:
        for annual in annuals:
            if annual <= -1.0:
                raise DataValidationError(
                    f"degenerate compounding: growth factor {1.0 + annual} is non-positive"
                )
    if years == 1:
        return _screened(list(map(math.log1p, annuals)), annuals)
    return _from_log_points([years * math.log1p(annual) for annual in annuals])


def _cell(scenario_id: str, kernel: Callable[..., Effects], *args: object) -> tuple[float, float]:
    """One cell through a column kernel, its errors naming the scenario."""
    try:
        (log_points,), (relative_level,) = kernel(*args)
    except DataValidationError as exc:
        raise DataValidationError(f"{scenario_id}: {exc}") from exc
    return log_points, relative_level


@dataclass(frozen=True)
class GrowthEffect:
    """A shock's income effect in log points and as a relative level change."""

    log_points: float
    relative_level: float
    model_name: str
    scenario_id: str
    horizon_used: Horizon

    def __post_init__(self) -> None:
        _cell(self.scenario_id, _screened, [self.log_points], [self.relative_level])


def finite_horizon_effect(
    epsilon: float,
    delta_lambda_pp: float,
    years: int,
    model_name: str = "custom",
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
    horizon = Horizon.finite(years)  # first: it rejects years < 1 or beyond float range
    cell = _cell(scenario_id, _compounded, epsilon, years, [delta_lambda_pp])
    return GrowthEffect(*cell, model_name, scenario_id, horizon)


def steady_state_effect_loglinear(
    semi_elasticity: float,
    scenario: TradeShockScenario,
    model_name: str = "custom",
) -> GrowthEffect:
    """Steady-state effect of a log-linear level form: ``s * delta_lambda``."""
    form = FunctionalForm.log_linear(semi_elasticity)
    return evaluate(ElasticityModel(model_name, form, Horizon.steady_state()), scenario)


def steady_state_effect_loglog(
    elasticity: float,
    scenario: TradeShockScenario,
    model_name: str = "custom",
) -> GrowthEffect:
    """Steady-state effect of a log-log form: ``e * ln(lambda0/lambda_cf)``."""
    form = FunctionalForm.log_log(elasticity)
    return evaluate(ElasticityModel(model_name, form, Horizon.steady_state()), scenario)


def effect_columns(model: ElasticityModel, shocks: Shocks) -> Effects:
    """The effects of one model row over the scenario columns ``shocks``.

    This is the single place where the percentage-point convention of
    ``short_run_epsilon`` meets the unit-share convention of the level
    forms: finite horizons receive ``delta_lambda_pp``, level forms receive
    ``delta_lambda``.
    """
    delta_lambda, delta_lambda_pp, log_ratios = shocks
    if model.horizon.kind is HorizonKind.FINITE:
        return _compounded(model.short_run_epsilon, model.horizon.years, delta_lambda_pp)
    coefficient = model.form.level_coefficient()
    if model.form.kind is FormKind.LOG_LOG_LEVEL:
        return _from_log_points([coefficient * ratio for ratio in log_ratios])
    # log-linear directly, or the steady-state limit of a growth form
    return _from_log_points([coefficient * dl for dl in delta_lambda])


def evaluate(model: ElasticityModel, scenario: TradeShockScenario) -> GrowthEffect:
    """Evaluate a model at a scenario, over the model's own horizon."""
    cell = _cell(scenario.id, effect_columns, model, shock_columns((scenario,)))
    return GrowthEffect(*cell, model.name, scenario.id, model.horizon)
