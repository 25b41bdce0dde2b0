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

Each path is a float kernel returning ``(log_points, relative_level)``.
The public functions wrap a kernel's result in a :class:`GrowthEffect`;
the table builders call the kernel that :func:`effect_kernel` builds for
each model row, and so skip the dataclass per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .elasticities import ElasticityModel, FormKind, Horizon, HorizonKind
from .errors import ConfigurationError, DataValidationError
from .scenarios import TradeShockScenario


#: An effect on plain floats: scenario -> (log_points, relative_level).
EffectKernel = Callable[[TradeShockScenario], tuple[float, float]]


def _checked(log_points: float, relative_level: float, scenario_id: str) -> tuple[float, float]:
    """The invariants of every effect: a finite relative level, and the two
    encodings agreeing to within 1e-12."""
    if not math.isfinite(relative_level):
        raise DataValidationError(
            f"{scenario_id}: effect of {log_points!r} log points is out of float range"
        )
    if not math.isclose(relative_level, math.expm1(log_points), rel_tol=1e-12, abs_tol=1e-15):
        raise DataValidationError(
            f"inconsistent effect encodings: log_points={log_points!r} "
            f"but relative_level={relative_level!r}"
        )
    return log_points, relative_level


def _from_log_points(log_points: float, scenario_id: str) -> tuple[float, float]:
    try:
        relative_level = math.expm1(log_points)
    except OverflowError:
        relative_level = math.inf  # rejected by _checked
    return _checked(log_points, relative_level, scenario_id)


def _compounded(
    epsilon: float, delta_lambda_pp: float, years: int, scenario_id: str
) -> tuple[float, float]:
    annual = epsilon * delta_lambda_pp / 100.0
    if annual <= -1.0:
        raise DataValidationError(
            f"degenerate compounding: growth factor {1.0 + annual} is non-positive"
        )
    if years == 1:
        return _checked(math.log1p(annual), annual, scenario_id)
    try:
        log_points = years * math.log1p(annual)
    except OverflowError:  # an int horizon too large for a float
        raise DataValidationError("years beyond float range") from None
    return _from_log_points(log_points, scenario_id)


def _loglinear(semi_elasticity: float, scenario: TradeShockScenario) -> tuple[float, float]:
    return _from_log_points(semi_elasticity * scenario.delta_lambda, scenario.id)


def _loglog(elasticity: float, scenario: TradeShockScenario) -> tuple[float, float]:
    log_points = elasticity * math.log(scenario.lambda_baseline / scenario.lambda_counterfactual)
    return _from_log_points(log_points, scenario.id)


@dataclass(frozen=True)
class GrowthEffect:
    """A shock's income effect in log points and as a relative level change."""

    log_points: float
    relative_level: float
    model_name: str
    scenario_id: str
    horizon_used: Horizon

    def __post_init__(self) -> None:
        _checked(self.log_points, self.relative_level, self.scenario_id)

    @classmethod
    def from_log_points(
        cls, log_points: float, model_name: str, scenario_id: str, horizon: Horizon
    ) -> "GrowthEffect":
        return cls(*_from_log_points(log_points, scenario_id), model_name, scenario_id, horizon)

    def absolute_change(self, y0: float) -> float:
        """Income change in the units of ``y0`` (the baseline level)."""
        return y0 * self.relative_level


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
    if years < 1:
        raise DataValidationError(f"years must be >= 1, got {years}")
    log_points, relative_level = _compounded(epsilon, delta_lambda_pp, years, scenario_id)
    return GrowthEffect(
        log_points, relative_level, model_name, scenario_id, Horizon.finite(years)
    )


def steady_state_effect_loglinear(
    semi_elasticity: float,
    scenario: TradeShockScenario,
    model_name: str = "custom",
) -> GrowthEffect:
    """Steady-state effect of a log-linear level form: ``s * delta_lambda``."""
    return GrowthEffect(
        *_loglinear(semi_elasticity, scenario), model_name, scenario.id, Horizon.steady_state()
    )


def steady_state_effect_loglog(
    elasticity: float,
    scenario: TradeShockScenario,
    model_name: str = "custom",
) -> GrowthEffect:
    """Steady-state effect of a log-log form: ``e * ln(lambda0/lambda_cf)``."""
    return GrowthEffect(
        *_loglog(elasticity, scenario), model_name, scenario.id, Horizon.steady_state()
    )


def effect_kernel(model: ElasticityModel) -> EffectKernel:
    """The float form of ``evaluate(model, scenario)``, built once per model.

    This is the single place where the percentage-point convention of
    ``short_run_epsilon`` meets the unit-share convention of the level
    forms: finite horizons receive ``scenario.delta_lambda_pp``, level
    forms receive ``scenario.delta_lambda``.
    """
    if model.horizon.kind is HorizonKind.FINITE:
        if model.short_run_epsilon is None:
            raise ConfigurationError(
                f"model {model.name!r}: finite horizon requested but no short_run_epsilon"
            )
        epsilon, years = model.short_run_epsilon, model.horizon.years
        return lambda scenario: _compounded(
            epsilon, scenario.delta_lambda_pp, years, scenario.id
        )
    if model.form.kind is FormKind.LOG_LOG_LEVEL:
        return partial(_loglog, model.form.level_coefficient())
    # log-linear directly, or the steady-state limit of a growth form
    return partial(_loglinear, model.form.level_coefficient())


def evaluate(model: ElasticityModel, scenario: TradeShockScenario) -> GrowthEffect:
    """Evaluate a model at a scenario, over the model's own horizon."""
    return GrowthEffect(
        *effect_kernel(model)(scenario), model.name, scenario.id, model.horizon
    )
