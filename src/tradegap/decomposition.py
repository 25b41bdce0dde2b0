"""Attribution of total underperformance between embargo and policy.

Write the factual economy's shortfall against its no-embargo, no-policy
counterfactual as a total gap, and ask: what share theta of that gap does
the embargo explain?  Two schemes answer differently:

* additive-log — decompose the *log* gap: ``theta = c_NE / (c_NE + c_NS)``
  where ``c_NE`` is the embargo effect in log points and ``c_NS`` the
  residual policy component.  Shares add to one by construction.
* geometric — decompose the *level* gap multiplicatively:
  ``theta = g_NE / (g_NS + g_NE + g_NS*g_NE)``, where the ``g``s are
  relative level changes and the cross term is the interaction between
  lifting the embargo and removing the policies.  Equivalent to the levels
  ratio ``(y_NE,S - y_E,S) / (y_NE,NS - y_E,S)``.  With policy the residual
  of a gap of ``G`` log points, ``(1 + g_NE)(1 + g_NS) = exp(G)``, so
  ``theta = g_NE / expm1(G)``: the interaction ``g_NE*g_NS`` is part of
  ``expm1(G) - g_NE``, the policy part.

Every scheme's result holds the embargo share ``theta`` alone.

For positive components the geometric share is strictly below the
additive-log share: the interaction term is charged entirely against the
numerator's rival, biasing the embargo share down.
"""

from __future__ import annotations

import enum
import math

from .effects import GrowthEffect
from .errors import _FLOAT_MAX, ConfigurationError, DataValidationError, _Value, number

#: Calibrated 2024 log gap ln(y_synthetic / y_historical).  Not printed in
#: the source tables; recovered by the back-out oracle (see
#: :func:`backout_gap`): for each log-linear table row,
#: ``gap ~= effect.log_points / reported_share``.  The nine back-outs span
#: ~1.08-1.10 and 1.085 (synthetic/historical ~= 2.96) reproduces every
#: published share cell within tolerance.
DEFAULT_GAP_2024_LOG_POINTS = 1.085

#: Relative 1972 gap (y_synthetic/y_historical - 1) implied by the original
#: study's own 12-year shares: back-solving the three published first-row
#: share cells against the replicated 12-year effects gives
#: {1.2335, 1.2410, 1.2447}; the median is adopted.
DEFAULT_GAP_1972_RELATIVE = 1.24095

#: Largest gap, in log points, whose relative level exp(gap) - 1 is a float.
_MAX_GAP_LOG_POINTS = math.log(_FLOAT_MAX)


class GapKind(enum.Enum):
    LOG_GAP_2024 = "log_gap_2024"
    LOG_GAP_1972 = "log_gap_1972"
    EXPLICIT = "explicit"


class GapDenominator(_Value):
    """Total underperformance ln(y_synthetic / y_historical), in log points."""

    __slots__ = ("kind", "log_points")

    def __post_init__(self) -> None:
        number(self.log_points, "gap denominator")

    @classmethod
    def calibrated_2024(cls) -> "GapDenominator":
        return cls(GapKind.LOG_GAP_2024, DEFAULT_GAP_2024_LOG_POINTS)

    @classmethod
    def gap_1972(cls) -> "GapDenominator":
        """The end-of-comparison-window (1972) gap, given as a relative level."""
        return cls(GapKind.LOG_GAP_1972, math.log1p(DEFAULT_GAP_1972_RELATIVE))

    @classmethod
    def explicit(cls, log_points: float) -> "GapDenominator":
        return cls(GapKind.EXPLICIT, log_points)

    def checked_log_points(self) -> float:
        """The gap as a share denominator: positive, and finite as a relative
        level.  Its sign is unchecked on construction: ``log_gap`` gives either."""
        if not 0 < self.log_points < _MAX_GAP_LOG_POINTS:
            raise ConfigurationError(
                f"gap denominator must be positive and finite (below "
                f"{_MAX_GAP_LOG_POINTS:.2f} log points), got {self.log_points}"
            )
        return self.log_points

    @property
    def relative_level(self) -> float:
        """The gap as a relative level change, exp(log_points) - 1."""
        return math.expm1(self.log_points)

    def describe(self) -> str:
        if self.kind is GapKind.LOG_GAP_2024:
            return f"2024 log gap {self.log_points:g}"
        if self.kind is GapKind.LOG_GAP_1972:
            return f"1972 log gap {self.log_points:.4f}"
        return f"explicit log gap {self.log_points:g}"


class DecompositionResult(_Value):
    """Embargo share ``theta`` of the total gap under one scheme."""

    __slots__ = ("theta",)

    def __post_init__(self) -> None:
        number(self.theta, "embargo share theta", DataValidationError)

    @property
    def policy_share(self) -> float:
        """Residual share attributed to policies; theta + policy_share == 1."""
        return 1.0 - self.theta


def additive_log_thetas(log_points: list[float], _levels: list[float], gap: float) -> list[float]:
    """The additive-log shares of a column of effects, with the gap in log points."""
    return [lp / gap for lp in log_points]


def geometric_thetas_of_gap(
    _log_points: list[float], relative_levels: list[float], gap: float
) -> list[float]:
    """The geometric shares of a column of effects, with the gap in log points:
    with policy the residual, each is its effect over the total ``expm1(gap)``."""
    # min() can pass over a nan, depending on where it stands; a sum cannot
    if not min(relative_levels) > -1 or math.isnan(sum(relative_levels)):
        g_ne = next(g for g in relative_levels if not g > -1)
        raise DataValidationError(f"relative level changes must exceed -1: effect g_NE is {g_ne!r}")
    total = math.expm1(gap)
    return [rel / total for rel in relative_levels]


def additive_log_share(effect: GrowthEffect, total: GapDenominator) -> DecompositionResult:
    """Embargo share of the log gap; the policy component is the residual.

    ``theta = effect.log_points / total.log_points`` and
    ``c_NS = total - c_NE``, so the two components reconstruct the
    denominator by construction.  Shares above one are reported untruncated
    (the counterfactual then overshoots the synthetic comparator).
    """
    cell = [effect.log_points], [effect.relative_level], total.checked_log_points()
    return DecompositionResult(additive_log_thetas(*cell)[0])


def geometric_share(g_ne: float, g_ns: float) -> DecompositionResult:
    """Embargo share under the multiplicative scheme.

    ``theta = g_NE / (g_NS + g_NE + g_NS*g_NE)``; the denominator is the
    total relative gap ``(1+g_NE)(1+g_NS) - 1``, whose cross term
    ``g_NE*g_NS``, the interaction, counts wholly against the embargo share.
    """
    for name, g in (("effect g_NE", g_ne), ("policy residual g_NS", g_ns)):
        if not number(g, name, DataValidationError) > -1:
            raise DataValidationError(f"relative level changes must exceed -1: {name} is {g!r}")
    total = g_ns + g_ne + g_ns * g_ne
    if not math.isfinite(total):  # finite components, but a product or sum beyond float range
        raise DataValidationError(
            f"total relative gap of g_NE {g_ne!r} and g_NS {g_ns!r} is not finite"
        )
    if total == 0:
        raise DataValidationError("degenerate decomposition: total relative gap is zero")
    return DecompositionResult(g_ne / total)


def geometric_share_from_levels(
    y_e_s: float, y_ne_s: float, y_ne_ns: float
) -> DecompositionResult:
    """Geometric share straight from three income levels.

    ``y_e_s`` is the factual (embargo + policies), ``y_ne_s`` the
    embargo-lifted counterfactual, ``y_ne_ns`` the no-embargo no-policy
    counterfactual.  ``theta = (y_NE,S - y_E,S) / (y_NE,NS - y_E,S)``, the
    :func:`geometric_share` of the implied relative changes, computed from the
    differences: it takes no level ratio, which may be beyond float range.
    """
    for name, y in (("y_e_s", y_e_s), ("y_ne_s", y_ne_s), ("y_ne_ns", y_ne_ns)):
        if not number(y, name, DataValidationError) > 0:
            raise DataValidationError(f"income level {name} must be positive, got {y!r}")
    if y_ne_ns <= y_e_s:
        raise DataValidationError(
            "degenerate decomposition: counterfactual y_ne_ns does not exceed the factual y_e_s"
        )
    return DecompositionResult((y_ne_s - y_e_s) / (y_ne_ns - y_e_s))


def geometric_share_of_gap(effect: GrowthEffect, total: GapDenominator) -> DecompositionResult:
    """Geometric share of an effect against a gap, policy as residual:
    ``theta = g_NE / expm1(gap)``, by the kernel of Table A3 and the grid.
    Their Yanikkaya long-run C1 cell, in percent:

    >>> from tradegap import TradeShockScenario, steady_state_effect_loglinear
    >>> effect = steady_state_effect_loglinear(0.41, TradeShockScenario("C1", 0.174, 0.554))
    >>> round(100 * geometric_share_of_gap(effect, GapDenominator.calibrated_2024()).theta, 1)
    3.8
    """
    cell = [effect.log_points], [effect.relative_level], total.checked_log_points()
    return DecompositionResult(geometric_thetas_of_gap(*cell)[0])


def backout_gap(effect: GrowthEffect, reported_share: float) -> float:
    """Invert the additive-log scheme: the gap a published share implies.

    Given a log-linear effect and the share actually printed next to it,
    ``gap = log_points / share``.  Running this over all log-linear table
    cells audits the calibrated denominator (see the ``gap`` subcommand).
    """
    if not number(reported_share, "reported share", DataValidationError) > 0:
        raise DataValidationError(f"reported share must be positive, got {reported_share}")
    gap = effect.log_points / reported_share  # beyond float range for a subnormal share
    return number(gap, "gap implied by the reported share", DataValidationError)
