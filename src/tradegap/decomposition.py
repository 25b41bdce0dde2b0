"""Attribution of total underperformance between embargo and policy.

Write the factual economy's shortfall against its no-embargo, no-policy
counterfactual as a total gap, and ask: what share theta of that gap does
the embargo explain?  Three schemes answer differently:

* additive-log — decompose the *log* gap: ``theta = c_NE / (c_NE + c_NS)``
  where ``c_NE`` is the embargo effect in log points and ``c_NS`` the
  residual policy component.  Shares add to one by construction.
* geometric — decompose the *level* gap multiplicatively:
  ``theta = g_NE / (g_NS + g_NE + g_NS*g_NE)``, where the ``g``s are
  relative level changes and the cross term is the interaction between
  lifting the embargo and removing the policies.  Equivalent to the levels
  ratio ``(y_NE,S - y_E,S) / (y_NE,NS - y_E,S)``.
* linear-levels — treat absolute income contributions as separable and
  take the simple ratio.  Kept for comparison; income is not linear in
  trade shares and policies, so results carry a warning note.

For positive components the geometric share is strictly below the
additive-log share: the interaction term is charged entirely against the
numerator's rival, biasing the embargo share down.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .effects import GrowthEffect
from .errors import ConfigurationError, DataValidationError

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
_MAX_GAP_LOG_POINTS = math.log(sys.float_info.max)


class GapKind(enum.Enum):
    LOG_GAP_2024 = "log_gap_2024"
    LOG_GAP_1972 = "log_gap_1972"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class GapDenominator:
    """Total underperformance ln(y_synthetic / y_historical), in log points."""

    kind: GapKind
    log_points: float

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
        level.  Not checked on construction: ``log_gap`` returns either sign."""
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


class DecompositionScheme(enum.Enum):
    ADDITIVE_LOG = "additive_log"
    GEOMETRIC = "geometric"
    LINEAR_LEVELS = "linear_levels"


_LINEAR_LEVELS_NOTE = (
    "levels-linear scheme: income assumed linear in trade shares and "
    "policies; no sound microfoundation"
)


@dataclass(frozen=True)
class DecompositionResult:
    """Embargo share of the total gap under one scheme.

    ``c_ne``/``c_ns`` hold the additive components (log points for the
    additive-log scheme, absolute income units for linear-levels);
    ``g_ne``/``g_ns`` hold the relative-level components of the geometric
    scheme, with their product recorded as ``interaction``.  Fields not
    used by a scheme stay ``None``.
    """

    scheme: DecompositionScheme
    theta: float
    c_ne: float | None = None
    c_ns: float | None = None
    g_ne: float | None = None
    g_ns: float | None = None
    interaction: float | None = None
    note: str | None = None

    @property
    def policy_share(self) -> float:
        """Residual share attributed to policies; theta + policy_share == 1."""
        return 1.0 - self.theta


def additive_log_thetas(log_points: list[float], _levels: list[float], gap: float) -> list[float]:
    """The additive-log shares of a column of effects, with the gap in log points."""
    return [lp / gap for lp in log_points]


def _geometric_thetas(effects: list[float], residuals: list[float]) -> list[float]:
    # min() can pass over a nan, depending on where it stands; a sum cannot
    if not (min(effects) > -1 and min(residuals) > -1) or math.isnan(sum(effects) + sum(residuals)):
        for g_ne, g_ns in zip(effects, residuals):
            if not (g_ne > -1 and g_ns > -1):
                name, g = ("policy residual g_NS", g_ns) if g_ne > -1 else ("effect g_NE", g_ne)
                raise DataValidationError(f"relative level changes must exceed -1: {name} is {g!r}")
    totals = [g_ns + g_ne + g_ns * g_ne for g_ne, g_ns in zip(effects, residuals)]
    if not all(map(math.isfinite, totals)):  # a +inf component, or a product beyond float range
        i = next(i for i, total in enumerate(totals) if not math.isfinite(total))
        raise DataValidationError(
            f"total relative gap of g_NE {effects[i]!r} and g_NS {residuals[i]!r} is not finite"
        )
    try:
        return [g_ne / total for g_ne, total in zip(effects, totals)]
    except ZeroDivisionError:
        raise DataValidationError("degenerate decomposition: total relative gap is zero") from None


def _policy_residuals(log_points: list[float], gap: float) -> list[float]:
    try:
        return [math.expm1(gap - lp) for lp in log_points]
    except OverflowError:  # expm1 is increasing: the smallest effect's residual overflowed
        raise DataValidationError(
            f"policy residual of a {min(log_points)!r} log-point effect against a {gap!r} "
            "log-point gap is out of float range"
        ) from None


def geometric_thetas_of_gap(
    log_points: list[float], relative_levels: list[float], gap: float
) -> list[float]:
    """The geometric shares of a column of effects, with the gap in log points."""
    return _geometric_thetas(relative_levels, _policy_residuals(log_points, gap))


def additive_log_share(effect: GrowthEffect, total: GapDenominator) -> DecompositionResult:
    """Embargo share of the log gap; the policy component is the residual.

    ``theta = effect.log_points / total.log_points`` and
    ``c_NS = total - c_NE``, so the two components reconstruct the
    denominator by construction.  Shares above one are reported untruncated
    (the counterfactual then overshoots the synthetic comparator).
    """
    c_ne, gap = effect.log_points, total.checked_log_points()
    return DecompositionResult(
        scheme=DecompositionScheme.ADDITIVE_LOG,
        theta=additive_log_thetas([c_ne], [effect.relative_level], gap)[0],
        c_ne=c_ne,
        c_ns=gap - c_ne,
    )


def geometric_share(g_ne: float, g_ns: float) -> DecompositionResult:
    """Embargo share under the multiplicative scheme.

    ``theta = g_NE / (g_NS + g_NE + g_NS*g_NE)``; the denominator is the
    total relative gap ``(1+g_NE)(1+g_NS) - 1`` and the cross term
    ``g_NE*g_NS`` is recorded as the interaction.
    """
    return DecompositionResult(
        scheme=DecompositionScheme.GEOMETRIC,
        theta=_geometric_thetas([g_ne], [g_ns])[0],
        g_ne=g_ne,
        g_ns=g_ns,
        interaction=g_ne * g_ns,
    )


def geometric_share_from_levels(
    y_e_s: float, y_ne_s: float, y_ne_ns: float
) -> DecompositionResult:
    """Geometric share straight from three income levels.

    ``y_e_s`` is the factual (embargo + policies), ``y_ne_s`` the
    embargo-lifted counterfactual, ``y_ne_ns`` the no-embargo no-policy
    counterfactual.  ``theta = (y_NE,S - y_E,S) / (y_NE,NS - y_E,S)``,
    computed as :func:`geometric_share` of the implied relative changes, so
    invariant to rescaling all three levels.
    """
    if not all(0 < y < math.inf for y in (y_e_s, y_ne_s, y_ne_ns)):
        raise DataValidationError("income levels must be positive and finite")
    if y_ne_ns <= y_e_s:
        raise DataValidationError(
            "degenerate decomposition: counterfactual does not exceed the factual"
        )
    return geometric_share(y_ne_s / y_e_s - 1.0, y_ne_ns / y_ne_s - 1.0)


def linear_levels_share(c_ne_linear: float, c_ns_linear: float) -> DecompositionResult:
    """Simple ratio of absolute income contributions (flagged as unsound)."""
    total = c_ne_linear + c_ns_linear
    if not math.isfinite(total):  # a non-finite component, or a sum beyond float range
        raise DataValidationError(f"c_NE {c_ne_linear!r} + c_NS {c_ns_linear!r} sums to {total!r}")
    if total == 0:
        raise DataValidationError("degenerate decomposition: contributions sum to zero")
    return DecompositionResult(
        scheme=DecompositionScheme.LINEAR_LEVELS,
        theta=c_ne_linear / total,
        c_ne=c_ne_linear,
        c_ns=c_ns_linear,
        note=_LINEAR_LEVELS_NOTE,
    )


def policy_growth_residual(effect: GrowthEffect, total: GapDenominator) -> float:
    """Relative policy component g_NS with (1+g_NE)(1+g_NS) = exp(total).

    The source tables give no independent policy estimate, so the policy
    component is always the residual claimant of whatever part of the total
    gap the embargo effect leaves unexplained.
    """
    return _policy_residuals([effect.log_points], total.checked_log_points())[0]


def geometric_share_of_gap(effect: GrowthEffect, total: GapDenominator) -> DecompositionResult:
    """Geometric share of an effect against a gap, policy as residual."""
    return geometric_share(effect.relative_level, policy_growth_residual(effect, total))


def backout_gap(effect: GrowthEffect, reported_share: float) -> float:
    """Invert the additive-log scheme: the gap a published share implies.

    Given a log-linear effect and the share actually printed next to it,
    ``gap = log_points / share``.  Running this over all log-linear table
    cells audits the calibrated denominator (see the ``gap`` subcommand).
    """
    if not 0 < reported_share < math.inf:
        raise DataValidationError(
            f"reported share must be positive and finite, got {reported_share}"
        )
    return effect.log_points / reported_share
