import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    GapDenominator,
    GrowthEffect,
    additive_log_share,
    backout_gap,
    geometric_share,
    geometric_share_from_levels,
    geometric_share_of_gap,
)
from tradegap.decomposition import GapKind, geometric_thetas_of_gap


def effect_from_log_points(lp):
    return GrowthEffect(lp, math.expm1(lp), "s")


GAP = GapDenominator.calibrated_2024()

positive_logs = st.floats(1e-6, 3.0)

# level-based comparisons subtract nearly equal incomes; with components below
# ~0.01 log points the cancellation (1/expm1(c) ulps) swamps a 1e-12 check
solid_logs = st.floats(0.01, 3.0)


# --------------------------------------------------------------- denominators

def test_gap_defaults():
    assert GAP.kind is GapKind.LOG_GAP_2024
    assert GAP.log_points == 1.085
    g72 = GapDenominator.gap_1972()
    assert g72.kind is GapKind.LOG_GAP_1972
    assert g72.relative_level == pytest.approx(1.24095, rel=1e-12)
    assert GapDenominator.explicit(0.7).log_points == 0.7


def test_gap_1972_describes_itself():
    assert GapDenominator.gap_1972().describe() == "1972 log gap 0.8069"


# -------------------------------------------------------------- additive-log

def test_additive_log_published_cell():
    # long-run C1 effect of 0.0714 log points against the 2024 gap
    res = additive_log_share(effect_from_log_points(0.41 * 0.174), GAP)
    assert 100 * res.theta == pytest.approx(6.6, abs=0.1)


def test_additive_log_full_attribution():
    res = additive_log_share(effect_from_log_points(1.085), GAP)
    assert res.theta == 1.0


def test_additive_log_share_above_one_is_not_clamped():
    # counterfactual overshoots the synthetic comparator: theta > 1, reported as-is
    lp = 1.2624434389140273 * math.log(0.554 / (0.554 - 0.36135266))
    res = additive_log_share(effect_from_log_points(lp), GAP)
    assert 100 * res.theta == pytest.approx(123.5, abs=1.5)
    assert res.policy_share < 0


def test_additive_log_requires_positive_gap():
    with pytest.raises(ConfigurationError, match="gap denominator must be positive"):
        additive_log_share(effect_from_log_points(0.1), GapDenominator.explicit(0.0))
    with pytest.raises(ConfigurationError, match="gap denominator must be positive"):
        additive_log_share(effect_from_log_points(0.1), GapDenominator.explicit(-0.2))


@given(c_ne=positive_logs, c_ns=positive_logs)
def test_additive_log_components_reconstruct_total(c_ne, c_ns):
    total = GapDenominator.explicit(c_ne + c_ns)
    res = additive_log_share(effect_from_log_points(c_ne), total)
    # the two reported shares always add to one exactly
    assert res.theta + res.policy_share == 1.0


# ----------------------------------------------------------------- geometric

def test_geometric_published_cell():
    c = 0.41 * 0.174
    res = geometric_share(math.expm1(c), math.expm1(GAP.log_points - c))
    assert 100 * res.theta == pytest.approx(3.8, abs=0.1)


def test_geometric_trivia():
    assert geometric_share(0.5, 0.0).theta == 1.0
    sym = geometric_share(1.0, 1.0)
    assert sym.theta == pytest.approx(1 / 3)


def test_geometric_degenerate():
    with pytest.raises(DataValidationError, match="degenerate"):
        geometric_share(0.0, 0.0)
    with pytest.raises(DataValidationError, match="must exceed -1: effect g_NE is -1.5$"):
        geometric_share(-1.5, 0.2)
    with pytest.raises(DataValidationError, match="must exceed -1: policy residual g_NS is -1.0$"):
        geometric_share(0.2, -1.0)


def test_geometric_columns_name_the_first_bad_cell():
    # the second cell's effect is at -1, and so is the third cell's residual
    with pytest.raises(DataValidationError, match="effect g_NE is -1.0$"):
        geometric_thetas_of_gap([0.1, 0.1, 100.0], [math.expm1(0.1), -1.0, 1.0], 1.0)


def test_geometric_rejects_nan_components():
    with pytest.raises(DataValidationError, match="^effect g_NE must be a finite number, got nan$"):
        geometric_share(math.nan, 0.5)
    with pytest.raises(DataValidationError, match="^policy residual g_NS must be a finite number"):
        geometric_share(0.5, math.nan)
    # min() passes over a nan that is not first; the column kernel still names it
    for levels in ([0.1, 0.2, math.nan], [math.nan, 0.2, 0.1]):
        with pytest.raises(DataValidationError, match="effect g_NE is nan$"):
            geometric_thetas_of_gap([0.1, 0.2, 0.1], levels, 1.0)


def test_shares_reject_non_finite_components_and_totals():
    with pytest.raises(DataValidationError, match="^effect g_NE must be a finite number, got inf$"):
        geometric_share(math.inf, 0.5)
    # finite components whose product overflows the total relative gap
    with pytest.raises(DataValidationError, match="g_NE 1e[+]200 and g_NS 1e[+]200 is not"):
        geometric_share(1e200, 1e200)
    with pytest.raises(DataValidationError, match="^policy residual g_NS must be a finite number"):
        geometric_share(0.5, math.inf)
    for levels, name in (((1, math.inf, math.inf), "y_ne_s"), ((1, 2, math.inf), "y_ne_ns"),
                         ((1, math.nan, 2), "y_ne_s")):
        with pytest.raises(DataValidationError, match=f"^{name} must be a finite number"):
            geometric_share_from_levels(*levels)


def test_geometric_from_levels_trivia():
    assert geometric_share_from_levels(100, 100, 200).theta == 0.0
    assert geometric_share_from_levels(100, 200, 200).theta == 1.0
    assert geometric_share_from_levels(100, 107.4, 296).theta == pytest.approx(
        0.0378, abs=2e-4
    )


def test_geometric_from_levels_takes_no_level_ratio():
    # y_NE,S / y_E,S is beyond float range, but the ratio of differences is not
    assert geometric_share_from_levels(1e-300, 1e300, 1e300).theta == 1.0
    assert geometric_share_from_levels(5e-324, 2.0, 3.0).theta == 0.6666666666666666
    assert geometric_share_from_levels(1e-300, 1e300, 1e308).theta == 1e-08


def test_geometric_from_levels_errors():
    with pytest.raises(DataValidationError, match="counterfactual"):
        geometric_share_from_levels(100, 100, 100)
    with pytest.raises(DataValidationError, match="positive"):
        geometric_share_from_levels(-1, 2, 3)


@given(c_ne=solid_logs, c_ns=solid_logs, scale=st.floats(1e-6, 1e6))
def test_levels_and_growth_forms_agree(c_ne, c_ns, scale):
    """The two geometric formulations are the same decomposition."""
    g_ne = math.expm1(c_ne)
    g_ns = math.expm1(c_ns)
    y_e_s = scale
    y_ne_s = y_e_s * (1 + g_ne)
    y_ne_ns = y_ne_s * (1 + g_ns)
    a = geometric_share(g_ne, g_ns)
    b = geometric_share_from_levels(y_e_s, y_ne_s, y_ne_ns)
    assert b.theta == pytest.approx(a.theta, rel=1e-12)


@given(c_ne=solid_logs, c_ns=solid_logs, k=st.floats(1e-6, 1e6))
def test_levels_form_scale_invariance(c_ne, c_ns, k):
    y = 100.0
    levels = (y, y * math.exp(c_ne), y * math.exp(c_ne + c_ns))
    base = geometric_share_from_levels(*levels)
    scaled = geometric_share_from_levels(*(v * k for v in levels))
    assert scaled.theta == pytest.approx(base.theta, rel=1e-12)


@given(c_ne=positive_logs, c_ns=positive_logs)
def test_geometric_below_additive_log_for_positive_components(c_ne, c_ns):
    """The interaction term biases the geometric embargo share down."""
    total = GapDenominator.explicit(c_ne + c_ns)
    add = additive_log_share(effect_from_log_points(c_ne), total)
    geo = geometric_share(math.expm1(c_ne), math.expm1(c_ns))
    assert geo.theta < add.theta


@given(g_ne=st.floats(-0.5, 5.0), g_ns=st.floats(-0.5, 5.0))
def test_geometric_identity_theta_times_denominator(g_ne, g_ns):
    denominator = g_ns + g_ne + g_ns * g_ne
    if abs(denominator) < 1e-9:
        return
    res = geometric_share(g_ne, g_ns)
    assert res.theta * denominator == pytest.approx(g_ne, rel=1e-12, abs=1e-15)


def test_geometric_share_of_gap_convenience():
    e = effect_from_log_points(0.41 * 0.174)
    direct = geometric_share_of_gap(e, GAP)
    manual = geometric_share(e.relative_level, math.expm1(GAP.log_points - e.log_points))
    assert direct.theta == manual.theta


# ------------------------------------------------------------------ back-out

@pytest.mark.parametrize(
    "share,gap",
    [
        (additive_log_share, math.nan),
        (additive_log_share, math.inf),
        (geometric_share_of_gap, -1.0),
        (geometric_share_of_gap, 710.0),
    ],
)
def test_library_gap_must_be_positive_and_finite(share, gap):
    # a non-finite gap is refused on construction, a negative or huge one by the share
    with pytest.raises(ConfigurationError,
                       match="^gap denominator must be (positive|a finite number)"):
        share(effect_from_log_points(0.1), GapDenominator.explicit(gap))


@pytest.mark.parametrize("gap", [math.nan, math.inf, True, "1.085"])
def test_gap_denominator_is_a_finite_number(gap):
    """A gap is a number on construction, so ``explicit(True)`` is not a
    gap of 1 and ``explicit(nan)`` never reaches a share."""
    message = f"gap denominator must be a finite number, got {gap!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        GapDenominator.explicit(gap)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_backout_gap_rejects_a_non_finite_share(bad):
    message = f"^reported share must be a finite number, got {bad}$"
    with pytest.raises(DataValidationError, match=message):
        backout_gap(effect_from_log_points(0.1), bad)


def test_backout_gap_inverts_additive_share():
    e = effect_from_log_points(0.711865)
    assert backout_gap(e, 0.653) == pytest.approx(0.711865 / 0.653, rel=1e-12)
    with pytest.raises(DataValidationError):
        backout_gap(e, 0.0)
