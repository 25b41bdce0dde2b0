import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradegap import (
    DataValidationError,
    ElasticityModel,
    FormKind,
    GrowthEffect,
    custom_scenario,
    evaluate,
    finite_horizon_effect,
    steady_state_effect_loglinear,
)
from tradegap.effects import _compounded, _from_log_points


def pct(effect):
    return 100 * effect.relative_level


def loglog_effect(elasticity, scenario):
    """The steady-state effect of a log-log form: ``e * ln(lambda0/lambda_cf)``."""
    return evaluate(ElasticityModel("custom", FormKind.LOG_LOG_LEVEL, elasticity), scenario)


# ------------------------------------------------------- finite compounding

def test_published_twelve_year_effects():
    # compounding the published one-decimal ratios reproduces 3.8/8.1/9.9
    assert round(pct(finite_horizon_effect(0.018, 17.1, 12)), 1) == 3.8
    assert round(pct(finite_horizon_effect(0.018, 36.1, 12)), 1) == 8.1
    assert round(pct(finite_horizon_effect(0.018, 44.0, 12)), 1) == 9.9


def test_zero_shock_is_zero():
    e = finite_horizon_effect(0.018, 0.0, 12)
    assert e.relative_level == 0.0
    assert e.log_points == 0.0


def test_single_year_has_no_compounding_noise():
    e = finite_horizon_effect(0.018, 17.1, 1)
    assert e.relative_level == 0.018 * 17.1 / 100  # exact, not approx
    # expm1(log1p(rate)) is one ulp above this rate: the rate itself is kept
    assert finite_horizon_effect(0.11, 17.4, 1).relative_level == 0.11 * 17.4 / 100


def test_degenerate_compounding_rejected():
    with pytest.raises(DataValidationError, match="degenerate compounding"):
        finite_horizon_effect(-10.0, 10.0, 5)
    with pytest.raises(DataValidationError, match="years"):
        finite_horizon_effect(0.018, 17.1, 0)


def test_effect_errors_name_the_scenario_once():
    s = custom_scenario("halved", 0.277, 0.554)
    with pytest.raises(DataValidationError) as info:
        steady_state_effect_loglinear(1e4, s)
    assert str(info.value).startswith("halved: effect of ")
    assert str(info.value).count("halved") == 1
    with pytest.raises(DataValidationError, match="^S: relative_level must be a finite number"):
        GrowthEffect(800.0, math.inf, "S")
    with pytest.raises(DataValidationError, match="years beyond float range"):
        finite_horizon_effect(0.018, 17.1, 10**400)


def test_effect_columns_name_the_first_bad_cell():
    # the second cell is the first bad one, though the third is worse
    with pytest.raises(DataValidationError, match=r"growth factor -1\.0 is non-positive"):
        _compounded([-10.0] * 3, [12] * 3, [1.0, 20.0, 30.0])
    # a one-year cell is the annual rate itself, within 1e-12 of its log points
    log_points, relative_levels = _compounded([0.018] * 3, [1, 12, 1], [17.1, 17.1, 30.0])
    assert relative_levels[::2] == [0.018 * 17.1 / 100.0, 0.018 * 30.0 / 100.0]
    for lp, rel in zip(log_points, relative_levels):
        assert math.isclose(rel, math.expm1(lp), rel_tol=1e-12)


def test_growth_effect_encodings_agree_within_1e_12():
    assert GrowthEffect(0.1, math.expm1(0.1) * (1 + 1e-14), "s").log_points == 0.1
    with pytest.raises(DataValidationError, match="^s: inconsistent effect encodings: log_points=0.2"):
        GrowthEffect(0.2, 5.0, "s")


def test_effect_that_expm1_keeps_non_finite_is_named():
    # 1e308 * ln(0.554 / 0.004) is inf, which expm1 returns without an OverflowError
    with pytest.raises(DataValidationError, match="^deep: effect of inf log points is out of"):
        loglog_effect(1e308, custom_scenario("deep", 0.55, 0.554))
    with pytest.raises(DataValidationError, match="^effect of nan log points is out of"):
        _from_log_points([0.1, math.nan, math.inf])


def test_minus_infinite_effect_is_out_of_float_range():
    # expm1(-inf) is a finite -1.0, so the log points themselves are checked
    with pytest.raises(DataValidationError, match="^deep: effect of -inf log points is out of"):
        loglog_effect(-1e308, custom_scenario("deep", 0.55, 0.554))
    with pytest.raises(DataValidationError, match="^S: log_points must be a finite number"):
        GrowthEffect(-math.inf, -1.0, "S")


def test_finite_level_of_an_effect_beyond_float_range_is_a_data_error():
    # expm1(800) overflows: no finite relative level can encode the effect
    with pytest.raises(DataValidationError, match=r"^S: effect of 800.0 log points is out of"):
        GrowthEffect(800.0, 1.0, "S")
    with pytest.raises(DataValidationError, match="^effect of 800.0 log points is out of"):
        _from_log_points([0.1, 800.0, 0.2])


# ------------------------------------------------------------- level forms

def test_loglinear_long_run_effect():
    s = custom_scenario("C1", 0.171, 0.554)
    assert pct(steady_state_effect_loglinear(0.4175, s)) == pytest.approx(7.4, abs=0.05)


def test_loglinear_zero_shock():
    s = custom_scenario("tiny", 1e-15, 0.554)
    assert steady_state_effect_loglinear(1.04, s).log_points == pytest.approx(0, abs=1e-14)


def test_loglog_no_shock_is_exactly_zero():
    # a no-op scenario built from zero dollar magnitudes
    from tradegap import ShockInputs, build_scenarios

    c1, _, _ = build_scenarios(ShockInputs(0, 100, 0, 1000), 0.554)
    e = loglog_effect(1.26, c1)
    assert e.log_points == 0.0 and e.relative_level == 0.0


def test_loglog_published_cells(c123):
    _, c2, c3 = c123
    # the two log-log spot checks from the published grid
    assert pct(loglog_effect(0.186, c2)) == pytest.approx(21.9, rel=0.02)
    assert pct(loglog_effect(1.2624434389140273, c3)) == pytest.approx(
        636.5, rel=0.02
    )


# ------------------------------------------------------------------ evaluate

def test_evaluate_dispatch_finite(registry, c123):
    _, c2, _ = c123
    e = evaluate(registry.get("yanikkaya"), c2)
    assert round(pct(e), 1) == 8.1
    assert e.scenario_id == "C2"


def test_evaluate_dispatch_loglinear(registry, c123):
    _, _, c3 = c123
    e = evaluate(registry.get("sala_i_martin"), c3)
    assert pct(e) == pytest.approx(57.3, rel=0.02)


def test_evaluate_dispatch_loglog(registry):
    alcala = registry.get("alcala_ciccone")
    c1 = custom_scenario("C1", 0.174, 0.554)
    assert pct(evaluate(alcala, c1)) == pytest.approx(59.4, rel=0.02)


# ------------------------------------------------------------- invariants

def test_growth_effect_encodings_must_agree():
    with pytest.raises(DataValidationError, match="inconsistent"):
        GrowthEffect(0.5, 0.5, "s")


@given(st.floats(-0.9, 3.0))
def test_encodings_agree_and_share_sign(lp):
    e = GrowthEffect(lp, math.expm1(lp), "s")
    assert e.relative_level == pytest.approx(math.expm1(lp), rel=1e-12)
    assert (e.log_points >= 0) == (e.relative_level >= 0)


@given(
    coeff=st.floats(0.1, 2.0),
    d1=st.floats(0.01, 0.3),
    d2=st.floats(0.01, 0.3),
)
def test_monotone_in_shock_size(coeff, d1, d2):
    lo, hi = sorted((d1, d2))
    if hi - lo < 1e-12:
        return  # shocks a few ulps apart can round to the same effect
    s_lo = custom_scenario("lo", lo, 0.554)
    s_hi = custom_scenario("hi", hi, 0.554)
    assert steady_state_effect_loglinear(coeff, s_lo).log_points < (
        steady_state_effect_loglinear(coeff, s_hi).log_points
    )
    assert loglog_effect(coeff, s_lo).log_points < (
        loglog_effect(coeff, s_hi).log_points
    )


@given(delta=st.floats(1e-6, 0.00554))
def test_loglog_agrees_with_loglinear_for_small_shocks(delta):
    # to first order e*ln(l0/(l0-d)) ~ (e/l0)*d for d << l0
    lam0 = 0.554
    s = custom_scenario("small", delta, lam0)
    e = 1.23
    loglog = loglog_effect(e, s).log_points
    loglin = steady_state_effect_loglinear(e / lam0, s).log_points
    assert loglog == pytest.approx(loglin, rel=0.01)


def test_divergence_of_loglog_at_small_openness():
    # a one-point openness decline at lambda=0.55 moves income >15x more
    # under the log-log level form than one year of the short-run growth form
    lam0 = 0.55
    one_point = custom_scenario("1pp", 0.01, lam0)
    loglog = loglog_effect(0.186, one_point)
    short_run = finite_horizon_effect(0.018, 1.0, 1)
    assert loglog.relative_level / short_run.relative_level > 15
