import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ShockInputs,
    TradeShockScenario,
    build_scenarios,
    custom_scenario,
    default_scenario_config,
    load_scenario_config,
)

INPUTS = ShockInputs(530.0, 1122.0, 244.0, 3105.0)


def test_published_ratios_round_to_one_decimal():
    c1, c2, c3 = build_scenarios(INPUTS)
    assert round(100 * c1.delta_lambda, 1) == 17.1
    assert round(100 * c2.delta_lambda, 1) == 36.1
    assert round(100 * c3.delta_lambda, 1) == 44.0


def test_hand_division_oracle():
    c1, c2, c3 = build_scenarios(ShockInputs(100, 200, 50, 1000), lambda_baseline=0.5)
    assert c1.delta_lambda == 0.1
    assert c2.delta_lambda == 0.2
    assert c3.delta_lambda == 0.25
    assert c3.lambda_counterfactual == 0.25


def test_zero_gap_degenerate_case():
    c1, c2, c3 = build_scenarios(ShockInputs(0, 500, 0, 1000), lambda_baseline=0.554)
    assert c1.delta_lambda == 0.0
    assert c1.lambda_counterfactual == c1.lambda_baseline
    assert c3.delta_lambda == c2.delta_lambda


@given(k=st.floats(1e-6, 1e6))
def test_scale_invariance_in_currency_unit(k):
    base = build_scenarios(INPUTS)
    scaled = build_scenarios(
        ShockInputs(530.0 * k, 1122.0 * k, 244.0 * k, 3105.0 * k)
    )
    for a, b in zip(base, scaled):
        assert b.delta_lambda == pytest.approx(a.delta_lambda, rel=1e-12)


def test_scenario_ordering_invariant(c123):
    c1, c2, c3 = c123
    assert c3.delta_lambda >= c2.delta_lambda >= 0


def test_shock_inputs_validation():
    with pytest.raises(DataValidationError):
        ShockInputs(530, 1122, 244, 0)  # zero GDP: nothing to divide by
    with pytest.raises(DataValidationError, match="non-negative"):
        ShockInputs(-1, 1122, 244, 3105)


def test_custom_scenario_halving():
    s = custom_scenario("half", 0.275, 0.55)
    assert s.lambda_counterfactual == 0.275


def test_custom_scenario_c3_at_calibrated_baseline():
    s = custom_scenario("C3", 0.44, 0.554)
    assert s.lambda_counterfactual == pytest.approx(0.114)
    assert s.delta_lambda == s.lambda_baseline - s.lambda_counterfactual


def test_custom_scenario_rejects_swallowing_baseline():
    with pytest.raises(DataValidationError, match="non-positive"):
        custom_scenario("bad", 0.6, 0.55)
    with pytest.raises(DataValidationError):
        custom_scenario("bad", 0.55, 0.55)


def test_counterfactual_openness_is_derived():
    s = TradeShockScenario("x", 0.174, 0.554)
    assert s.lambda_counterfactual == 0.554 - 0.174
    with pytest.raises(DataValidationError, match="non-negative"):
        TradeShockScenario("x", math.nan, 0.554)
    with pytest.raises(DataValidationError, match="baseline openness must be finite"):
        TradeShockScenario("x", 0.1, math.nan)
    for delta in (0.554, 0.6):  # so the log-log form never sees lambda_cf <= 0
        with pytest.raises(DataValidationError, match="counterfactual openness non-positive"):
            TradeShockScenario("x", delta, 0.554)


def test_delta_lambda_pp_is_percentage_points(c123):
    c1 = c123[0]
    assert c1.delta_lambda_pp == 100 * c1.delta_lambda


# ------------------------------------------------------------- config file

def test_default_config_matches_published_inputs(config):
    assert config.inputs == INPUTS
    assert config.lambda_baseline == 0.554
    assert config.custom_scenarios == ()


def test_load_custom_scenarios(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {
                "inputs": {
                    "trade_gap_vs_synthetic_1972": 100,
                    "trade_with_us_1958": 200,
                    "synthetic_export_excess_1972": 50,
                    "gdp_1958": 1000,
                },
                "lambda_baseline": 0.5,
                "custom_scenarios": [
                    {"id": "mild", "delta_lambda": 0.05, "description": "small shock"}
                ],
            }
        ),
        encoding="utf-8",
    )
    cfg = load_scenario_config(p)
    assert cfg.lambda_baseline == 0.5
    (extra,) = cfg.custom_scenarios
    assert extra.id == "mild"
    assert extra.lambda_counterfactual == 0.45


def test_config_errors_are_configuration_errors(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_scenario_config(p)
    p.write_text('{"inputs": {"gdp_1958": 10}}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="missing"):
        load_scenario_config(p)
    # domain violations inside a config file surface as config errors too
    p.write_text(
        json.dumps(
            {
                "inputs": {
                    "trade_gap_vs_synthetic_1972": -5,
                    "trade_with_us_1958": 200,
                    "synthetic_export_excess_1972": 50,
                    "gdp_1958": 1000,
                }
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError):
        load_scenario_config(p)
    with pytest.raises(ConfigurationError, match="not found"):
        load_scenario_config(tmp_path / "missing.json")


def test_default_config_is_reloadable():
    a = default_scenario_config()
    b = default_scenario_config()
    assert a == b
