import json
import math
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ScenarioConfig,
    ShockInputs,
    TradeShockScenario,
    build_scenarios,
    custom_scenario,
    default_scenario_config,
    load_scenario_config,
)
from tradegap.errors import number, string
from tradegap.scenarios import _config_from_json

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
        TradeShockScenario("x", -0.1, 0.554)
    with pytest.raises(DataValidationError, match="^x: delta_lambda must be a finite number"):
        TradeShockScenario("x", math.nan, 0.554)
    with pytest.raises(DataValidationError, match="^x: lambda_baseline must be a finite number"):
        TradeShockScenario("x", 0.1, math.nan)
    for delta in (0.554, 0.6):  # so the log-log form never sees lambda_cf <= 0
        with pytest.raises(DataValidationError, match="counterfactual openness non-positive"):
            TradeShockScenario("x", delta, 0.554)


def test_scenario_constructors_keep_the_baseline_rule():
    """A scenario's baseline is a share on (0, 1], as a config's and the flag's are."""
    inputs = ShockInputs(530, 1122, 244, 3105)
    for lam0 in (5.0, 1.5, 0, -0.5):
        with pytest.raises(DataValidationError,
                           match=rf"^x: lambda_baseline must be in \(0, 1\], got {lam0}$"):
            TradeShockScenario("x", 0.1, lam0)
        with pytest.raises(DataValidationError,
                           match=rf"^x: lambda_baseline must be in \(0, 1\], got {lam0}$"):
            custom_scenario("x", 0.1, lam0)
        with pytest.raises(DataValidationError,
                           match=rf"^C1: lambda_baseline must be in \(0, 1\], got {lam0}$"):
            build_scenarios(inputs, lambda_baseline=lam0)
    assert custom_scenario("x", 0.1, 1).lambda_baseline == 1


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
    assert cfg.custom_scenarios == (TradeShockScenario("mild", 0.05, 0.5, "small shock"),)


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


# ------------------------------------------ the read against a reference read

# The reference: each custom scenario read as an object, as it was before the
# one-pass reader, then the config's checks; extended to reject a field of the
# wrong shape or an unknown one, each object's unknown fields after its other
# fields and the top level's before the custom scenarios.

def unknown_fields(path, obj, known):
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ConfigurationError(f"{path}unknown field {unknown[0]!r}")


def reference_row(i, row, lam0):
    try:
        scenario = custom_scenario(
            string(row["id"], "id"), number(row["delta_lambda"], "delta_lambda"), lam0,
            string(row.get("description", ""), "description"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"custom_scenarios[{i}] missing field {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"custom_scenarios[{i}].{exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"custom_scenarios[{i}]: {exc}") from None
    unknown_fields(f"custom_scenarios[{i}]: ", row, {"id", "delta_lambda", "description"})
    return scenario


def reference_config(raw):
    if not isinstance(raw, dict):
        raise ConfigurationError("expected a JSON object")
    if not isinstance(raw["inputs"], dict):
        raise ConfigurationError("'inputs' must be an object")
    names = [f.name for f in fields(ShockInputs)]
    inputs = ShockInputs(*(number(raw["inputs"][name], f"inputs.{name}") for name in names))
    unknown_fields("inputs: ", raw["inputs"], names)
    lam0 = number(raw.get("lambda_baseline", 0.554), "lambda_baseline")
    if not 0 < lam0 <= 1:
        raise ConfigurationError(f"lambda_baseline must be in (0, 1], got {lam0}")
    rows = raw.get("custom_scenarios", [])
    if not isinstance(rows, list):
        raise ConfigurationError("'custom_scenarios' must be an array")
    unknown_fields("", raw, {"inputs", "lambda_baseline", "custom_scenarios"})
    scenarios = tuple(reference_row(i, row, lam0) for i, row in enumerate(rows))
    seen = {"C1", "C2", "C3"}
    for i, s in enumerate(scenarios):
        if s.id in seen:
            raise ConfigurationError(
                f"custom_scenarios[{i}].id {s.id!r} is taken (C1-C3 are built in)"
            )
        seen.add(s.id)
    return ScenarioConfig(inputs, lam0, scenarios)


def read(parse, raw):
    """``parse``'s config of ``raw``, or the message ``read_json`` gives for
    what it raises."""
    try:
        return parse(raw)
    except KeyError as exc:
        return f"missing field {exc}"
    except (ConfigurationError, TypeError, ValueError, OverflowError) as exc:
        return str(exc)


RAW_INPUTS = {
    "trade_gap_vs_synthetic_1972": 530, "trade_with_us_1958": 1122.0,
    "synthetic_export_excess_1972": 244, "gdp_1958": 3105.0,
}
MISSING = object()
#: (object, field, value): a field of the top level, of ``inputs`` or of one
#: custom scenario replaced by a value, or left out if MISSING; "row" replaces
#: the custom scenario itself.  Most are invalid.
CHANGES = [
    ("scenario", "delta_lambda", "0.2"), ("scenario", "delta_lambda", True),
    ("scenario", "delta_lambda", None), ("scenario", "delta_lambda", -0.1),
    ("scenario", "delta_lambda", 0), ("scenario", "delta_lambda", 0.554),
    ("scenario", "delta_lambda", 0.6), ("scenario", "delta_lambda", 10**400),
    ("scenario", "delta_lambda", MISSING),
    ("scenario", "id", 5), ("scenario", "id", None), ("scenario", "id", "C2"),
    ("scenario", "id", "s0"), ("scenario", "id", "s1"), ("scenario", "id", ""),
    ("scenario", "id", MISSING),
    ("scenario", "description", 1), ("scenario", "description", None),
    ("scenario", "description", "x"), ("scenario", "desc", "x"),
    ("row", None, None), ("row", None, "x"), ("row", None, ["x", 0.1]), ("row", None, 5),
    ("inputs", "gdp_1958", 0), ("inputs", "gdp_1958", "3105"), ("inputs", "gdp_1958", MISSING),
    ("inputs", "trade_with_us_1958", -1), ("inputs", "trade_with_us_1958", 10**400),
    ("inputs", "gdp", 1),
    ("top", "lambda_baseline", "0.554"), ("top", "lambda_baseline", True),
    ("top", "lambda_baseline", 0.05), ("top", "lambda_baseline", 1), ("top", "lambda_baseline", 0),
    ("top", "lambda_baseline", 5), ("top", "lambda_baseline", -0.5),
    ("top", "lambda_baseline", 10**400), ("top", "lambda_baseline", MISSING),
    ("top", "custom_scenarios", None), ("top", "custom_scenarios", {"id": "x"}),
    ("top", "custom_scenarios", "ab"), ("top", "custom_scenarios", MISSING),
    ("top", "lambda_basline", 0.6), ("top", "custom_scenario", []),
    ("top", "inputs", [1, 2, 3, 4]), ("top", "inputs", None), ("top", "inputs", MISSING),
]


@st.composite
def config_json(draw):
    """A valid config with one or two fields changed by ``CHANGES``."""
    scenarios = [
        {"id": f"s{i}", "delta_lambda": draw(st.floats(0, 0.5) | st.integers(0, 0))}
        for i in range(draw(st.integers(0, 4)))
    ]
    for scenario in scenarios:
        if draw(st.booleans()):
            scenario["description"] = draw(st.text(max_size=3))
    raw = {"inputs": dict(RAW_INPUTS), "custom_scenarios": scenarios}
    if draw(st.booleans()):
        raw["lambda_baseline"] = draw(st.floats(0.5, 0.7))
    for _ in range(draw(st.integers(1, 2))):
        where, field, value = draw(st.sampled_from(CHANGES))
        rows = raw.get("custom_scenarios")
        if where in ("scenario", "row") and isinstance(rows, list):
            if not rows:
                rows.append({"id": "s9", "delta_lambda": 0.1})
            i = draw(st.integers(0, len(rows) - 1))
            if where == "row":
                rows[i] = value
                continue
            target = rows[i]
        else:
            target = raw if where == "top" else raw.get(where)
        if not isinstance(target, dict):  # an earlier change replaced it
            continue
        if value is MISSING:
            target.pop(field, None)
        else:
            target[field] = value
    return raw


@settings(max_examples=300, deadline=None)
@given(config_json())
@example({"inputs": RAW_INPUTS, "custom_scenarios": [
    {"id": "a", "delta_lambda": 0.1}, {"id": "a", "delta_lambda": 0.1},
    {"id": "b", "delta_lambda": "0.2"},
]})
@example({"inputs": RAW_INPUTS, "lambda_basline": 0.6,
          "custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "desc": ""}]})
@example({"inputs": RAW_INPUTS, "custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "desc": ""},
                                                      {"id": "y", "delta_lambda": 0.6}]})
def test_config_read_is_the_reference_read(raw):
    """The one-pass read loads the config the reference loads, column for
    column, or raises the same message."""
    raw = json.loads(json.dumps(raw))
    loaded = read(_config_from_json, raw)
    reference = read(reference_config, raw)
    assert loaded == reference
    if not isinstance(loaded, str):  # each value of the same type, too
        assert repr(loaded) == repr(reference)
