import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ElasticityModel,
    ElasticityRegistry,
    FormKind,
    FunctionalForm,
    Horizon,
    feyrer_elasticity,
    implied_point_elasticity,
    load_registry,
    seed_registry,
    steady_state_semi_elasticity,
)


# ---------------------------------------------------------------- conversions

def test_steady_state_semi_elasticity_backsolved_for_long_run():
    # alpha1 back-solved so that -alpha2/alpha1 lands on the published 0.41
    assert steady_state_semi_elasticity(-0.0439, 0.018) == pytest.approx(0.41, abs=5e-3)


def test_steady_state_semi_elasticity_trivia():
    assert steady_state_semi_elasticity(-1.0, 0.0) == 0.0
    assert steady_state_semi_elasticity(-0.5, 1.0) == 2.0


def test_steady_state_requires_negative_convergence():
    with pytest.raises(DataValidationError, match="no stable steady state"):
        steady_state_semi_elasticity(0.0, 0.018)
    with pytest.raises(DataValidationError):
        steady_state_semi_elasticity(0.3, 0.018)


@given(
    alpha1=st.floats(-10.0, -1e-3),
    # subnormal alpha2 underflows to 0.0 on division, voiding the sign check
    alpha2=st.floats(-5.0, 5.0, allow_subnormal=False),
)
def test_steady_state_algebraic_identity(alpha1, alpha2):
    # s * alpha1 + alpha2 == 0 exactly: s = -alpha2/alpha1 and the product
    # (-alpha2/alpha1)*alpha1 rounds back to -alpha2 is not guaranteed bitwise,
    # so check the identity the way it is algebraically stated
    s = steady_state_semi_elasticity(alpha1, alpha2)
    assert s * alpha1 + alpha2 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(alpha2)))
    if alpha2 > 0:
        assert s > 0


def test_feyrer_conversion_published_value():
    assert feyrer_elasticity(0.558) == pytest.approx(1.2624, abs=1e-4)


def test_feyrer_trivia_and_domain():
    assert feyrer_elasticity(0.0) == 0.0
    assert feyrer_elasticity(0.5) == 1.0
    with pytest.raises(DataValidationError, match="undefined"):
        feyrer_elasticity(1.0)


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
def test_feyrer_strictly_increasing(a, b):
    if a < b:
        assert feyrer_elasticity(a) < feyrer_elasticity(b)


def test_implied_point_elasticity():
    assert implied_point_elasticity(0.41, 0.55) == 0.2255
    assert implied_point_elasticity(1.04, 0.55) == pytest.approx(0.572)
    assert implied_point_elasticity(0.7, 1.0) == 0.7
    with pytest.raises(DataValidationError):
        implied_point_elasticity(0.41, 0.0)


@given(st.floats(0.01, 3.0), st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_implied_point_elasticity_linear(s, lam, k):
    assert implied_point_elasticity(k * s, lam) == pytest.approx(
        k * implied_point_elasticity(s, lam), rel=1e-12
    )


# ---------------------------------------------------------------- form types

def test_growth_form_requires_negative_alpha1():
    with pytest.raises(DataValidationError):
        FunctionalForm.growth_with_convergence(0.1, 0.018)


def test_level_coefficient_reduction():
    assert FunctionalForm.log_linear(1.04).level_coefficient() == 1.04
    assert FunctionalForm.log_log(1.23).level_coefficient() == 1.23
    growth = FunctionalForm.growth_with_convergence(-0.5, 1.0)
    assert growth.level_coefficient() == 2.0


def test_finite_horizon_needs_epsilon():
    with pytest.raises(DataValidationError, match="short_run_epsilon"):
        ElasticityModel(
            name="m", form=FunctionalForm.log_linear(0.5), horizon=Horizon.finite(12)
        )


def test_horizon_validation():
    with pytest.raises(DataValidationError):
        Horizon.finite(0)


@pytest.mark.parametrize(
    "kind,coefficients,message",
    [
        (FormKind.GROWTH_WITH_CONVERGENCE, {"alpha1": -0.5}, "requires alpha1 and alpha2"),
        (FormKind.GROWTH_WITH_CONVERGENCE, {"alpha2": 1.0}, "requires alpha1 and alpha2"),
        (FormKind.GROWTH_WITH_CONVERGENCE, {"alpha1": -0.5, "alpha2": 1.0, "s": 1.0}, "no level"),
        (FormKind.GROWTH_WITH_CONVERGENCE, {"alpha1": -0.5, "alpha2": 1.0, "e": 1.0}, "no level"),
        (FormKind.LOG_LINEAR_LEVEL, {}, "exactly one coefficient s"),
        (FormKind.LOG_LINEAR_LEVEL, {"s": 1.0, "e": 1.0}, "exactly one coefficient s"),
        (FormKind.LOG_LINEAR_LEVEL, {"s": 1.0, "alpha1": -0.5}, "exactly one coefficient s"),
        (FormKind.LOG_LOG_LEVEL, {"s": 1.0}, "exactly one coefficient e"),
        (FormKind.LOG_LOG_LEVEL, {"e": 1.0, "alpha2": 1.0}, "exactly one coefficient e"),
    ],
)
def test_form_takes_exactly_its_coefficients(kind, coefficients, message):
    with pytest.raises(DataValidationError, match=message):
        FunctionalForm(kind, **coefficients)


# ------------------------------------------------------------------ registry

def test_seed_registry_contents(registry):
    assert [m.name for m in registry] == [
        "yanikkaya",
        "raghutla",
        "sala_i_martin",
        "frankel_romer",
        "alcala_ciccone",
        "feyrer",
    ]
    y = registry.get("yanikkaya")
    assert y.short_run_epsilon == 0.018
    assert y.form.s == 0.41
    assert y.horizon == Horizon.finite(12)
    # Raghutla's point estimate, not the two-decimal display value: the
    # display 0.19 overstates the C3 effect beyond the published grid
    assert registry.get("raghutla").form.e == 0.186
    assert registry.get("sala_i_martin").form.s == 1.04
    assert registry.get("frankel_romer").form.s == 1.97
    assert registry.get("alcala_ciccone").form.e == 1.23
    # Feyrer stored at full conversion precision; displays as 1.26
    assert registry.get("feyrer").form.e == 0.558 / (1 - 0.558)
    assert all(m.form.kind is not FormKind.GROWTH_WITH_CONVERGENCE for m in registry)


def test_registry_rejects_duplicates(registry):
    model = registry.get("feyrer")
    with pytest.raises(ConfigurationError, match="duplicate"):
        ElasticityRegistry([model, model])


def test_registry_lookup_failure(registry):
    with pytest.raises(ConfigurationError, match="no model named"):
        registry.get("does_not_exist")


def test_registry_schema_version_mandatory(tmp_path):
    p = tmp_path / "r.json"
    p.write_text('{"models": []}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="schema_version"):
        load_registry(p)
    p.write_text('{"schema_version": 99, "models": []}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unsupported"):
        load_registry(p)


def test_registry_bad_json_and_unknown_form(tmp_path):
    p = tmp_path / "r.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_registry(p)
    p.write_text(
        '{"schema_version": 1, "models": [{"name": "x", "form": "cubic",'
        ' "coefficient": 1.0, "horizon": {"kind": "steady_state"}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="unknown functional form"):
        load_registry(p)


STEADY = {
    "name": "x", "form": "log_linear_level", "coefficient": 1.0,
    "horizon": {"kind": "steady_state"},
}
FINITE = {**STEADY, "short_run_epsilon": 0.02, "horizon": {"kind": "finite", "years": 12}}
GROWTH = {**STEADY, "form": "growth_with_convergence"}


def horizon(kind, **years):
    """A model with a short_run_epsilon and the horizon ``{"kind": kind, **years}``."""
    return {**FINITE, "horizon": {"kind": kind, **years}}


def write_registry(path, models):
    path.write_text(json.dumps({"schema_version": 1, "models": models}), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "model,message",
    [
        ({**STEADY, "name": ""}, "model name must be non-empty"),
        ({**GROWTH, "coefficient": 1.0}, "growth form coefficient must be {alpha1, alpha2}"),
        ({**GROWTH, "coefficient": {"alpha1": "-0.5", "alpha2": 1}}, "alpha1 must be a number"),
        ({**GROWTH, "coefficient": {"alpha1": -0.5, "alpha2": "1"}}, "alpha2 must be a number"),
        ({**STEADY, "coefficient": "1.0"}, "coefficient for log_linear_level must be a number"),
        ({**STEADY, "coefficient": True}, "coefficient for log_linear_level must be a number"),
        ({**STEADY, "coefficient": 10**400}, "int too large to convert to float"),
        ({**FINITE, "short_run_epsilon": "0.02"}, "short_run_epsilon must be a number"),
        ({**STEADY, "horizon": "steady_state"}, "horizon must be an object with a 'kind'"),
        ({**STEADY, "horizon": {"kind": "decadal"}}, "unknown horizon kind 'decadal'"),
        (horizon("finite", years=12.7), "horizon years must be a whole number, got 12.7"),
        (horizon("finite", years=True), "horizon years must be a whole number, got True"),
        (horizon("finite", years="12"), "horizon years must be a whole number, got '12'"),
        (horizon("finite"), "finite horizon requires years >= 1"),
        (horizon("steady_state", years=40), "steady-state horizon takes no years"),
        ({**STEADY, "name": 5}, "name must be a string, got 5"),
        ({**STEADY, "source_note": ["a"]}, "source_note must be a string, got ['a']"),
        ({**GROWTH, "coefficient": {"alpha1": 0.5, "alpha2": 1}}, "no stable steady state"),
    ],
)
def test_registry_reads_each_field_as_written(tmp_path, model, message):
    reg = write_registry(tmp_path / "r.json", [{**STEADY, "name": "ok"}, model])
    with pytest.raises(ConfigurationError, match=r"r\.json: model #1: " + re.escape(message)):
        load_registry(reg)


def test_registry_structure_errors(tmp_path):
    reg = tmp_path / "r.json"
    reg.write_text('{"schema_version": 1, "models": {}}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'models' must be an array"):
        load_registry(reg)
    missing = {key: value for key, value in STEADY.items() if key != "horizon"}
    with pytest.raises(ConfigurationError, match="model #0 missing field 'horizon'"):
        load_registry(write_registry(reg, [missing]))


def test_registry_is_never_empty(tmp_path):
    with pytest.raises(ConfigurationError, match="empty selection: no models in registry"):
        ElasticityRegistry([])
    reg = write_registry(tmp_path / "r.json", [])
    with pytest.raises(ConfigurationError, match=r"r\.json: empty selection: no models"):
        load_registry(reg)


def test_registry_reads_whole_float_years_as_int(tmp_path):
    registry = load_registry(write_registry(tmp_path / "r.json", [horizon("finite", years=12.0)]))
    assert type(registry.get("x").horizon.years) is int
    assert registry.get("x").horizon == Horizon.finite(12)


def test_registry_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_registry("/no/such/registry.json")


def test_seed_registry_is_fresh_each_call():
    a = seed_registry()
    b = seed_registry()
    assert a is not b and a.entries == b.entries
