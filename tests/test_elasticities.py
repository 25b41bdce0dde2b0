import math

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
    save_registry,
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


def test_registry_round_trip_bit_for_bit(registry, tmp_path):
    out = tmp_path / "registry.json"
    save_registry(registry, out)
    again = load_registry(out)
    assert again.entries == registry.entries  # dataclass equality covers floats bitwise


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


def test_registry_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_registry("/no/such/registry.json")


def test_seed_registry_is_fresh_each_call():
    a = seed_registry()
    b = seed_registry()
    assert a is not b and a.entries == b.entries
