import dataclasses
import json
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ElasticityModel,
    ElasticityRegistry,
    FormKind,
    feyrer_elasticity,
    implied_point_elasticity,
    load_registry,
    seed_registry,
    steady_state_semi_elasticity,
)
from tradegap.elasticities import _registry_from_json
from tradegap.errors import number, string


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
    with pytest.raises(DataValidationError, match="^alpha1 must be a finite number, got nan$"):
        steady_state_semi_elasticity(math.nan, 1.0)
    for alpha2 in (math.nan, math.inf):
        message = f"^alpha2 must be a finite number, got {alpha2}$"
        with pytest.raises(DataValidationError, match=message):
            steady_state_semi_elasticity(-0.04, alpha2)


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
    with pytest.raises(DataValidationError, match="^elasticity undefined for beta >= 1, got 1.0$"):
        feyrer_elasticity(1.0)
    for beta in (math.nan, -math.inf):  # beta / (1 - beta) is nan at -inf
        message = f"^beta must be a finite number, got {beta}$"
        with pytest.raises(DataValidationError, match=message):
            feyrer_elasticity(beta)


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
def test_feyrer_strictly_increasing(a, b):
    if a < b:
        assert feyrer_elasticity(a) < feyrer_elasticity(b)


def test_implied_point_elasticity():
    assert implied_point_elasticity(0.41, 0.55) == 0.2255
    assert implied_point_elasticity(1.04, 0.55) == pytest.approx(0.572)
    assert implied_point_elasticity(0.7, 1.0) == 0.7
    with pytest.raises(DataValidationError, match=r"out of domain .*: 0\.0$"):
        implied_point_elasticity(0.41, 0.0)
    with pytest.raises(DataValidationError, match="^openness share lam must be a finite number"):
        implied_point_elasticity(0.41, math.nan)
    for s in (math.nan, math.inf):
        with pytest.raises(DataValidationError, match="^semi-elasticity must be a finite number"):
            implied_point_elasticity(s, 0.5)


@given(st.floats(0.01, 3.0), st.floats(0.01, 2.0), st.floats(0.1, 5.0))
def test_implied_point_elasticity_linear(s, lam, k):
    assert implied_point_elasticity(k * s, lam) == pytest.approx(
        k * implied_point_elasticity(s, lam), rel=1e-12
    )


# ---------------------------------------------------------------- model rows

GROWTH_FORM = FormKind.GROWTH_WITH_CONVERGENCE
LOG_LINEAR = FormKind.LOG_LINEAR_LEVEL
LOG_LOG = FormKind.LOG_LOG_LEVEL


def test_growth_form_requires_negative_alpha1():
    for alpha1 in (0.1, 0.0):
        with pytest.raises(DataValidationError, match="no stable steady state"):
            ElasticityModel("m", GROWTH_FORM, (alpha1, 0.018))


def test_level_coefficient_reduction():
    assert ElasticityModel("m", LOG_LINEAR, 1.04).level_coefficient() == 1.04
    assert ElasticityModel("m", LOG_LOG, 1.23).level_coefficient() == 1.23
    assert ElasticityModel("m", GROWTH_FORM, (-0.5, 1.0)).level_coefficient() == 2.0


def test_finite_horizon_needs_epsilon():
    with pytest.raises(DataValidationError, match="short_run_epsilon"):
        ElasticityModel(name="m", form=LOG_LINEAR, coefficient=0.5, years=12)
    for epsilon, shown in ((math.nan, "nan"), (math.inf, "inf"), (True, "True"),
                           ("0.018", "'0.018'"), (10**400, "an int of 1329 bits")):
        message = f"model 'm': short_run_epsilon must be a finite number, got {shown}"
        with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
            ElasticityModel("m", LOG_LINEAR, 0.5, 12, epsilon)


def test_model_needs_a_name():
    with pytest.raises(DataValidationError, match="^model name must be non-empty$"):
        ElasticityModel("", LOG_LINEAR, 0.5)


def test_horizon_validation():
    for years, message in ((0, "years >= 1"), (-1, "years >= 1"), (10**400, "beyond float range")):
        with pytest.raises(DataValidationError, match=message):
            ElasticityModel("m", LOG_LINEAR, 0.5, years, 0.018)


PAIR = "coefficient of a growth_with_convergence form must be the pair (alpha1, alpha2)"


@pytest.mark.parametrize(
    "form,coefficient,message",
    [
        # a growth coefficient that is not the pair (alpha1, alpha2)
        (GROWTH_FORM, -0.5, f"model 'm': {PAIR}, got -0.5"),
        (GROWTH_FORM, (-0.5,), f"model 'm': {PAIR}, got (-0.5,)"),
        (GROWTH_FORM, (-0.5, 1.0, 0.0), f"model 'm': {PAIR}, got (-0.5, 1.0, 0.0)"),
        (GROWTH_FORM, [-0.5, 1.0], f"model 'm': {PAIR}, got [-0.5, 1.0]"),
        # a level form given a pair
        (LOG_LINEAR, (-0.5, 1.0),
         "model 'm': coefficient must be a finite number, got (-0.5, 1.0)"),
        (LOG_LOG, (1.0, 1.0), "model 'm': coefficient must be a finite number, got (1.0, 1.0)"),
        (LOG_LOG, (1.0, 1.0, 1.0),
         "model 'm': coefficient must be a finite number, got (1.0, 1.0, 1.0)"),
        # alpha1 >= 0
        (GROWTH_FORM, (0.5, 1.0),
         "model 'm': no stable steady state: convergence coefficient must be negative, got 0.5"),
        # a form that is not a FormKind, though it names one
        ("log_linear_level", 0.5, "model 'm': unknown functional form 'log_linear_level'"),
        # a level coefficient that is not a number
        (LOG_LINEAR, "0.5", "model 'm': coefficient must be a finite number, got '0.5'"),
        (LOG_LINEAR, "abc", "model 'm': coefficient must be a finite number, got 'abc'"),
        (LOG_LOG, True, "model 'm': coefficient must be a finite number, got True"),
        # an entry that is not a finite number
        (GROWTH_FORM, ("a", 1.0), "model 'm': alpha1 must be a finite number, got 'a'"),
        (GROWTH_FORM, (-0.04, math.nan), "model 'm': alpha2 must be a finite number, got nan"),
        (GROWTH_FORM, (-math.inf, 1.0), "model 'm': alpha1 must be a finite number, got -inf"),
        (GROWTH_FORM, (-0.04, True), "model 'm': alpha2 must be a finite number, got True"),
        (LOG_LINEAR, math.nan, "model 'm': coefficient must be a finite number, got nan"),
        (LOG_LOG, -math.inf, "model 'm': coefficient must be a finite number, got -inf"),
    ],
)
def test_model_coefficient_fits_its_form(form, coefficient, message):
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        ElasticityModel("m", form, coefficient)


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
    assert (y.form, y.coefficient, y.years) == (LOG_LINEAR, 0.41, 12)
    # Raghutla's point estimate, not the two-decimal display value: the
    # display 0.19 overstates the C3 effect beyond the published grid
    assert registry.get("raghutla").coefficient == 0.186
    assert registry.get("sala_i_martin").coefficient == 1.04
    assert registry.get("frankel_romer").coefficient == 1.97
    assert registry.get("alcala_ciccone").coefficient == 1.23
    # Feyrer stored at full conversion precision; displays as 1.26
    assert registry.get("feyrer").coefficient == 0.558 / (1 - 0.558)
    assert [m.form for m in registry] == [LOG_LINEAR, LOG_LOG, LOG_LINEAR, LOG_LINEAR, LOG_LOG, LOG_LOG]
    assert [m.years for m in registry] == [12, None, None, None, None, None]


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
    # True == 1 == 1.0, but neither is version 1
    for version, shown in (("99", "99"), ("true", "True"), ("1.0", "1.0")):
        p.write_text(f'{{"schema_version": {version}, "models": []}}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match=f"unsupported schema_version {shown}$"):
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
        ({**STEADY, "name": ""}, "models[1]: model name must be non-empty"),
        ({**GROWTH, "coefficient": 1.0},
         "models[1].coefficient of a growth form must be {alpha1, alpha2}"),
        ({**GROWTH, "coefficient": {"alpha1": "-0.5", "alpha2": 1}},
         "models[1].coefficient.alpha1 must be a finite number, got '-0.5'"),
        ({**GROWTH, "coefficient": {"alpha1": -0.5, "alpha2": "1"}},
         "models[1].coefficient.alpha2 must be a finite number, got '1'"),
        ({**STEADY, "coefficient": "1.0"},
         "models[1].coefficient must be a finite number, got '1.0'"),
        ({**STEADY, "coefficient": True},
         "models[1].coefficient must be a finite number, got True"),
        ({**STEADY, "coefficient": 10**400},
         "models[1].coefficient must be a finite number, got an int of 1329 bits"),
        ({**FINITE, "short_run_epsilon": "0.02"},
         "models[1].short_run_epsilon must be a finite number, got '0.02'"),
        ({**STEADY, "horizon": "steady_state"},
         "models[1].horizon must be an object with a 'kind': 'steady_state'"),
        ({**STEADY, "horizon": {"kind": "decadal"}},
         "models[1].horizon.kind: unknown horizon kind 'decadal'"),
        (horizon("finite", years=12.7), "models[1].horizon.years must be a whole number, got 12.7"),
        (horizon("finite", years=True), "models[1].horizon.years must be a whole number, got True"),
        (horizon("finite", years="12"), "models[1].horizon.years must be a whole number, got '12'"),
        (horizon("finite"), "models[1]: finite horizon requires years >= 1"),
        (horizon("steady_state", years=40), "models[1]: steady-state horizon takes no years"),
        ({**STEADY, "name": 5}, "models[1].name must be a string, got 5"),
        ({**STEADY, "source_note": ["a"]}, "models[1].source_note must be a string, got ['a']"),
        ({**STEADY, "form": "quadratic"}, "models[1].form: unknown functional form 'quadratic'"),
        ({**GROWTH, "coefficient": {"alpha1": 0.5, "alpha2": 1}},
         "models[1]: no stable steady state"),
        ({**STEADY, "notes": "x"}, "models[1]: unknown field 'notes'"),
        ({**STEADY, "horizon": {"kind": "steady_state", "yeras": 12}},
         "models[1].horizon: unknown field 'yeras'"),
        ({**GROWTH, "coefficient": {"alpha1": -0.5, "alpha2": 1, "alpha3": 0}},
         "models[1].coefficient: unknown field 'alpha3'"),
        # a model's own checks come before its unknown fields
        ({**STEADY, "notes": "x", "coefficient": "1"},
         "models[1].coefficient must be a finite number, got '1'"),
    ],
)
def test_registry_reads_each_field_as_written(tmp_path, model, message):
    """Each error names the bad field by its JSON path."""
    reg = write_registry(tmp_path / "r.json", [{**STEADY, "name": "ok"}, model])
    with pytest.raises(ConfigurationError, match=r"r\.json: " + re.escape(message)):
        load_registry(reg)


def test_registry_structure_errors(tmp_path):
    reg = tmp_path / "r.json"
    for models in ("{}", "null", '"abc"'):
        reg.write_text(f'{{"schema_version": 1, "models": {models}}}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="'models' must be an array"):
            load_registry(reg)
    # the top level's unknown fields come after its own, before any model's
    reg.write_text('{"schema_version": 1, "model": [], "models": {}}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="'models' must be an array"):
        load_registry(reg)
    reg.write_text('{"schema_version": 1, "models": [{}], "model": []}', encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"r\.json: unknown field 'model'"):
        load_registry(reg)
    missing = {key: value for key, value in STEADY.items() if key != "horizon"}
    with pytest.raises(ConfigurationError, match=re.escape("models[0] missing field 'horizon'")):
        load_registry(write_registry(reg, [missing]))


def test_row_errors_come_before_duplicate_names(tmp_path):
    models = [{**STEADY, "name": "a"}, {**STEADY, "name": "a"}, {**STEADY, "coefficient": "x"}]
    message = "models[2].coefficient must be a finite number, got 'x'"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_registry(write_registry(tmp_path / "r.json", models))


def test_registry_is_never_empty(tmp_path):
    with pytest.raises(ConfigurationError, match="empty selection: no models in registry"):
        ElasticityRegistry([])
    reg = write_registry(tmp_path / "r.json", [])
    with pytest.raises(ConfigurationError, match=r"r\.json: empty selection: no models"):
        load_registry(reg)


def test_registry_reads_whole_float_years_as_int(tmp_path):
    registry = load_registry(write_registry(tmp_path / "r.json", [horizon("finite", years=12.0)]))
    assert type(registry.get("x").years) is int and registry.get("x").years == 12


def test_registry_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_registry("/no/such/registry.json")


def test_seed_registry_is_parsed_once_and_frozen():
    a = seed_registry()
    assert seed_registry() is a
    assert all(type(getattr(a, f.name)) is tuple for f in dataclasses.fields(a))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.names = ("x",)


def test_registry_columns_round_trip_its_models(registry):
    assert ElasticityRegistry(seed_registry()) == seed_registry()
    assert tuple(ElasticityRegistry(registry)) == tuple(registry)
    assert registry.get("feyrer") == tuple(registry)[-1]


def test_registry_columns_round_trip_a_growth_row(tmp_path):
    """A growth row's coefficient is its (alpha1, alpha2) column; its level,
    the steady-state semi-elasticity, is the levels column."""
    growth = {**FINITE, "form": "growth_with_convergence",
              "coefficient": {"alpha1": -0.5, "alpha2": 1.0}}
    loaded = load_registry(write_registry(tmp_path / "r.json", [growth]))
    model = ElasticityModel("x", GROWTH_FORM, (-0.5, 1.0), 12, 0.02)
    assert tuple(loaded) == (model,) and ElasticityRegistry([model]) == loaded
    assert (loaded.levels, loaded.alphas) == ((2.0,), ((-0.5, 1.0),))
    assert dataclasses.replace(model, years=6).years == 6


# ------------------------------------------- the read against a reference read

numbers = st.one_of(st.floats(-3, 3), st.integers(-3, 3))


@st.composite
def valid_models(draw):
    form = draw(st.sampled_from(["log_linear_level", "log_log_level", "growth_with_convergence"]))
    finite = draw(st.booleans())
    model = {
        "form": form,
        "coefficient": (
            {"alpha1": draw(st.floats(-0.1, -1e-3)), "alpha2": draw(numbers)}
            if form == "growth_with_convergence" else draw(numbers)
        ),
        "horizon": (
            {"kind": "finite", "years": draw(st.integers(1, 40) | st.sampled_from([12.0, 1e300]))}
            if finite else {"kind": "steady_state"}
        ),
    }
    if finite or draw(st.booleans()):
        model["short_run_epsilon"] = draw(numbers)
    if draw(st.booleans()):
        model["source_note"] = draw(st.text(max_size=3))
    return model


MISSING = object()
#: (field, value): a model's field replaced by a value, or left out if MISSING.
#: Most are invalid; a few are valid for one form or horizon and not the other.
CHANGES = [
    ("name", ""), ("name", 5), ("name", None), ("name", "m0"), ("name", MISSING),
    ("form", "cubic"), ("form", 3), ("form", ["x"]), ("form", {"x": 1}), ("form", None),
    ("form", True), ("form", MISSING),
    ("coefficient", True), ("coefficient", "1.0"), ("coefficient", None),
    ("coefficient", 10**400), ("coefficient", 0.4), ("coefficient", MISSING),
    ("coefficient", [-0.04, 0.01]), ("coefficient", {"alpha1": -0.04}),
    ("coefficient", {"alpha1": -0.04, "alpha2": 0.01}),
    ("coefficient", {"alpha1": 0, "alpha2": 0.01}),
    ("coefficient", {"alpha1": -0.0, "alpha2": 0.01}),
    ("coefficient", {"alpha1": 0.5, "alpha2": 0.01}),
    ("coefficient", {"alpha1": True, "alpha2": 0.01}),
    ("coefficient", {"alpha1": -0.04, "alpha2": "1"}),
    ("coefficient", {"alpha1": -1e-300, "alpha2": 1e300}),
    ("horizon", {"kind": "finite", "years": 12}), ("horizon", {"kind": "finite"}),
    *(("horizon", {"kind": "finite", "years": n}) for n in (0, -1, 12.5, 10**400, True, "12")),
    ("horizon", {"kind": "steady_state", "years": 12}), ("horizon", {"kind": "decadal"}),
    ("horizon", {"kind": ["finite"]}), ("horizon", {"kind": {}}), ("horizon", {"years": 12}),
    ("horizon", "steady_state"), ("horizon", None), ("horizon", []), ("horizon", MISSING),
    ("short_run_epsilon", "0.02"), ("short_run_epsilon", True), ("short_run_epsilon", None),
    ("short_run_epsilon", 10**400), ("short_run_epsilon", MISSING),
    ("source_note", 5), ("source_note", None), ("source_note", ["a"]),
    ("notes", "x"), ("horizon", {"kind": "steady_state", "yeras": 12}),
    ("horizon", {"kind": "finite", "years": 12, "yeras": 12}),
    ("coefficient", {"alpha1": -0.04, "alpha2": 0.01, "alpha3": 0}),
    ("row", None), ("row", "x"), ("row", [1]),
]


@st.composite
def registry_json(draw):
    """1-5 valid models, mostly with one or two fields of one model changed
    by ``CHANGES``."""
    models = draw(st.lists(valid_models(), min_size=1, max_size=5))
    for i, model in enumerate(models):
        model["name"] = f"m{i}"
    i = draw(st.integers(0, len(models) - 1))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        field, value = draw(st.sampled_from(CHANGES))
        if field == "row":
            models[i] = value
        elif not isinstance(models[i], dict):  # an earlier change replaced it
            continue
        elif value is MISSING:
            models[i].pop(field, None)
        else:
            models[i][field] = value
    return models


def read(parse, models):
    """``parse``'s registry of ``models``, or the message it raises."""
    try:
        return parse(models)
    except ConfigurationError as exc:
        return str(exc)


# The reference: the registry read one model object at a time through the
# constructors, as it was before the one-pass reader, extended to reject
# unknown fields after each model's other checks.

def reference_form(kind, coefficient):
    try:
        k = FormKind(kind)
    except ValueError:
        raise ConfigurationError(f"form: unknown functional form {kind!r}") from None
    if k is FormKind.GROWTH_WITH_CONVERGENCE:
        if not isinstance(coefficient, dict):
            raise ConfigurationError("coefficient of a growth form must be {alpha1, alpha2}")
        alphas = (
            number(coefficient["alpha1"], "coefficient.alpha1"),
            number(coefficient["alpha2"], "coefficient.alpha2"),
        )
        steady_state_semi_elasticity(*alphas)  # its steady state, checked before the horizon
        return k, alphas
    return k, number(coefficient, "coefficient")


def reference_years(obj):
    """The horizon's years, checked before the fields after it."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError(f"horizon must be an object with a 'kind': {obj!r}")
    if obj["kind"] not in ("finite", "steady_state"):
        raise ConfigurationError(f"horizon.kind: unknown horizon kind {obj['kind']!r}")
    years = obj.get("years")
    if type(years) in (int, float):
        number(years, "horizon.years")  # nan, inf and an int beyond float range
    if years is not None and (type(years) not in (int, float) or int(years) != years):
        raise ConfigurationError(f"horizon.years must be a whole number, got {years!r}")
    if obj["kind"] == "finite":
        if years is None or years < 1:
            raise DataValidationError("finite horizon requires years >= 1")
        if years > sys.float_info.max:
            raise DataValidationError("years beyond float range")
    elif years is not None:
        raise DataValidationError("steady-state horizon takes no years")
    return None if years is None else int(years)


def reference_model(i, row):
    try:
        name = string(row["name"], "name")
        form, coefficient = reference_form(row["form"], row.get("coefficient"))
        model = ElasticityModel(
            name=name,
            form=form,
            coefficient=coefficient,
            years=reference_years(row["horizon"]),
            short_run_epsilon=(
                None if row.get("short_run_epsilon") is None
                else number(row["short_run_epsilon"], "short_run_epsilon")
            ),
            source_note=string(row.get("source_note", ""), "source_note"),
        )
    except KeyError as exc:
        raise ConfigurationError(f"models[{i}] missing field {exc}") from None
    except ConfigurationError as exc:
        raise ConfigurationError(f"models[{i}].{exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"models[{i}]: {exc}") from None
    objects = [
        (f"models[{i}].horizon", row["horizon"], {"kind", "years"}),
        (f"models[{i}]", row, {
            "name", "form", "coefficient", "horizon", "short_run_epsilon", "source_note",
        }),
    ]
    if model.form is FormKind.GROWTH_WITH_CONVERGENCE:
        objects.insert(0, (f"models[{i}].coefficient", row["coefficient"], {"alpha1", "alpha2"}))
    for path, obj, fields in objects:
        unknown = [key for key in obj if key not in fields]
        if unknown:
            raise ConfigurationError(f"{path}: unknown field {unknown[0]!r}")
    return model


def reference_read(models):
    return ElasticityRegistry([reference_model(i, row) for i, row in enumerate(models)])


@settings(max_examples=300, deadline=None)
@given(registry_json())
@example([])
@example([{**STEADY, "name": "a"}, {**FINITE, "name": "a"}])
@example([{**STEADY, "horizon": {"kind": "steady_state", "years": 12}}])
@example([{**FINITE, "short_run_epsilon": None}])
@example([horizon("finite", years=12.5)])
@example([{**STEADY, "name": "a"}, {**STEADY, "name": "a"}, {**STEADY, "coefficient": "x"}])
@example([{**FINITE, "horizon": {"kind": "decadal"}, "short_run_epsilon": "0.02"}])
def test_read_is_the_reference_read(models):
    """The one-pass read loads the registry the reference loads, field for
    field, or raises the same message."""
    models = json.loads(json.dumps(models))
    loaded = read(lambda rows: _registry_from_json({"schema_version": 1, "models": rows}), models)
    reference = read(reference_read, models)
    assert loaded == reference
    if not isinstance(loaded, str):  # each value of the same type, too
        assert repr(loaded) == repr(reference)
        assert tuple(loaded) == tuple(reference)
