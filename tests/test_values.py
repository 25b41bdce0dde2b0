"""The contract every public value class keeps: fields in order, the
``dataclasses`` helpers, equality and hashing, frozen attributes, the repr,
copies and pickles, the signature, and argument errors."""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from tradegap import (
    DataValidationError,
    DecompositionResult,
    ElasticityModel,
    ElasticityRegistry,
    FormKind,
    GapDenominator,
    GdpSeries,
    GrowthEffect,
    Observation,
    ResultTable,
    ScenarioConfig,
    ShockInputs,
    TradeShockScenario,
    build_grid,
    custom_scenario,
    default_scenario_config,
)
from tradegap.decomposition import GapKind

MODEL = ElasticityModel("m", FormKind.LOG_LINEAR_LEVEL, 0.5, None, None, "note")
INPUTS = ShockInputs(530.0, 1122.0, 244.0, 3105.0)
SERIES = (Observation(2023, 1.0), Observation(2024, 2.0, "wdi"))

#: (class, positional arguments, field names, repr, parameter names of the
#: class's signature, a replace() that breaks a check and its message or
#: None).  Replace cannot rebuild the registry, whose ``levels`` are derived
#: from its models.
CASES = [
    (GapDenominator, (GapKind.EXPLICIT, 1.0), ("kind", "log_points"),
     "GapDenominator(kind=<GapKind.EXPLICIT: 'explicit'>, log_points=1.0)", None, None),
    (DecompositionResult, (0.25,), ("theta",), "DecompositionResult(theta=0.25)", None,
     ({"theta": math.inf}, "embargo share theta must be a finite number, got inf")),
    (GrowthEffect, (0.0, 0.0, "C1"), ("log_points", "relative_level", "scenario_id"),
     "GrowthEffect(log_points=0.0, relative_level=0.0, scenario_id='C1')", None,
     ({"relative_level": math.inf}, "C1: relative_level must be a finite number, got inf")),
    (ElasticityModel, (MODEL.name, MODEL.form, 0.5, None, None, "note"),
     ("name", "form", "coefficient", "years", "short_run_epsilon", "source_note"),
     "ElasticityModel(name='m', form=<FormKind.LOG_LINEAR_LEVEL: 'log_linear_level'>, "
     "coefficient=0.5, years=None, short_run_epsilon=None, source_note='note')", None,
     ({"years": 0}, "finite horizon requires years >= 1")),
    (ElasticityRegistry, ([MODEL],), ("models", "levels"),
     f"ElasticityRegistry(models=({MODEL!r},), levels=(0.5,))", ("models",), None),
    (ShockInputs, (530.0, 1122.0, 244.0, 3105.0),
     ("trade_gap_vs_synthetic_1972", "trade_with_us_1958", "synthetic_export_excess_1972",
      "gdp_1958"),
     "ShockInputs(trade_gap_vs_synthetic_1972=530.0, trade_with_us_1958=1122.0, "
     "synthetic_export_excess_1972=244.0, gdp_1958=3105.0)", None,
     ({"gdp_1958": 0.0}, "gdp_1958 must be positive, got 0.0")),
    (TradeShockScenario, ("X", 0.1, 0.5, "d"),
     ("id", "delta_lambda", "lambda_baseline", "description"),
     "TradeShockScenario(id='X', delta_lambda=0.1, lambda_baseline=0.5, description='d')", None,
     ({"delta_lambda": -1.0}, "X: delta_lambda must be non-negative")),
    (ScenarioConfig, (INPUTS, 0.5, (TradeShockScenario("X", 0.1, 0.5, "d"),)),
     ("inputs", "lambda_baseline", "custom_scenarios"),
     f"ScenarioConfig(inputs={INPUTS!r}, lambda_baseline=0.5, custom_scenarios="
     "(TradeShockScenario(id='X', delta_lambda=0.1, lambda_baseline=0.5, description='d'),))",
     None, None),
    (Observation, (2024, 2.0, "wdi"), ("year", "value", "source_tag"),
     "Observation(year=2024, value=2.0, source_tag='wdi')", None, None),
    (GdpSeries, (SERIES, "s"), ("observations", "label"),
     f"GdpSeries(observations={SERIES!r}, label='s')", None,
     ({"observations": ()}, "empty series 's'")),
    (ResultTable, ("cap", ("a", "b"), ((("x",), (1.0,)),), ("n",)),
     ("caption", "columns", "blocks", "footnotes"),
     "ResultTable(caption='cap', columns=('a', 'b'), blocks=((('x',), (1.0,)),), "
     "footnotes=('n',))", ("caption", "columns", "blocks", "footnotes", "rows"), None),
]
IDS = [case[0].__name__ for case in CASES]


def plain(value):
    """``value`` as ``dataclasses.asdict`` returns a field's value."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return tuple(map(plain, value)) if type(value) is tuple else value


@pytest.mark.parametrize("cls,args,names,text,params,bad", CASES, ids=IDS)
def test_value_class_contract(cls, args, names, text, params, bad):
    obj = cls(*args)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert tuple(f.name for f in dataclasses.fields(obj)) == names
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert dataclasses.asdict(obj) == {name: plain(getattr(obj, name)) for name in names}
    assert repr(obj) == text
    assert tuple(inspect.signature(cls).parameters) == (params or names)

    twin = cls(*args)
    assert twin == obj and hash(twin) == hash(obj) and not twin != obj
    assert obj.__eq__(tuple(getattr(obj, name) for name in names)) is NotImplemented
    for other_cls, other_args, *_ in CASES:
        if other_cls is not cls:
            assert obj != other_cls(*other_args)

    for name in (names[0], "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert getattr(obj, names[0]) == getattr(twin, names[0])

    copies = [copy.copy(obj), copy.deepcopy(obj)] + [
        pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is cls and other == obj and repr(other) == text

    if params is None or cls is ResultTable:
        assert dataclasses.replace(obj) == obj
        changed = dataclasses.replace(obj, **{names[-1]: args[-1]})
        assert changed == obj
    else:  # the constructor does not take the fields
        with pytest.raises(TypeError):
            dataclasses.replace(obj)
    if bad is not None:
        changes, message = bad
        with pytest.raises(DataValidationError) as raised:
            dataclasses.replace(obj, **changes)
        assert str(raised.value) == message


@pytest.mark.parametrize("cls,args,names,text,params,bad", CASES, ids=IDS)
def test_value_class_argument_errors(cls, args, names, text, params, bad):
    first = (params or names)[0]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError):
        cls(*args, *args)


@pytest.mark.parametrize("cls,args,names,text,params,bad", CASES, ids=IDS)
def test_value_class_takes_fields_by_name(cls, args, names, text, params, bad):
    keywords = dict(zip(params or names, args))
    assert cls(**keywords) == cls(*args)
    assert cls(args[0], **dict(list(keywords.items())[1:])) == cls(*args)


@pytest.mark.parametrize("cls,args,names,text,params,bad", CASES, ids=IDS)
def test_value_class_trailing_defaults(cls, args, names, text, params, bad):
    parameters = inspect.signature(cls).parameters.values()
    required = sum(p.default is p.empty for p in parameters)
    obj = cls(*args[:required])
    for p in parameters:
        if p.default is not p.empty and p.name in names:
            assert getattr(obj, p.name) == p.default


#: Each class that keeps a collection field as a tuple: a builder that takes
#: that field, and a tuple of items for it.
COLLECTIONS = [
    (lambda items: ScenarioConfig(INPUTS, 0.5, items),
     (TradeShockScenario("X", 0.1, 0.5, "d"), TradeShockScenario("Y", 0.2, 0.5))),
    (lambda items: GdpSeries(items, "s"), SERIES),
]


@pytest.mark.parametrize("build,items", COLLECTIONS, ids=["ScenarioConfig", "GdpSeries"])
@pytest.mark.parametrize("given", [list, lambda items: (item for item in items)],
                         ids=["list", "generator"])
def test_collection_field_is_kept_as_a_tuple(build, items, given):
    """A list or a generator gives the object a tuple gives: equal, with the
    same hash, and a generator is not consumed by the object's own checks."""
    obj, twin = build(given(items)), build(items)
    assert obj == twin and hash(obj) == hash(twin) and repr(obj) == repr(twin)


def test_generator_built_config_gives_the_tuple_built_grid():
    base = default_scenario_config()
    scenarios = (custom_scenario("S", 0.2, base.lambda_baseline),)
    built = ScenarioConfig(base.inputs, base.lambda_baseline, (s for s in scenarios))
    tupled = ScenarioConfig(base.inputs, base.lambda_baseline, scenarios)
    assert build_grid(config=built).rows == build_grid(config=tupled).rows
