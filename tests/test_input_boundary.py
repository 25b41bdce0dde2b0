"""Every bad input ends in exit 2 (configuration) or 3 (data), never in a
traceback, a silently ignored flag or a non-finite table cell."""

import argparse
import contextlib
import csv
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
    DataValidationError,
    ElasticityModel,
    ElasticityRegistry,
    FunctionalForm,
    GdpSeries,
    GrowthEffect,
    Horizon,
    Observation,
    ScenarioConfig,
    ShockInputs,
    TradeShockScenario,
    build_grid,
    build_table2,
    build_table_a3,
    load_registry,
    load_scenario_config,
    load_series,
)
from tradegap.cli import _COMMANDS, _FLAGS, _build_parser, main

INPUTS = {
    "trade_gap_vs_synthetic_1972": 530,
    "trade_with_us_1958": 1122,
    "synthetic_export_excess_1972": 244,
    "gdp_1958": 3105,
}


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_series(path, *rows):
    path.write_text("year,value\n" + "".join(f"{y},{v}\n" for y, v in rows), encoding="utf-8")
    return str(path)


# ------------------------------------------------- flags a subcommand cannot use

IGNORED_FLAGS = [
    *(("replicate", flag, value) for flag, value in (
        ("--gap", "1"), ("--gap-synthetic", "s.csv"), ("--gap-historical", "h.csv"),
        ("--gap-year", "2024"),
    )),
    ("grid", "--lambda-baseline", "0.6"),
    *(("gap", flag, value) for flag, value in (
        ("--years", "5"), ("--gap", "1"), ("--gap-synthetic", "s.csv"),
        ("--gap-historical", "h.csv"), ("--gap-year", "2024"),
    )),
]


@pytest.mark.parametrize("command,flag,value", IGNORED_FLAGS)
def test_flag_the_builder_cannot_use_exits_2(command, flag, value):
    code, out, err = run_cli([command, flag, value])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_each_subcommand_registers_only_the_flags_it_reads():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [a.option_strings[0] for a in cmd._actions if a.option_strings[0] != "-h"]
        for name, cmd in sub.choices.items()
    }
    assert {name: len(flags) for name, flags in options.items()} == {
        "replicate": 5, "table2": 9, "table-a3": 9, "grid": 8, "gap": 4,
    }
    assert options["gap"] == ["--config", "--format", "--out", "--lambda-baseline"]


# ------------------------------------------------------------ non-finite numbers

@pytest.mark.parametrize("command", ["table2", "table-a3", "grid"])
@pytest.mark.parametrize("gap", ["nan", "inf", "800"])
def test_non_finite_gap_exits_2(command, gap):
    code, out, err = run_cli([command, "--gap", gap])
    assert (code, out) == (2, "")
    assert "gap denominator must be positive and finite" in err


def test_gap_too_small_for_a_finite_share_exits_3():
    code, out, err = run_cli(["table2", "--gap", "1e-320"])
    assert (code, out) == (3, "")
    assert "out of float range" in err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_series_rejects_non_finite_values(tmp_path, value):
    with pytest.raises(DataValidationError, match=r"syn\.csv:3: non-finite"):
        load_series(write_series(tmp_path / "syn.csv", (2023, 90), (2024, value)))
    hist = write_series(tmp_path / "hist.csv", (2023, 100), (2024, 100))
    code, out, err = run_cli([
        "table2", "--gap-synthetic", str(tmp_path / "syn.csv"),
        "--gap-historical", hist, "--gap-year", "2024",
    ])
    assert (code, out) == (3, "")
    assert "syn.csv:3" in err


@pytest.mark.parametrize(
    "body", [b"2024,\xff\n", b"2024," + b"9" * 200_000 + b"\n"], ids=["not-utf8", "huge-field"]
)
def test_unreadable_series_is_a_data_error(tmp_path, body):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"year,value\n" + body)
    with pytest.raises(DataValidationError, match=r"bad\.csv: unreadable CSV"):
        load_series(bad)


def test_one_field_series_row_exits_3_naming_the_line(tmp_path):
    syn = tmp_path / "syn.csv"
    syn.write_text("year,value\n2023,90\n2024\n", encoding="utf-8")
    hist = write_series(tmp_path / "hist.csv", (2023, 100), (2024, 100))
    code, out, err = run_cli([
        "table2", "--gap-synthetic", str(syn), "--gap-historical", hist, "--gap-year", "2024",
    ])
    assert (code, out) == (3, "")
    assert err == f"data error: {syn}:3: expected year,value[,source_tag]\n"


def test_gap_with_gap_series_exits_2():
    code, out, err = run_cli(["table2", "--gap", "1", "--gap-synthetic", "s.csv"])
    assert (code, out) == (2, "")
    assert err == "configuration error: --gap conflicts with --gap-synthetic/--gap-historical\n"


def test_series_path_that_is_a_directory_exits_3(tmp_path):
    code, out, err = run_cli([
        "table2", "--gap-synthetic", str(tmp_path), "--gap-historical", str(tmp_path),
        "--gap-year", "2000",
    ])
    assert (code, out) == (3, "")
    assert err.startswith("data error:") and str(tmp_path) in err
    assert "Errno" not in err


@pytest.mark.parametrize("command", ["table2", "grid"])
def test_horizon_too_long_for_a_float_exits_3(command):
    code, out, err = run_cli([command, "--years", "1" + "0" * 400])
    assert (code, out) == (3, "")
    assert "years beyond float range" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_effect_out_of_float_range_names_the_scenario_once():
    code, out, err = run_cli(["table2", "--years", "1" + "0" * 30])
    assert (code, out) == (3, "")
    label = "Yanikkaya (2003), 1" + "0" * 30 + "-year"
    assert err.startswith(f"data error: {label}, scenario C1: effect of 3.127")
    assert err.count("C1") == 1


def test_table_c1_is_only_the_calibrated_change(tmp_path):
    code, out, err = run_cli(["table2", "--lambda-baseline", "0"])
    assert (code, out) == (3, "")
    assert "C1: counterfactual openness non-positive (delta 0.174 >= baseline 0.0)" in err
    # a dollar-based C1 beyond the baseline does not reach the tables
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"inputs": dict(INPUTS, trade_gap_vs_synthetic_1972=2000)}), encoding="utf-8"
    )
    for command in ("table2", "grid"):
        assert run_cli([command, "--config", str(cfg)])[0] == 0


def test_cell_error_names_the_row_and_the_scenario():
    code, out, err = run_cli(["grid", "--years", "100000"])
    assert (code, out) == (3, "")
    assert err == (
        "data error: Yanikkaya (2003), 100000-year, scenario C1: "
        "relative level changes must exceed -1: policy residual g_NS is -1.0\n"
    )


def test_value_constructors_reject_non_finite_numbers():
    with pytest.raises(DataValidationError, match="non-finite"):
        GdpSeries((Observation(2024, math.inf),))
    for bad in (math.nan, math.inf):
        with pytest.raises(DataValidationError, match="finite"):
            ShockInputs(530, 1122, bad, 3105)
        with pytest.raises(DataValidationError, match="finite"):
            ShockInputs(530, 1122, 244, bad)
    with pytest.raises(DataValidationError, match="baseline openness must be finite"):
        TradeShockScenario("x", 0.1, math.inf)


@pytest.mark.parametrize("command", ["replicate", "table2", "table-a3", "gap"])
def test_nan_baseline_is_named_as_the_bad_input(command):
    code, out, err = run_cli([command, "--lambda-baseline", "nan"])
    assert (code, out) == (3, "")
    assert "baseline openness must be finite, got nan" in err


def test_effect_beyond_float_range_is_a_data_error():
    with pytest.raises(DataValidationError, match="out of float range"):
        GrowthEffect(800.0, math.inf, "m", "s", Horizon.steady_state())


@pytest.mark.parametrize("build", [build_grid, build_table_a3])
@pytest.mark.parametrize(
    "s,message",
    [
        (1e4, "out of float range"),  # the effect overflows expm1
        (-1e4, "out of float range"),  # the geometric policy residual overflows expm1
        (-1e3, "must exceed -1"),  # the effect's relative level rounds to -1
    ],
)
def test_semi_elasticity_beyond_float_range_is_a_data_error(build, s, message):
    model = ElasticityModel("huge", FunctionalForm.log_linear(s), Horizon.steady_state())
    with pytest.raises(DataValidationError, match=message):
        build(registry=ElasticityRegistry([model]))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_json_rejects_non_finite_numbers(tmp_path, token):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"inputs": INPUTS}).replace("244", token), encoding="utf-8"
    )
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_scenario_config(cfg)
    reg = tmp_path / "reg.json"
    reg.write_text(
        '{"schema_version": 1, "models": [{"name": "x", "form": "log_linear_level", '
        f'"coefficient": {token}, "horizon": {{"kind": "steady_state"}}}}]}}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_registry(reg)


# ------------------------------------------------------ values float/int cannot read

def test_config_string_where_a_number_belongs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inputs": {**INPUTS, "gdp_1958": "abc"}}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"cfg\.json: gdp_1958 must be a number"):
        load_scenario_config(cfg)
    assert main(["table2", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "change,message",
    [
        ({"inputs": {**INPUTS, "trade_gap_vs_synthetic_1972": "530"}},
         "trade_gap_vs_synthetic_1972 must be a number, got '530'"),
        ({"inputs": {**INPUTS, "trade_with_us_1958": True}},
         "trade_with_us_1958 must be a number, got True"),
        ({"lambda_baseline": "0.554"}, "lambda_baseline must be a number, got '0.554'"),
        ({"custom_scenarios": [{"id": 5, "delta_lambda": 0.1}]}, "id must be a string, got 5"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": "0.1"}]},
         "delta_lambda must be a number, got '0.1'"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "description": 1}]},
         "description must be a string, got 1"),
    ],
)
def test_config_reads_each_field_as_written(tmp_path, change, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inputs": INPUTS, **change}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"cfg\.json: " + re.escape(message)):
        load_scenario_config(cfg)
    code, out, err = run_cli(["grid", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert message in err


def test_registry_string_where_years_belong(tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(
        '{"schema_version": 1, "models": [{"name": "x", "form": "log_linear_level", '
        '"coefficient": 1.0, "short_run_epsilon": 0.02, '
        '"horizon": {"kind": "finite", "years": "abc"}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match=r"reg\.json: model #0: invalid literal"):
        load_registry(reg)


def test_unreadable_config_path_exits_2(tmp_path):
    code, out, err = run_cli(["table2", "--config", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error:") and "Traceback" not in err


# --------------------------------------------------------------- small CLI fixes

def test_out_into_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "t.md"
    code, out, err = run_cli(["table2", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("configuration error:")
    assert str(target) in err


@pytest.mark.parametrize("ids", [["C1"], ["C3"], ["mild", "mild"]])
def test_custom_scenario_ids_are_unique(tmp_path, ids):
    cfg = tmp_path / "cfg.json"
    rows = [{"id": i, "delta_lambda": 0.1} for i in ids]
    cfg.write_text(json.dumps({"inputs": INPUTS, "custom_scenarios": rows}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match=repr(ids[-1])):
        load_scenario_config(cfg)
    scenarios = tuple(TradeShockScenario(i, 0.1, 0.554) for i in ids)
    with pytest.raises(ConfigurationError, match=repr(ids[-1])):
        ScenarioConfig(ShockInputs(530, 1122, 244, 3105), 0.554, scenarios)


def test_library_years_zero_raises():
    with pytest.raises(DataValidationError, match="years >= 1"):
        build_table2(years=0)


@pytest.mark.parametrize("years", ["0", "-1"])
def test_cli_years_must_be_at_least_one(years):
    code, out, err = run_cli(["grid", "--years", years])
    assert (code, out) == (2, "")
    assert "argument --years" in err


# ---------------------------------------------------------------------- fuzzing

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["0", "1", "0.6", "1.2", "-1", "abc", "", "1e-320", "800", "nan", "inf"]),
    st.just("1" + "0" * 400),
)
JSON_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10**400),
    st.sampled_from([0, 0.174, 0.554, 530, 3105, "abc", None, [1]]),
)
SCENARIO_IDS = st.sampled_from(["C1", "C2", "C3", "mild", "halved", "x"])
ALL_FLAGS = [spec for specs in _FLAGS.values() for spec in specs]


def _config_text(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", '{"inputs": 1}']))
    inputs = {k: draw(st.one_of(st.just(v), JSON_NUMBERS)) for k, v in INPUTS.items()}
    if draw(st.booleans()):
        inputs.pop(draw(st.sampled_from(sorted(inputs))))
    raw = {"inputs": inputs}
    if draw(st.booleans()):
        raw["lambda_baseline"] = draw(st.one_of(st.just(0.554), JSON_NUMBERS))
    raw["custom_scenarios"] = draw(st.lists(
        st.fixed_dictionaries({
            "id": SCENARIO_IDS, "delta_lambda": st.one_of(st.just(0.1), JSON_NUMBERS),
        }),
        max_size=3,
    ))
    return json.dumps(raw)


def _series_text(draw):
    years = draw(st.lists(st.integers(2020, 2026), min_size=0, max_size=4))
    rows = "".join(f"{y},{draw(st.one_of(st.just('100'), NUMBERS))}\n" for y in years)
    header = draw(st.sampled_from(["year,value", "year,value,source_tag", "value,year"]))
    return f"{header}\n{rows}"


def _float_cells(text, fmt):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "**", "- ", "|-"))]
    if fmt == "csv":
        rows = list(csv.reader(lines))
    else:
        rows = [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]
    for row in rows[1:]:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                pass


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, data):
    draw = data.draw
    tmp = tmp_path_factory.mktemp("fuzz")
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    own = {flag for k in _COMMANDS[command][2] for flag, *_ in _FLAGS[k]}
    fmt = draw(st.sampled_from(["md", "csv"]))
    argv = [command, "--format", fmt]
    if draw(st.booleans()):
        (tmp / "cfg.json").write_text(_config_text(draw), encoding="utf-8")
        argv += ["--config", str(tmp / "cfg.json")]
    for name in ("syn.csv", "hist.csv"):
        garbage = draw(st.sampled_from([b"", b"", b"\xff", b"\x00"]))
        (tmp / name).write_bytes(_series_text(draw).encode("utf-8") + garbage)
    flags = draw(st.lists(st.sampled_from(ALL_FLAGS), max_size=4, unique_by=lambda s: s[0]))
    for flag, kind, _metavar, _help in flags:
        if kind is str:
            value = str(tmp / draw(st.sampled_from(["syn.csv", "hist.csv", "none.csv"])))
        elif flag == "--gap-year":
            value = str(draw(st.integers(2019, 2027)))
        else:
            value = draw(NUMBERS)
        argv += [flag, value]
    out_file = None
    if draw(st.booleans()):
        out_file = tmp / draw(st.sampled_from(["out.txt", "missing/out.txt"]))
        argv += ["--out", str(out_file)]

    code, out, err = run_cli(argv)

    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if any(flag not in own for flag, *_ in flags):
        assert code == 2, argv
    if code != 0:
        assert out == "" and err.count("\n") >= 1
        return
    text = out_file.read_text(encoding="utf-8") if out_file else out
    assert all(math.isfinite(v) for v in _float_cells(text, fmt)), (argv, text)
