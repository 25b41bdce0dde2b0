"""Every bad input ends in exit 2 (configuration) or 3 (data), never in a
traceback, a silently ignored flag or a non-finite table cell."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tradegap import (
    ConfigurationError,
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
    additive_log_share,
    backout_gap,
    build_gap_audit,
    build_grid,
    build_replication_table,
    build_scenarios,
    build_table2,
    build_table_a3,
    custom_scenario,
    feyrer_elasticity,
    finite_horizon_effect,
    geometric_share,
    geometric_share_from_levels,
    geometric_share_of_gap,
    implied_point_elasticity,
    load_registry,
    load_scenario_config,
    load_series,
    log_gap,
    render,
    render_csv,
    render_markdown,
    splice,
    steady_state_effect_loglinear,
    steady_state_semi_elasticity,
)
from tradegap.cli import _COMMANDS, _FLAGS, _build_parser, main
from tradegap.errors import _Value
from tradegap.report import render_chunks

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
@pytest.mark.parametrize("gap", ["nan", "inf", "800", "-1", "0"])
def test_non_finite_gap_exits_2(command, gap):
    code, out, err = run_cli([command, "--gap", gap])
    assert (code, out) == (2, "")
    rule = "a finite number" if gap in ("nan", "inf") else "positive and finite"
    assert err.startswith(f"configuration error: --gap: gap denominator must be {rule}")
    assert err.endswith(f"got {float(gap)}\n")


SERIES_FLAGS = "--gap-synthetic/--gap-historical/--gap-year"


@pytest.mark.parametrize(
    "synthetic,historical,year,code,message",
    [
        # the synthetic economy below the historical one: a negative gap
        ("90", "100", 2024, 2,
         f"configuration error: {SERIES_FLAGS}: gap denominator must be positive and finite "
         "(below 709.78 log points), got -0.10536051565782628"),
        # a ratio below float range still has a (negative) log
        ("1e-308", "1e308", 2024, 2,
         f"configuration error: {SERIES_FLAGS}: gap denominator must be positive and finite "
         "(below 709.78 log points), got -1418.3924172843322"),
        # and so does a ratio beyond float range
        ("1e308", "1e-308", 2024, 2,
         f"configuration error: {SERIES_FLAGS}: gap denominator must be positive and finite "
         "(below 709.78 log points), got 1418.3924172843322"),
        ("110", "100", 2030, 3, f"data error: {SERIES_FLAGS}: series 'syn': no observation for 2030"),
    ],
)
@pytest.mark.parametrize("command", ["table2", "grid"])
def test_series_gap_error_names_its_flags(tmp_path, command, synthetic, historical, year, code,
                                          message):
    syn = write_series(tmp_path / "syn.csv", (2023, 100), (2024, synthetic))
    hist = write_series(tmp_path / "hist.csv", (2023, 100), (2024, historical))
    argv = [command, "--gap-synthetic", syn, "--gap-historical", hist, "--gap-year", str(year)]
    assert run_cli(argv) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "command,gap,cell",
    [
        ("table2", "1e-320", "Yanikkaya (2003), long-run, scenario C1"),
        ("table-a3", "1e-320", "Yanikkaya (2003), long-run, scenario C1"),
        ("grid", "1e-320", "Yanikkaya (2003), 12-year, scenario C1"),
        # a finite share, 2.4e306, beyond float range as a percent
        ("table2", "3e-307", "Frankel and Romer (1999), scenario C2"),
    ],
)
def test_gap_too_small_for_a_finite_share_exits_3(command, gap, cell):
    code, out, err = run_cli([command, "--gap", gap])
    assert (code, out) == (3, "")
    assert err.startswith(f"data error: {cell}: percent cell of a ")
    assert err.endswith(f" log-point effect against a {gap} log-point gap is out of float range\n")
    assert run_cli([command, "--gap", "1e-300"])[0] == 0  # 300-digit shares, but finite


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_series_rejects_non_finite_values(tmp_path, value):
    syn = write_series(tmp_path / "syn.csv", (2023, 90), (2024, value))
    message = f"{syn}: series 'syn' value in 2024 must be a finite number, got {float(value)}"
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        load_series(syn)
    hist = write_series(tmp_path / "hist.csv", (2023, 100), (2024, 100))
    argv = ["table2", "--gap-synthetic", syn, "--gap-historical", hist, "--gap-year", "2024"]
    assert run_cli(argv) == (3, "", f"data error: {message}\n")


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


@pytest.mark.parametrize("command", ["replicate", "table2", "grid"])
def test_horizon_too_long_for_a_float_exits_2(command):
    code, out, err = run_cli([command, "--years", "1" + "0" * 400])
    assert (code, out, err) == (2, "", "configuration error: --years: years beyond float range\n")


def test_effect_out_of_float_range_names_the_scenario_once():
    code, out, err = run_cli(["table2", "--years", "1" + "0" * 30])
    assert (code, out) == (3, "")
    label = "Yanikkaya (2003), 1" + "0" * 30 + "-year"
    assert err.startswith(f"data error: {label}, scenario C1: effect of 3.127")
    assert err.count("C1") == 1


def test_table_c1_is_only_the_calibrated_change(tmp_path):
    code, out, err = run_cli(["table2", "--lambda-baseline", "0.17"])
    assert (code, out) == (3, "")
    assert "C1: counterfactual openness non-positive (delta 0.174 >= baseline 0.17)" in err
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
        "data error: Yanikkaya (2003), 100000-year, scenario C3: "
        "effect of 788.7651109739677 log points is out of float range\n"
    )


def test_replication_effect_error_names_its_row():
    code, out, err = run_cli(["replicate", "--years", "100000"])
    assert (code, out) == (3, "")
    assert err == (
        "data error: 100000-year, scenario C3: "
        "effect of 788.8801420237238 log points is out of float range\n"
    )


RENDERERS = {
    "render": lambda table, decimals: render(table, "csv", decimals=decimals),
    "render_csv": render_csv,
    "render_markdown": render_markdown,
    "render_chunks": lambda table, decimals: next(render_chunks(table, "md", decimals)),
}


BAD_DECIMALS = [
    (-1, "-1"), (True, "True"), (1.5, "1.5"), (None, "None"), ("2", "'2'"),
    (1075, "1075"), (2**31, "2147483648"), (10**5000, "an int of 16610 bits"),
]


@pytest.mark.parametrize("decimals,shown", BAD_DECIMALS, ids=[s for _d, s in BAD_DECIMALS])
@pytest.mark.parametrize("renderer", RENDERERS.values(), ids=RENDERERS)
def test_renderers_check_decimals(renderer, decimals, shown):
    message = f"decimals must be a whole number in [0, 1074], got {shown}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        renderer(build_table2(), decimals)


def test_renderers_print_any_float_exactly_at_1074_decimals():
    table = ResultTable("the smallest float", ("x",), rows=[(5e-324,)])
    assert render_csv(table, 1074).splitlines()[2] == f"{5e-324:.1074f}"


def test_value_constructors_reject_non_finite_numbers():
    with pytest.raises(DataValidationError, match="value in 2024 must be a finite number, got inf"):
        GdpSeries((Observation(2024, math.inf),))
    for bad in (math.nan, math.inf):
        with pytest.raises(DataValidationError, match="finite"):
            ShockInputs(530, 1122, bad, 3105)
        with pytest.raises(DataValidationError, match="finite"):
            ShockInputs(530, 1122, 244, bad)
    with pytest.raises(DataValidationError, match="^x: lambda_baseline must be a finite number"):
        TradeShockScenario("x", 0.1, math.inf)


@pytest.mark.parametrize("command", ["replicate", "table2", "table-a3", "gap"])
def test_nan_baseline_is_named_as_the_bad_input(command):
    code, out, err = run_cli([command, "--lambda-baseline", "nan"])
    assert (code, out) == (2, "")
    assert err == (
        "configuration error: --lambda-baseline: lambda_baseline must be a finite number, got nan\n"
    )


@pytest.mark.parametrize("command", ["replicate", "table2", "table-a3", "gap"])
def test_baseline_flag_keeps_the_config_range(command):
    """``--lambda-baseline`` takes the values a config's ``lambda_baseline``
    takes: a share on (0, 1], by the same rule and in the same words."""
    for value in ("5", "1e308", "0", "-0.5"):
        assert run_cli([command, "--lambda-baseline", value]) == (2, "", (
            f"configuration error: --lambda-baseline: lambda_baseline must be in (0, 1], "
            f"got {float(value)}\n"
        ))
    code, out, err = run_cli([command, "--lambda-baseline", "inf"])
    assert (code, out) == (2, "")
    assert err.endswith("lambda_baseline must be a finite number, got inf\n")
    code, out, err = run_cli([command, "--lambda-baseline", "x"])
    assert (code, out) == (2, "")
    assert "argument --lambda-baseline: invalid float value: 'x'" in err
    assert run_cli([command, "--lambda-baseline", "1"])[0] == 0


def test_effect_beyond_float_range_is_a_data_error():
    with pytest.raises(DataValidationError, match="^s: relative_level must be a finite number"):
        GrowthEffect(800.0, math.inf, "s")


@pytest.mark.parametrize("build", [build_grid, build_table_a3])
@pytest.mark.parametrize(
    "s,message",
    [
        (1e4, "out of float range"),  # the effect overflows expm1
        (-1e4, "must exceed -1"),  # the effect's relative level rounds to -1
        (-1e3, "must exceed -1"),
        # the effect's relative level is a float and 100 times it is not
        (4060.0, r"^huge, scenario C1: percent cell of a 706\.4\d* log-point effect "
                 r"against a 1\.085 log-point gap is out of float range$"),
    ],
)
def test_semi_elasticity_beyond_float_range_is_a_data_error(build, s, message):
    model = ElasticityModel("huge", FormKind.LOG_LINEAR_LEVEL, s)
    with pytest.raises(DataValidationError, match=message):
        build(registry=ElasticityRegistry([model]))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_json_rejects_non_finite_numbers(tmp_path, token):
    """JSON reads ``NaN``, ``Infinity`` and ``1e400`` as floats; the number
    rule then rejects each, named by its field's path, with exit 2."""
    shown = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf", "1e400": "inf"}[token]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inputs": INPUTS}).replace("244", token), encoding="utf-8")
    message = (f"scenario config {cfg}: inputs.synthetic_export_excess_1972 "
               f"must be a finite number, got {shown}")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        load_scenario_config(cfg)
    assert run_cli(["table2", "--config", str(cfg)]) == (2, "", f"configuration error: {message}\n")
    reg = tmp_path / "reg.json"
    for field, model in (
        ("coefficient", f'"coefficient": {token}, "horizon": {{"kind": "steady_state"}}'),
        ("horizon.years", '"coefficient": 1.0, "short_run_epsilon": 0.02, '
                          f'"horizon": {{"kind": "finite", "years": {token}}}'),
    ):
        reg.write_text(
            '{"schema_version": 1, "models": [{"name": "x", "form": "log_linear_level", '
            f'{model}}}]}}',
            encoding="utf-8",
        )
        message = f"registry {reg}: models[0].{field} must be a finite number, got {shown}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            load_registry(reg)


def test_unreadable_input_file_is_named(tmp_path):
    code, out, err = run_cli(["grid", "--config", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err == (
        f"configuration error: scenario config not readable: {tmp_path} (Is a directory)\n"
    )
    with pytest.raises(ConfigurationError, match=r"^registry not readable: .* \(Is a directory\)$"):
        load_registry(tmp_path)
    # an empty path is named as given, not as the directory "." that Path("") is
    for load, error, message in (
        (load_registry, ConfigurationError, "registry not found: ''"),
        (load_scenario_config, ConfigurationError, "scenario config not found: ''"),
        (load_series, DataValidationError,
         "series file not found or not readable: '' (No such file or directory)"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load("")


# ------------------------------------------------------ values float/int cannot read

def test_config_string_where_a_number_belongs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inputs": {**INPUTS, "gdp_1958": "abc"}}), encoding="utf-8")
    with pytest.raises(ConfigurationError,
                       match=r"cfg\.json: inputs\.gdp_1958 must be a finite number"):
        load_scenario_config(cfg)
    assert main(["table2", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "change,message",
    [
        ({"inputs": {**INPUTS, "trade_gap_vs_synthetic_1972": "530"}},
         "inputs.trade_gap_vs_synthetic_1972 must be a finite number, got '530'"),
        ({"inputs": {**INPUTS, "trade_with_us_1958": True}},
         "inputs.trade_with_us_1958 must be a finite number, got True"),
        ({"lambda_baseline": "0.554"}, "lambda_baseline must be a finite number, got '0.554'"),
        ({"lambda_baseline": 5}, "lambda_baseline must be in (0, 1], got 5.0"),
        ({"lambda_baseline": 0}, "lambda_baseline must be in (0, 1], got 0.0"),
        # the baseline is checked before any custom scenario is read against it
        ({"lambda_baseline": -0.5, "custom_scenarios": [{"id": "x", "delta_lambda": 0.1}]},
         "lambda_baseline must be in (0, 1], got -0.5"),
        ({"custom_scenarios": [{"id": 5, "delta_lambda": 0.1}]},
         "custom_scenarios[0].id must be a string, got 5"),
        ({"custom_scenarios": [{"id": "a", "delta_lambda": 0.1},
                               {"id": "b", "delta_lambda": "0.2"}]},
         "custom_scenarios[1].delta_lambda must be a finite number, got '0.2'"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "description": 1}]},
         "custom_scenarios[0].description must be a string, got 1"),
        ({"custom_scenarios": [{"id": "x"}]}, "custom_scenarios[0] missing field 'delta_lambda'"),
        ({"custom_scenarios": [["x", 0.1]]},
         "custom_scenarios[0]: list indices must be integers or slices, not str"),
        ({"inputs": {**INPUTS, "gdp_1958": 10**400}},
         "inputs.gdp_1958 must be a finite number, got an int of 1329 bits"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 10**400}]},
         "custom_scenarios[0].delta_lambda must be a finite number, got an int of 1329 bits"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 0.6}]},
         "custom_scenarios[0]: x: counterfactual openness non-positive"),
        ({"custom_scenarios": [{"id": "a", "delta_lambda": 0.1},
                               {"id": "a", "delta_lambda": 0.2}]},
         "custom_scenarios[1].id 'a' is taken (C1-C3 are built in)"),
        # each row's checks come before the ids', which run after the last row
        ({"custom_scenarios": [{"id": "a", "delta_lambda": 0.1},
                               {"id": "a", "delta_lambda": 0.1},
                               {"id": "b", "delta_lambda": "0.2"}]},
         "custom_scenarios[2].delta_lambda must be a finite number, got '0.2'"),
        ({"custom_scenarios": None}, "'custom_scenarios' must be an array"),
        ({"custom_scenarios": {"id": "x", "delta_lambda": 0.1}},
         "'custom_scenarios' must be an array"),
        ({"custom_scenarios": "ab"}, "'custom_scenarios' must be an array"),
        ({"inputs": [1, 2, 3, 4]}, "'inputs' must be an object"),
        ({"inputs": None}, "'inputs' must be an object"),
        ({"lambda_basline": 0.60, "custom_scenario": [{"id": "x", "delta_lambda": 0.1}]},
         "unknown field 'lambda_basline'"),
        ({"custom_scenario": [{"id": "x", "delta_lambda": 0.1}]},
         "unknown field 'custom_scenario'"),
        ({"inputs": {**INPUTS, "gdp": 3105}}, "inputs: unknown field 'gdp'"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "desc": "y"}]},
         "custom_scenarios[0]: unknown field 'desc'"),
        ({"custom_scenarios": [{"id": "x", "delta_lambda": 0.1, "desc": "y"},
                               {"id": "x", "delta_lambda": 0.1}]},
         "custom_scenarios[0]: unknown field 'desc'"),
        # an object's own checks come before its unknown fields
        ({"inputs": {**INPUTS, "gdp": 3105, "gdp_1958": "3105"}},
         "inputs.gdp_1958 must be a finite number, got '3105'"),
        ({"custom_scenarios": [{"id": "x", "desc": "y", "delta_lambda": 0.6}]},
         "custom_scenarios[0]: x: counterfactual openness non-positive"),
        ({"lambda_baseline": "0.6", "lambda_basline": 0.6},
         "lambda_baseline must be a finite number"),
        ({"custom_scenario": [], "custom_scenarios": [{"id": "x", "delta_lambda": "0.1"}]},
         "unknown field 'custom_scenario'"),
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


def test_config_constructor_applies_the_baseline_rule():
    for lam0 in (5, 0, -0.5):
        message = f"lambda_baseline must be in (0, 1], got {lam0}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ScenarioConfig(ShockInputs(530, 1122, 244, 3105), lam0)
    for lam0 in (math.nan, True):
        message = f"^lambda_baseline must be a finite number, got {lam0}$"
        with pytest.raises(ConfigurationError, match=message):
            ScenarioConfig(ShockInputs(530, 1122, 244, 3105), lam0)


@pytest.mark.parametrize(
    "build", [build_table2, build_table_a3, build_replication_table, build_gap_audit]
)
def test_builders_apply_the_baseline_rule(build):
    """A builder's ``lambda_baseline`` keeps the rule of a config's: a number
    on (0, 1], so a table never prints "baseline openness 5"."""
    for lam0, message in (
        (5.0, "lambda_baseline must be in (0, 1], got 5.0"),
        (math.nan, "lambda_baseline must be a finite number, got nan"),
        (True, "lambda_baseline must be a finite number, got True"),
        ("0.6", "lambda_baseline must be a finite number, got '0.6'"),
    ):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            build(lambda_baseline=lam0)
    assert build(lambda_baseline=1) == build(lambda_baseline=1.0)


def test_registry_string_where_years_belong(tmp_path):
    reg = tmp_path / "reg.json"
    reg.write_text(
        '{"schema_version": 1, "models": [{"name": "x", "form": "log_linear_level", '
        '"coefficient": 1.0, "short_run_epsilon": 0.02, '
        '"horizon": {"kind": "finite", "years": "abc"}}]}',
        encoding="utf-8",
    )
    message = "reg.json: models[0].horizon.years must be a whole number, got 'abc'"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
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


@pytest.mark.parametrize("build", [build_table2, build_table_a3, build_grid])
@pytest.mark.parametrize("finite", [True, False])
def test_library_years_zero_raises(build, finite):
    """The years override is checked up front, even on a registry whose rows
    are all at the steady state, which it would not change."""
    model = ElasticityModel("m", FormKind.LOG_LINEAR_LEVEL, 0.5, 12 if finite else None, 0.02)
    with pytest.raises(DataValidationError, match="^finite horizon requires years >= 1$"):
        build(registry=ElasticityRegistry([model]), years=0)
    assert build(registry=ElasticityRegistry([model]), years=6).rows


@pytest.mark.parametrize("years", [True, 6.0, 12.5, "6"])
def test_library_years_must_be_a_whole_number(years):
    """A bool or a float is not a number of years, though it compares as one
    and would print as "True-year" or "6.0-year"."""
    message = f"^finite horizon requires a whole number of years, got {re.escape(repr(years))}$"
    for build in (build_table2, build_table_a3, build_grid, build_replication_table):
        with pytest.raises(DataValidationError, match=message):
            build(years=years)
    with pytest.raises(DataValidationError, match=message):
        ElasticityModel("m", FormKind.LOG_LINEAR_LEVEL, 0.5, years, 0.02)


def test_replication_percent_beyond_float_range_names_its_scenario(tmp_path):
    """A growth effect of ~706-709.8 log points has a finite relative level,
    but not 100 times it."""
    cfg = tmp_path / "cfg.json"
    inputs = {**INPUTS, "trade_gap_vs_synthetic_1972": 1500, "trade_with_us_1958": 100,
              "synthetic_export_excess_1972": 10}
    cfg.write_text(json.dumps({"inputs": inputs}), encoding="utf-8")
    code, out, err = run_cli(["replicate", "--config", str(cfg), "--years", "81700"])
    assert (code, out) == (3, "")
    assert err == (
        "data error: 81700-year, scenario C1: percent cell of a 707.2299070373506 log-point "
        "effect is out of float range\n"
    )


@pytest.mark.parametrize("years", ["0", "-1", "1.5"])
def test_cli_years_must_be_at_least_one(years):
    code, out, err = run_cli(["grid", "--years", years])
    assert (code, out) == (2, "")
    if years == "1.5":  # not an int: argparse's usage error
        assert "argument --years: invalid int value: '1.5'" in err
    else:
        assert err == "configuration error: --years: finite horizon requires years >= 1\n"


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--years", "0"),
        ("--years", "1" + "0" * 400),
        ("--lambda-baseline", "nan"),
        ("--gap", "-1"),
        ("--gap-year", "9" * 400),
    ],
    ids=["years-0", "years-401-digits", "baseline-nan", "gap-negative", "gap-year-400-digits"],
)
def test_flag_that_breaks_its_rule_is_one_line_naming_it(flag, value):
    """A flag's value is checked by the rule its builder applies: a failure
    is one line, exit 2, naming the flag."""
    code, out, err = run_cli(["table2", flag, value])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"configuration error: {flag}: "), err


def test_flag_rules_run_before_the_config_and_the_gap_flags_are_read():
    for extra in (["--config", "missing.json"], ["--gap-synthetic", "s.csv"]):
        code, out, err = run_cli(["table2", "--gap", "-1", *extra])
        assert (code, out) == (2, "") and err.startswith("configuration error: --gap: "), err


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_cached_parser_keeps_no_state_between_runs(tmp_path, capsys, fmt):
    """One parser serves every run in a process: a flag one run gives is
    not there in the next, whether the table goes to stdout or to --out."""
    golden = Path(__file__).resolve().parent / "golden"
    assert _build_parser() is _build_parser()
    for argv, case in ((["grid", "--years", "6"], "grid-years6.md"), (["grid"], "grid.md")):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == (golden / case).read_bytes()
    assert main(["grid", "--format", fmt, "--out", str(tmp_path / f"grid.{fmt}")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / f"grid.{fmt}").read_bytes() == (golden / f"grid.{fmt}").read_bytes()


def test_failing_run_writes_no_byte_and_no_file(tmp_path):
    """Every check runs before the first chunk of output: a table that fails
    leaves no --out file behind and prints nothing."""
    target = tmp_path / "grid.md"
    code, out, err = run_cli(["grid", "--gap", "1e-320", "--out", str(target)])
    assert (code, out) == (3, "")
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not target.exists()


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


def names_an_input(message, argv):
    """Whether an error line names an input: a flag it passed, a file path, or
    a scenario id, alone or in a ``<row>, scenario <id>:`` prefix.  A config
    file's error gives the file's path before the field's JSON path."""
    flags = [arg for arg in argv if arg.startswith("--")]
    paths = [arg for arg in argv if "/" in arg]
    return (
        any(re.search(re.escape(flag) + r"(?![\w-])", message) for flag in flags)
        or any(path in message for path in paths)
        or re.search(r"(?:^|: |scenario )(?:C1|C2|C3|mild|halved|x): ", message) is not None
    )


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
        assert out_file is None or not out_file.exists(), argv
        assert names_an_input(err.splitlines()[-1], argv), (argv, err)
        return
    text = out_file.read_text(encoding="utf-8") if out_file else out
    assert all(math.isfinite(v) for v in _float_cells(text, fmt)), (argv, text)


# ------------------------------------------------------- the library's number rule

EFFECT = GrowthEffect(0.07, math.expm1(0.07), "x")
SCENARIO = TradeShockScenario("x", 0.1, 0.554)
SYNTHETIC = GdpSeries((Observation(2023, 110.0), Observation(2024, 121.0)), "syn")
HISTORICAL = GdpSeries((Observation(2023, 100.0), Observation(2024, 105.0)), "hist")


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: custom_scenario("x", 0.1, True), DataValidationError,
         "x: lambda_baseline must be a finite number, got True"),
        (lambda: ShockInputs(True, 1122, 244, 3105), DataValidationError,
         "trade_gap_vs_synthetic_1972 must be a finite number, got True"),
        (lambda: GapDenominator.explicit(True).checked_log_points(), ConfigurationError,
         "gap denominator must be a finite number, got True"),
        (lambda: additive_log_share(EFFECT, GapDenominator.explicit(True)), ConfigurationError,
         "gap denominator must be a finite number, got True"),
        (lambda: backout_gap(EFFECT, True), DataValidationError,
         "reported share must be a finite number, got True"),
        (lambda: geometric_share(True, 0.5), DataValidationError,
         "effect g_NE must be a finite number, got True"),
        (lambda: geometric_share_from_levels(True, 2.0, 3.0), DataValidationError,
         "y_e_s must be a finite number, got True"),
        (lambda: feyrer_elasticity(False), DataValidationError,
         "beta must be a finite number, got False"),
        (lambda: implied_point_elasticity(0.41, True), DataValidationError,
         "openness share lam must be a finite number, got True"),
        (lambda: finite_horizon_effect(0.018, True, 5), DataValidationError,
         "delta_lambda_pp must be a finite number, got True"),
        (lambda: GrowthEffect(True, math.e - 1, "x"), DataValidationError,
         "x: log_points must be a finite number, got True"),
    ],
    ids=["custom_scenario", "ShockInputs", "checked_log_points", "additive_log_share",
         "backout_gap", "geometric_share", "geometric_share_from_levels", "feyrer_elasticity",
         "implied_point_elasticity", "finite_horizon_effect", "GrowthEffect"],
)
def test_a_bool_is_not_a_number(call, error, message):
    """``True`` compares as 1, but no constructor or function takes it as one."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ElasticityModel("m", FormKind.LOG_LINEAR_LEVEL, 10**5000),
         "model 'm': coefficient must be a finite number, got an int of 16610 bits"),
        (lambda: implied_point_elasticity(10**5000, 0.5),
         "semi-elasticity must be a finite number, got an int of 16610 bits"),
    ],
    ids=["ElasticityModel", "implied_point_elasticity"],
)
def test_an_int_too_long_to_print_is_named_by_its_bits(call, message):
    """Python refuses to print an int of more than 4,300 digits, so the error
    gives its bit length rather than ending in a bare ``ValueError``."""
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_growth_form_whose_level_overflows_is_refused_on_construction(tmp_path):
    """-alpha2/alpha1 of a subnormal alpha1 is inf: the model is refused when
    it is made, not when a table is built."""
    message = "steady-state level -alpha2/alpha1 must be a finite number, got inf"
    with pytest.raises(DataValidationError, match=f"^model 'm': {re.escape(message)}$"):
        ElasticityModel("m", FormKind.GROWTH_WITH_CONVERGENCE, (-1e-320, 1.0))
    reg = tmp_path / "reg.json"
    reg.write_text(
        '{"schema_version": 1, "models": [{"name": "m", "form": "growth_with_convergence", '
        '"coefficient": {"alpha1": -1e-320, "alpha2": 1.0}, "horizon": {"kind": "steady_state"}}]}',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match=re.escape(f"reg.json: models[0]: {message}")):
        load_registry(reg)


@pytest.mark.parametrize(
    "observation,message",
    [
        (Observation(2019.5, 1.0), "series 's': year 2019.5 is not an int"),
        (Observation(True, 1.0), "series 's': year True is not an int"),
        (Observation(2019, "1"), "series 's' value in 2019 must be a finite number, got '1'"),
        (Observation(2019, 10**400),
         "series 's' value in 2019 must be a finite number, got an int of 1329 bits"),
        (Observation(2019, -1.0), "series 's': non-positive value -1.0 in 2019"),
        # a year beyond float range is shown by its bit length, before the value
        (Observation(10**400, 1.0),
         "series 's' year must be a finite number, got an int of 1329 bits"),
        (Observation(-(10**5000), -1.0),
         "series 's' year must be a finite number, got an int of 16610 bits"),
    ],
)
def test_series_years_are_ints_and_values_numbers(observation, message):
    with pytest.raises(DataValidationError, match=f"^{re.escape(message)}$"):
        GdpSeries((observation,), "s")


#: Values that are not finite numbers, or that sit at the edge of float range:
#: nan, infinities, bools, strings, None, ints beyond float range, the largest
#: floats, and subnormal floats (with zero).
NOT_QUITE_NUMBERS = st.one_of(
    st.sampled_from([
        math.nan, math.inf, -math.inf, True, False, None, "1", "nan", 10**400, -(10**400),
        sys.float_info.max, -sys.float_info.max,
    ]),
    st.floats(-sys.float_info.min, sys.float_info.min, exclude_min=True, exclude_max=True),
)


def _replaced(obj, field):
    return lambda v: dataclasses.replace(obj, **{field: v})


MODEL = ElasticityModel("m", FormKind.LOG_LINEAR_LEVEL, 0.41, 12, 0.018)
GROWTH = ElasticityModel("m", FormKind.GROWTH_WITH_CONVERGENCE, (-0.0439, 0.018))
SHOCK_INPUTS = ShockInputs(530, 1122, 244, 3105)
OBSERVATION = Observation(2024, 100.0)

#: (a call with one numeric input set to ``v``, the names an error may give
#: for it).  One entry per numeric field of a public value class, numeric
#: argument of a public function and numeric builder keyword.
LIBRARY_INPUTS = {
    **{f"ShockInputs.{name}": (_replaced(SHOCK_INPUTS, name), (name,)) for name in INPUTS},
    **{f"TradeShockScenario.{name}": (_replaced(SCENARIO, name), (name, "x: "))
       for name in ("delta_lambda", "lambda_baseline")},
    **{f"ElasticityModel.{name}": (_replaced(MODEL, name), ("model 'm'", name))
       for name in ("coefficient", "years", "short_run_epsilon")},
    "ElasticityModel.alpha1": (lambda v: ElasticityModel("m", GROWTH.form, (v, 0.018)),
                               ("model 'm'",)),
    "ElasticityModel.alpha2": (lambda v: ElasticityModel("m", GROWTH.form, (-0.0439, v)),
                               ("model 'm'",)),
    **{f"GrowthEffect.{name}": (_replaced(EFFECT, name), (name, "x: "))
       for name in ("log_points", "relative_level")},
    "GapDenominator.log_points": (GapDenominator.explicit, ("gap denominator",)),
    "DecompositionResult.theta": (DecompositionResult, ("theta",)),
    **{f"Observation.{name}": (lambda v, name=name: GdpSeries(
        (dataclasses.replace(OBSERVATION, **{name: v}),), "s"), (name,))
       for name in ("year", "value")},
    "ScenarioConfig.lambda_baseline": (lambda v: ScenarioConfig(SHOCK_INPUTS, v),
                                       ("lambda_baseline",)),
    "steady_state_semi_elasticity.alpha1": (lambda v: steady_state_semi_elasticity(v, 0.018),
                                            ("alpha1", "convergence coefficient")),
    "steady_state_semi_elasticity.alpha2": (lambda v: steady_state_semi_elasticity(-0.0439, v),
                                            ("alpha2",)),
    "feyrer_elasticity.beta": (feyrer_elasticity, ("beta",)),
    "implied_point_elasticity.semi_elasticity": (
        lambda v: implied_point_elasticity(v, 0.55), ("semi-elasticity", "point elasticity")),
    "implied_point_elasticity.lam": (lambda v: implied_point_elasticity(0.41, v),
                                     ("openness share",)),
    "finite_horizon_effect.epsilon": (lambda v: finite_horizon_effect(v, 17.1, 12, "x"),
                                      ("epsilon", "x: ")),
    "finite_horizon_effect.delta_lambda_pp": (
        lambda v: finite_horizon_effect(0.018, v, 12, "x"), ("delta_lambda_pp", "x: ")),
    "finite_horizon_effect.years": (lambda v: finite_horizon_effect(0.018, 17.1, v, "x"),
                                    ("years",)),
    "steady_state_effect_loglinear.semi_elasticity": (
        lambda v: steady_state_effect_loglinear(v, SCENARIO), ("model 'custom'", "x: ")),
    # a share of a gap too small for it is an embargo share theta beyond float range
    **{f"{share.__name__}.total": (lambda v, share=share: share(
        EFFECT, GapDenominator.explicit(v)), ("gap denominator", "theta"))
       for share in (additive_log_share, geometric_share_of_gap)},
    "geometric_share.g_ne": (lambda v: geometric_share(v, 0.5), ("g_NE",)),
    "geometric_share.g_ns": (lambda v: geometric_share(0.5, v), ("g_NS",)),
    **{f"geometric_share_from_levels.{name}": (lambda v, i=i: geometric_share_from_levels(
        *(v if j == i else y for j, y in enumerate((100.0, 107.4, 296.0)))), (name,))
       for i, name in enumerate(("y_e_s", "y_ne_s", "y_ne_ns"))},
    "backout_gap.reported_share": (lambda v: backout_gap(EFFECT, v), ("reported share",)),
    # a year that is not in a series is named with the series
    "log_gap.year": (lambda v: log_gap(SYNTHETIC, HISTORICAL, v), ("series 'syn'", "year must")),
    "splice.splice_year": (lambda v: splice(SYNTHETIC, HISTORICAL, v),
                           ("splice year", "splice_year")),
    "custom_scenario.delta_lambda": (lambda v: custom_scenario("x", v), ("delta_lambda", "x: ")),
    "custom_scenario.lambda_baseline": (lambda v: custom_scenario("x", 0.1, v),
                                        ("lambda_baseline", "x: ")),
    "build_scenarios.lambda_baseline": (lambda v: build_scenarios(SHOCK_INPUTS, v),
                                        ("lambda_baseline", "baseline")),
    **{f"{build.__name__}.lambda_baseline": (lambda v, build=build: build(lambda_baseline=v),
                                             ("lambda_baseline", "baseline"))
       for build in (build_table2, build_table_a3, build_replication_table, build_gap_audit)},
    **{f"{build.__name__}.years": (lambda v, build=build: build(years=v), ("years",))
       for build in (build_table2, build_table_a3, build_grid, build_replication_table)},
    **{f"{build.__name__}.gap": (lambda v, build=build: build(gap=GapDenominator.explicit(v)),
                                 ("gap",))
       for build in (build_table2, build_table_a3, build_grid)},
}


def _numbers(obj):
    """Every number a result holds, through value objects, tuples and lists."""
    if isinstance(obj, _Value):
        obj = obj.__getstate__()
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif isinstance(obj, (int, float)):
        yield obj


@pytest.mark.parametrize("target", sorted(LIBRARY_INPUTS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=NOT_QUITE_NUMBERS)
def test_library_keeps_the_cli_input_rules(target, value):
    """A constructor, function or builder given a value that is not a finite
    number, or one at the edge of float range, returns a result whose floats
    are all finite and which holds no bool, or raises a configuration or data
    error that names the input: never a bare ``TypeError``, ``ValueError`` or
    ``OverflowError``.  Ints are exact."""
    call, names = LIBRARY_INPUTS[target]
    try:
        result = call(value)
    except (ConfigurationError, DataValidationError) as exc:
        assert any(name in str(exc) for name in names), (target, value, str(exc))
        return
    for x in _numbers(result):
        assert type(x) is not bool and (type(x) is int or math.isfinite(x)), (target, value, x)
