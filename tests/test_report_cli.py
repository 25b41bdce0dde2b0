import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import tradegap
from tradegap import (
    ConfigurationError,
    ElasticityRegistry,
    GapDenominator,
    ShockInputs,
    build_gap_audit,
    build_grid,
    build_replication_table,
    build_table2,
    build_table_a3,
    default_scenario_config,
    load_registry,
    render,
    render_csv,
    render_markdown,
    seed_registry,
)
from tradegap.cli import main
from tradegap.scenarios import ScenarioConfig


def row_map(table, key_index=0):
    return {row[key_index]: row for row in table.rows}


# ----------------------------------------------------------------- replicate

def test_replication_rows():
    table = build_replication_table()
    assert [r[0] for r in table.rows] == ["C1", "C2", "C3"]
    ratios = [r[1] for r in table.rows]
    effects = [round(r[2], 1) for r in table.rows]
    assert ratios == [17.1, 36.1, 44.0]
    assert effects == [3.8, 8.1, 9.9]


def test_replication_zeroed_trade_gap():
    cfg = ScenarioConfig(
        inputs=ShockInputs(0.0, 1122.0, 244.0, 3105.0), lambda_baseline=0.554
    )
    table = build_replication_table(cfg)
    assert table.rows[0][1] == 0.0
    assert table.rows[0][2] == 0.0


def test_replication_single_year_override():
    table = build_replication_table(years=1)
    # single-period effect is the uncompounded product
    assert table.rows[0][2] == 100 * 0.018 * 17.1 / 100


def test_replication_reads_the_registry_entry(monkeypatch):
    seed = seed_registry()
    doubled = [
        replace(m, short_run_epsilon=0.036) if m.name == "yanikkaya" else m for m in seed
    ]
    monkeypatch.setattr(tradegap.report, "seed_registry", lambda: ElasticityRegistry(doubled))
    table = build_replication_table(years=1)
    assert table.rows[0][2] == 100 * 0.036 * 17.1 / 100
    assert table.footnotes[0].startswith("growth effects compound 0.036 growth points")


# -------------------------------------------------------------------- table2

def test_table2_sala_row(registry):
    table = build_table2(registry)
    rows = row_map(table)
    sala = rows["Sala-i-Martin et al. (2004)"]
    got = [round(v, 1) for v in sala[2:]]
    want = [19.7, 45.3, 57.3, 16.6, 34.4, 41.7]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=max(0.3, 0.02 * w) + 0.05)


def test_table2_first_row_uses_1972_geometric_share(registry):
    table = build_table2(registry)
    first = table.rows[0]
    assert first[0] == "Yanikkaya (2003), 12-year"
    assert [round(v, 1) for v in first[5:]] == [3.1, 6.5, 8.0]


def test_table2_raghutla_effect(registry):
    table = build_table2(registry)
    raghutla = row_map(table)["Raghutla (2020)"]
    assert raghutla[1] == "0.19"  # display value, stored coefficient is 0.186
    assert raghutla[2] == pytest.approx(7.3, abs=0.3)


def test_table2_rejects_nonpositive_gap(registry):
    with pytest.raises(ConfigurationError, match="gap"):
        build_table2(registry, gap=GapDenominator.explicit(-1.0))


def test_table_a3_rows(registry):
    table = build_table_a3(registry)
    rows = row_map(table)
    fr = [round(v, 1) for v in rows["Frankel and Romer (1999)"][2:]]
    fey = [round(v, 1) for v in rows["Feyrer (2019)"][2:]]
    ylr = [round(v, 1) for v in rows["Yanikkaya (2003), long-run"][2:]]
    for got, want in (
        (fr, [20.8, 52.6, 69.5]),
        (fey, [31.3, 143.9, 324.1]),
        (ylr, [3.8, 8.1, 10.0]),
    ):
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1.5)


def test_custom_gap_flows_through(registry):
    # with a 2x gap (ln 2), full-gap effects imply theta == 100%
    import math

    table = build_table2(registry, gap=GapDenominator.explicit(math.log(2.0)))
    assert "0.6931" in table.footnotes[0] or "0.693147" in table.footnotes[0]


# ---------------------------------------------------------------------- grid

def test_grid_shape_and_order(registry, config):
    table = build_grid(registry=registry, config=config, gap=GapDenominator.calibrated_2024())
    assert len(table.rows) == 21  # 7 model-rows x 3 scenarios
    assert [r[2] for r in table.rows[:3]] == ["C1", "C2", "C3"]
    assert table.rows[0][0] == "Yanikkaya (2003)"
    assert table.rows[0][1] == "12-year"
    assert table.rows[3][1] == "long-run"


def test_grid_bias_direction_every_row(registry, config):
    table = build_grid(registry=registry, config=config, gap=GapDenominator.calibrated_2024())
    add_idx = table.columns.index("theta_additive_log_pct")
    geo_idx = table.columns.index("theta_geometric_pct")
    total_pct = 100 * math.expm1(1.085)
    for row in table.rows:
        if 0 < row[4] < total_pct:
            # positive residual: interaction biases the geometric share down
            assert row[geo_idx] < row[add_idx]
        elif row[4] > total_pct:
            # effect overshoots the whole gap: the ordering flips
            assert row[geo_idx] > row[add_idx]


def test_grid_zero_custom_scenario(registry, config, tmp_path):
    from tradegap import TradeShockScenario

    zero = TradeShockScenario("none", 0.0, 0.554)
    cfg = ScenarioConfig(
        inputs=config.inputs, lambda_baseline=0.554, custom_scenarios=(zero,)
    )
    table = build_grid(registry=registry, config=cfg, gap=GapDenominator.calibrated_2024())
    zero_rows = [r for r in table.rows if r[2] == "none"]
    assert len(zero_rows) == 7
    for row in zero_rows:
        assert row[4] == 0.0  # effect
        assert row[5] == 0.0 and row[6] == 0.0  # both thetas


def test_growth_form_from_a_registry_file_is_its_steady_state_limit(tmp_path):
    alpha1, alpha2 = -0.0439, 0.018
    steady = {"kind": "steady_state"}
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"schema_version": 1, "models": [
        {"name": "growth", "form": "growth_with_convergence",
         "coefficient": {"alpha1": alpha1, "alpha2": alpha2}, "horizon": steady},
        {"name": "linear", "form": "log_linear_level",
         "coefficient": -alpha2 / alpha1, "horizon": steady},
    ]}), encoding="utf-8")
    registry = load_registry(path)
    growth, linear = build_table2(registry=registry).rows
    assert growth[1:] == linear[1:]
    grid = build_grid(registry=registry).rows
    half = len(grid) // 2
    assert [row[2:] for row in grid[:half]] == [row[2:] for row in grid[half:]]


@pytest.mark.parametrize("build", [build_table2, build_table_a3, build_grid, build_gap_audit])
def test_empty_registry_is_an_empty_selection(build):
    # an empty registry cannot be built, so no builder falls back to the seed registry
    with pytest.raises(ConfigurationError, match="empty selection: no models in registry"):
        build(registry=ElasticityRegistry([]))


# ----------------------------------------------------------------- gap audit

def test_gap_audit_nine_cells_and_median():
    table = build_gap_audit()
    assert len(table.rows) == 9
    implied = [r[4] for r in table.rows]
    assert all(1.05 <= g <= 1.12 for g in implied)
    assert any("median" in note for note in table.footnotes)


def test_import_leaves_statistics_out():
    """The audit's median is the middle of its nine sorted gaps, so importing
    tradegap loads neither ``statistics`` nor its ``fractions``/``decimal``."""
    unwanted = {"statistics", "fractions", "decimal"}
    code = f"import sys, tradegap; print(sorted({unwanted!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(tradegap.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n")


# ----------------------------------------------------------------- rendering

NUM = re.compile(r"-?\d+\.\d+")


def test_csv_and_markdown_carry_identical_numbers(registry):
    table = build_table2(registry)
    csv_text = render_csv(table, decimals=1)
    md_text = render_markdown(table, decimals=1)
    assert NUM.findall(csv_text) == NUM.findall(md_text)


def test_render_unknown_format(registry):
    with pytest.raises(ConfigurationError, match="unknown output format"):
        render(build_replication_table(), "yaml")


def test_csv_quotes_commas():
    table = build_table2()
    text = render_csv(table)
    line = next(l for l in text.splitlines() if "12-year" in l)
    assert line.startswith('"Yanikkaya (2003), 12-year"')


def test_rounding_is_display_only():
    t1 = build_table2()
    # full-precision floats in rows; rounding happens in the renderer
    assert any(isinstance(c, float) and c != round(c, 1) for c in t1.rows[1])
    assert render_csv(t1, decimals=3) != render_csv(t1, decimals=1)


# ----------------------------------------------------------------------- CLI

def test_cli_replicate_stdout(capsys):
    assert main(["replicate", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "C1,17.1,3.8" in out


def test_cli_writes_out_file(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table2", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("# ")


def test_cli_grid_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["grid", "--format", "csv", "--out", str(a)]) == 0
    assert main(["grid", "--format", "csv", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_config_error_exit_2(tmp_path, capsys):
    assert main(["table2", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_more_config_errors_exit_2(tmp_path, capsys):
    # a non-positive explicit gap makes the run incoherent
    assert main(["table2", "--gap", "-1.0"]) == 2
    assert main(["grid", "--gap", "-1.0"]) == 2
    # domain violations inside the config file are config errors too
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "inputs": {
                    "trade_gap_vs_synthetic_1972": -530,
                    "trade_with_us_1958": 1122,
                    "synthetic_export_excess_1972": 244,
                    "gdp_1958": 3105,
                }
            }
        ),
        encoding="utf-8",
    )
    assert main(["table2", "--config", str(cfg)]) == 2
    # partial series flags are a flag-coherence problem
    assert main(["table2", "--gap-synthetic", "x.csv"]) == 2
    capsys.readouterr()


def test_cli_data_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("year,value\n1958,not-a-number\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("year,value\n2024,100\n", encoding="utf-8")
    rc = main(
        [
            "table2",
            "--gap-synthetic", str(bad),
            "--gap-historical", str(good),
            "--gap-year", "2024",
        ]
    )
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_cli_gap_from_series(tmp_path, capsys):
    syn = tmp_path / "syn.csv"
    syn.write_text("year,value\n2024,296\n", encoding="utf-8")
    hist = tmp_path / "hist.csv"
    hist.write_text("year,value\n2024,100\n", encoding="utf-8")
    rc = main(
        [
            "table2",
            "--format", "csv",
            "--gap-synthetic", str(syn),
            "--gap-historical", str(hist),
            "--gap-year", "2024",
        ]
    )
    assert rc == 0
    assert "explicit log gap 1.08519" in capsys.readouterr().out


def test_cli_gap_subcommand(capsys):
    assert main(["gap", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 10
    assert "1.090145" in out  # the median back-out


def test_cli_years_override(capsys):
    assert main(["replicate", "--years", "6", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "for 6 years" in out


def test_cli_lambda_baseline_override(capsys):
    assert main(["table2", "--lambda-baseline", "0.60", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "baseline openness 0.6" in out
