import ast
import dataclasses
import itertools
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
    TradeShockScenario,
    additive_log_share,
    build_gap_audit,
    build_grid,
    build_replication_table,
    build_scenarios,
    build_table2,
    build_table_a3,
    custom_scenario,
    default_scenario_config,
    evaluate,
    geometric_share_of_gap,
    load_registry,
    load_scenario_config,
    render,
    render_csv,
    render_markdown,
    seed_registry,
)
from tradegap import report
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


def test_grid_rows_are_the_cells_one_at_a_time(registry, config, tmp_path):
    """The grid's column blocks, on a config file's custom scenarios, read back
    as the rows of its cells, each from the scalar API: registry order, then
    C1-C3 and the custom scenarios."""
    lam0 = 0.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "inputs": dataclasses.asdict(config.inputs), "lambda_baseline": lam0,
        "custom_scenarios": [{"id": "mild", "delta_lambda": 0.05},
                             {"id": "deep", "delta_lambda": 0.45, "description": "most of it"}],
    }), encoding="utf-8")
    cfg = load_scenario_config(path)
    customs = (TradeShockScenario("mild", 0.05, lam0),
               TradeShockScenario("deep", 0.45, lam0, "most of it"))
    assert cfg.custom_scenarios == customs
    gap = GapDenominator.explicit(1.2)
    c1 = custom_scenario("C1", report.TABLE_C1_DELTA_LAMBDA, lam0)
    scenarios = (c1, *build_scenarios(config.inputs, lam0)[1:], *customs)
    expected = []
    for entry in registry:  # a finite-horizon model gives a 6-year row, then a long-run one
        models = [entry]
        if entry.years is not None:
            models = [replace(entry, years=6), replace(entry, years=None)]
        for model, scenario in itertools.product(models, scenarios):
            display = report._DISPLAY_NAMES[model.name]
            effect = evaluate(model, scenario)
            horizon = "long-run" if model.years is None else f"{model.years}-year"
            expected.append((
                display, horizon, scenario.id, f"{scenario.delta_lambda:.6f}",
                100.0 * effect.relative_level, 100.0 * additive_log_share(effect, gap).theta,
                100.0 * geometric_share_of_gap(effect, gap).theta,
            ))
    table = build_grid(registry=registry, config=cfg, gap=gap, years=6)
    assert table.rows == tuple(expected)
    assert len(table.blocks) == 7


def test_replaced_config_grid_is_the_grid_of_its_file(tmp_path):
    """``dataclasses.replace`` rebuilds a config through its checks, and the
    grid reads the scenarios it holds as it reads a file's."""
    config = default_scenario_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "inputs": dataclasses.asdict(config.inputs),
        "custom_scenarios": [{"id": "S", "delta_lambda": 0.2}],
    }), encoding="utf-8")
    replaced = replace(config, custom_scenarios=(custom_scenario("S", 0.2, 0.554),))
    assert replaced == load_scenario_config(path)
    assert build_grid(config=replaced) == build_grid(config=load_scenario_config(path))


def test_config_scenarios_share_its_baseline(config):
    other = TradeShockScenario("x", 0.1, 0.6)
    message = "custom_scenarios[0] is at baseline 0.6, not the config's 0.554"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        ScenarioConfig(config.inputs, 0.554, (other,))


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


def test_cli_runs_without_dataclasses_or_inspect(tmp_path):
    """The value classes build their ``dataclasses`` field tables on first
    use, so neither importing the CLI nor running each table subcommand
    loads ``dataclasses``, ``inspect`` or what they import."""
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    code = (
        "import sys; from tradegap import cli; loaded = [set(sys.modules)]\n"
        "for command in ('table2', 'table-a3', 'grid', 'replicate', 'gap'):\n"
        f"    assert cli.main([command, '--out', {str(tmp_path)!r} + '/' + command]) == 0\n"
        "loaded.append(set(sys.modules))\n"
        f"print([sorted({unwanted!r} & names) for names in loaded])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(tradegap.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[[], []]\n", "")
    assert len(list(tmp_path.iterdir())) == 5


def test_package_init_holds_only_a_docstring_imports_and_assignments():
    """CI's line trace cannot see ``__init__.py`` (stdlib ``trace`` ignores
    files by basename), so no statement that might not run may live there."""
    path = Path(__file__).resolve().parents[1] / "src" / "tradegap" / "__init__.py"
    docstring, *body = ast.parse(path.read_text(encoding="utf-8")).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert body and all(isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign)) for node in body)


def test_package_all_is_what_init_imports():
    """``__all__`` names each name ``__init__.py`` imports, and ``__version__``,
    once; ``from tradegap import *`` binds every one of them."""
    path = Path(__file__).resolve().parents[1] / "src" / "tradegap" / "__init__.py"
    imported = [
        alias.asname or alias.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(tradegap.__all__) == sorted(imported + ["__version__"])
    namespace = {}
    exec("from tradegap import *", namespace)
    assert set(tradegap.__all__) <= namespace.keys()


def test_every_public_function_has_a_reader():
    """Each function in ``__all__`` is named outside ``__init__.py``: in a src
    module, under ``bench/`` or in the acceptance suite.  A name, an
    attribute, an import or a string counts (``cli._COMMANDS`` names its
    builders, ``bench/spans.py``'s ``TRACED`` the functions it wraps); a
    mention in a docstring does not.  CI's line trace shows that every line
    runs; this shows that every public function has a caller."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for path in (root / "src" / "tradegap").glob("*.py")
             if path.name != "__init__.py"]
    paths += [*(root / "bench").rglob("*.py"), root / "tests" / "test_acceptance.py"]
    named = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and id(node) not in docstrings:
                named.add(node.value)
    functions = {
        name for name in tradegap.__all__
        if callable(obj := getattr(tradegap, name)) and not isinstance(obj, type)
    }
    assert sorted(functions - named) == []


def test_readme_python_blocks_run():
    """README's ``python`` blocks run in order, in one namespace."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


# ----------------------------------------------------------------- rendering

NUM = re.compile(r"-?\d+\.\d+")


def test_csv_and_markdown_carry_identical_numbers(registry):
    table = build_table2(registry)
    csv_text = render_csv(table, decimals=1)
    md_text = render_markdown(table, decimals=1)
    assert NUM.findall(csv_text) == NUM.findall(md_text)


def test_render_unknown_format(registry):
    for fn in (render, report.render_chunks):
        with pytest.raises(ConfigurationError, match="^unknown output format 'yaml'$"):
            fn(build_replication_table(), "yaml")


@pytest.mark.parametrize("fmt,render_fmt", [("csv", render_csv), ("md", render_markdown)])
def test_render_and_the_chunks_the_cli_writes_are_one_text(fmt, render_fmt):
    """The grid's chunks: its caption and header, one per block (each under
    ``_PASS_CELLS`` rows), then its footnotes."""
    table = build_grid()
    chunks = list(report.render_chunks(table, fmt))
    assert render(table, fmt) == render_fmt(table) == "".join(chunks)
    assert len(chunks) == len(table.blocks) + 2
    assert chunks[0].count("\n") == (2 if fmt == "csv" else 4)


def test_csv_quotes_commas():
    table = build_table2()
    text = render_csv(table)
    line = next(l for l in text.splitlines() if "12-year" in l)
    assert line.startswith('"Yanikkaya (2003), 12-year"')


@pytest.mark.parametrize(
    "ids,rows",
    [
        # a NUL is written as it is, beside a quoted id: no escape character is needed
        (["a\0b", "c,d"], ["a\0b,0.050000,1.1,1.0,0.6", '"c,d",0.100000,2.2,2.0,1.1']),
        # a carriage return is quoted, as a line feed is
        (["a\rb"], ['"a\rb",0.050000,1.1,1.0,0.6']),
    ],
)
def test_grid_csv_quotes_custom_ids_alike_on_every_python(ids, rows, config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "inputs": dataclasses.asdict(config.inputs),
        "custom_scenarios": [
            {"id": sid, "delta_lambda": 0.05 * (i + 1)} for i, sid in enumerate(ids)
        ],
    }), encoding="utf-8")
    assert main(["grid", "--format", "csv", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[2:5 + len(ids)] == [
        "Yanikkaya (2003),12-year,C1,0.174000,3.8,3.5,2.0",
        "Yanikkaya (2003),12-year,C2,0.361353,8.1,7.2,4.1",
        "Yanikkaya (2003),12-year,C3,0.439936,9.9,8.7,5.1",
        *(f"Yanikkaya (2003),12-year,{row}" for row in rows),
    ]


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
    # an empty path names no file: it is neither the packaged config nor stdout,
    # and the error line shows it as '', not as the directory "." it would resolve to
    for argv, code, kind in (
        (["replicate", "--config", ""], 2, "configuration error: "),
        (["replicate", "--out", ""], 2, "configuration error: "),
        (["table2", "--gap-synthetic", "", "--gap-historical", "x", "--gap-year", "2000"], 3,
         "data error: "),
    ):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, captured
        assert captured.err.startswith(kind) and ": ''" in captured.err, captured
    assert main(["grid", "--config", ""]) == 2
    assert capsys.readouterr() == ("", "configuration error: scenario config not found: ''\n")


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


def _cli_child(argv, stdout):
    """A ``tradegap`` process writing to ``stdout``: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tradegap.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "tradegap.cli", *argv], env=env, stdout=stdout,
                         stderr=subprocess.PIPE, text=True)
    return run.returncode, run.stderr


def test_cli_closed_pipe_ends_quietly_with_exit_1():
    """A reader that has gone, as after ``| head``, ends the run with exit 1
    and nothing on stderr: no traceback, and no error from the last flush."""
    read, write = os.pipe()
    os.close(read)  # closed before the child writes, so its first write fails
    try:
        assert _cli_child(["grid"], write) == (1, "")
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_stdout_write_error_exits_2():
    """A write error on stdout is one line and exit 2, as on ``--out``: the
    flush runs inside the run, so a table smaller than the buffer fails too."""
    with open("/dev/full", "w") as full:
        code, err = _cli_child(["replicate"], full)
    assert (code, err) == (2, "configuration error: [Errno 28] No space left on device\n")


def test_cli_closed_pipe_points_stdout_at_devnull(tmp_path, monkeypatch, capsys):
    """In process: on a closed pipe, stdout's descriptor is pointed at
    ``os.devnull``, so the interpreter's last flush has nowhere to fail."""

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def writelines(self, chunks):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as stand_in:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(stand_in.fileno()))
        assert main(["replicate"]) == 1
        assert os.path.samestat(os.fstat(stand_in.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


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
