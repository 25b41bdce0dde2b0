"""The three workloads: an endless, seeded plan of operations for each.

Every operation has a ``run`` (the timed part) and a ``check`` (untimed;
returns a list of errors, empty when the output is right) plus the number
of table rows the output holds.  All three are closed loops with one
client: the next operation starts when the previous one and its check
have finished.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterator

import check
from gen import DEFAULT_INPUTS, Inputs

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_cold.json"

#: cli_cold argv lists.  ``{syn}``, ``{hist}``, ``{config}`` and ``{out}``
#: stand for the generated files; the output bytes of each are recorded in
#: ``golden/cli_cold.json``.
CLI_CASES: dict[str, list[str]] = {
    **{
        f"{cmd}-{fmt}": [cmd, "--format", fmt]
        for cmd in ("replicate", "table2", "table-a3", "grid", "gap")
        for fmt in ("md", "csv")
    },
    "replicate-years6": ["replicate", "--years", "6"],
    "table2-years6": ["table2", "--years", "6"],
    "table-a3-years6-csv": ["table-a3", "--years", "6", "--format", "csv"],
    "grid-years6": ["grid", "--years", "6"],
    "replicate-lambda060": ["replicate", "--lambda-baseline", "0.60"],
    "table2-lambda060-csv": ["table2", "--lambda-baseline", "0.60", "--format", "csv"],
    "table-a3-lambda060": ["table-a3", "--lambda-baseline", "0.60"],
    "gap-lambda060": ["gap", "--lambda-baseline", "0.60"],
    "table2-gap1.2": ["table2", "--gap", "1.2"],
    "table-a3-gap1.2-csv": ["table-a3", "--gap", "1.2", "--format", "csv"],
    "grid-gap1.2-csv": ["grid", "--gap", "1.2", "--format", "csv"],
    "table2-series2024": [
        "table2", "--gap-synthetic", "{syn}", "--gap-historical", "{hist}", "--gap-year", "2024",
    ],
    "table-a3-series1990-csv": [
        "table-a3", "--gap-synthetic", "{syn}", "--gap-historical", "{hist}",
        "--gap-year", "1990", "--format", "csv",
    ],
    "grid-series2010-csv": [
        "grid", "--gap-synthetic", "{syn}", "--gap-historical", "{hist}",
        "--gap-year", "2010", "--format", "csv",
    ],
    "replicate-config": ["replicate", "--config", "{config}"],
    "table2-config-csv": ["table2", "--config", "{config}", "--format", "csv"],
    "grid-config": ["grid", "--config", "{config}"],
    "gap-config": ["gap", "--config", "{config}"],
    "table2-out": ["table2", "--out", "{out}"],
    "grid-config-out-csv": ["grid", "--config", "{config}", "--format", "csv", "--out", "{out}"],
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    rows: Callable[[object], int]


@dataclass
class Context:
    """What operations need from the benchmark process."""

    workload: str
    env: dict[str, str]
    inputs: Inputs
    seed: int
    span_file: Path | None = None  # set when cli_cold children run traced


def fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "md"


def expand_argv(template: list[str], inputs: Inputs, out: Path) -> list[str]:
    series = inputs.series[0]
    values = {
        "{syn}": str(series.synthetic), "{hist}": str(series.historical),
        "{config}": str(inputs.config_path), "{out}": str(out),
    }
    return [values.get(a, a) for a in template]


def cli_command(ctx: Context, argv: list[str]) -> list[str]:
    if ctx.span_file is not None:
        child = Path(__file__).resolve().parent / "child.py"
        return [sys.executable, str(child), "trace", str(ctx.span_file), *argv]
    return [sys.executable, "-m", "tradegap.cli", *argv]


def run_cli(ctx: Context, argv: list[str], out: Path) -> tuple[int, bytes, bytes]:
    """One fresh CLI process; returns (exit code, output bytes, stderr)."""
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        cli_command(ctx, argv), env=ctx.env, capture_output=True, timeout=120, check=False
    )
    data = out.read_bytes() if "--out" in argv and out.exists() else proc.stdout
    if "--out" in argv and proc.stdout:
        data = b"stdout not empty with --out: " + proc.stdout
    return proc.returncode, data, proc.stderr


def cli_cold(ctx: Context) -> Iterator[Op]:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rng = random.Random(ctx.seed)
    out = ctx.inputs.work / "cli_out.txt"
    cases = sorted(CLI_CASES)
    while True:
        rng.shuffle(cases)
        for case in cases:
            argv = expand_argv(CLI_CASES[case], ctx.inputs, out)
            want = golden[case]

            def verify(result, case=case, argv=argv, want=want) -> list[str]:
                code, data, err = result
                if code != 0 or err:
                    return [f"{case}: exit {code}, stderr {err[-300:]!r}"]
                if data != want["output"].encode("utf-8"):
                    return [f"{case}: output differs from the recorded bytes"]
                if case in ("replicate-md", "replicate-csv"):
                    return check.check_published_replication(data.decode("utf-8"), fmt_of(argv))
                return []

            yield Op(
                case,
                lambda argv=argv: run_cli(ctx, argv, out),
                verify,
                lambda _result, want=want: want["rows"],
            )


#: tables_sweep cycles through these (builder, registry) kinds in a fixed
#: order, so every run has the same mix: a third of the operations load the
#: generated 200-model registry, and the cheap packaged-registry tables sit
#: in the middle of the latency distribution.
TABLE_KINDS = (
    ("table2", "packaged"), ("table_a3", "generated"), ("replication", None),
    ("table2", "generated"), ("table_a3", "packaged"), ("gap_audit", None),
)


def tables_sweep(ctx: Context) -> Iterator[Op]:
    import tradegap as tg  # looked up per call, so the span recorder sees the calls

    inputs = ctx.inputs
    rng = random.Random(ctx.seed)
    check_rng = random.Random(ctx.seed + 1)
    for i in count():
        kind, registry = TABLE_KINDS[i % len(TABLE_KINDS)]
        lam0 = round(rng.uniform(0.45, 0.65), 4)
        years = rng.randint(1, 30)
        fmt = rng.choice(("md", "csv"))
        gap_kind = rng.choice(("default", "explicit", "series"))
        explicit = round(rng.uniform(0.8, 1.6), 4)
        pair = rng.choice(inputs.series)
        year = rng.randint(1960, 2024)
        models = inputs.registry_models if registry == "generated" else check.PACKAGED_MODELS
        if kind in ("table2", "table_a3"):
            gap_value = {
                "default": check.GAP_2024, "explicit": explicit, "series": pair.gap(year),
            }[gap_kind]
            expected = check.expect_effect_table(
                models, DEFAULT_INPUTS, lam0, gap_value, years, geometric=kind == "table_a3"
            )
            label = f"{kind}/{registry}/{gap_kind}/{fmt}"
        elif kind == "replication":
            expected = check.expect_replication(DEFAULT_INPUTS, years)
            label = f"{kind}/{fmt}"
        else:
            expected = check.expect_gap_audit(DEFAULT_INPUTS)
            label = f"{kind}/{fmt}"

        def run(kind=kind, registry=registry, gap_kind=gap_kind, explicit=explicit,
                pair=pair, year=year, lam0=lam0, years=years, fmt=fmt) -> str:
            if kind == "replication":
                table = tg.build_replication_table(lambda_baseline=lam0, years=years)
            elif kind == "gap_audit":
                return tg.render(tg.build_gap_audit(lambda_baseline=lam0), fmt, decimals=6)
            else:
                reg = tg.load_registry(inputs.registry_path) if registry == "generated" else None
                if gap_kind == "default":
                    gap = None
                elif gap_kind == "explicit":
                    gap = tg.GapDenominator.explicit(explicit)
                else:
                    gap = tg.log_gap(
                        tg.load_series(pair.synthetic), tg.load_series(pair.historical), year
                    )
                build = tg.build_table2 if kind == "table2" else tg.build_table_a3
                table = build(registry=reg, gap=gap, lambda_baseline=lam0, years=years)
            return tg.render(table, fmt)

        yield Op(
            label,
            run,
            lambda text, exp=expected, fmt=fmt: check.check_table(text, fmt, exp, check_rng, 8),
            lambda text, fmt=fmt: check.row_count(text, fmt),
        )


def grid_sweep(ctx: Context) -> Iterator[Op]:
    import tradegap.cli

    inputs = ctx.inputs
    rng = random.Random(ctx.seed)
    check_rng = random.Random(ctx.seed + 1)
    for i in count():
        fmt = ("csv", "md")[i % 2]
        years = rng.randint(1, 30)
        gap = round(rng.uniform(0.8, 1.6), 4)
        out = inputs.work / f"grid.{fmt}"
        argv = [
            "grid", "--config", str(inputs.config_path), "--format", fmt, "--out", str(out),
            "--years", str(years), "--gap", str(gap),
        ]
        expected = check.expect_grid(
            check.PACKAGED_MODELS, inputs.config_inputs, inputs.config_lambda,
            inputs.custom_scenarios, gap, years,
        )

        def verify(code, fmt=fmt, out=out, expected=expected) -> list[str]:
            if code != 0:
                return [f"grid exit {code}"]
            text = out.read_text(encoding="utf-8")
            return check.check_table(text, fmt, expected, check_rng, 32)

        yield Op(
            f"grid/{fmt}",
            lambda argv=argv: tradegap.cli.main(argv),
            verify,
            lambda _code, n=expected.n_rows: n,
        )


PLANS = {"cli_cold": cli_cold, "tables_sweep": tables_sweep, "grid_sweep": grid_sweep}

#: Workloads whose operations run inside the benchmark process.
IN_PROCESS = ("tables_sweep", "grid_sweep")

#: Tail percentile per workload, fixed so that runs compare like with like:
#: the highest one with at least ten samples beyond it in a 40-second run.
TAIL_PERCENTILE = {"cli_cold": 95, "tables_sweep": 99, "grid_sweep": 90}
