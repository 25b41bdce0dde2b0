"""Command-line front end.

Subcommands
-----------
replicate   re-derive the original 12-year growth effects from dollar inputs
table2      effects and additive-log shares for every model x scenario
table-a3    the same grid with geometric shares
grid        full sensitivity grid, both schemes side by side
gap         back-out diagnostics for the calibrated 2024 denominator

Exit codes: 0 success, 2 configuration error, 3 data/validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .decomposition import GapDenominator
from .errors import ConfigurationError, DataValidationError
from .report import (
    RunConfig,
    build_gap_audit,
    build_grid,
    build_replication_table,
    build_table2,
    build_table_a3,
    render,
)
from .scenarios import default_scenario_config, load_scenario_config
from .series import load_series, log_gap


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario config JSON")
    parser.add_argument(
        "--format", choices=("csv", "md"), default="md", help="output format (default md)"
    )
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument(
        "--years", type=int, metavar="N", help="override the finite compounding horizon"
    )
    parser.add_argument(
        "--lambda-baseline", type=float, metavar="X", help="override baseline openness share"
    )
    parser.add_argument(
        "--gap",
        type=float,
        metavar="LOG_POINTS",
        help="explicit total-gap denominator in log points",
    )
    parser.add_argument(
        "--gap-synthetic",
        metavar="CSV",
        help="synthetic-counterfactual GDP series (with --gap-historical/--gap-year)",
    )
    parser.add_argument(
        "--gap-historical", metavar="CSV", help="historical GDP series"
    )
    parser.add_argument(
        "--gap-year", type=int, metavar="YEAR", help="year at which to measure the gap"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradegap",
        description="Counterfactual growth accounting for a trade embargo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("replicate", "re-derive the original 12-year growth effects"),
        ("table2", "effects and additive-log shares per model and scenario"),
        ("table-a3", "geometric shares per model and scenario"),
        ("grid", "full sensitivity grid, both decomposition schemes"),
        ("gap", "back-out diagnostics for the calibrated gap denominator"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))
    return parser


def _resolve_gap(args: argparse.Namespace) -> GapDenominator | None:
    """Turn the gap flags into a denominator; None means package default."""
    series_flags = (args.gap_synthetic, args.gap_historical, args.gap_year)
    if args.gap is not None:
        if any(f is not None for f in series_flags):
            raise ConfigurationError("--gap conflicts with --gap-synthetic/--gap-historical")
        return GapDenominator.explicit(args.gap)
    if all(f is None for f in series_flags):
        return None
    if any(f is None for f in series_flags):
        raise ConfigurationError(
            "--gap-synthetic, --gap-historical and --gap-year must be given together"
        )
    synthetic = load_series(args.gap_synthetic)
    historical = load_series(args.gap_historical)
    return log_gap(synthetic, historical, args.gap_year)


def _run(args: argparse.Namespace) -> str:
    config = load_scenario_config(args.config) if args.config else default_scenario_config()
    gap = _resolve_gap(args)
    if args.command == "replicate":
        table = build_replication_table(
            config, lambda_baseline=args.lambda_baseline, years=args.years or 12
        )
    elif args.command == "table2":
        table = build_table2(
            config=config, gap=gap, lambda_baseline=args.lambda_baseline, years=args.years
        )
    elif args.command == "table-a3":
        table = build_table_a3(
            config=config, gap=gap, lambda_baseline=args.lambda_baseline, years=args.years
        )
    elif args.command == "grid":
        from .elasticities import seed_registry

        run = RunConfig(
            registry=seed_registry(),
            scenario_config=config,
            denominator=gap or GapDenominator.calibrated_2024(),
            years=args.years,
        )
        table = build_grid(run)
    else:  # gap
        table = build_gap_audit(config=config, lambda_baseline=args.lambda_baseline)
    decimals = 6 if args.command == "gap" else 1
    return render(table, args.format, decimals=decimals)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _run(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
