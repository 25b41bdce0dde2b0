"""Command-line front end.

Subcommands
-----------
replicate   re-derive the original 12-year growth effects from dollar inputs
table2      effects and additive-log shares for every model x scenario
table-a3    the same grid with geometric shares
grid        full sensitivity grid, both schemes side by side
gap         back-out diagnostics for the calibrated 2024 denominator

Each subcommand takes only the flags its table builder reads; any other
flag is a usage error.  A flag's value is checked first, by the rule its
builder applies, and one that breaks it is a one-line configuration error
naming the flag.  Exit codes: 0 success, 1 the reader of the output has
gone (a closed pipe on stdout or on an --out FIFO, nothing on stderr),
2 configuration error, an output that cannot be written among them,
3 data/validation error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Any, Callable, Iterator

from . import report
from .decomposition import GapDenominator
from .elasticities import _check_years
from .errors import ConfigurationError, DataValidationError
from .scenarios import _check_baseline, default_scenario_config, load_scenario_config
from .series import _check_year, load_series, log_gap


#: Builder keyword -> the flags that feed it, as (flag, type, metavar, help).
_FLAGS: dict[str, tuple[tuple[str, Callable[[str], object], str, str], ...]] = {
    "years": (("--years", int, "N", "override the finite compounding horizon, N >= 1"),),
    "lambda_baseline": (("--lambda-baseline", float, "X", "override baseline openness share"),),
    "gap": (
        ("--gap", float, "LOG_POINTS", "explicit total-gap denominator in log points"),
        ("--gap-synthetic", str, "CSV",
         "synthetic-counterfactual GDP series (with --gap-historical/--gap-year)"),
        ("--gap-historical", str, "CSV", "historical GDP series"),
        ("--gap-year", int, "YEAR", "year at which to measure the gap"),
    ),
}

#: A flag's argparse dest -> the rule its table builder applies to its value.
_RULES: dict[str, Callable[[Any], object]] = {
    "years": _check_years,
    "lambda_baseline": _check_baseline,
    "gap": lambda gap: GapDenominator.explicit(gap).checked_log_points(),
    "gap_year": lambda year: _check_year(year, "year"),
}

#: Subcommand -> (help, report builder, builder keywords taken from flags,
#: decimals).  The builder is named and looked up on ``report`` at each run,
#: so a function rebound there (a tracing wrapper, say) is the one called.
_COMMANDS: dict[str, tuple[str, str, tuple[str, ...], int]] = {
    "replicate": ("re-derive the original 12-year growth effects",
                  "build_replication_table", ("years", "lambda_baseline"), 1),
    "table2": ("effects and additive-log shares per model and scenario",
               "build_table2", ("years", "lambda_baseline", "gap"), 1),
    "table-a3": ("geometric shares per model and scenario",
                 "build_table_a3", ("years", "lambda_baseline", "gap"), 1),
    "grid": ("full sensitivity grid, both decomposition schemes",
             "build_grid", ("years", "gap"), 1),
    "gap": ("back-out diagnostics for the calibrated gap denominator",
            "build_gap_audit", ("lambda_baseline",), 6),
}


@functools.cache  # parse_args keeps no state on the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradegap",
        description="Counterfactual growth accounting for a trade embargo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _builder, keywords, _decimals) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="scenario config JSON")
        cmd.add_argument(
            "--format", choices=("csv", "md"), default="md", help="output format (default md)"
        )
        cmd.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        for keyword in keywords:
            for flag, kind, metavar, help_text in _FLAGS[keyword]:
                cmd.add_argument(flag, type=kind, metavar=metavar, help=help_text)
    return parser


def _resolve_gap(args: argparse.Namespace) -> GapDenominator | None:
    """The gap flags as a denominator, ``--gap`` already checked by its rule;
    None means package default.  A series gap's error names its three flags."""
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
    synthetic, historical = load_series(args.gap_synthetic), load_series(args.gap_historical)
    try:
        gap = log_gap(synthetic, historical, args.gap_year)
        gap.checked_log_points()
    except (ConfigurationError, DataValidationError) as exc:
        raise type(exc)(f"--gap-synthetic/--gap-historical/--gap-year: {exc}") from None
    return gap


def _run(args: argparse.Namespace) -> Iterator[str]:
    """The chunks of the table ``args`` ask for, the first taken: every check has run."""
    for dest, rule in _RULES.items():
        if getattr(args, dest, None) is not None:
            try:
                rule(getattr(args, dest))
            except (ConfigurationError, DataValidationError) as exc:
                raise ConfigurationError(f"--{dest.replace('_', '-')}: {exc}") from None
    _help, builder, keywords, decimals = _COMMANDS[args.command]
    config = default_scenario_config() if args.config is None else load_scenario_config(args.config)
    flags = {k: _resolve_gap(args) if k == "gap" else getattr(args, k) for k in keywords}
    given = {k: v for k, v in flags.items() if v is not None}
    table = getattr(report, builder)(config=config, **given)
    chunks = report.render_chunks(table, args.format, decimals=decimals)
    return chain((next(chunks),), chunks)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        chunks = _run(args)
        to_file = args.out is not None  # --out opens only now: a failing run makes no file
        with open(args.out, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as out:
            out.writelines(chunks)
            out.flush()
    except BrokenPipeError:  # the reader has gone, as after `| head`: end quietly,
        # with stdout on os.devnull so that the interpreter's last flush is silent too
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
