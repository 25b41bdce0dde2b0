"""Golden-bytes suite: the CLI's stdout for a fixed set of argv lists.

Each case's expected output lives in ``tests/golden/<case>``.  The files
were recorded from the CLI itself; regenerate them only for an intended
output change, by running ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from tradegap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = GOLDEN / "fixtures"

#: Flag variants, each run only by the subcommands that read the flag.
_VARIANTS = {
    "years6": (["--years", "6"], ("replicate", "table2", "table-a3", "grid")),
    "lambda0.60": (["--lambda-baseline", "0.60"], ("replicate", "table2", "table-a3", "gap")),
    "gap1.2": (["--gap", "1.2"], ("table2", "table-a3", "grid")),
}

_SERIES = [
    "--gap-synthetic", str(FIXTURES / "synthetic.csv"),
    "--gap-historical", str(FIXTURES / "historical.csv"),
    "--gap-year", "2024",
]
_CONFIG = ["--config", str(FIXTURES / "config.json")]

#: Golden file name -> argv.
CASES: dict[str, list[str]] = {
    **{
        f"{cmd}.{fmt}": [cmd, "--format", fmt]
        for cmd in ("replicate", "table2", "table-a3", "grid", "gap")
        for fmt in ("md", "csv")
    },
    **{
        f"{cmd}-{name}.{fmt}": [cmd, *flags, "--format", fmt]
        for name, (flags, cmds) in _VARIANTS.items()
        for cmd in cmds
        for fmt in ("md", "csv")
    },
    "table2-series.md": ["table2", *_SERIES],
    "grid-series.csv": ["grid", *_SERIES, "--format", "csv"],
    "table2-config.md": ["table2", *_CONFIG],
    "grid-config.csv": ["grid", *_CONFIG, "--format", "csv"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / case).read_bytes()


def _regenerate() -> None:
    for case, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(argv) != 0:
                sys.exit(f"{case}: non-zero exit")
        (GOLDEN / case).write_bytes(buf.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _regenerate()
