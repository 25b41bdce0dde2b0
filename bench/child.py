"""Child processes of the benchmark.

``child.py probe WORKLOAD WORKDIR`` imports tradegap, runs the workload's
untimed warm-up and prints ``ready``; the parent times the interval from
launch to that line as ``setup_s``.

``child.py trace STATE_JSON ARG...`` runs ``tradegap.cli.main(ARG...)``
under the span recorder and writes the recorder's state to STATE_JSON;
the traced ``cli_cold`` run uses it in place of ``python -m tradegap.cli``.

Both expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def warm_up(workload: str, work: Path) -> None:
    """Untimed work before the first timed operation of ``workload``."""
    import tradegap.cli

    if workload == "tables_sweep":
        import tradegap as tg

        for build in (tg.build_table2, tg.build_table_a3, tg.build_replication_table):
            tg.render(build(), "md")
        tg.render(tg.build_gap_audit(), "csv", decimals=6)
    elif workload == "grid_sweep":
        for fmt in ("md", "csv"):
            tradegap.cli.main(["grid", "--format", fmt, "--out", str(work / f"warmup.{fmt}")])


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        warm_up(argv[1], Path(argv[2]))
        print("ready", flush=True)
        return 0
    if mode == "trace":
        import json

        import tradegap.cli
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
        try:
            code = tradegap.cli.main(argv[2:])
        finally:
            recorder.restore()
            sys.stdout.flush()
            Path(argv[1]).write_text(json.dumps(recorder.state()), encoding="utf-8")
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
