"""Smoke test of the benchmark at a tiny size; makes no timing assertions.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict[str, str], dict]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", "0.01",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            float(value)
            printed[name] = unit
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, key):
    printed, result = _run(workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert printed == declared
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _context(workload: str, tmp_path: Path) -> workloads.Context:
    inputs = gen.generate(workload, 3, tmp_path, scale=0.01)
    return workloads.Context(workload, run.child_env(), inputs, 3)


def test_corrupted_table_counts_as_failed(tmp_path, monkeypatch):
    import tradegap

    build = tradegap.build_table2

    def off_by_one(*args, **kwargs):
        table = build(*args, **kwargs)
        first = list(table.rows[0])
        first[2] += 1.0  # the C1 effect cell, one percentage point off
        return dataclasses.replace(table, rows=(tuple(first), *table.rows[1:]))

    monkeypatch.setattr(tradegap, "build_table2", off_by_one)
    loop = run.run_loop(_context("tables_sweep", tmp_path), 0.5)
    assert loop.failed > 0
    assert loop.failed < loop.attempted  # the other builders still pass
    assert any("row 0" in err for err in loop.errors)


def test_changed_cli_bytes_count_as_failed(tmp_path, monkeypatch):
    run_cli = workloads.run_cli

    def one_byte_more(*args):
        code, data, err = run_cli(*args)
        return code, data + b"\n", err

    monkeypatch.setattr(workloads, "run_cli", one_byte_more)
    loop = run.run_loop(_context("cli_cold", tmp_path), 1.0)
    assert loop.failed == loop.attempted > 0
    assert all("differs from the recorded bytes" in err for err in loop.errors)
