"""tradegap benchmark: one workload, one seed, one line of JSON.

Usage (from the repository root)::

    python3 bench/run.py --workload {cli_cold,tables_sweep,grid_sweep} \\
        --seed N --seconds S --trace {0,1}

The run builds its inputs from the seed (``gen.py``), then runs the
workload as a closed loop with one client for S seconds of wall time,
checking every output outside the timed region (``check.py``).  Between
operations it measures ``setup_s`` by launching fresh interpreters that
import tradegap and do the workload's warm-up.  It prints each metric by name with its unit,
and as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the span recorder installed (``spans.py``),
reports per-layer metrics from the traced half only, the tracing overhead
as the difference of the two halves' median latencies, and writes spans
and per-layer self times to ``.bench_out/trace-<workload>-seed<N>.json``.

``--record-goldens`` rewrites ``golden/cli_cold.json`` from the current
program; do that only when an output change is intended.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import gen
import workloads
from child import warm_up
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11
IMPORT_PROBES = 5
BARE_PROBES = 5

#: Metrics gated in BENCHMARK.json.  On the shared 2-vCPU VM (Intel Xeon,
#: 2.1 GHz) the benchmark was built on, host speed switches between a fast
#: and a slow state for tens of seconds at a time.  A run's median and mean
#: move with the share of time spent in each state (ten-seed spreads up to
#: 0.27), while the tail, set by the slow state, stays within 0.09.  So the
#: median and throughputs are printed for reading; only the tail is gated.
END_TO_END_UNITS = {"setup_s": "s", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
INFO_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "rows_per_s": "rows/s"}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def launch_ms(cmd: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - start) * 1e3


def setup_probe(workload: str, work: Path) -> float:
    """Launch-to-ready time of a fresh interpreter doing the workload's set-up."""
    child = Path(__file__).resolve().parent / "child.py"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(child), "probe", workload, str(work)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def import_tree(stderr: str) -> list[tuple[int, int, int, str]]:
    """(level, self us, cumulative us, module) rows of ``-X importtime``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, int(self_us), int(cum_us), name.strip()))
    return rows


def subtrees(rows):
    """Yield (top-level row, its descendants); importtime prints children first."""
    pending = []
    for row in rows:
        if row[0] == 0:
            yield row, pending
            pending = []
        else:
            pending.append(row)


def import_split_ms() -> tuple[float, float]:
    """Median self time of tradegap's modules and of the stdlib modules they pull in."""
    ours, theirs = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tradegap.cli"],
            env=child_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        tg_us = other_us = 0
        for top, below in subtrees(import_tree(proc.stderr)):
            if top[3].split(".")[0] != "tradegap":
                continue
            for _, self_us, _, name in [*below, top]:
                if name.split(".")[0] == "tradegap":
                    tg_us += self_us
                else:
                    other_us += self_us
        ours.append(tg_us / 1e3)
        theirs.append(other_us / 1e3)
    return statistics.median(ours), statistics.median(theirs)


def machine_note() -> dict:
    """Python version, CPUs, the bare-interpreter floor and what ``site`` adds to it."""
    bare = statistics.median(
        launch_ms([sys.executable, "-c", "pass"]) for _ in range(BARE_PROBES)
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "pass"],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    site_extra = {}
    for top, below in subtrees(import_tree(proc.stderr)):
        if top[3] == "site":
            for level, _, cum_us, name in below:
                if level == 1 and name.split(".")[0] not in sys.stdlib_module_names:
                    site_extra[name] = round(cum_us / 1e3, 2)
    note = "site imports nothing outside the stdlib"
    if site_extra:
        listed = ", ".join(f"{k} ({v} ms)" for k, v in site_extra.items())
        note = (
            f"site already imports {listed} in every interpreter, "
            "so that part of interp.bare_ms and of cli_cold is not tradegap's"
        )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "interp.bare_ms": bare,
        "site_imports_ms": site_extra,
        "note": note,
    }


@dataclass
class Loop:
    """Outcome of running a workload's plan for a number of seconds."""

    latencies: list[float] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def run_loop(
    ctx: workloads.Context,
    seconds: float,
    recorder: Recorder | None = None,
    probe: Callable[[], float] | None = None,
) -> Loop:
    """Run operations for ``seconds``; with ``probe``, also take SETUP_PROBES
    set-up samples spread evenly over the run, between operations, so that
    they see the same host conditions as the operations."""
    loop = Loop()
    plan = workloads.PLANS[ctx.workload](ctx)
    start_loop = time.perf_counter()
    deadline = start_loop + seconds
    while time.perf_counter() < deadline:
        due = start_loop + len(loop.setup) * seconds / SETUP_PROBES
        if probe is not None and len(loop.setup) < SETUP_PROBES and time.perf_counter() >= due:
            loop.setup.append(probe())
        op = next(plan)
        loop.attempted += 1
        problems: list[str]
        try:
            if recorder is None:
                start = time.perf_counter()
                result = op.run()
                elapsed = time.perf_counter() - start
            else:
                with recorder.op(loop.attempted) as span:
                    start = time.perf_counter()
                    result = op.run()
                    elapsed = time.perf_counter() - start
                if ctx.span_file is not None:
                    state = json.loads(ctx.span_file.read_text(encoding="utf-8"))
                    recorder.merge(state, span, loop.attempted)
            problems = op.check(result)
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"{op.label}: {exc!r}"]
        if problems:
            loop.failed += 1
            loop.errors += problems[:3]
            continue
        loop.latencies.append(elapsed)
        loop.rows += op.rows(result)
    return loop


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, loop: Loop, setup_s: float) -> tuple[dict, dict, list[str]]:
    """(gated metrics, metrics printed for reading only, notes)."""
    lat = loop.latencies
    busy = sum(lat)
    tail_p = workloads.TAIL_PERCENTILE[workload]
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        "op_tail_ms": percentile(lat, tail_p) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    info = {
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "rows_per_s": loop.rows / busy,
    }
    beyond = round(len(lat) * (100 - tail_p) / 100)
    notes = [f"op_tail_ms is p{tail_p} of {len(lat)} samples ({beyond} beyond it)"]
    if beyond < 10:
        notes.append(f"warning: fewer than ten samples beyond p{tail_p}")
    if workload == "cli_cold":
        notes.append("peak_rss_mb is the largest child process")
    return (
        {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()},
        {k: (v, INFO_UNITS[k]) for k, v in info.items()},
        notes,
    )


def record_goldens() -> int:
    """Rewrite golden/cli_cold.json from the current program."""
    with tempfile.TemporaryDirectory(dir=ensure_out()) as tmp:
        work = Path(tmp)
        inputs = gen.generate("cli_cold", 0, work)
        ctx = workloads.Context("cli_cold", child_env(), inputs, 0)
        out = work / "cli_out.txt"
        golden = {}
        for case, template in sorted(workloads.CLI_CASES.items()):
            argv = workloads.expand_argv(template, inputs, out)
            code, data, err = workloads.run_cli(ctx, argv, out)
            if code != 0 or err:
                print(f"{case}: exit {code}: {err.decode()}", file=sys.stderr)
                return 1
            text = data.decode("utf-8")
            golden[case] = {
                "argv": template,
                "rows": check.row_count(text, workloads.fmt_of(argv)),
                "output": text,
            }
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} cases in {workloads.GOLDEN}")
    return 0


def ensure_out() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def print_metrics(metrics: dict, kind: str = "metric") -> None:
    for name, (value, unit) in metrics.items():
        print(f"{kind} {name} {value!r} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (smoke tests use < 1)"
    )
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tradegap" / "__init__.py").is_file():
        print(f"error: no tradegap sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "cli_cold" and not workloads.GOLDEN.is_file():
        print(f"error: {workloads.GOLDEN} missing; run with --record-goldens", file=sys.stderr)
        return 2

    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    import tradegap

    if Path(tradegap.__file__).resolve().parent != (SRC / "tradegap").resolve():
        print(f"error: imported tradegap from {tradegap.__file__}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ensure_out()))
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path) -> int:
    workload = args.workload
    machine = machine_note()
    inputs = gen.generate(workload, args.seed, work, args.scale)
    ctx = workloads.Context(workload, child_env(), inputs, args.seed)
    if workload in workloads.IN_PROCESS:
        warm_up(workload, work)

    print(
        f"# machine: python {machine['python']}, nproc {machine['nproc']}, "
        f"interp.bare_ms {machine['interp.bare_ms']:.1f} ms; {machine['note']}"
    )
    print(
        f"# workload {workload}: seed {args.seed}, {args.seconds:g} s, "
        f"closed loop, 1 client, trace {args.trace}"
    )
    info: dict = {}
    if args.trace == 0:
        loop = run_loop(ctx, args.seconds, probe=lambda: setup_probe(workload, work))
        if not loop.latencies:
            metrics, notes = {}, ["no operation succeeded"]
        else:
            metrics, info, notes = end_to_end(workload, loop, statistics.median(loop.setup))
    else:
        untraced = run_loop(ctx, args.seconds / 2)
        recorder = Recorder()
        if workload in workloads.IN_PROCESS:
            recorder.install()
        else:
            ctx.span_file = work / "spans.json"
        try:
            loop = run_loop(ctx, args.seconds / 2, recorder)
        finally:
            recorder.restore()
        loop.attempted += untraced.attempted
        loop.failed += untraced.failed
        loop.errors += untraced.errors
        metrics, notes = per_layer(loop, untraced, recorder, machine)
        trace_path = ensure_out() / f"trace-{workload}-seed{args.seed}.json"
        recorder.write(trace_path, {
            "workload": workload, "seed": args.seed, "machine": machine,
            "traced_ops": len(loop.latencies),
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        notes.append(f"spans and per-layer self times written to {trace_path.relative_to(ROOT)}")

    print_metrics(metrics)
    print_metrics(info, "info")
    for note in notes:
        print(f"# {note}")
    error_rate = loop.failed / loop.attempted if loop.attempted else 1.0
    print(f"error_rate {error_rate!r} ratio ({loop.failed} failed / {loop.attempted} attempted)")
    for err in loop.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and bool(metrics),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(loop: Loop, untraced: Loop, recorder: Recorder, machine: dict):
    n = len(loop.latencies)
    metrics = recorder.layer_metrics(n)
    tradegap_ms, stdlib_ms = import_split_ms()
    metrics["import.tradegap_ms"] = (tradegap_ms, "ms")
    metrics["import.stdlib_ms"] = (stdlib_ms, "ms")
    metrics["interp.bare_ms"] = (machine["interp.bare_ms"], "ms")
    traced_p50 = statistics.median(loop.latencies) * 1e3 if n else 0.0
    untraced_p50 = statistics.median(untraced.latencies) * 1e3 if untraced.latencies else 0.0
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    notes = [
        f"per-layer metrics from {n} traced operations; untraced op_p50_ms "
        f"{untraced_p50:.4f}, traced {traced_p50:.4f}",
        "calls and self_ms are per operation; self time excludes child spans",
    ]
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
