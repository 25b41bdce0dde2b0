"""Interleaved benchmark pairs of two checkouts, summarised by the gain rule.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload tables_sweep \\
        --seeds 1001-1010 --seconds 40 --out BENCH_<n>.json

For each seed it runs ``bench/run.py --workload W --seed S --seconds T`` once
in the parent checkout and once in the change checkout, with this
interpreter, one run at a time.  The parent runs first in even-numbered
pairs and the change in odd-numbered ones.  Each run's last line of JSON
gives its metrics.  After every pair the tool writes ``--out`` again: the
raw pairs, and per metric each side's median, quartiles and run count, the
number of pairs the change won, and whether the gain rule holds.

The gain rule: the change wins at least nine tenths of the pairs, ties
counting for neither side, and the two medians differ, in the change's
favour, by more than the distance between the parent's quartiles.  A
metric's better direction is read from the change checkout's
``BENCHMARK.json``; a metric it does not list counts lower as better.
The tool uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def stats(values: list[float]) -> dict:
    """Median, inclusive quartiles and count of ``values``."""
    q1, _median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric that every run reports: each side's ``stats``, the pairs
    the change won, and the gain rule's verdict.  ``pairs`` holds one
    ``{"parent": {metric: value}, "change": {metric: value}}`` per pair."""
    names = set.intersection(*(set(p["parent"]) & set(p["change"]) for p in pairs))
    summary = {}
    for name in sorted(names):
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        ps, cs = stats(parent), stats(change)
        gain = sign * (ps["median"] - cs["median"])  # positive when the change is better
        summary[name] = {
            "better": "higher" if sign < 0 else "lower",
            "parent": ps,
            "change": cs,
            "change_better_in": wins,
            "pairs": len(pairs),
            "median_gain": gain,
            "parent_iqr": ps["q3"] - ps["q1"],
            "gain_rule_met": wins * 10 >= 9 * len(pairs) and gain > ps["q3"] - ps["q1"],
        }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its metrics, and its attempted and failed counts."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return metrics, {"attempted": result["attempted"], "failed": result["failed"]}


def seeds_of(text: str) -> list[int]:
    """``1001-1010`` or ``1,2,5`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_of, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    pairs = []
    for index, seed in enumerate(args.seeds):
        sides = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                for side in sides}
        pairs.append({"seed": seed, "first": sides[0],
                      **{side: runs[side][0] for side in ("parent", "change")},
                      "operations": {side: runs[side][1] for side in ("parent", "change")}})
        report = {
            "workload": args.workload, "seconds": args.seconds,
            "parent": str(args.parent), "change": str(args.change),
            "summary": summarize(pairs, better), "pairs": pairs,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"pair {index + 1}/{len(args.seeds)} seed {seed}: " + ", ".join(
            f"{name} {pairs[-1]['parent'][name]:.4g} -> {pairs[-1]['change'][name]:.4g}"
            for name in sorted(pairs[-1]["parent"]) if name in pairs[-1]["change"]
        ), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
