"""The summary of ``tools/bench_pairs.py`` on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent, change, name="op_tail_ms"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


PARENT = [2.0, 2.1, 1.9, 2.2, 2.0, 1.8, 2.3, 2.0, 2.1, 1.9]


def test_a_gain_in_every_pair_beyond_the_parents_spread_meets_the_rule(bench_pairs):
    change = [1.3, 1.4, 1.2, 1.5, 1.3, 1.2, 1.4, 1.3, 1.3, 1.2]
    out = bench_pairs.summarize(pairs_of(PARENT, change), {"op_tail_ms": "lower"})["op_tail_ms"]
    assert out["parent"] == {"median": 2.0, "q1": pytest.approx(1.925), "q3": 2.1, "n": 10}
    assert out["change"]["median"] == 1.3 and out["change"]["n"] == 10
    assert out["change_better_in"] == 10 and out["pairs"] == 10
    assert out["parent_iqr"] == pytest.approx(0.175)
    assert out["median_gain"] == pytest.approx(0.7)
    assert out["gain_rule_met"] is True


def test_two_lost_pairs_or_a_gain_within_the_spread_fail_the_rule(bench_pairs):
    lost_two = [1.3] * 8 + [2.5, 2.5]
    out = bench_pairs.summarize(pairs_of(PARENT, lost_two), {})["op_tail_ms"]
    assert (out["change_better_in"], out["gain_rule_met"]) == (8, False)
    small = [p - 0.05 for p in PARENT]  # wins every pair, by less than the parent's IQR
    out = bench_pairs.summarize(pairs_of(PARENT, small), {})["op_tail_ms"]
    assert (out["change_better_in"], out["gain_rule_met"]) == (10, False)
    tie = bench_pairs.summarize(pairs_of(PARENT, PARENT), {})["op_tail_ms"]
    assert (tie["change_better_in"], tie["median_gain"]) == (0, 0.0)


def test_higher_is_better_where_the_benchmark_says_so(bench_pairs):
    pairs = pairs_of([10.0, 12.0], [15.0, 11.0], "ops_per_s")
    out = bench_pairs.summarize(pairs, {"ops_per_s": "higher"})["ops_per_s"]
    assert out["better"] == "higher" and out["change_better_in"] == 1
    assert out["median_gain"] == 2.0 and out["gain_rule_met"] is False
    one = bench_pairs.summarize(pairs[:1], {})["ops_per_s"]  # lower is better by default
    assert one["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0, "n": 1}
    assert one["change_better_in"] == 0


def test_only_metrics_every_run_reports_are_summarised(bench_pairs):
    pairs = pairs_of([1.0, 2.0], [1.0, 1.0])
    pairs[0]["change"]["setup_s"] = 0.1
    assert list(bench_pairs.summarize(pairs, {})) == ["op_tail_ms"]


def test_seeds_are_a_range_or_a_list(bench_pairs):
    assert bench_pairs.seeds_of("1001-1003") == [1001, 1002, 1003]
    assert bench_pairs.seeds_of("7,9") == [7, 9]
