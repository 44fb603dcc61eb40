"""The paired parent/change harness, scripts/bench_pairs.py, loaded from its
path; no benchmark process is started."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(metric, before, after):
    def side(values):
        return [{"seed": s, "failed": 0, "attempted": 9, "metrics": {metric: v}} for s, v in enumerate(values)]

    return {"before": side(before), "after": side(after)}


@pytest.mark.parametrize("better, won, lost", [("lower", 2, 1), ("higher", 1, 2)])
def test_summarize_counts_pairs_won_by_the_metric_direction_and_ties_for_neither(bench_pairs, better, won, lost):
    # pairs: 10 -> 8 lower, 10 -> 10 tied, 10 -> 12 higher, 10 -> 9 lower
    summary = bench_pairs.summarize(_runs("m", [10, 10, 10, 10], [8, 10, 12, 9]), {"m": better})
    entry = summary["metrics"]["m"]
    assert (entry["after_better_in_pairs"], entry["after_worse_in_pairs"]) == (won, lost)
    assert summary["repeats"] == 4 and summary["failed_of_attempted"] == {"before": [0, 36], "after": [0, 36]}


def test_parent_iqr_is_the_spread_of_inclusive_quartiles(bench_pairs):
    entry = bench_pairs.summarize(_runs("m", [1, 2, 3, 4, 5], [1, 1, 1, 1, 1]), {})["metrics"]["m"]
    assert entry["before"] == {"median": 3, "q1": 2, "q3": 4}  # exclusive quartiles would give 1.5 and 4.5
    assert entry["parent_iqr"] == 2
    assert "after_better_in_pairs" not in entry  # no direction, no pair count


def test_main_alternates_which_side_runs_first(bench_pairs, monkeypatch, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "m", "better": "lower"}]}))
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed))
        return {"seed": seed, "failed": 0, "attempted": 1, "metrics": {"m": 1.0 if checkout == change else 2.0}}

    def no_subprocess(*args, **kwargs):
        raise AssertionError("bench_pairs started a process")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    out = tmp_path / "summary.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "train",
            "--seeds", "21", "22", "23", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("parent", 21), ("change", 21), ("change", 22), ("parent", 22), ("parent", 23), ("change", 23)]
    assert json.loads(out.read_text())["metrics"]["m"]["after_better_in_pairs"] == 3
