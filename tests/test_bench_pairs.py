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


@pytest.fixture
def fake_runs(bench_pairs, monkeypatch, tmp_path):
    """Two checkouts and a run_once that records (checkout, workload, seed)
    and starts no process; the change reads m 1.0 and the parent 2.0."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "m", "better": "lower"}]}))
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed))
        return {"seed": seed, "failed": 0, "attempted": 1, "metrics": {"m": 1.0 if checkout == change else 2.0}}

    def no_subprocess(*args, **kwargs):
        raise AssertionError("bench_pairs started a process")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    return ["--parent", str(parent), "--change", str(change)], calls


def test_main_alternates_which_side_runs_first(bench_pairs, fake_runs, tmp_path):
    checkouts, calls = fake_runs
    out = tmp_path / "summary.json"
    argv = checkouts + ["--workload", "train", "--seeds", "21", "22", "23", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert [(c, s) for c, _, s in calls] == [
        ("parent", 21), ("change", 21), ("change", 22), ("parent", 22), ("parent", 23), ("change", 23)]
    assert json.loads(out.read_text())["workloads"]["train"]["metrics"]["m"]["after_better_in_pairs"] == 3


def test_main_runs_each_workload_in_turn_and_keys_the_summary_by_workload(bench_pairs, fake_runs, tmp_path):
    checkouts, calls = fake_runs
    out = tmp_path / "summary.json"
    argv = checkouts + ["--workload", "train", "synth", "eval", "train", "--seeds", "21", "22",
                        "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # every pair of one workload before the next; a repeated name runs once
    assert [w for _, w, _ in calls] == ["train"] * 4 + ["synth"] * 4 + ["eval"] * 4
    assert [c for c, w, _ in calls if w == "eval"] == ["parent", "change", "change", "parent"]
    summary = json.loads(out.read_text())
    assert (summary["seconds"], summary["trace"]) == (1.0, 0)
    assert list(summary["workloads"]) == ["train", "synth", "eval"]
    for w in summary["workloads"].values():
        assert w["seeds"] == [21, 22] and w["metrics"]["m"]["after_better_in_pairs"] == 2


# ten parent runs with median 100 and IQR 2 (quartiles 99 and 101)
PARENT = [97.0, 98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 103.0]


@pytest.mark.parametrize("better, before, after, status", [
    ("lower", PARENT, [x * 1.05 for x in PARENT], "within bound"),  # 5% worse, bound 10%
    ("lower", PARENT, [x * 1.2 for x in PARENT], "worse beyond bound"),
    ("higher", PARENT, [x * 0.8 for x in PARENT], "worse beyond bound"),
    ("higher", PARENT, [x * 1.2 for x in PARENT], "within bound"),
    # parent IQR 30 against an allowed 10: unresolved, whichever way the medians go
    ("lower", [70.0, 85.0, 100.0, 115.0, 130.0], [60.0, 75.0, 90.0, 105.0, 120.0], "unresolved"),
    ("lower", [70.0, 85.0, 100.0, 115.0, 130.0], [80.0, 95.0, 110.0, 125.0, 140.0], "unresolved"),
    # unless every change run beats every parent run
    ("lower", [70.0, 85.0, 100.0, 115.0, 130.0], [50.0, 55.0, 60.0, 65.0, 69.0], "within bound"),
    ("higher", [70.0, 85.0, 100.0, 115.0, 130.0], [131.0, 140.0, 150.0, 160.0, 170.0], "within bound"),
    # the same value in every pair reads as such, whatever the parent's IQR
    ("lower", [70.0, 85.0, 100.0, 115.0, 130.0], [70.0, 85.0, 100.0, 115.0, 130.0], "identical in every pair"),
    ("lower", [70.0, 85.0, 100.0, 115.0, 130.0], [70.0, 85.0, 100.0, 115.0, 130.5], "unresolved"),
])
def test_status_reads_the_bound_as_a_share_of_the_parent_median(bench_pairs, better, before, after, status):
    entry = bench_pairs.summarize(_runs("m", before, after), {"m": better}, {"m": 0.1})["metrics"]["m"]
    assert (entry["status"], entry["bound"]) == (status, 0.1)


@pytest.mark.parametrize("after, met", [
    ([x - 5.0 for x in PARENT], True),  # 10 of 10 won, medians 5 apart against an IQR of 2
    ([x - 5.0 for x in PARENT[:9]] + [104.0], True),  # 9 of 10 won
    ([x - 5.0 for x in PARENT[:8]] + [102.0, 104.0], False),  # 8 of 10 won
    ([x - 1.5 for x in PARENT], False),  # 10 of 10 won, but medians 1.5 apart: inside the IQR
])
def test_claim_needs_nine_in_ten_pairs_and_a_median_gap_beyond_the_parent_iqr(bench_pairs, after, met):
    entry = bench_pairs.summarize(_runs("m", PARENT, after), {"m": "lower"})["metrics"]["m"]
    assert entry["claim_met"] is met and "status" not in entry  # no bound, no status


def test_claim_needs_ten_pairs(bench_pairs):
    entry = bench_pairs.summarize(_runs("m", PARENT[:9], [x - 5.0 for x in PARENT[:9]]), {"m": "lower"})["metrics"]["m"]
    assert entry["after_better_in_pairs"] == 9 and entry["claim_met"] is False


def test_directions_reads_bounds_of_end_to_end_metrics_only(bench_pairs, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "p50", "better": "lower", "bound": 0.24}, {"name": "rate", "better": "higher"}],
        "per_layer": [{"name": "layer.ms", "better": "lower", "bound": 0.5}],
    }))
    better, bounds = bench_pairs.directions(tmp_path)
    assert better == {"p50": "lower", "rate": "higher", "layer.ms": "lower"}
    assert bounds == {"p50": 0.24}


# four seeds whose parent IQR (0.2875) is wider than a bound of 0.2 of the median (0.145)
SPREAD = [0.5, 0.6, 0.85, 0.9]


@pytest.mark.parametrize("after, change", [
    (SPREAD, 0.0),
    # two ulp on one seed reads as such, while the status stays unresolved
    ([0.5 + 2.0**-52, 0.6, 0.85, 0.9], 2.0**-51),
    ([0.5, 0.6, 0.85, 0.99], 0.1),  # by seed, not median against median
])
def test_max_rel_change_pairs_the_sides_by_seed_and_leaves_the_status_alone(bench_pairs, after, change):
    entry = bench_pairs.summarize(_runs("quality_err", SPREAD, after), {"quality_err": "lower"},
                                  {"quality_err": 0.2})["metrics"]["quality_err"]
    assert entry["max_rel_change_per_seed"] == pytest.approx(change, rel=1e-12)
    assert entry["status"] == ("identical in every pair" if after == SPREAD else "unresolved")


def test_max_rel_change_off_a_parent_zero_is_inf(bench_pairs):
    assert bench_pairs.max_rel_change([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert bench_pairs.max_rel_change([0.0, 1.0], [1e-9, 1.0]) == float("inf")


def test_report_prints_the_max_rel_change_beside_the_status(bench_pairs, capsys):
    summary = bench_pairs.summarize(_runs("quality_err", SPREAD, [0.5 + 2.0**-52, 0.6, 0.85, 0.9]),
                                    {"quality_err": "lower"}, {"quality_err": 0.2})
    bench_pairs.report("eval", summary)
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("quality_err"))
    assert line.endswith("unresolved (0.2)  max rel change per seed 4.44e-16")
