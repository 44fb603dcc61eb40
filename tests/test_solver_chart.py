"""The solver chart, scripts/solver_chart.py, loaded from its path and run
on one seed and one operation."""
import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from latentflow import autodiff as ad
from latentflow import odesolver, vectorfield

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solver_chart.py"


@pytest.fixture(scope="module")
def solver_chart():
    spec = importlib.util.spec_from_file_location("solver_chart", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def chart_run(solver_chart):
    """The package's cached frequencies before the chart, and its rows."""
    frequencies = vectorfield.time_frequencies(16)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert solver_chart.main(["--seeds", "1", "--ops", "1"]) == 0
    return frequencies, [json.loads(line) for line in out.getvalue().splitlines()]


def test_chart_prints_one_row_per_setting_then_one_summary_per_setting(solver_chart, chart_run):
    _, rows = chart_run
    n = len(solver_chart.SETTINGS)
    rows, summary = rows[:n], rows[n:]
    assert [(r["tol"], r["max_step"]) for r in rows] == solver_chart.SETTINGS
    for r in rows:
        assert (r["fit_seed"], r["seed"]) == (0, 1)
        assert r["nfe"] % 6 == 1  # one call for the first stage, then six per step
        assert 0 <= r["rejected"] < r["nfe"] / 6
        assert math.isfinite(r["w1_oracle"]) and r["w1_oracle"] > 0
    # with one fit seed each summary repeats that fit's row
    for r, s in zip(rows, summary, strict=True):
        assert (s["tol"], s["max_step"], s["fit_seeds"]) == (r["tol"], r["max_step"], [0])
        assert (s["nfe"], s["rejected"], s["w1_median"], s["w1_worst"]) == (
            r["nfe"], r["rejected"], r["w1_oracle"], r["w1_oracle"])
    default = odesolver.SolverConfig()
    s = summary[solver_chart.SETTINGS.index((default.tol, default.max_step))]
    assert (s["ratio_median"], s["ratio_min"], s["ratio_max"], s["meets_rule"]) == (1.0, 1.0, 1.0, True)


def test_chart_leaves_the_packages_time_embedding_as_it_found_it(chart_run):
    frequencies, _ = chart_run
    assert vectorfield.time_frequencies(16) is frequencies
    assert vectorfield._OMEGA_HI == 12.0


def test_defaults_skip_the_rejected_first_steps_on_the_benchmarks_field(solver_chart):
    # The synth workload's field (fit seed 0) on the first five utterances of
    # input seed 1, at the SolverConfig defaults: each takes 19 NFE, three
    # steps at the 0.34 cap, with no rejected step. With the former time
    # embedding (frequencies geometric on [1, 300]) they took 31-49 NFE
    # (mean 34.6) with 1-3 rejected steps, all at t=0.
    field = solver_chart.workloads.fit_field(0)[0]
    stats = []
    with ad.no_grad():
        for z_p in solver_chart.prior_samples(1, 5):
            stats.append(odesolver.solve(lambda z, t: field(z, t).data, z_p)[1])
    assert [s.rhs_evals for s in stats] == [19] * 5
    assert [s.rejected for s in stats] == [0] * 5


def test_summary_takes_each_fits_mean_over_input_seeds_and_its_ratio_to_the_default_setting(solver_chart):
    default = odesolver.SolverConfig()

    def row(max_step, fit_seed, seed, w1):
        return {"fit_seed": fit_seed, "seed": seed, "tol": default.tol, "max_step": max_step,
                "nfe": 13.0 if max_step == 0.5 else 19.0, "rejected": 0.0, "w1_oracle": w1}

    # the other setting comes first: the baseline is the default, not the first row
    other = [row(0.5, 0, 1, 1.0), row(0.5, 0, 2, 1.0), row(0.5, 1, 1, 2.0),
             row(0.5, 1, 2, 2.0), row(0.5, 2, 1, 3.0), row(0.5, 2, 2, 3.0)]
    base = [row(default.max_step, 0, 1, 1.0), row(default.max_step, 0, 2, 3.0), row(default.max_step, 1, 1, 4.0),
            row(default.max_step, 1, 2, 4.0), row(default.max_step, 2, 1, 1.0), row(default.max_step, 2, 2, 1.0)]
    at_other, at_default = solver_chart.summaries(other + base)

    def fields(row, *keys):
        return tuple(row[k] for k in keys)

    assert fields(at_default, "max_step", "nfe", "w1_median", "w1_worst", "worst_fit_seed") == (
        default.max_step, 19.0, 2.0, 4.0, 1)
    assert fields(at_default, "ratio_median", "ratio_min", "ratio_max", "meets_rule") == (1.0, 1.0, 1.0, True)
    assert fields(at_other, "nfe", "w1_median", "w1_worst", "worst_fit_seed") == (13.0, 2.0, 3.0, 2)
    # fit means 1, 2 and 3 against 2, 4 and 1 at the default
    assert fields(at_other, "ratio_median", "ratio_min", "ratio_max", "meets_rule") == (0.5, 0.5, 3.0, True)
