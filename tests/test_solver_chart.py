"""The solver chart, scripts/solver_chart.py, loaded from its path and run
on one seed and one operation."""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow import odesolver, vectorfield

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solver_chart.py"


@pytest.fixture
def solver_chart(monkeypatch):
    spec = importlib.util.spec_from_file_location("solver_chart", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # restored after the test
    monkeypatch.setattr(vectorfield, "_OMEGA_HI", vectorfield._OMEGA_HI)
    monkeypatch.setattr(vectorfield, "time_frequencies", vectorfield.time_frequencies)
    yield module
    vectorfield.time_frequencies.cache_clear()


def test_chart_prints_one_row_per_setting_at_the_charted_top_frequency(solver_chart, capsys):
    assert vectorfield.time_frequencies(16)[-1] == pytest.approx(vectorfield._OMEGA_HI)  # cached before the chart
    argv = ["--seeds", "1", "--ops", "1", "--omega-hi", "geometric:300", "250"]
    assert solver_chart.main(argv) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert vectorfield.time_frequencies(16)[-1] == pytest.approx(250.0)  # the fit saw the charted frequency
    n = len(solver_chart.SETTINGS)
    rows, summary = rows[:2 * n], rows[2 * n:]
    assert [(r["tol"], r["max_step"]) for r in rows] == solver_chart.SETTINGS * 2
    for r in rows:
        assert (r["fit_seed"], r["seed"]) == (0, 1)
        assert r["nfe"] % 6 == 1  # one call for the first stage, then six per step
        assert 0 <= r["rejected"] < r["nfe"] / 6
        assert math.isfinite(r["w1_oracle"]) and r["w1_oracle"] > 0
    # one summary row per embedding and setting; with one fit seed it
    # repeats that fit's row, and the first embedding is its own baseline
    assert [(r["embedding"], r["omega_hi"]) for r in rows] == [("geometric", 300.0)] * n + [("harmonic", 250.0)] * n
    for r, s in zip(rows, summary):
        assert (s["embedding"], s["omega_hi"], s["tol"], s["max_step"], s["fit_seeds"]) == (
            r["embedding"], r["omega_hi"], r["tol"], r["max_step"], [0])
        assert (s["nfe"], s["rejected"], s["w1_median"], s["w1_worst"]) == (
            r["nfe"], r["rejected"], r["w1_oracle"], r["w1_oracle"])
    for s in summary[:n]:
        assert (s["ratio_median"], s["ratio_min"], s["ratio_max"], s["meets_rule"]) == (1.0, 1.0, 1.0, True)


def test_defaults_skip_the_rejected_first_steps_on_the_benchmarks_field(solver_chart):
    # The synth workload's field (fit seed 0) on the first five utterances of
    # input seed 1, at the SolverConfig defaults: each takes 19 NFE, three
    # steps at the 0.34 cap, with no rejected step. With the former time
    # embedding (frequencies geometric on [1, 300]) they took 31-49 NFE
    # (mean 34.6) with 1-3 rejected steps, all at t=0.
    field = solver_chart.fit(None, 0)
    stats = []
    with ad.no_grad():
        for z_p in solver_chart.prior_samples(1, 5):
            stats.append(odesolver.solve(lambda z, t: field(z, t).data, z_p)[1])
    assert [s.rhs_evals for s in stats] == [19] * 5
    assert [s.rejected for s in stats] == [0] * 5


def test_summary_takes_each_fits_mean_over_input_seeds_and_its_ratio_to_the_first_embedding(solver_chart):
    def row(emb, fit_seed, seed, w1):
        return {"embedding": emb, "omega_hi": 1.0, "fit_seed": fit_seed, "seed": seed, "tol": 5e-4,
                "max_step": 0.34, "nfe": 7.0 if emb == "harmonic" else 19.0, "rejected": 0.0, "w1_oracle": w1}

    base = [row("geometric", 0, 1, 1.0), row("geometric", 0, 2, 3.0), row("geometric", 1, 1, 4.0),
            row("geometric", 1, 2, 4.0), row("geometric", 2, 1, 1.0), row("geometric", 2, 2, 1.0)]
    new = [row("harmonic", 0, 1, 1.0), row("harmonic", 0, 2, 1.0), row("harmonic", 1, 1, 2.0),
           row("harmonic", 1, 2, 2.0), row("harmonic", 2, 1, 3.0), row("harmonic", 2, 2, 3.0)]
    first, second = solver_chart.summaries(base + new)
    assert (first["w1_median"], first["w1_worst"], first["worst_fit_seed"]) == (2.0, 4.0, 1)
    assert (second["nfe"], second["w1_median"], second["w1_worst"], second["worst_fit_seed"]) == (7.0, 2.0, 3.0, 2)
    # fit ratios 1 / 2, 2 / 4 and 3 / 1
    assert (second["ratio_median"], second["ratio_min"], second["ratio_max"]) == (0.5, 0.5, 3.0)
    assert second["meets_rule"]
