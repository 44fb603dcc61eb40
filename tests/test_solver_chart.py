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
    monkeypatch.setattr(vectorfield, "_OMEGA_HI", vectorfield._OMEGA_HI)  # restored after the test
    yield module
    vectorfield.time_frequencies.cache_clear()


def test_chart_prints_one_row_per_setting_at_the_charted_top_frequency(solver_chart, capsys):
    assert vectorfield.time_frequencies(16)[-1] == pytest.approx(vectorfield._OMEGA_HI)  # cached before the chart
    assert solver_chart.main(["--seeds", "1", "--ops", "1", "--omega-hi", "250"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["tol"], r["max_step"]) for r in rows] == solver_chart.SETTINGS
    assert vectorfield.time_frequencies(16)[-1] == pytest.approx(250.0)  # the fit saw the charted frequency
    for r in rows:
        assert (r["omega_hi"], r["fit_seed"], r["seed"]) == (250.0, 0, 1)
        assert r["nfe"] % 6 == 1  # one call for the first stage, then six per step
        assert 0 <= r["rejected"] < r["nfe"] / 6
        assert math.isfinite(r["w1_oracle"]) and r["w1_oracle"] > 0


def test_defaults_skip_the_rejected_first_steps_on_the_benchmarks_field(solver_chart):
    # The synth workload's field (fit seed 0) on the first five utterances of
    # input seed 1, at the SolverConfig defaults: at max step 0.34 they take
    # 31-49 NFE (mean 34.6) with 1-3 rejected steps. At max step 0.5 they
    # took 43-67 (mean 56.2) with 3-6.
    field = solver_chart.fit(None, 0)
    stats = []
    with ad.no_grad():
        for z_p in solver_chart.prior_samples(1, 5):
            stats.append(odesolver.solve(lambda z, t: field(z, t).data, z_p)[1])
    assert np.mean([s.rhs_evals for s in stats]) <= 40
    assert max(s.rejected for s in stats) <= 3
