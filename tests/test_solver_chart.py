"""The solver chart, scripts/solver_chart.py, loaded from its path and run
on one seed and one operation."""
import importlib.util
import json
import math
from pathlib import Path

import pytest

from latentflow import vectorfield

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
