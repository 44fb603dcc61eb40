import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.exceptions import ValidationError
from latentflow.losses import _COMPOSITE_WEIGHTS, dsp_consistency, generator_composite, mel_reconstruction
from latentflow.signals import MelConfig

PARTS = {"adv": 0.7, "fm": 1.3, "mel": 0.21, "kl": 2.5, "dsp": 9.0, "dur": 0.04, "aux": 0.33, "cfm": 1.7}


def test_composite_weight_table():
    assert list(_COMPOSITE_WEIGHTS.items()) == [
        ("adv", 1.0), ("fm", 2.0), ("mel", 45.0), ("kl", 1.0), ("dsp", 45.0), ("dur", 1.0), ("aux", 1.0), ("cfm", 1.0),
    ]


@pytest.mark.parametrize("traced", ["adv", "mel", None])
def test_generator_composite_total_is_the_weighted_sum_of_its_terms(traced):
    parts = {k: (ad.Tensor(np.asarray(v)) if k == traced else v) for k, v in PARTS.items()}
    total, report = generator_composite(parts)
    lam = {"fm": 2.0, "mel": 45.0, "dsp": 45.0}
    expected = sum(lam.get(k, 1.0) * v for k, v in report.terms.items())
    # a traced part makes the total a Tensor; all-plain parts keep it plain
    assert isinstance(total, ad.Tensor) == (traced is not None)
    assert report.terms == PARTS
    assert report.total == total.item()
    assert report.total == pytest.approx(expected, rel=1e-15)


def test_generator_composite_differentiates_each_part_by_its_weight():
    store = ad.ParamStore()
    params = {k: store.create(k, np.asarray(v)) for k, v in PARTS.items()}
    with ad.Tape() as tape:
        total, _ = generator_composite(params)
    grads = ad.backward(total, store, tape)
    assert grads["fm"] == 2.0 and grads["mel"] == grads["dsp"] == 45.0
    assert all(grads[k] == 1.0 for k in ("adv", "kl", "dur", "aux", "cfm"))


def test_generator_composite_names_missing_parts():
    with pytest.raises(ValidationError, match="kl"):
        generator_composite({k: v for k, v in PARTS.items() if k != "kl"})


def test_dsp_part_is_the_unweighted_mel_l1_and_the_composite_weighs_it_by_45():
    """dsp_consistency is mel_reconstruction with its arguments swapped, the
    report keeps it unweighted, and the total has the bits of the sum in
    which dsp_consistency carried the 45 and the table 1.0."""
    rng = np.random.default_rng(3)
    cfg = MelConfig(sample_rate=4000, fft_size=32, window_size=16, hop_size=8, mel_bands=4, fmax=2000.0)
    y_ref, y_dsp = rng.standard_normal((2, 64))
    dsp = dsp_consistency(y_dsp, y_ref, cfg)
    assert dsp == mel_reconstruction(y_ref, y_dsp, cfg)
    _, report = generator_composite({**PARTS, "dsp": dsp})
    assert report.terms["dsp"] == dsp
    weights = {"adv": 1.0, "fm": 2.0, "mel": 45.0, "kl": 1.0, "dsp": 1.0, "dur": 1.0, "aux": 1.0, "cfm": 1.0}
    parts = {**PARTS, "dsp": dsp * 45.0}
    expected = None
    for name, weight in weights.items():
        expected = parts[name] * weight if expected is None else expected + parts[name] * weight
    assert report.total == expected
