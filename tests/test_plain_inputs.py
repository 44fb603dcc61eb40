"""Each function with one implementation on ad ops keeps two contracts:
plain inputs give a plain result and record nothing, even inside an
active Tape; Tensor inputs give a Tensor that the Tape records."""
import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.alignment import duration_loss
from latentflow.cvae import DiagonalGaussianSeq, expand_to_frames, kl_divergence, sample_reparam
from latentflow.flowmatch import interpolate, target_velocity
from latentflow.signals import MelConfig, mel_transform, mel_transform_t

_RNG = np.random.default_rng(0)
A, B = _RNG.standard_normal((2, 3, 4))
LOG_D = np.array([0.1, 0.5, 1.0])
WAVE = np.sin(0.3 * np.arange(64)) + 0.1 * _RNG.standard_normal(64)
MEL_CFG = MelConfig(sample_rate=4000, fft_size=32, window_size=16, hop_size=8, mel_bands=4, fmax=2000.0)

# name -> builder taking a converter (np.asarray for plain inputs, ad.Tensor for traced ones)
TWINS = {
    "sample_reparam": lambda c: sample_reparam(DiagonalGaussianSeq(c(A), c(B)), np.random.default_rng(1)),
    "kl_divergence": lambda c: kl_divergence(DiagonalGaussianSeq(c(A), c(B)), DiagonalGaussianSeq(c(B), c(A))),
    "duration_loss": lambda c: duration_loss(np.array([1.0, 2.0, 3.0]), c(LOG_D)),
    "interpolate": lambda c: interpolate(c(A), c(B), 0.3),
    "target_velocity": lambda c: target_velocity(c(A), c(B)),
    "expand_to_frames": lambda c: expand_to_frames(c(A), np.array([1, 2, 1, 3])),
    "mel_transform_t": lambda c: mel_transform_t(c(WAVE), MEL_CFG),
}
PLAIN_ONLY = {"mel_transform": lambda c: mel_transform(c(WAVE), MEL_CFG).values}


@pytest.mark.parametrize("name", sorted({**TWINS, **PLAIN_ONLY}))
def test_plain_inputs_record_nothing_and_stay_plain(name):
    build = {**TWINS, **PLAIN_ONLY}[name]
    with ad.Tape() as tape:
        ad.mul(ad.Tensor(np.ones(2)), 2.0)
        before = len(tape)
        out = build(np.asarray)
        assert len(tape) == before
    assert before == 1
    assert isinstance(out, (np.ndarray, float)) and not isinstance(out, ad.Tensor)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_tensor_inputs_give_recorded_tensor(name):
    with ad.Tape() as tape:
        out = TWINS[name](ad.Tensor)
    assert isinstance(out, ad.Tensor)
    assert len(tape) > 0

