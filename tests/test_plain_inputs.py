"""One rule for constants: an ad op with no Tensor operand returns a plain
ndarray (a numpy scalar when 0-d) and records no tape node, even inside an
active Tape. Every function built on ad ops inherits it with no wrapper of
its own, so each keeps two contracts: plain inputs give a plain result and
record nothing; Tensor inputs give a Tensor that the Tape records."""
import numpy as np
import pytest
from test_autodiff import OP_CASES

from latentflow import autodiff as ad
from latentflow.alignment import duration_loss
from latentflow.cvae import DiagonalGaussianSeq, expand_to_frames, kl_divergence, sample_reparam
from latentflow.flowmatch import interpolate, target_velocity
from latentflow.losses import (
    adv_discriminator,
    adv_generator,
    aux_prediction,
    dsp_consistency,
    feature_matching,
    mel_reconstruction,
)
from latentflow.signals import MelConfig, mel_transform, mel_transform_t, stft_magnitude

_RNG = np.random.default_rng(0)
A, B = _RNG.standard_normal((2, 3, 4))
LOG_D = np.array([0.1, 0.5, 1.0])
WAVE = np.sin(0.3 * np.arange(64)) + 0.1 * _RNG.standard_normal(64)
WAVE2 = 0.5 * WAVE[::-1]
MEL_CFG = MelConfig(sample_rate=4000, fft_size=32, window_size=16, hop_size=8, mel_bands=4, fmax=2000.0)

# name -> builder taking a converter (np.asarray for plain inputs, ad.Tensor for traced ones)
TWINS = {
    "sample_reparam": lambda c: sample_reparam(DiagonalGaussianSeq(c(A), c(B)), np.random.default_rng(1)),
    "kl_divergence": lambda c: kl_divergence(DiagonalGaussianSeq(c(A), c(B)), DiagonalGaussianSeq(c(B), c(A))),
    "duration_loss": lambda c: duration_loss(np.array([1.0, 2.0, 3.0]), c(LOG_D)),
    "interpolate": lambda c: interpolate(c(A), c(B), 0.3),
    "target_velocity": lambda c: target_velocity(c(A), c(B)),
    "expand_to_frames": lambda c: expand_to_frames(c(A), np.array([1, 2, 1, 3])),
    "stft_magnitude": lambda c: stft_magnitude(c(WAVE), MEL_CFG),
    "mel_transform_t": lambda c: mel_transform_t(c(WAVE), MEL_CFG),
    "mel_reconstruction": lambda c: mel_reconstruction(WAVE2, c(WAVE), MEL_CFG),
    "dsp_consistency": lambda c: dsp_consistency(c(WAVE), WAVE2, MEL_CFG),
    "aux_prediction": lambda c: aux_prediction(A[0], B, c(B[0]), c(A)),
    "feature_matching": lambda c: feature_matching([[A, B[0]]], [[c(B), c(A[0])]]),
    "adv_generator": lambda c: adv_generator([c(A), c(B[0])]),
    "adv_discriminator": lambda c: adv_discriminator([c(A), c(B[0])], [c(B), c(A[0])]),
}
PLAIN_ONLY = {"mel_transform": lambda c: mel_transform(c(WAVE), MEL_CFG).values}


@pytest.mark.parametrize("name,builder", OP_CASES, ids=[name for name, _ in OP_CASES])
def test_ops_on_plain_operands_stay_plain_and_record_nothing(name, builder):
    rng = np.random.default_rng(sum(name.encode()))
    x = rng.standard_normal((3, 4)) + 0.1
    y = rng.standard_normal((3, 4)) + 2.0
    with ad.Tape() as tape:
        out = builder(x, y)
        assert len(tape) == 0
        traced = builder(ad.Tensor(x), y)
    assert not isinstance(out, ad.Tensor)
    assert np.array_equal(out, traced.data)


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
