import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.exceptions import ValidationError
from latentflow.signals import (
    MelConfig,
    MelSpectrogram,
    desk_pipeline_mel,
    mcd,
    mel_filterbank,
    mel_transform,
    mel_transform_t,
    periodic_hann,
    stft_magnitude,
)
from latentflow.wavegen import read_wav, write_wav

SMALL = MelConfig(sample_rate=4000, fft_size=32, window_size=16, hop_size=8, mel_bands=4, fmax=2000.0)


@pytest.mark.parametrize(
    "cfg",
    [SMALL, desk_pipeline_mel(), MelConfig(sample_rate=8000, fft_size=63, window_size=63, hop_size=21,
                                           mel_bands=8, fmax=4000.0)],
    ids=["small", "desk", "odd_fft"],
)
def test_stft_matches_numpy_rfft_reference(cfg):
    y = np.random.default_rng(0).standard_normal(cfg.window_size + 7 * cfg.hop_size + 3)
    n_frames = 1 + (len(y) - cfg.window_size) // cfg.hop_size
    idx = np.arange(cfg.window_size)[None, :] + cfg.hop_size * np.arange(n_frames)[:, None]
    ref = np.abs(np.fft.rfft(y[idx] * periodic_hann(cfg.window_size), n=cfg.fft_size, axis=1)).T
    got = stft_magnitude(ad.Tensor(y), cfg)
    assert isinstance(got, ad.Tensor) and got.shape == ref.shape == (cfg.fft_size // 2 + 1, n_frames)
    np.testing.assert_allclose(got.data, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(stft_magnitude(y, cfg), got.data)


def test_stft_rejects_bad_signals():
    with pytest.raises(ValidationError, match="1-D"):
        stft_magnitude(np.zeros((2, 40)), SMALL)
    with pytest.raises(ValidationError, match="shorter"):
        mel_transform(np.zeros(SMALL.window_size - 1), SMALL)


def test_mel_transform_t_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    store = ad.ParamStore()
    y = store.create("y", rng.standard_normal(48))
    weights = rng.standard_normal((SMALL.mel_bands, 5))

    def loss_fn():
        return ad.total(ad.mul(mel_transform_t(y, SMALL), weights))

    assert ad.finite_diff_check(loss_fn, store, h=1e-6) < 1e-4


def test_mel_transform_returns_spectrogram_of_mel_transform_t():
    y = np.random.default_rng(2).standard_normal(200)
    mel = mel_transform(y, SMALL)
    assert isinstance(mel, MelSpectrogram) and (mel.bands, mel.frames) == (4, 24)
    np.testing.assert_array_equal(mel.values, mel_transform_t(ad.Tensor(y), SMALL).data)


def test_mel_filterbank_is_cached_read_only_per_config():
    fb = mel_filterbank(SMALL)
    assert mel_filterbank(MelConfig(**vars(SMALL))) is fb
    assert not fb.flags.writeable


def test_mcd_is_zero_on_identical_inputs_and_symmetric():
    rng = np.random.default_rng(3)
    a = MelSpectrogram(rng.standard_normal((16, 30)))
    b = MelSpectrogram(rng.standard_normal((16, 30)))
    assert mcd(a, a) == 0.0
    assert mcd(a, b) > 0.0
    assert mcd(a, b) == mcd(b, a)


def test_wav_round_trip_within_one_quantization_step(tmp_path):
    y = np.clip(np.random.default_rng(4).standard_normal(1000) * 0.4, -1.0, 1.0)
    path = tmp_path / "x.wav"
    write_wav(path, y, 4000)
    back = read_wav(path)
    assert back.sample_rate == 4000 and len(back) == len(y)
    assert np.max(np.abs(back.samples - y)) <= 1.0 / 32767.0
