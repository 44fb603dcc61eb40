import wave

import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.exceptions import ValidationError
from latentflow.signals import (
    F0ExtractConfig,
    MelConfig,
    MelSpectrogram,
    SingingSpec,
    _normalized_autocorrelation,
    desk_pipeline_mel,
    dsp_synthesize,
    f0_extract,
    f0_rmse,
    mcd,
    mel_filterbank,
    mel_transform,
    mel_transform_t,
    midi_to_hz,
    periodic_hann,
    singing_f0_contour,
    stft_magnitude,
)
from latentflow.wavegen import write_wav

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
    assert isinstance(mel, MelSpectrogram) and mel.values.shape == (4, 24)
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
    with wave.open(str(path), "rb") as f:
        assert (f.getnchannels(), f.getsampwidth(), f.getframerate()) == (1, 2, 4000)
        back = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2") / 32767.0
    assert len(back) == len(y)
    assert np.max(np.abs(back - y)) <= 1.0 / 32767.0


# ---------------------------------------------------------------------------
# f0 extraction and F0-RMSE. Tolerances are the measured worst case with margin:
# clean tones 7.6 cents (desk) and 0.12 cents (22.05 kHz); vibrato 7.3 cents
# RMSE, 26 cents worst frame.

DESK = desk_pipeline_mel()
FULL = MelConfig()  # 22.05 kHz, window 1024, hop 256
F0_FRAME = int(np.ceil(2 * DESK.sample_rate / F0ExtractConfig().fmin_search))  # 2 periods of fmin


@pytest.mark.parametrize("cfg, frames, tol_cents", [(DESK, 120, 10.0), (FULL, 172, 0.25)], ids=["desk", "22k"])
@pytest.mark.parametrize("midi", [60, 64, 67], ids=["C4", "E4", "G4"])
def test_f0_extract_finds_the_fundamental_of_clean_tones(cfg, frames, tol_cents, midi):
    hz = float(midi_to_hz(midi))
    y = dsp_synthesize(np.full(frames, hz), (1.0, 0.5, 0.25), 0.0, cfg, np.random.default_rng(0))
    f0, voiced = f0_extract(y, cfg)
    assert voiced.all()
    assert np.max(np.abs(1200.0 * np.log2(f0 / hz))) < tol_cents


def test_f0_extract_follows_vibrato_away_from_note_changes():
    spec = SingingSpec(notes=[(62, 50, 1), (66, 45, 2), (69, 55, 3)], vibrato_rate_hz=5.5,
                       vibrato_depth_cents=80.0, noise_level=0.0)
    truth = singing_f0_contour(spec, DESK)
    f0, voiced = f0_extract(dsp_synthesize(truth, spec.harmonic_amps, 0.0, DESK, np.random.default_rng(0)), DESK)
    # an analysis frame is F0_FRAME samples centred on its mel frame; the
    # synthesizer ramps f0 over the hop before each note change
    centre = np.arange(len(f0)) * DESK.hop_size + DESK.window_size / 2
    changes = np.cumsum([d for _, d, _ in spec.notes])[:-1] * DESK.hop_size
    away = np.all(np.abs(centre[:, None] - changes[None, :]) >= F0_FRAME / 2 + DESK.hop_size, axis=1)
    assert away.mean() > 0.8 and voiced[away].all()
    cents = 1200.0 * np.log2(f0[away] / truth[away])
    assert np.sqrt(np.mean(cents**2)) < 10.0
    assert np.max(np.abs(cents)) < 35.0


@pytest.mark.parametrize("cfg, n", [(DESK, 8000), (FULL, 44100)], ids=["desk", "22k"])
def test_f0_extract_finds_no_voicing_in_silence_or_noise(cfg, n):
    f0, voiced = f0_extract(np.zeros(n), cfg)
    assert not voiced.any() and not f0.any()
    _, voiced = f0_extract(np.random.default_rng(0).standard_normal(n), cfg)
    assert not voiced.any()


@pytest.mark.parametrize("cfg, n", [(DESK, F0_FRAME), (DESK, 1280), (DESK, 2001), (FULL, 1024),
                                    (FULL, 5000), (FULL, 44100)],
                         ids=["desk-frame", "desk-1280", "desk-2001", "22k-window", "22k-5000", "22k-2s"])
def test_f0_extract_is_on_the_mel_frame_grid(cfg, n):
    y = np.random.default_rng(n).standard_normal(n)
    f0, voiced = f0_extract(y, cfg)
    assert len(f0) == len(voiced) == cfg.frame_count(n) == mel_transform(y, cfg).values.shape[1]


def test_normalized_autocorrelation_matches_a_per_frame_loop():
    rng = np.random.default_rng(5)
    spec = SingingSpec(notes=[(60, 20, 1), (67, 20, 2)], noise_level=0.05)
    y = dsp_synthesize(singing_f0_contour(spec, DESK), spec.harmonic_amps, 0.05, DESK, rng=rng)
    segs = np.lib.stride_tricks.sliding_window_view(y, F0_FRAME)[:: DESK.hop_size]
    segs = np.vstack([segs, np.zeros((1, F0_FRAME)), rng.standard_normal((3, F0_FRAME))])
    segs = segs - segs.mean(axis=1, keepdims=True)
    lag_min, lag_max = 4, 67
    ref = np.zeros((len(segs), lag_max - lag_min + 1))
    for i, seg in enumerate(segs):
        for j, lag in enumerate(range(lag_min, lag_max + 1)):
            a, b = seg[:-lag], seg[lag:]
            denom = np.sqrt(float(a @ a) * float(b @ b))
            ref[i, j] = float(a @ b) / denom if denom > 0 else 0.0
    got = _normalized_autocorrelation(segs, lag_min, lag_max)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
    assert not got[-4].any()


# An empty range fails when the config is made (tests/test_configs.py); a
# lag window without an interior lag depends on the sample rate, so only
# f0_extract can see it.
@pytest.mark.parametrize("xcfg", [F0ExtractConfig(fmin_search=900.0, fmax_search=1000.0)], ids=["no_interior_lag"])
def test_f0_extract_rejects_empty_search_ranges(xcfg):
    with pytest.raises(ValidationError, match="f0_extract"):
        f0_extract(np.random.default_rng(0).standard_normal(2000), DESK, xcfg)


def test_f0_extract_rejects_short_signals():
    with pytest.raises(ValidationError, match="f0_extract.*shorter"):
        f0_extract(np.zeros(F0_FRAME - 1), DESK)


def test_f0_rmse_measures_a_known_shift():
    rng = np.random.default_rng(6)
    f = rng.uniform(100.0, 500.0, 300)
    v = rng.random(300) < 0.7
    shifted = f * 2.0 ** (50.0 / 1200.0)
    cents, hz, n = f0_rmse(f, v, shifted, v)
    assert n == v.sum()
    assert abs(cents - 50.0) < 1e-9
    assert hz == pytest.approx(np.sqrt(np.mean((shifted[v] - f[v]) ** 2)), rel=1e-12)


def test_f0_rmse_rejects_mismatched_or_unvoiced_inputs():
    f, v = np.full(10, 200.0), np.ones(10, dtype=bool)
    with pytest.raises(ValidationError, match="frame counts differ"):
        f0_rmse(f, v, f[:9], v[:9])
    with pytest.raises(ValidationError, match="no mutually voiced"):
        f0_rmse(f, v, f, ~v)


def test_dsp_synthesize_noise_is_the_level_times_the_callers_draws():
    """With no harmonics the render is noise_level times standard normals
    from the caller's rng, peak-normalized; a render without an rng fails
    rather than drawing from a hidden seed."""
    f0 = np.full(20, 220.0)
    y = dsp_synthesize(f0, (), 0.1, DESK, np.random.default_rng(7))
    noise = 0.1 * np.random.default_rng(7).standard_normal(20 * DESK.hop_size)
    np.testing.assert_array_equal(y, noise * (0.9 / np.max(np.abs(noise))))
    with pytest.raises(TypeError, match="rng"):
        dsp_synthesize(f0, (1.0,), 0.1, DESK)
