import math
import threading
import warnings
import wave

import numpy as np
import pytest
from scipy.fft import dct

from latentflow import autodiff as ad
from latentflow import signals
from latentflow.exceptions import ValidationError
from latentflow.signals import (
    MCD_SCALE,
    F0ExtractConfig,
    MelConfig,
    MelSpectrogram,
    SingingSpec,
    _dct_bank,
    _dft_bank,
    _f0_extract,
    _lag_energies,
    _normalized_autocorrelation,
    desk_pipeline_mel,
    dsp_synthesize,
    f0_extract,
    f0_rmse,
    mcd,
    mel_cepstra,
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


@pytest.mark.parametrize(
    "cfg",
    [SMALL, desk_pipeline_mel(), MelConfig(sample_rate=8000, fft_size=63, window_size=63, hop_size=21,
                                           mel_bands=8, fmax=4000.0),
     MelConfig(sample_rate=4000, fft_size=64, window_size=64, hop_size=16, mel_bands=1, fmax=2000.0),
     MelConfig(sample_rate=4000, fft_size=128, window_size=128, hop_size=32, mel_bands=1, fmax=2000.0)],
    ids=["small", "desk", "odd_fft", "disc64", "disc128"],
)
def test_stft_input_gradient_matches_the_rfft_adjoint(cfg):
    """The waveform gradient of sum(g * |STFT|) against numpy's FFT: each
    frame's gradient is n * irfft(g X / |X|), halved on the interior bins
    that irfft counts twice, cut to the window, windowed and overlap-added."""
    rng = np.random.default_rng(cfg.fft_size)
    y = rng.standard_normal(cfg.window_size + 9 * cfg.hop_size + 5)
    W, n = cfg.window_size, cfg.fft_size
    starts = cfg.hop_size * np.arange(cfg.frame_count(len(y)))
    spec = np.fft.rfft(y[starts[:, None] + np.arange(W)] * periodic_hann(W), n=n, axis=1)
    g = rng.standard_normal(spec.shape)
    scaled = g * spec / np.abs(spec)
    scaled[:, 1 : (n + 1) // 2] *= 0.5
    frame_grads = n * np.fft.irfft(scaled, n=n, axis=1)[:, :W] * periodic_hann(W)
    expected = np.zeros_like(y)
    for s, fg in zip(starts, frame_grads):
        expected[s : s + W] += fg
    x = ad.Tensor(y)
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(stft_magnitude(x, cfg), g.T))
    (gx,) = ad.grad(loss, [x], tape)
    np.testing.assert_allclose(gx, expected, rtol=1e-11, atol=1e-11)


def test_dft_bank_is_cached_read_only_per_window_and_size():
    bank = _dft_bank(16, 64)
    assert bank.shape == (66, 1, 16) and not bank.flags.writeable
    assert _dft_bank(16, 64) is bank and _dft_bank(16, 32) is not bank
    # the sine rows of bin 0 and of the Nyquist bin are zero, as rfft's imaginary parts there
    assert not bank[33].any() and np.abs(bank[65]).max() < 1e-15


def test_stft_rejects_bad_signals():
    with pytest.raises(ValidationError, match="1-D"):
        stft_magnitude(np.zeros((2, 40)), SMALL)
    with pytest.raises(ValidationError, match="shorter"):
        mel_transform(np.zeros(SMALL.window_size - 1), SMALL)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mel_transform_rejects_non_finite_samples(bad):
    y = np.random.default_rng(2).standard_normal(200)
    y[37] = bad
    with pytest.raises(ValidationError, match="^mel_transform: signal has 1 non-finite samples"):
        mel_transform(y, SMALL)


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


@pytest.mark.parametrize("bands", [14, 16, 80])
def test_dct_bank_is_the_orthonormal_dct_ii_rows_1_to_13_cached_read_only(bands):
    bank = _dct_bank(bands)
    ref = dct(np.eye(bands), type=2, norm="ortho", axis=0)[1:14]
    assert bank.shape == ref.shape == (13, bands) and not bank.flags.writeable
    assert np.abs(bank - ref).max() <= 1e-14
    assert _dct_bank(bands) is bank


@pytest.mark.parametrize("bands", [16, 80])
def test_mel_cepstra_match_scipy_dct_on_random_log_mels(bands):
    values = np.random.default_rng(bands).normal(-3.0, 2.0, (bands, 50))
    ref = dct(values, type=2, norm="ortho", axis=0)[1:14]
    assert np.abs(mel_cepstra(MelSpectrogram(values)) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_mcd_is_zero_on_identical_inputs_and_symmetric():
    rng = np.random.default_rng(3)
    a = MelSpectrogram(rng.standard_normal((16, 30)))
    b = MelSpectrogram(rng.standard_normal((16, 30)))
    assert mcd(a, a) == 0.0
    assert mcd(a, b) > 0.0
    assert mcd(a, b) == mcd(b, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_mcd_rejects_non_finite_mels(bad):
    rng = np.random.default_rng(3)
    a = MelSpectrogram(rng.standard_normal((16, 30)))
    values = rng.standard_normal((16, 30))
    values[4, 7] = bad
    for x, y in ((a, MelSpectrogram(values)), (MelSpectrogram(values), a)):
        with pytest.raises(ValidationError, match="^mcd: mel values must be finite"):
            mcd(x, y)


@pytest.mark.parametrize("samples, message", [
    (np.array([0.1, np.nan, -0.2]), "^write_wav: signal has 1 non-finite samples"),
    (np.array([0.1, -np.inf]), "^write_wav: signal has 1 non-finite samples"),
    (np.zeros((2, 10)), r"^write_wav: expected 1-D samples, got shape \(2, 10\)"),
], ids=["nan", "inf", "2-D"])
def test_write_wav_rejects_bad_samples_before_writing(tmp_path, samples, message):
    path = tmp_path / "x.wav"
    with pytest.raises(ValidationError, match=message):
        write_wav(path, samples, 4000)
    assert not path.exists()


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
    lags = np.arange(lag_min, lag_max + 1)
    got = _normalized_autocorrelation(segs, *_lag_energies(segs, lag_min, lag_max), lags)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
    assert not got[-4].any()


@pytest.mark.parametrize("cfg", [DESK, FULL], ids=["desk", "22k"])
def test_lag_energies_are_the_sums_of_squares_of_each_lag_slice(cfg):
    """a.a and b.b against an exactly rounded sum of each frame's slices, on
    silent, noise and tone rows; the autocorrelation of a silent row is 0
    with no warning."""
    xcfg = F0ExtractConfig()
    width = int(np.ceil(2.0 * cfg.sample_rate / xcfg.fmin_search))
    lag_min = max(2, int(np.floor(cfg.sample_rate / xcfg.fmax_search)))
    lag_max = min(width - 1, int(np.ceil(cfg.sample_rate / xcfg.fmin_search)))
    t = np.arange(width) / cfg.sample_rate
    segs = np.vstack([np.zeros(width), np.random.default_rng(9).standard_normal(width),
                      np.sin(2 * np.pi * 220.0 * t) + 0.5 * np.sin(2 * np.pi * 440.0 * t)])
    segs = segs - segs.mean(axis=1, keepdims=True)
    lags = np.arange(lag_min, lag_max + 1)
    a_energy, b_energy = _lag_energies(segs, lag_min, lag_max)
    assert a_energy.shape == b_energy.shape == (len(segs), len(lags))
    a_ref = [[math.fsum(seg[:-lag] ** 2) for lag in lags] for seg in segs]
    b_ref = [[math.fsum(seg[lag:] ** 2) for lag in lags] for seg in segs]
    np.testing.assert_allclose(a_energy, a_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(b_energy, b_ref, rtol=1e-13, atol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = _normalized_autocorrelation(segs, a_energy, b_energy, lags)
    assert np.all(corr[0] == 0.0) and np.isfinite(corr).all()


def _render(spec, cfg, seed):
    return dsp_synthesize(singing_f0_contour(spec, cfg), spec.harmonic_amps, spec.noise_level, cfg,
                          np.random.default_rng(seed))


def _tone(hz, frames, cfg, noise=0.0):
    return dsp_synthesize(np.full(frames, hz), (1.0, 0.5, 0.25), noise, cfg, np.random.default_rng(0))


# On DESK the lags run 4..67; at 4000/27 Hz the first peak is column 23, the
# last of the first 24-lag chunk, and it is confirmed only by the next chunk;
# at 4000/28 Hz it is column 24, whose left neighbour is in the first chunk.
CHUNKED_SEARCH_SIGNALS = {
    "vibrato+noise": lambda: _render(SingingSpec(notes=[(57, 40, 1), (64, 30, 2), (70, 50, 3)],
                                                 vibrato_depth_cents=90.0, noise_level=0.05), DESK, 1),
    "low-notes+noise": lambda: _render(SingingSpec(notes=[(43, 45, 1), (50, 45, 2)], noise_level=0.2), DESK, 2),
    "silence": lambda: np.zeros(2000),
    "white-noise": lambda: np.random.default_rng(3).standard_normal(2000),
    "peak-at-chunk-end": lambda: _tone(4000.0 / 27, 60, DESK),
    "peak-at-chunk-start": lambda: _tone(4000.0 / 28, 60, DESK),
    "22k-midi48": lambda: _tone(float(midi_to_hz(48)), 40, FULL, 0.01),
    "22k-midi60": lambda: _tone(float(midi_to_hz(60)), 40, FULL, 0.01),
    "22k-midi72": lambda: _tone(float(midi_to_hz(72)), 40, FULL, 0.01),
}


@pytest.mark.parametrize("name", list(CHUNKED_SEARCH_SIGNALS))
def test_chunked_lag_search_is_bit_identical_to_one_pass_over_every_lag(name):
    """One chunk spanning every lag computes the whole autocorrelation and
    then takes the first peak; every chunk size must give the same bits."""
    cfg = FULL if name.startswith("22k") else DESK
    y = CHUNKED_SEARCH_SIGNALS[name]()
    xcfg = F0ExtractConfig()
    f0_all, voiced_all = _f0_extract(y, cfg, xcfg, cfg.sample_rate)  # a lag window is shorter than 1 s
    for chunk in (1, 2, 24):
        f0, voiced = _f0_extract(y, cfg, xcfg, chunk)
        np.testing.assert_array_equal(voiced, voiced_all, err_msg=f"chunk {chunk}")
        np.testing.assert_array_equal(f0, f0_all, err_msg=f"chunk {chunk}")
    f0, voiced = f0_extract(y, cfg)
    np.testing.assert_array_equal(f0, f0_all)
    np.testing.assert_array_equal(voiced, voiced_all)
    if name in ("silence", "white-noise"):
        assert not voiced_all.any()
    elif name.startswith("peak-at"):
        column = np.round(cfg.sample_rate / f0_all[voiced_all]) - 4
        assert voiced_all.mean() > 0.8 and np.all(column == (23 if name.endswith("end") else 24))
    else:
        assert voiced_all.mean() > 0.8


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_f0_extract_rejects_non_finite_signals(bad):
    y = _tone(float(midi_to_hz(60)), 120, DESK)
    y[700] = bad
    with pytest.raises(ValidationError, match="f0_extract.*non-finite"):
        f0_extract(y, DESK)


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


def _desk_song(frames_per_note, seed):
    notes = [(pitch, frames, k + 1) for k, (pitch, frames) in enumerate(zip((55, 62, 48, 67), frames_per_note))]
    return _render(SingingSpec(notes=notes, vibrato_depth_cents=60.0, noise_level=0.05), DESK, seed)


def test_f0_extract_returns_no_view_of_its_scratch_buffer():
    """Wave a, a longer wave (the buffer grows), a shorter one, then a again:
    each result equals the one a fresh thread's buffer gives, a's two
    results are equal, no result changes under the later calls, and none
    shares memory with the thread's buffer."""
    a = _desk_song((40, 30, 50, 40), 4)
    waves = [a, _desk_song((200, 150, 180, 120), 5), _desk_song((20, 20, 15, 10), 6), a]
    fresh = []
    for y in waves[:3]:
        worker = threading.Thread(target=lambda y=y: fresh.append(f0_extract(y, DESK)))
        worker.start()
        worker.join()
    fresh.append(fresh[0])
    results = []
    for y in waves:
        out = f0_extract(y, DESK)
        assert not any(np.shares_memory(x, signals._SCRATCH.buf) for x in out)
        results.append((out, tuple(x.copy() for x in out)))
    for (out, copy), expected in zip(results, fresh):
        for got, kept, want in zip(out, copy, expected):
            np.testing.assert_array_equal(got, kept)
            np.testing.assert_array_equal(got, want)
    for first, last in zip(results[0][0], results[3][0]):
        np.testing.assert_array_equal(first, last)


def test_repeated_f0_extract_takes_almost_no_page_faults():
    """After one warm-up call, the frame-sized temporaries of 20 calls on a
    650-frame desk wave reuse the thread's buffer instead of faulting in
    fresh pages (about 480 faults per call without it)."""
    resource = pytest.importorskip("resource")
    y = _desk_song((200, 150, 180, 120), 4)
    assert DESK.frame_count(len(y)) == 650
    f0_extract(y, DESK)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        f0_extract(y, DESK)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20


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
    for mask in (np.ones(1, dtype=bool), np.ones(11, dtype=bool), v[:, None]):
        with pytest.raises(ValidationError, match="f0_rmse.*voicing"):
            f0_rmse(f, mask, f, v)
        with pytest.raises(ValidationError, match="f0_rmse.*voicing"):
            f0_rmse(f, v, f, mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -200.0], ids=["nan", "inf", "zero", "negative"])
def test_f0_rmse_rejects_a_voiced_f0_that_is_not_finite_and_positive(bad):
    f, v = np.full(10, 200.0), np.ones(10, dtype=bool)
    g = f.copy()
    g[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in ((g, v, f, v), (f, v, g, v)):
            with pytest.raises(ValidationError, match="f0_rmse.*finite and > 0"):
                f0_rmse(*args)
        v[3] = False  # an unvoiced frame's f0 is not read
        assert f0_rmse(g, v, f, v) == (0.0, 0.0, 9)


# mel_cepstra is the orthonormal DCT-II of log-mel over the bands, so adding
# delta times DCT basis vector k to every frame moves cepstral coefficient k by
# delta and no other. The log-mel values below give cepstra 1..13 below 7 in
# magnitude, where float64 round-off leaves the MCD within 4e-14 dB of its exact
# value; it is held to 1e-12 dB.
MCD_TOL = 1e-12


def _dct_basis(n, k):
    scale = np.sqrt((1.0 if k == 0 else 2.0) / n)
    return scale * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))


@pytest.mark.parametrize("delta", [0.3, -1.7])
def test_mcd_of_a_shift_along_one_dct_basis_vector(delta):
    rng = np.random.default_rng(8)
    ref = MelSpectrogram(rng.normal(-3.0, 2.0, (16, 40)))
    for k in range(16):
        syn = MelSpectrogram(ref.values + delta * _dct_basis(16, k)[:, None])
        expected = MCD_SCALE * abs(delta) if 1 <= k <= 13 else 0.0  # 0: level; 14, 15: past the 13 coefficients
        assert abs(mcd(ref, syn) - expected) <= MCD_TOL, k


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_dsp_synthesize_rejects_non_finite_f0(bad):
    with pytest.raises(ValidationError, match="dsp_synthesize.*non-finite"):
        dsp_synthesize(np.array([200.0, bad, 200.0]), (1.0, 0.5), 0.0, DESK, np.random.default_rng(0))


@pytest.mark.parametrize("f0, amps, noise, message", [
    (np.array([200.0, -1.0, 200.0]), (1.0,), 0.0, "f0 contour has 1 negative frames"),
    (np.array([200.0, 200.0]), (1.0, np.nan), 0.0, "1 harmonic amplitudes are not finite"),
    (np.array([200.0, 200.0]), (1.0,), np.nan, "noise level nan must be finite and >= 0"),
    (np.array([200.0, 200.0]), (1.0,), -0.1, "noise level -0.1 must be finite and >= 0"),
], ids=["negative_f0", "amp_nan", "noise_nan", "noise_negative"])
def test_dsp_synthesize_rejects_bad_pitch_amplitude_and_noise(f0, amps, noise, message):
    with pytest.raises(ValidationError, match="^dsp_synthesize: " + message):
        dsp_synthesize(f0, amps, noise, DESK, np.random.default_rng(0))


def test_dsp_synthesize_accepts_an_f0_of_zero():
    y = dsp_synthesize(np.array([0.0, 200.0, 0.0]), (1.0,), 0.0, DESK, np.random.default_rng(0))
    assert y.shape == (3 * DESK.hop_size,) and np.isfinite(y).all() and y.any()
