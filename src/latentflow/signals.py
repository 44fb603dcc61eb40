"""Mel analysis, a toy harmonic-plus-noise synthesizer, synthetic singing
data with controlled vibrato, autocorrelation f0 extraction, and the
MCD / F0-RMSE evaluation metrics.

f0 is reported on the mel frame grid, one value per mel frame, from
zero-padded analysis frames centred on the mel frames; its period is the
first autocorrelation peak that reaches the voicing threshold, not the
global maximum, which lands on sub-harmonics."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from . import autodiff as ad
from .exceptions import ValidationError

MCD_SCALE = 10.0 * np.sqrt(2.0) / np.log(10.0)  # dB per unit cepstral distance
_MCD_COEFFS = 13  # cepstral coefficients 1..13 enter the MCD
_LOG_FLOOR = 1e-5  # mel magnitudes are floored here before the log


@dataclass(frozen=True)
class MelConfig:
    sample_rate: int = 22050
    fft_size: int = 1024
    window_size: int = 1024
    hop_size: int = 256
    mel_bands: int = 80
    fmax: float = 11025.0

    def __post_init__(self):
        if self.fmax > self.sample_rate / 2:
            raise ValidationError(f"mel: fmax {self.fmax} exceeds Nyquist {self.sample_rate / 2}")
        if self.window_size > self.fft_size:
            raise ValidationError(f"mel: window {self.window_size} exceeds fft size {self.fft_size}")
        if self.hop_size <= 0 or self.window_size <= 0:
            raise ValidationError("mel: hop and window must be positive")

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_size:
            raise ValidationError(
                f"mel: signal of {n_samples} samples shorter than window {self.window_size}"
            )
        return 1 + (n_samples - self.window_size) // self.hop_size


def desk_pipeline_mel() -> MelConfig:
    """Pipeline analysis settings sized for CPU-seconds training runs.

    window == hop keeps every frame-count law consistent end to end:
    a waveform of T*hop samples analyzes to exactly T frames, matching
    the decoder's T -> T*hop upsampling.
    """
    return MelConfig(sample_rate=4000, fft_size=64, window_size=16, hop_size=16, mel_bands=16, fmax=2000.0)


@dataclass
class MelSpectrogram:
    """Natural-log magnitude-mel values, [bands, frames], floored at
    log(1e-5)."""

    values: np.ndarray


def _hz_to_mel(f):
    """Slaney mel scale: linear below 1 kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = 3.0 * f / 200.0
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = 200.0 * m / 3.0
    log_region = m >= 15.0
    return np.where(log_region, 1000.0 * np.exp((np.log(6.4) / 27.0) * (m - 15.0)), f)


@functools.lru_cache
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular area-normalized (Slaney-style) filterbank
    [mel_bands, fft_size//2 + 1] from 0 Hz to fmax, built once per config
    and shared read-only."""
    n_bins = cfg.fft_size // 2 + 1
    fft_freqs = np.arange(n_bins) * cfg.sample_rate / cfg.fft_size
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(cfg.fmax), cfg.mel_bands + 2))
    fb = np.zeros((cfg.mel_bands, n_bins))
    for m in range(cfg.mel_bands):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (fft_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - fft_freqs) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # area normalization
    fb.flags.writeable = False
    return fb


def periodic_hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(y, cfg: MelConfig):
    """[bins, frames] Hann-window STFT magnitudes of a 1-D waveform; the
    frame count follows 1 + (len - window)//hop with no centering.

    A Tensor waveform gives a Tensor; a plain one gives an ndarray.
    """
    frames = ad.frame_signal(y, cfg.window_size, cfg.hop_size)
    windowed = ad.mul(frames, periodic_hann(cfg.window_size)[None, :])
    return ad.transpose(ad.rfft_magnitude(windowed, cfg.fft_size), (1, 0))


def mel_transform_t(y, cfg: MelConfig):
    """Hann STFT magnitude -> area-normalized mel filterbank -> natural log
    with a floor of 1e-5: log-mel values [bands, frames].

    A Tensor waveform gives a Tensor; a plain one gives an ndarray.
    """
    mel = ad.matmul(mel_filterbank(cfg), stft_magnitude(y, cfg))
    return ad.log(ad.clamp(mel, lo=_LOG_FLOOR))


def mel_transform(y, cfg: MelConfig) -> MelSpectrogram:
    """Log-mel spectrogram of a waveform, taken as a constant."""
    return MelSpectrogram(mel_transform_t(ad.value(y), cfg))


# ---------------------------------------------------------------------------
# toy DSP synthesizer and synthetic singing data


def midi_to_hz(m) -> np.ndarray:
    return 440.0 * 2.0 ** ((np.asarray(m, dtype=np.float64) - 69.0) / 12.0)


def dsp_synthesize(
    f0_frames: np.ndarray,
    harmonic_amps: np.ndarray,
    noise_env,
    cfg: MelConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Harmonic-plus-noise rendering of a per-frame f0 contour, hop_size
    samples per frame.

    Harmonic k gets amplitude harmonic_amps[k-1]; phase accumulates from a
    sample-interpolated f0. Enveloped white noise is added and the result
    is peak-normalized to 0.9. Any harmonic at or above the analysis fmax
    is rejected as aliasing.
    """
    f0_frames = np.asarray(f0_frames, dtype=np.float64)
    harmonic_amps = np.atleast_1d(np.asarray(harmonic_amps, dtype=np.float64))
    n_harm = len(harmonic_amps)
    if n_harm and f0_frames.size and float(f0_frames.max()) * n_harm >= cfg.fmax:
        raise ValidationError(
            f"dsp_synthesize: harmonic {n_harm} of max f0 {f0_frames.max():.1f} Hz aliases above fmax {cfg.fmax}"
        )
    L = len(f0_frames) * cfg.hop_size
    anchors = np.arange(len(f0_frames)) * cfg.hop_size
    f0_samples = np.interp(np.arange(L), anchors, f0_frames)
    phase_cycles = np.cumsum(f0_samples) / cfg.sample_rate
    y = np.zeros(L)
    for k, a in enumerate(harmonic_amps, start=1):
        if a != 0.0:
            y += a * np.sin(2.0 * np.pi * k * phase_cycles)
    env = np.asarray(noise_env, dtype=np.float64)
    if env.ndim == 0:
        noise_gain = np.full(L, float(env))
    else:
        noise_gain = np.interp(np.arange(L), anchors, env)
    if np.any(noise_gain != 0.0):
        if rng is None:
            rng = np.random.default_rng(0)
        y += noise_gain * rng.standard_normal(L)
    peak = np.max(np.abs(y))
    if peak > 0:
        y *= 0.9 / peak
    return y


@dataclass(frozen=True)
class SingingSpec:
    """One synthetic utterance: a note sequence plus vibrato and timbre
    controls. Each note carries (midi pitch, duration in frames, token id)."""

    notes: tuple  # ((midi, frames, token_id), ...); a list is stored as a tuple
    vibrato_rate_hz: float = 5.0
    vibrato_depth_cents: float = 60.0
    vibrato_phase: float = 0.0
    harmonic_amps: tuple = (1.0, 0.5, 0.25)
    noise_level: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(map(tuple, self.notes)))
        if self.vibrato_rate_hz < 0 or self.vibrato_depth_cents < 0:
            raise ValidationError("singing spec: vibrato rate/depth must be >= 0")
        if not self.notes or any(d < 1 for _, d, _ in self.notes):
            raise ValidationError("singing spec: need notes with durations >= 1 frame")


def singing_f0_contour(spec: SingingSpec, cfg: MelConfig) -> np.ndarray:
    """Per-frame f0 (Hz): note pitches modulated by sinusoidal vibrato."""
    pitches = np.concatenate([np.full(d, midi_to_hz(m)) for m, d, _ in spec.notes])
    t_sec = np.arange(len(pitches)) * cfg.hop_size / cfg.sample_rate
    cents = spec.vibrato_depth_cents * np.sin(2.0 * np.pi * spec.vibrato_rate_hz * t_sec + spec.vibrato_phase)
    return pitches * 2.0 ** (cents / 1200.0)


# ---------------------------------------------------------------------------
# f0 extraction


@dataclass
class F0ExtractConfig:
    fmin_search: float = 60.0
    fmax_search: float = 1000.0
    voicing_threshold: float = 0.5


def _normalized_autocorrelation(segs: np.ndarray, lag_min: int, lag_max: int) -> np.ndarray:
    """corr[frame, lag - lag_min] = a.b / sqrt(a.a * b.b) with a = seg[:-lag],
    b = seg[lag:], for every row of ``segs`` at once; 0 where a or b has no
    energy. The energies come from prefix and suffix sums of seg**2, so
    neither is a difference of two large sums."""
    sq = segs * segs
    prefix = np.cumsum(sq, axis=1)  # prefix[:, k] = sum of seg[:k + 1]**2
    suffix = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]  # suffix[:, k] = sum of seg[k:]**2
    lags = np.arange(lag_min, lag_max + 1)
    width = segs.shape[1]
    r = np.empty((segs.shape[0], len(lags)))
    for j, lag in enumerate(lags):
        r[:, j] = np.einsum("ij,ij->i", segs[:, :-lag], segs[:, lag:])
    denom = np.sqrt(prefix[:, width - lags - 1] * suffix[:, lags])
    return np.divide(r, denom, out=np.zeros_like(r), where=denom > 0)


def f0_extract(y: np.ndarray, cfg: MelConfig, xcfg: F0ExtractConfig | None = None):
    """Per-frame autocorrelation pitch in [fmin_search, fmax_search] Hz on
    the mel frame grid: ``len(f0) == cfg.frame_count(len(y))``.

    Each analysis frame is 2 periods of fmin_search long and centred on its
    mel frame; the signal is zero-padded by (frame - window)//2 samples on
    the left and the rest on the right (a negative pad crops). Each frame is
    demeaned and its normalized autocorrelation taken over the lag window.
    The pitch period is the first lag that is a strict local maximum of
    the autocorrelation and reaches the voicing threshold, as YIN takes the
    first dip (de Cheveigne & Kawahara, 2002), refined by parabolic
    interpolation; a global maximum would land on a multiple of the period,
    a sub-harmonic. A frame with no such lag, as in silence or noise, is
    unvoiced.

    Returns (f0_hz, voiced), with f0 0 on unvoiced frames.
    """
    xcfg = xcfg or F0ExtractConfig()
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError(f"f0_extract: expected 1-D signal, got shape {y.shape}")
    if not 0 < xcfg.fmin_search < xcfg.fmax_search:
        raise ValidationError(
            f"f0_extract: search range [{xcfg.fmin_search}, {xcfg.fmax_search}] Hz needs 0 < fmin < fmax"
        )
    sr, hop = cfg.sample_rate, cfg.hop_size
    frame = int(np.ceil(2.0 * sr / xcfg.fmin_search))
    lag_min = max(2, int(np.floor(sr / xcfg.fmax_search)))
    lag_max = min(frame - 1, int(np.ceil(sr / xcfg.fmin_search)))
    if lag_max - lag_min < 2:  # a peak needs a lag on each side
        raise ValidationError(
            f"f0_extract: lag window [{lag_min}, {lag_max}] samples for [{xcfg.fmin_search}, "
            f"{xcfg.fmax_search}] Hz at {sr} Hz has no lag with a neighbour on each side"
        )
    if len(y) < max(frame, cfg.window_size):
        raise ValidationError(
            f"f0_extract: signal of {len(y)} samples shorter than frame {frame} or window {cfg.window_size}"
        )
    n_frames = cfg.frame_count(len(y))
    left = (frame - cfg.window_size) // 2
    start = frame - left  # frame 0 in a signal padded by ``frame`` zeros on each side
    padded = np.pad(y, frame)
    segs = np.lib.stride_tricks.sliding_window_view(padded, frame)[start : start + n_frames * hop : hop]
    segs = segs - segs.mean(axis=1, keepdims=True)
    corr = _normalized_autocorrelation(segs, lag_min, lag_max)

    inner = corr[:, 1:-1]
    peak = (inner > corr[:, :-2]) & (inner >= corr[:, 2:]) & (inner >= xcfg.voicing_threshold)
    voiced = peak.any(axis=1)
    rows = np.flatnonzero(voiced)
    j = peak[rows].argmax(axis=1) + 1  # first peak, as an index into corr
    c0, c1, c2 = corr[rows, j - 1], corr[rows, j], corr[rows, j + 1]
    f0 = np.zeros(n_frames)
    # c1 > c0 and c1 >= c2, so the parabola's curvature c0 - 2 c1 + c2 is < 0
    f0[rows] = sr / (lag_min + j + 0.5 * (c0 - c2) / (c0 - 2.0 * c1 + c2))
    return f0, voiced


# ---------------------------------------------------------------------------
# metrics


def mel_cepstra(mel: MelSpectrogram) -> np.ndarray:
    """Coefficients 1..13 of the orthonormal type-II DCT of log-mel per
    frame (coefficient 0 carries overall level and is excluded)."""
    c = dct(mel.values, type=2, norm="ortho", axis=0)
    if _MCD_COEFFS >= c.shape[0]:
        raise ValidationError(f"mcd: {_MCD_COEFFS} coefficients requested from {c.shape[0]} bands")
    return c[1 : _MCD_COEFFS + 1]


def mcd(x_ref: MelSpectrogram, x_syn: MelSpectrogram) -> float:
    """Mel-cepstral distortion in dB over frame-aligned inputs, from
    cepstral coefficients 1..13."""
    if x_ref.values.shape != x_syn.values.shape:
        raise ValidationError(
            f"mcd: frame-aligned inputs required, got {x_ref.values.shape} vs {x_syn.values.shape}"
        )
    c_ref = mel_cepstra(x_ref)
    c_syn = mel_cepstra(x_syn)
    dist = np.sqrt(np.sum((c_ref - c_syn) ** 2, axis=0))
    return float(MCD_SCALE * dist.mean())


def f0_rmse(f0_ref, voiced_ref, f0_syn, voiced_syn) -> tuple[float, float, int]:
    """(RMSE in cents, RMSE in Hz, #frames) over mutually voiced frames."""
    f0_ref = np.asarray(f0_ref, dtype=np.float64)
    f0_syn = np.asarray(f0_syn, dtype=np.float64)
    if f0_ref.shape != f0_syn.shape:
        raise ValidationError(f"f0_rmse: frame counts differ, {f0_ref.shape} vs {f0_syn.shape}")
    both = np.asarray(voiced_ref, dtype=bool) & np.asarray(voiced_syn, dtype=bool)
    if not both.any():
        raise ValidationError("f0_rmse: no mutually voiced frames")
    r, s = f0_ref[both], f0_syn[both]
    cents = 1200.0 * np.log2(s / r)
    rmse_cents = float(np.sqrt(np.mean(cents**2)))
    rmse_hz = float(np.sqrt(np.mean((s - r) ** 2)))
    return rmse_cents, rmse_hz, int(both.sum())
