"""Mel analysis, a toy harmonic-plus-noise synthesizer, synthetic singing
data with controlled vibrato, autocorrelation f0 extraction, and the
MCD / F0-RMSE evaluation metrics.

f0 is reported on the mel frame grid, one value per mel frame, from
zero-padded analysis frames centred on the mel frames; its period is the
first autocorrelation peak that reaches the voicing threshold, not the
global maximum, which lands on sub-harmonics. Lags are searched in chunks,
each frame only until its first peak is confirmed, and the output does not
depend on the chunk size."""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

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
        if not 0 < self.fmax <= self.sample_rate / 2:  # a NaN fails it too
            raise ValidationError(f"mel: fmax {self.fmax} is not positive or exceeds Nyquist {self.sample_rate / 2}")
        if self.window_size > self.fft_size:
            raise ValidationError(f"mel: window {self.window_size} exceeds fft size {self.fft_size}")
        if self.hop_size <= 0 or self.window_size <= 0:
            raise ValidationError("mel: hop and window must be positive")
        if self.mel_bands < 1:
            raise ValidationError(f"mel: mel_bands must be >= 1, got {self.mel_bands}")

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


@functools.lru_cache
def _dft_bank(window: int, n: int) -> np.ndarray:
    """Hann-windowed DFT kernels [2(n//2 + 1), 1, window], built once per
    (window, n) and shared read-only: cos(2 pi k t / n) rows over -sin rows,
    so a frame correlated with them gives its rfft zero-padded to n, real
    parts over imaginary. A dense DFT: cheaper than an FFT and its framing
    at the pipeline's n <= 128, about 20 times an FFT's work at n = 1024."""
    angle = (2.0 * np.pi / n) * (np.arange(n // 2 + 1)[:, None] * np.arange(window) % n)
    hann = periodic_hann(window)
    bank = np.concatenate((np.cos(angle) * hann, -np.sin(angle) * hann))[:, None, :]
    bank.flags.writeable = False
    return bank


def stft_magnitude(y, cfg: MelConfig):
    """[bins, frames] Hann-window STFT magnitudes of a 1-D waveform; the
    frame count follows 1 + (len - window)//hop with no centering. The STFT
    is one stride-hop conv1d with ``_dft_bank`` (nnAudio, Cheuk et al. 2020).

    A Tensor waveform gives a Tensor; a plain one gives an ndarray.
    """
    shape = ad.value(y).shape
    if len(shape) != 1:
        raise ValidationError(f"stft_magnitude: expected 1-D signal, got shape {shape}")
    if shape[0] < cfg.window_size:
        raise ValidationError(f"stft_magnitude: signal of {shape[0]} samples shorter than window {cfg.window_size}")
    bank = _dft_bank(cfg.window_size, cfg.fft_size)
    mag = ad.magnitude(ad.conv1d(ad.reshape(y, (1, 1, shape[0])), bank, stride=cfg.hop_size, padding=0))
    return ad.reshape(mag, mag.shape[1:])


def mel_transform_t(y, cfg: MelConfig):
    """Hann STFT magnitude -> area-normalized mel filterbank -> natural log
    with a floor of 1e-5: log-mel values [bands, frames].

    A Tensor waveform gives a Tensor; a plain one gives an ndarray.
    """
    mel = ad.matmul(mel_filterbank(cfg), stft_magnitude(y, cfg))
    return ad.log(ad.clamp(mel, lo=_LOG_FLOOR))


def mel_transform(y, cfg: MelConfig) -> MelSpectrogram:
    """Log-mel spectrogram of a waveform, taken as a constant; a signal with
    a non-finite sample is rejected."""
    y = ad.value(y)
    if not np.isfinite(y).all():
        raise ValidationError(f"mel_transform: signal has {np.count_nonzero(~np.isfinite(y))} non-finite samples")
    return MelSpectrogram(mel_transform_t(y, cfg))


# ---------------------------------------------------------------------------
# toy DSP synthesizer and synthetic singing data


def midi_to_hz(m) -> np.ndarray:
    return 440.0 * 2.0 ** ((np.asarray(m, dtype=np.float64) - 69.0) / 12.0)


def dsp_synthesize(
    f0_frames: np.ndarray,
    harmonic_amps: np.ndarray,
    noise_level: float,
    cfg: MelConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Harmonic-plus-noise rendering of a per-frame f0 contour, hop_size
    samples per frame.

    Harmonic k gets amplitude harmonic_amps[k-1]; phase accumulates from a
    sample-interpolated f0. White noise of standard deviation noise_level,
    drawn from ``rng``, is added and the result is peak-normalized to 0.9.
    Any harmonic at or above the analysis fmax is rejected as aliasing, as
    are an f0 that is not finite and >= 0, a non-finite harmonic amplitude
    and a noise level that is not finite and >= 0.
    """
    f0_frames = np.asarray(f0_frames, dtype=np.float64)
    harmonic_amps = np.atleast_1d(np.asarray(harmonic_amps, dtype=np.float64))
    if not np.isfinite(f0_frames).all():
        raise ValidationError(
            f"dsp_synthesize: f0 contour has {np.count_nonzero(~np.isfinite(f0_frames))} non-finite frames"
        )
    if np.any(f0_frames < 0):
        raise ValidationError(f"dsp_synthesize: f0 contour has {np.count_nonzero(f0_frames < 0)} negative frames")
    if not np.isfinite(harmonic_amps).all():
        raise ValidationError(
            f"dsp_synthesize: {np.count_nonzero(~np.isfinite(harmonic_amps))} harmonic amplitudes are not finite"
        )
    if not 0 <= noise_level < np.inf:  # a NaN fails it too
        raise ValidationError(f"dsp_synthesize: noise level {noise_level} must be finite and >= 0")
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
    if noise_level != 0.0:
        y += noise_level * rng.standard_normal(L)
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
    harmonic_amps: tuple = (1.0, 0.5, 0.25)  # a list or array is stored as a tuple of floats
    noise_level: float = 0.01

    def __post_init__(self):
        notes = tuple(tuple(n) if np.iterable(n) else n for n in self.notes)
        if not all(isinstance(n, tuple) and len(n) == 3 for n in notes):
            raise ValidationError("singing spec: each note must be a (midi, frames, token_id) triple")
        object.__setattr__(self, "notes", notes)
        object.__setattr__(self, "harmonic_amps", tuple(float(a) for a in self.harmonic_amps))
        # a NaN fails both checks
        if not all(0 <= x < np.inf for x in (self.vibrato_rate_hz, self.vibrato_depth_cents, self.noise_level)):
            raise ValidationError("singing spec: vibrato rate/depth and noise level must be finite and >= 0")
        if not np.all(np.isfinite(np.append(self.vibrato_phase, self.harmonic_amps))):
            raise ValidationError("singing spec: vibrato phase and harmonic amplitudes must be finite")
        if not self.notes or any(d < 1 for _, d, _ in self.notes):
            raise ValidationError("singing spec: need notes with durations >= 1 frame")
        if not np.all(np.isfinite([m for m, _, _ in self.notes])):
            raise ValidationError("singing spec: note pitches must be finite")


def singing_f0_contour(spec: SingingSpec, cfg: MelConfig) -> np.ndarray:
    """Per-frame f0 (Hz): note pitches modulated by sinusoidal vibrato."""
    pitches = np.concatenate([np.full(d, midi_to_hz(m)) for m, d, _ in spec.notes])
    t_sec = np.arange(len(pitches)) * cfg.hop_size / cfg.sample_rate
    cents = spec.vibrato_depth_cents * np.sin(2.0 * np.pi * spec.vibrato_rate_hz * t_sec + spec.vibrato_phase)
    return pitches * 2.0 ** (cents / 1200.0)


# ---------------------------------------------------------------------------
# f0 extraction


@dataclass(frozen=True)
class F0ExtractConfig:
    fmin_search: float = 60.0
    fmax_search: float = 1000.0
    voicing_threshold: float = 0.5

    def __post_init__(self):
        if not 0 < self.fmin_search < self.fmax_search:  # a NaN fails it too
            raise ValidationError(
                f"f0 extract config: search range [{self.fmin_search}, {self.fmax_search}] Hz "
                "needs 0 < fmin < fmax"
            )
        if not 0 < self.voicing_threshold < 1:  # a NaN fails it too
            raise ValidationError(
                f"f0 extract config: voicing threshold {self.voicing_threshold} needs 0 < threshold < 1"
            )


# Lags per step of the first-peak search: 16 beat 24 in 10 of 10 paired eval runs
# (p50 -4%); in-process, 32 and one chunk of every lag are 10% and 43% slower than 16.
_LAG_CHUNK = 16

# This thread's f0_extract buffer, grown to the largest call's need and kept:
# frame-sized temporaries freed after each call came back as fresh zeroed pages.
_SCRATCH = threading.local()


def _scratch(n: int, frame: int, width: int) -> tuple[np.ndarray, ...]:
    """Four disjoint views of this thread's scratch buffer: the demeaned
    frames [n, frame], then a.a, b.b and corr, each [n, width]. One shape
    always maps to the same memory, so the views that different steps of a
    call take agree; the buffer only grows, to n * (frame + 3 * width)."""
    need = n * (frame + 3 * width)
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < need:
        buf = _SCRATCH.buf = np.empty(need)
    rest = buf[n * frame : need].reshape(3, n, width)
    return buf[: n * frame].reshape(n, frame), rest[0], rest[1], rest[2]


def _lag_energies(segs: np.ndarray, lag_min: int, lag_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(a.a, b.b) as [frame, lag - lag_min] views of the scratch buffer, with
    a = seg[:-lag] and b = seg[lag:]: the dot of the part every lag shares,
    plus a cumsum from lag_max down to lag_min of seg[-lag - 1]**2 or
    seg[lag]**2; sums only."""
    _, a_energy, b_energy, _ = _scratch(*segs.shape, lag_max - lag_min + 1)
    head, tail = segs[:, : -lag_max - 1], segs[:, lag_max + 1 :]
    np.square(segs[:, -lag_max - 1 : -lag_min], out=a_energy)
    np.cumsum(a_energy, axis=1, out=a_energy)
    a_energy += np.vecdot(head, head)[:, None]
    np.square(segs[:, lag_max : lag_min - 1 : -1], out=b_energy)
    np.cumsum(b_energy, axis=1, out=b_energy)
    b_energy += np.vecdot(tail, tail)[:, None]
    return a_energy[:, ::-1], b_energy[:, ::-1]


def _normalized_autocorrelation(segs: np.ndarray, a_energy: np.ndarray, b_energy: np.ndarray,
                                lags: np.ndarray) -> np.ndarray:
    """corr[frame, j] = a.b / sqrt(a.a * b.b) with a = seg[:-lag],
    b = seg[lag:] and lag = lags[j], for every row of ``segs`` at once,
    given a.a and b.b in the same layout; where either is 0 the bare a.b
    stays, which is 0 unless a square underflowed. Each column is one
    np.vecdot, so a value does not depend on the rows or lags beside it."""
    r = np.empty((segs.shape[0], len(lags)))
    for j, lag in enumerate(lags):
        np.vecdot(segs[:, :-lag], segs[:, lag:], out=r[:, j])
    denom = np.sqrt(a_energy * b_energy)
    return np.divide(r, denom, out=r, where=denom > 0)


def _first_peaks(segs: np.ndarray, lag_min: int, lag_max: int, threshold: float,
                 chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """(corr, first): the normalized autocorrelation over lags
    lag_min..lag_max, a view of the scratch buffer, and, per frame, the
    column of its first strict local maximum that reaches ``threshold``, or
    0 for none.

    Lags are computed ``chunk`` at a time, each chunk only for the frames
    with no peak yet; a peak at column j counts once column j + 1 exists.
    Columns past the chunk that confirms a frame's peak are left unset. As
    every column is computed alike, ``first`` and the columns beside each
    first peak do not depend on ``chunk``."""
    a_energy, b_energy = _lag_energies(segs, lag_min, lag_max)
    lags = np.arange(lag_min, lag_max + 1)
    corr = _scratch(*segs.shape, len(lags))[3]
    first = np.zeros(len(segs), dtype=np.intp)
    frames = np.arange(len(segs))
    rows = slice(None)  # the first chunk runs on every frame, ungathered
    for lo in range(0, len(lags), chunk):
        hi = min(lo + chunk, len(lags))
        corr[rows, lo:hi] = _normalized_autocorrelation(segs[rows], a_energy[rows, lo:hi],
                                                        b_energy[rows, lo:hi], lags[lo:hi])
        # the centres lo - 1 .. hi - 2 now have both neighbours
        centre = max(1, lo - 1)
        window = corr[rows, centre - 1 : hi]
        inner = window[:, 1:-1]
        peak = (inner > window[:, :-2]) & (inner >= window[:, 2:]) & (inner >= threshold)
        found = peak.any(axis=1)
        searched = frames[rows]
        if found.any():
            first[searched[found]] = peak[found].argmax(axis=1) + centre
        rows = searched[~found]
        if not rows.size:
            break
    return corr, first


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
    unvoiced. Lags are searched in chunks, and a frame stops at its first
    confirmed peak; the output does not depend on the chunk size.

    Returns (f0_hz, voiced), with f0 0 on unvoiced frames; both are fresh
    arrays. A signal with a non-finite sample is rejected.

    The frame-sized temporaries live in one float64 buffer per thread, kept
    between calls and grown to the largest call's n * (frame + 3 L) * 8
    bytes for n frames and L lags: 1.7 MB at 650 desk frames (frame 134,
    L = 64), about 12 MB for 10 s at ``MelConfig()`` (frame 735, L = 347).
    """
    return _f0_extract(y, cfg, xcfg or F0ExtractConfig(), _LAG_CHUNK)


def _f0_extract(y, cfg: MelConfig, xcfg: F0ExtractConfig, chunk: int):
    """f0_extract with the first-peak search taking ``chunk`` lags at a time."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValidationError(f"f0_extract: expected 1-D signal, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValidationError(f"f0_extract: signal has {np.count_nonzero(~np.isfinite(y))} non-finite samples")
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
    framed = np.lib.stride_tricks.sliding_window_view(padded, frame)[start : start + n_frames * hop : hop]
    segs = np.subtract(framed, framed.mean(axis=1, keepdims=True),
                       out=_scratch(n_frames, frame, lag_max - lag_min + 1)[0])
    corr, first = _first_peaks(segs, lag_min, lag_max, xcfg.voicing_threshold, chunk)

    voiced = first > 0
    rows = np.flatnonzero(voiced)
    j = first[rows]
    c0, c1, c2 = corr[rows, j - 1], corr[rows, j], corr[rows, j + 1]
    f0 = np.zeros(n_frames)
    # c1 > c0 and c1 >= c2, so the parabola's curvature c0 - 2 c1 + c2 is < 0
    f0[rows] = sr / (lag_min + j + 0.5 * (c0 - c2) / (c0 - 2.0 * c1 + c2))
    return f0, voiced


# ---------------------------------------------------------------------------
# metrics


@functools.lru_cache
def _dct_bank(bands: int) -> np.ndarray:
    """Rows 1.._MCD_COEFFS of the orthonormal type-II DCT matrix
    [_MCD_COEFFS, bands], sqrt(2/M) cos(pi k (2m + 1) / 2M) for M bands,
    built once per band count and shared read-only."""
    k = np.arange(1, _MCD_COEFFS + 1)[:, None]
    bank = np.sqrt(2.0 / bands) * np.cos((np.pi / (2 * bands)) * k * (2 * np.arange(bands) + 1))
    bank.flags.writeable = False
    return bank


def mel_cepstra(mel: MelSpectrogram) -> np.ndarray:
    """Coefficients 1..13 of the orthonormal type-II DCT of log-mel per
    frame (coefficient 0 carries overall level and is excluded)."""
    bands = mel.values.shape[0]
    if _MCD_COEFFS >= bands:
        raise ValidationError(f"mcd: {_MCD_COEFFS} coefficients requested from {bands} bands")
    return _dct_bank(bands) @ mel.values


def mcd(x_ref: MelSpectrogram, x_syn: MelSpectrogram) -> float:
    """Mel-cepstral distortion in dB over frame-aligned inputs, from
    cepstral coefficients 1..13."""
    if x_ref.values.shape != x_syn.values.shape:
        raise ValidationError(
            f"mcd: frame-aligned inputs required, got {x_ref.values.shape} vs {x_syn.values.shape}"
        )
    if not (np.isfinite(x_ref.values).all() and np.isfinite(x_syn.values).all()):
        raise ValidationError("mcd: mel values must be finite")
    c_ref = mel_cepstra(x_ref)
    c_syn = mel_cepstra(x_syn)
    dist = np.sqrt(np.sum((c_ref - c_syn) ** 2, axis=0))
    return float(MCD_SCALE * dist.mean())


def f0_rmse(f0_ref, voiced_ref, f0_syn, voiced_syn) -> tuple[float, float, int]:
    """(RMSE in cents, RMSE in Hz, #frames) over mutually voiced frames, whose f0 must be finite and > 0."""
    f0_ref = np.asarray(f0_ref, dtype=np.float64)
    f0_syn = np.asarray(f0_syn, dtype=np.float64)
    if f0_ref.shape != f0_syn.shape:
        raise ValidationError(f"f0_rmse: frame counts differ, {f0_ref.shape} vs {f0_syn.shape}")
    voiced_ref = np.asarray(voiced_ref, dtype=bool)
    voiced_syn = np.asarray(voiced_syn, dtype=bool)
    if voiced_ref.shape != f0_ref.shape or voiced_syn.shape != f0_ref.shape:
        raise ValidationError(
            f"f0_rmse: voicing masks {voiced_ref.shape} and {voiced_syn.shape} do not match f0 {f0_ref.shape}"
        )
    both = voiced_ref & voiced_syn
    if not both.any():
        raise ValidationError("f0_rmse: no mutually voiced frames")
    r, s = f0_ref[both], f0_syn[both]
    if not (np.isfinite(r).all() and np.isfinite(s).all() and r.min() > 0 and s.min() > 0):
        raise ValidationError("f0_rmse: f0 on mutually voiced frames must be finite and > 0 Hz")
    cents = 1200.0 * np.log2(s / r)
    rmse_cents = float(np.sqrt(np.mean(cents**2)))
    rmse_hz = float(np.sqrt(np.mean((s - r) ** 2)))
    return rmse_cents, rmse_hz, int(both.sum())
