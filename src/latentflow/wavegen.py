"""Waveform decoder (transposed-conv upsampling with residual refinement)
and the period / scale / spectrogram discriminator suite, plus 16-bit PCM
WAV output."""
from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError
from .signals import MelConfig, stft_magnitude


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Mono 16-bit PCM RIFF output; samples are clipped to [-1, 1]. A
    signal that is not 1-D or has a non-finite sample is rejected."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValidationError(f"write_wav: expected 1-D samples, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValidationError(f"write_wav: signal has {np.count_nonzero(~np.isfinite(samples))} non-finite samples")
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(int(sample_rate))
        f.writeframes(pcm.tobytes())


@dataclass(frozen=True)
class DecoderConfig:
    latent_channels: int = 8
    hidden: int = 16
    upsample_rates: tuple = (4, 4)
    upsample_kernels: tuple = (8, 8)
    resblock_kernel: int = 3
    resblock_dilations: tuple = (1, 3)

    def __post_init__(self):
        if len(self.upsample_rates) != len(self.upsample_kernels):
            raise ValidationError("decoder: one kernel per upsample rate required")
        for r, k in zip(self.upsample_rates, self.upsample_kernels):
            if k < r:
                raise ValidationError(f"decoder: kernel {k} smaller than rate {r}")
            if (k - r) % 2:
                raise ValidationError(f"decoder: kernel {k} minus rate {r} must be even")

    @property
    def hop(self) -> int:
        return int(np.prod(self.upsample_rates))


def normalized_log_f0(f0_hz: np.ndarray) -> np.ndarray:
    """Octaves relative to 220 Hz; zero/negative f0 maps well below range."""
    return np.log2(np.maximum(np.asarray(f0_hz, dtype=np.float64), 1.0) / 220.0)


class WaveDecoder:
    """Latent [C, T] plus a per-frame pitch channel -> waveform of exactly
    T * prod(upsample_rates) samples, bounded by a final tanh."""

    def __init__(self, cfg: DecoderConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        h = cfg.hidden
        cin = cfg.latent_channels + 1
        self.pre_w, self.pre_b = store.conv("dec.pre", h, cin, 3, rng)
        self.stages = []
        ch = h
        for i, (rate, kernel) in enumerate(zip(cfg.upsample_rates, cfg.upsample_kernels)):
            out_ch = max(2, ch // 2)
            # conv_transpose1d's weight layout, [Cin, Cout, K], not conv1d's
            up_w = store.create(
                f"dec.up{i}.w", rng.standard_normal((ch, out_ch, kernel)) / np.sqrt(kernel * ch)
            )
            up_b = store.create(f"dec.up{i}.b", np.zeros(out_ch))
            res = []
            for j, d in enumerate(cfg.resblock_dilations):
                rw, rb = store.conv(f"dec.up{i}.res{j}", out_ch, out_ch, cfg.resblock_kernel, rng)
                res.append((rw, rb, d))
            self.stages.append((up_w, up_b, rate, res))
            ch = out_ch
        self.post_w, self.post_b = store.conv("dec.post", 1, ch, 3, rng)

    def __call__(self, z, f0_hz: np.ndarray):
        zv = ad.value(z)
        if zv.ndim != 2 or zv.shape[0] != self.cfg.latent_channels:
            raise ValidationError(f"decoder: expected [{self.cfg.latent_channels}, T] latent, got {zv.shape}")
        t_frames = zv.shape[1]
        f0_hz = np.asarray(f0_hz, dtype=np.float64)
        if f0_hz.shape != (t_frames,):
            raise ValidationError(f"decoder: pitch contour shape {f0_hz.shape} != ({t_frames},)")
        pitch = normalized_log_f0(f0_hz)[None, :]
        x = ad.concat([z, pitch], axis=0)
        x = ad.reshape(x, (1, self.cfg.latent_channels + 1, t_frames))
        x = ad.conv1d(x, self.pre_w, self.pre_b)
        for up_w, up_b, rate, res in self.stages:
            x = ad.leaky_relu(x)
            x = ad.conv_transpose1d(x, up_w, up_b, stride=rate)
            for rw, rb, d in res:
                y = ad.leaky_relu(x)
                y = ad.conv1d(y, rw, rb, dilation=d)
                x = ad.add(x, y)
        x = ad.leaky_relu(x)
        x = ad.conv1d(x, self.post_w, self.post_b)
        wave_out = ad.tanh(ad.reshape(x, (t_frames * self.cfg.hop,)))
        return wave_out


@dataclass(frozen=True)
class DiscriminatorConfig:
    periods: tuple = (2, 3)
    scales: tuple = (1, 2)
    stft_sizes: tuple = (64, 128)
    stft_hops: tuple = (16, 32)
    channels: int = 8

    def __post_init__(self):
        if len(self.stft_sizes) != len(self.stft_hops):
            raise ValidationError("discriminators: one hop per stft size required")
        if not (self.periods or self.scales or self.stft_sizes):
            raise ValidationError("discriminators: empty suite")

    @property
    def min_length(self) -> int:
        return max(self.stft_sizes) if self.stft_sizes else max(self.periods, default=1)


class _ConvStack:
    """Strided conv tower returning (score_map, intermediate activations)."""

    def __init__(self, store, prefix, cin, channels, specs, rng):
        # specs: list of (kernel, stride, dilation)
        self.layers = []
        ch = cin
        for i, (k, s, d) in enumerate(specs):
            out = channels * (2 if i else 1)
            w, b = store.conv(f"{prefix}c{i}", out, ch, k, rng)
            self.layers.append((w, b, s, d))
            ch = out
        self.score_w, self.score_b = store.conv(prefix + "score", 1, ch, 3, rng)

    def __call__(self, x):
        features = []
        for w, b, s, d in self.layers:
            x = ad.leaky_relu(ad.conv1d(x, w, b, stride=s, dilation=d))
            features.append(x)
        score = ad.conv1d(x, self.score_w, self.score_b)
        return score, features


class DiscriminatorSuite:
    """Period, scale, and spectrogram discriminators; every sub returns a
    score map and its ordered intermediate feature maps."""

    def __init__(self, cfg: DiscriminatorConfig, mel_cfg: MelConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        ch = cfg.channels
        conv_specs = [(5, 3, 1), (5, 3, 1)]
        self.period_stacks = [
            _ConvStack(store, f"disc.period{p}.", 1, ch, conv_specs, rng) for p in cfg.periods
        ]
        scale_specs = [(15, 2, 1), (15, 2, 1)]
        self.scale_stacks = [
            _ConvStack(store, f"disc.scale{s}.", 1, ch, scale_specs, rng) for s in cfg.scales
        ]
        spec_specs = [(3, 1, 1), (3, 1, 2)]
        self.spec_stacks = [
            (
                MelConfig(sample_rate=mel_cfg.sample_rate, fft_size=n, window_size=n, hop_size=hop, mel_bands=1,
                          fmax=mel_cfg.sample_rate / 2),
                _ConvStack(store, f"disc.spec{n}.", n // 2 + 1, ch, spec_specs, rng),
            )
            for n, hop in zip(cfg.stft_sizes, cfg.stft_hops)
        ]

    def discriminate(self, y):
        """y: waveform Tensor or ndarray [L] -> list of (name, score,
        features) across all sub-discriminators."""
        yv = ad.value(y)
        if yv.ndim != 1:
            raise ValidationError(f"discriminate: expected 1-D waveform, got shape {yv.shape}")
        L = yv.shape[0]
        if L < self.cfg.min_length:
            raise ValidationError(
                f"discriminate: waveform of {L} samples shorter than analysis window {self.cfg.min_length}"
            )
        out = []
        for p, stack in zip(self.cfg.periods, self.period_stacks):
            rem = (-L) % p
            xp = ad.pad_last(y, 0, rem) if rem else y
            blocks = (L + rem) // p
            x = ad.reshape(xp, (blocks, p))
            x = ad.transpose(x, (1, 0))
            x = ad.reshape(x, (p, 1, blocks))
            score, feats = stack(x)
            out.append((f"period{p}", score, feats))
        for s, stack in zip(self.cfg.scales, self.scale_stacks):
            x = ad.reshape(y, (1, 1, L))
            if s > 1:
                pool_w = np.full((1, 1, s), 1.0 / s)
                x = ad.conv1d(x, pool_w, stride=s, padding=0)
            score, feats = stack(x)
            out.append((f"scale{s}", score, feats))
        for scfg, stack in self.spec_stacks:
            mag = stft_magnitude(y, scfg)
            x = ad.reshape(mag, (1,) + mag.shape)
            score, feats = stack(x)
            out.append((f"spec{scfg.fft_size}", score, feats))
        return out
