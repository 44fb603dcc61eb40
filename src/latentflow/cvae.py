"""Diagonal-Gaussian latent space: score-conditioned prior encoder,
recording-conditioned posterior encoder, reparameterized sampling, and
the closed-form KL divergence."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError

# Kernel width of both encoders' residual convolutions
_KERNEL = 5
# Both encoders clamp their log-variances to this range
_LOG_VAR_MIN, _LOG_VAR_MAX = -14.0, 6.0


@dataclass(frozen=True, eq=False)
class ScoreCondition:
    """Per-position score features: phoneme token, note pitch (MIDI), note
    duration in frames, and a note id for boundary constraints. Checked
    once at construction, where a value that is not a finite integer
    fails, and stored as read-only int64 copies."""

    tokens: np.ndarray
    note_pitch: np.ndarray
    note_duration: np.ndarray
    note_id: np.ndarray

    def __post_init__(self):
        for name in ("tokens", "note_pitch", "note_duration", "note_id"):
            v = np.asarray(getattr(self, name))
            if v.dtype.kind not in "biu" and not np.all(np.isfinite(v) & (v == np.trunc(v))):
                raise ValidationError(f"score condition: {name} must hold finite integers, got {v!r}")
            a = np.array(v, dtype=np.int64)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        self.validate()

    def validate(self) -> "ScoreCondition":
        n = len(self.tokens)
        if not (len(self.note_pitch) == len(self.note_duration) == len(self.note_id) == n) or n == 0:
            raise ValidationError("score condition: all sequences must share one nonzero length")
        if np.any(np.diff(self.note_id) < 0):
            raise ValidationError("score condition: note ids must be non-decreasing")
        if np.any(self.note_duration < 1):
            raise ValidationError("score condition: durations must be >= 1 frame")
        return self

    def __len__(self) -> int:
        return len(self.tokens)


class DiagonalGaussianSeq:
    """Per-frame mean and log-variance, [channels, frames]. Holds either
    plain arrays or Tensors participating in a recording."""

    def __init__(self, mean, log_var):
        m, v = ad.value(mean), ad.value(log_var)
        if m.shape != v.shape:
            raise ValidationError(f"gaussian seq: mean {m.shape} and log-variance {v.shape} differ")
        self.mean = mean
        self.log_var = log_var

    @property
    def shape(self):
        return ad.value(self.mean).shape

    def detached(self) -> "DiagonalGaussianSeq":
        return DiagonalGaussianSeq(np.array(ad.value(self.mean)), np.array(ad.value(self.log_var)))


def _gaussian_head(out, channels: int) -> DiagonalGaussianSeq:
    """A head's [2 * channels, T] output as a Gaussian: the first rows are
    the mean, the rest the log-variance, clamped."""
    mean = ad.narrow(out, 0, 0, channels)
    log_var = ad.clamp(ad.narrow(out, 0, channels, channels), _LOG_VAR_MIN, _LOG_VAR_MAX)
    return DiagonalGaussianSeq(mean, log_var)


def sample_reparam(g: DiagonalGaussianSeq, rng: np.random.Generator):
    """z = mean + exp(log_var / 2) * eps with eps ~ N(0, I).

    Differentiable in the Gaussian parameters when they are Tensors.
    """
    eps = rng.standard_normal(g.shape)
    sigma = ad.exp(ad.mul(g.log_var, 0.5))
    return ad.add(g.mean, ad.mul(sigma, eps))


def kl_divergence(q: DiagonalGaussianSeq, p: DiagonalGaussianSeq):
    """KL(q || p) for diagonal Gaussians: per coordinate
    log(sigma_p/sigma_q) + (sigma_q^2 + (mu_q - mu_p)^2) / (2 sigma_p^2) - 1/2,
    summed over channels and averaged over frames.
    """
    if q.shape != p.shape:
        raise ValidationError(f"kl_divergence: shapes {q.shape} and {p.shape} differ")
    frames = q.shape[-1] if len(q.shape) > 1 else 1
    diff = ad.sub(q.mean, p.mean)
    inv_p = ad.exp(ad.mul(p.log_var, -1.0))
    quad = ad.mul(ad.mul(ad.add(ad.exp(q.log_var), ad.square(diff)), inv_p), 0.5)
    per_coord = ad.add(ad.add(ad.mul(ad.sub(p.log_var, q.log_var), 0.5), quad), -0.5)
    return ad.mul(ad.total(per_coord), 1.0 / frames)


@dataclass(frozen=True)
class LatentConfig:
    channels: int = 8
    hidden: int = 32
    blocks: int = 4
    frame_blocks: int = 2
    embed_dim: int = 16
    vocab_size: int = 64
    mel_bands: int = 16

    def __post_init__(self):
        for name in ("channels", "hidden", "blocks", "embed_dim", "vocab_size", "mel_bands"):
            if getattr(self, name) < 1:
                raise ValidationError(f"latent config: {name} must be >= 1")


class _ResidualConvStack:
    """Shape-preserving residual stack: conv(5) -> leaky relu -> conv(1),
    added back to the input."""

    def __init__(self, store, prefix, channels, blocks, rng):
        self.blocks = []
        for i in range(blocks):
            w1, b1 = store.conv(f"{prefix}res{i}.conv1", channels, channels, _KERNEL, rng)
            w2, b2 = store.conv(f"{prefix}res{i}.conv2", channels, channels, 1, rng)
            self.blocks.append((w1, b1, w2, b2))

    def __call__(self, x):
        for w1, b1, w2, b2 in self.blocks:
            y = ad.leaky_relu(ad.conv1d(x, w1, b1))
            y = ad.conv1d(y, w2, b2)
            x = ad.add(x, y)
        return x


class PosteriorEncoder:
    """Mel spectrogram [M, T] -> diagonal Gaussian over [C, T].

    The projection head is zero-initialized, so an untrained encoder
    reports the standard normal for any input.
    """

    def __init__(self, cfg: LatentConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        h = cfg.hidden
        self.pre_w, self.pre_b = store.conv("post.pre", h, cfg.mel_bands, 1, rng)
        self.stack = _ResidualConvStack(store, "post.", h, cfg.blocks, rng)
        self.head_w, self.head_b = store.conv("post.head", 2 * cfg.channels, h, 1)

    def __call__(self, mel) -> DiagonalGaussianSeq:
        mv = ad.value(mel)
        if mv.ndim != 2 or mv.shape[0] != self.cfg.mel_bands:
            raise ValidationError(f"posterior encoder: expected [{self.cfg.mel_bands}, T] mel, got {mv.shape}")
        if mv.shape[1] == 0:
            raise ValidationError("posterior encoder: zero-length input")
        x = ad.reshape(mel, (1,) + mv.shape)
        h = ad.conv1d(x, self.pre_w, self.pre_b)
        h = self.stack(h)
        out = ad.conv1d(h, self.head_w, self.head_b)
        return _gaussian_head(ad.reshape(out, (2 * self.cfg.channels, mv.shape[1])), self.cfg.channels)


class PriorEncoderOutput:
    def __init__(self, token_gaussian, frame_gaussian, log_durations, pred_log_f0, pred_mel):
        self.token_gaussian = token_gaussian  # [C, N]
        self.frame_gaussian = frame_gaussian  # [C, T] after expansion
        self.log_durations = log_durations  # [N], log-domain head output
        self.pred_log_f0 = pred_log_f0  # [T]
        self.pred_mel = pred_mel  # [M, T]


# About 40 s at the desk preset's 250 frames/s: far above any sung note,
# low enough that expanding a diverged duration head cannot exhaust memory.
MAX_FRAMES_PER_TOKEN = 10_000


def decode_durations(log_durations) -> np.ndarray:
    """Decoded duration = max(1, round(exp(log d))) per token.

    Raises ValidationError for a non-finite log-duration or one that
    decodes above MAX_FRAMES_PER_TOKEN frames.
    """
    v = ad.value(log_durations)
    with np.errstate(over="ignore"):
        frames = np.round(np.exp(v))
    bad = np.flatnonzero(~(np.isfinite(v) & (frames <= MAX_FRAMES_PER_TOKEN)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"decode_durations: token {i} has log-duration {float(v[i])}, which is non-finite or decodes "
            f"above {MAX_FRAMES_PER_TOKEN} frames"
        )
    return np.maximum(1, frames).astype(np.int64)


def expand_to_frames(x, durations: np.ndarray):
    """Repeat column i of x[:, N] durations[i] times -> [*, T]; durations are ints."""
    durations = np.asarray(durations)
    n = ad.value(x).shape[-1]
    if durations.shape != (n,):
        raise ValidationError(f"expand_to_frames: durations of shape {durations.shape} for {n} columns")
    if durations.dtype.kind not in "iu" or np.any(durations < 1):  # a float would be truncated
        raise ValidationError(f"expand_to_frames: durations must be integers >= 1, got {durations!r}")
    idx = np.repeat(np.arange(len(durations)), durations.astype(np.int64))
    return ad.transpose(ad.take_rows(ad.transpose(x, (1, 0)), idx), (1, 0))


class PriorEncoder:
    """Score conditioning -> token-level Gaussian, expanded frame-level
    Gaussian, duration predictions, and auxiliary pitch/mel predictions.

    Token-level statistics drive note-constrained alignment; the frame
    Gaussian repeats them over each token's frames, mirroring the usual
    text-to-acoustic prior. Auxiliary heads run on a frame-level stack so
    their predictions vary within a note.
    """

    def __init__(self, cfg: LatentConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        h = cfg.hidden
        # an embedding table, not a conv layer: rows scaled by 0.3
        self.embed = store.create("prior.embed", rng.standard_normal((cfg.vocab_size, cfg.embed_dim)) * 0.3)
        cin = cfg.embed_dim + 2  # embedding + normalized pitch + log duration
        self.pre_w, self.pre_b = store.conv("prior.pre", h, cin, 1, rng)
        self.token_stack = _ResidualConvStack(store, "prior.tok.", h, cfg.blocks, rng)
        self.dur_w, self.dur_b = store.conv("prior.dur", 1, h, 1)
        self.gauss_w, self.gauss_b = store.conv("prior.gauss", 2 * cfg.channels, h, 1)
        self.frame_stack = _ResidualConvStack(store, "prior.frame.", h, cfg.frame_blocks, rng)
        self.f0_w, self.f0_b = store.conv("prior.f0", 1, h, 1)
        self.mel_w, self.mel_b = store.conv("prior.mel", cfg.mel_bands, h, 1)

    def __call__(self, cond: ScoreCondition, durations: np.ndarray | None = None) -> PriorEncoderOutput:
        """``durations``: ground-truth frame counts per token (training);
        None decodes them from the duration head (inference)."""
        cfg = self.cfg
        if cond.tokens.min() < 0 or cond.tokens.max() >= cfg.vocab_size:
            raise ValidationError(
                f"prior encoder: unknown token id (vocab size {cfg.vocab_size}, got {cond.tokens.max()})"
            )
        n = len(cond)
        emb = ad.transpose(ad.take_rows(self.embed, cond.tokens), (1, 0))  # [E, N]
        pitch = (cond.note_pitch[None, :] - 69.0) / 12.0
        logdur = np.log(cond.note_duration[None, :].astype(np.float64))
        feats = ad.concat([emb, pitch, logdur], axis=0)
        x = ad.reshape(feats, (1, cfg.embed_dim + 2, n))
        h = ad.conv1d(x, self.pre_w, self.pre_b)
        h = self.token_stack(h)

        log_dur = ad.reshape(ad.conv1d(h, self.dur_w, self.dur_b), (n,))
        gauss = ad.reshape(ad.conv1d(h, self.gauss_w, self.gauss_b), (2 * cfg.channels, n))
        token_gaussian = _gaussian_head(gauss, cfg.channels)

        if durations is None:
            durations = decode_durations(log_dur)

        frame_gaussian = DiagonalGaussianSeq(
            expand_to_frames(token_gaussian.mean, durations), expand_to_frames(token_gaussian.log_var, durations)
        )

        hf = expand_to_frames(ad.reshape(h, (cfg.hidden, n)), durations)
        hf = self.frame_stack(ad.reshape(hf, (1, cfg.hidden, -1)))
        pred_log_f0 = ad.reshape(ad.conv1d(hf, self.f0_w, self.f0_b), (-1,))
        pred_mel = ad.reshape(ad.conv1d(hf, self.mel_w, self.mel_b), (cfg.mel_bands, -1))
        return PriorEncoderOutput(token_gaussian, frame_gaussian, log_dur, pred_log_f0, pred_mel)
