"""Trainable velocity estimator: a stack of dilated depthwise-separable
convolution blocks with a sinusoidal time embedding injected per block."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError

# The angular frequencies are the harmonics of _OMEGA_HI / n up to _OMEGA_HI:
# 1.5, 3, ..., 12 at the default dim of 16. The top one bounds how fast a
# fitted field can vary in t (Tancik et al. 2020), and that roughness, not the
# solver, sets how many steps dopri5 takes. Its period, 0.52 in t, is longer
# than a step at the solver's 0.34 cap, and on the synth workload's fields
# from fit seeds 0-7 every solve crosses [0, 1] in three steps (19
# velocity-field calls) with no rejected step. Frequencies geometric on
# [1, 300] reached a period of 0.021: dopri5's error estimate then grew about
# linearly in h, and solves on the same fits took 34-74 calls on average,
# nearly all their rejected steps at t=0. Of the tops 8, 10, 12, 14 and 16,
# 10 and 12 keep the median and the worst fit's W1 to the oracle no higher
# than [1, 300] gave (.0206 and .0657), and 12 has the lower median (.0195
# against .0203). That comparison is recorded in BENCH_synth_embedding.json;
# scripts/solver_chart.py charts solver settings only, and its version at
# commit b6a1eb1 re-runs the embedding chart.
_OMEGA_HI = 12.0
# Each block's depthwise convolution: kernel width 3 at its own dilation, so
# a block reaches one dilation to each side and the stack 24 frames.
_KERNEL = 3
_DILATIONS = (3, 5, 7, 9)


@functools.cache
def time_frequencies(dim: int) -> np.ndarray:
    """The dim // 2 angular frequencies, read-only: every caller shares one
    array per dim."""
    if dim < 2 or dim % 2:
        raise ValidationError(f"time embedding dim must be even and >= 2, got {dim}")
    n = dim // 2
    w = (_OMEGA_HI / n) * np.arange(1, n + 1)
    w.setflags(write=False)
    return w


def time_embedding_batch(ts: np.ndarray, dim: int) -> np.ndarray:
    """[B, dim] rows [sin(t*w_k), cos(t*w_k)] for the harmonics w_k,
    one per t in ``ts`` (a scalar counts as one); every t lies in [0, 1].
    Runs on every field call, so the range is checked on a list, where a
    NaN fails it too, and both halves are written into one array."""
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    if not all(0.0 <= t <= 1.0 for t in ts.tolist()):
        raise ValidationError("time embedding: all t values must lie in [0, 1]")
    w = time_frequencies(dim)
    n = w.size
    out = np.empty((ts.size, dim))
    arg = np.multiply(ts[:, None], w, out=out[:, n:])
    np.sin(arg, out=out[:, :n])
    np.cos(arg, out=arg)
    return out


@dataclass(frozen=True)
class VectorFieldConfig:
    latent_channels: int = 8
    hidden: int = 32
    dropout_p: float = 0.1
    time_embed_dim: int = 16
    cond_channels: int = 4  # 0 = endpoint-only conditioning

    def __post_init__(self):
        if self.latent_channels < 1 or self.hidden < 1:
            raise ValidationError(
                f"vector field: latent_channels and hidden must be >= 1, got {self.latent_channels} and {self.hidden}"
            )
        if self.cond_channels < 0:
            raise ValidationError(f"vector field: cond_channels must be >= 0, got {self.cond_channels}")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise ValidationError(f"vector field: time_embed_dim must be even and >= 2, got {self.time_embed_dim}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"vector field: dropout must be in [0, 1), got {self.dropout_p}")


class VelocityField:
    """v(z_t, t[, cond]) with shape-preserving convolutions.

    The final 1x1 projection is zero-initialized so the induced flow starts
    as the identity.
    """

    def __init__(self, cfg: VectorFieldConfig, store: ad.ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        self.store = store
        c, h = cfg.latent_channels, cfg.hidden
        self.pre_w, self.pre_b = store.conv("vf.pre", h, c + cfg.cond_channels, 1, rng)
        self.blocks = []
        for i, d in enumerate(_DILATIONS):
            # a matmul weight [time_embed_dim, hidden], scaled by 1/sqrt(hidden)
            time_w = store.create(f"vf.block{i}.time.w", rng.standard_normal((cfg.time_embed_dim, h)) / np.sqrt(h))
            dw_w, dw_b = store.conv(f"vf.block{i}.dw", h, 1, _KERNEL, rng)
            pw_w, pw_b = store.conv(f"vf.block{i}.pw", h, h, 1, rng)
            self.blocks.append((time_w, dw_w, dw_b, pw_w, pw_b, d))
        self.out_w, self.out_b = store.conv("vf.out", c, h, 1)

    def __call__(self, z, t, cond=None, train: bool = False, rng: np.random.Generator | None = None):
        """Velocity with the same shape as ``z``.

        ``z`` is [C, T] or [B, C, T]; ``t`` a scalar or per-batch vector in
        [0, 1]; ``cond`` optional [cond_channels, T] / [B, cond_channels, T].
        """
        cfg = self.cfg
        zv = ad.value(z)
        squeeze = zv.ndim == 2
        if squeeze:
            z = ad.reshape(z, (1,) + zv.shape)
            if cond is not None:
                cond = np.asarray(cond, dtype=np.float64)[None]
        B, C, T = ad.value(z).shape
        if C != cfg.latent_channels:
            raise ValidationError(f"vector field: expected {cfg.latent_channels} channels, got {C}")
        if cfg.cond_channels > 0:
            if cond is None:
                raise ValidationError("vector field: conditioning required but not provided")
            cond = np.asarray(cond, dtype=np.float64)
            if cond.shape != (B, cfg.cond_channels, T):
                raise ValidationError(
                    f"vector field: conditioning shape {cond.shape} != {(B, cfg.cond_channels, T)}"
                )
            x = ad.concat([z, cond], axis=1)
        elif cond is not None:
            raise ValidationError("vector field: conditioning passed to a field built with cond_channels=0")
        else:
            x = z

        te = time_embedding_batch(t if B == 1 or np.ndim(t) else np.full(B, t), cfg.time_embed_dim)
        if te.shape[0] != B:
            raise ValidationError(f"vector field: {te.shape[0]} time values for batch {B}")

        h = ad.conv1d(x, self.pre_w, self.pre_b)
        for time_w, dw_w, dw_b, pw_w, pw_b, d in self.blocks:
            tb = ad.reshape(ad.matmul(te, time_w), (B, cfg.hidden, 1))
            xi = ad.add_frame_bias(h, tb)
            y = ad.conv1d(xi, dw_w, dw_b, dilation=d, groups=cfg.hidden)
            y = ad.conv1d(y, pw_w, pw_b)
            y = ad.leaky_relu(y)
            y = ad.dropout(y, cfg.dropout_p, rng=rng, training=train)
            h = ad.add(xi, y)
        v = ad.conv1d(h, self.out_w, self.out_b)
        if squeeze:
            v = ad.reshape(v, (C, T))
        return v
