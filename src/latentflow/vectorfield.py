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
        cin = c + cfg.cond_channels

        def mk(name, shape, scale=None):
            if scale is None:
                fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
                scale = 1.0 / np.sqrt(max(fan_in, 1))
            return store.create("vf." + name, rng.standard_normal(shape) * scale)

        self.pre_w = mk("pre.w", (h, cin, 1))
        self.pre_b = store.create("vf.pre.b", np.zeros(h))
        self.blocks = []
        for i, d in enumerate(_DILATIONS):
            blk = {
                "time_w": mk(f"block{i}.time.w", (cfg.time_embed_dim, h)),
                "dw_w": mk(f"block{i}.dw.w", (h, 1, _KERNEL)),
                "dw_b": store.create(f"vf.block{i}.dw.b", np.zeros(h)),
                "pw_w": mk(f"block{i}.pw.w", (h, h, 1)),
                "pw_b": store.create(f"vf.block{i}.pw.b", np.zeros(h)),
                "dilation": d,
            }
            self.blocks.append(blk)
        self.out_w = store.create("vf.out.w", np.zeros((c, h, 1)))
        self.out_b = store.create("vf.out.b", np.zeros(c))

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
        else:
            x = z

        te = time_embedding_batch(t if B == 1 or np.ndim(t) else np.full(B, t), cfg.time_embed_dim)
        if te.shape[0] != B:
            raise ValidationError(f"vector field: {te.shape[0]} time values for batch {B}")

        h = ad.conv1d(x, self.pre_w, self.pre_b)
        for blk in self.blocks:
            tb = ad.reshape(ad.matmul(te, blk["time_w"]), (B, cfg.hidden, 1))
            xi = ad.add_frame_bias(h, tb)
            y = ad.conv1d(xi, blk["dw_w"], blk["dw_b"], dilation=blk["dilation"], groups=cfg.hidden)
            y = ad.conv1d(y, blk["pw_w"], blk["pw_b"])
            y = ad.leaky_relu(y)
            y = ad.dropout(y, cfg.dropout_p, rng=rng, training=train)
            h = ad.add(xi, y)
        v = ad.conv1d(h, self.out_w, self.out_b)
        if squeeze:
            v = ad.reshape(v, (C, T))
        return v
