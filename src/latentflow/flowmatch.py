"""Flow-matching training machinery: the straight-line probability path,
its target velocity, the regression loss and a training loop; and the
Gaussian endpoints, their exact flow and the W1 distance that the synth
benchmark fits and scores against."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .exceptions import NumericalError, ValidationError
from .vectorfield import VelocityField


def _pair_shapes(op: str, a, b) -> None:
    ash, bsh = ad.value(a).shape, ad.value(b).shape
    if ash != bsh:
        raise ValidationError(f"{op}: endpoint shapes {ash} and {bsh} differ")


def _tspread(t, like: np.ndarray):
    """Broadcast a scalar or per-batch t over sample axes."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        return t
    return t.reshape((t.shape[0],) + (1,) * (like.ndim - 1))


def interpolate(z_p, z_q, t):
    """Point on the straight-line path: (1 - t) * z_p + t * z_q.

    Accepts ndarrays or Tensors (Tensors keep gradients); ``t`` is a scalar
    or one draw per leading batch element, all in [0, 1].
    """
    _pair_shapes("interpolate", z_p, z_q)
    tv = np.asarray(t, dtype=np.float64)
    if tv.size == 0 or not (0.0 <= tv.min() and tv.max() <= 1.0):  # a NaN fails it too
        raise ValidationError(f"interpolate: t must be nonempty and lie in [0, 1], got {t}")
    ts = _tspread(tv, ad.value(z_p))
    return ad.add(ad.mul(z_p, 1.0 - ts), ad.mul(z_q, ts))


def target_velocity(z_p, z_q):
    """Constant velocity of the straight-line path: z_q - z_p."""
    _pair_shapes("target_velocity", z_p, z_q)
    return ad.sub(z_q, z_p)


def cfm_loss(field: VelocityField, z_p, z_q, t, cond=None, train: bool = True, rng=None) -> ad.Tensor:
    """Mean squared regression of the field onto the target velocity.

    Endpoints are taken as constants (detached) unless passed as Tensors,
    so by default the loss differentiates with respect to field parameters
    only.
    """
    z_t = interpolate(z_p, z_q, t)
    u = target_velocity(z_p, z_q)
    v = field(z_t, t, cond=cond, train=train, rng=rng)
    return ad.mean(ad.square(ad.sub(v, u)))


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 2e-4
    lr_final: float | None = None  # if set, cosine-decay lr -> lr_final

    def __post_init__(self):
        rates = (self.lr,) if self.lr_final is None else (self.lr, self.lr_final)
        if not all(0 < x < np.inf for x in rates):  # a NaN fails it too
            raise ValidationError(f"optimizer: learning rates must be finite and > 0, got {self.lr}, {self.lr_final}")

    def lr_at(self, step: int, total: int) -> float:
        if self.lr_final is None or total <= 1:
            return self.lr
        return self.lr_final + 0.5 * (self.lr - self.lr_final) * (1.0 + np.cos(np.pi * step / total))


def train_cfm(
    sampler,
    field: VelocityField,
    store: ad.ParamStore,
    steps: int,
    batch_size: int,
    rng: np.random.Generator,
    opt: OptimizerConfig | None = None,
) -> list[float]:
    """Adam-train a velocity field on endpoint pairs from ``sampler``.

    ``sampler(rng, n)`` returns (z_p, z_q, cond-or-None) with z batches
    shaped [n, C, T]. One t ~ U[0, 1] is drawn per batch element. Returns
    the per-step loss curve; aborts on NaN with the offending step index.
    """
    opt = opt or OptimizerConfig()
    losses: list[float] = []
    for step in range(steps):
        z_p, z_q, cond = sampler(rng, batch_size)
        t = rng.random(len(z_p))
        with ad.Tape() as tape:
            loss = cfm_loss(field, z_p, z_q, t, cond=cond, train=True, rng=rng)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"train_cfm: non-finite loss at step {step}")
        grads = ad.backward(loss, store, tape)
        ad.adam_step(store, grads, lr=opt.lr_at(step, steps))
        losses.append(value)
    return losses


@dataclass(frozen=True)
class GaussianTransportSpec:
    """Independent diagonal-Gaussian endpoints, per coordinate:
    prior N(a, s^2) and posterior N(b, r^2). The synth benchmark fits its
    velocity field between these endpoints and scores it against
    ``gaussian_flow_map``; the oracles of this transport live in
    ``latentflow.oracles``."""

    a: float = 0.0
    s: float = 1.0
    b: float = 3.0
    r: float = 0.5

    def __post_init__(self):
        if not (0 < self.s < np.inf and 0 < self.r < np.inf):  # a NaN fails it too
            raise ValidationError(f"gaussian transport: stds must be positive and finite, got s={self.s}, r={self.r}")
        if not np.isfinite([self.a, self.b]).all():
            raise ValidationError(f"gaussian transport: means must be finite, got a={self.a}, b={self.b}")

    def path_mean(self, t):
        return (1.0 - t) * self.a + t * self.b

    def path_var(self, t):
        return (1.0 - t) ** 2 * self.s**2 + t**2 * self.r**2

    def sample_pair(self, rng: np.random.Generator, n: int, dim: int):
        z_p = self.a + self.s * rng.standard_normal((n, dim, 1))
        z_q = self.b + self.r * rng.standard_normal((n, dim, 1))
        return z_p, z_q


def gaussian_flow_map(spec: GaussianTransportSpec, z0, t):
    """Exact flow of the Gaussian oracle field: quantiles of the prior map
    to the same quantiles of the time-t path marginal."""
    sig0 = spec.s
    sig_t = np.sqrt(spec.path_var(t))
    return spec.path_mean(t) + (sig_t / sig0) * (np.asarray(z0) - spec.a)


def wasserstein1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein distance between two equal-size, non-empty samples, each flattened."""
    a = np.sort(np.asarray(a).ravel())
    b = np.sort(np.asarray(b).ravel())
    if a.shape != b.shape or a.size == 0:
        raise ValidationError(f"wasserstein1_sorted: sample sizes {a.size} and {b.size} differ or are 0")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("wasserstein1_sorted: samples must be finite")
    return float(np.mean(np.abs(a - b)))
