"""Training losses: least-squares adversarial terms, feature matching,
mel reconstruction, DSP consistency, auxiliary prediction, duration, and
the weighted composite objective.

All norms are mean-reduced over elements so the weights keep their
meaning across model scales. A loss is a Tensor when any input it reads is
one, and a plain value when every input is a constant.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError
from .signals import MelConfig, mel_transform_t


@dataclass
class LossReport:
    """Itemized per-step loss values; total must reproduce the weighted sum."""

    terms: dict = field(default_factory=dict)
    total: float = 0.0


def _mean_sq(x) -> ad.Tensor | np.ndarray:
    return ad.mean(ad.square(x))


def adv_generator(fake_scores: list) -> ad.Tensor | np.ndarray:
    """Least-squares generator objective: sum_k mean((D_k(fake) - 1)^2)."""
    if not fake_scores:
        raise ValidationError("adv_generator: empty discriminator suite")
    loss = None
    for s in fake_scores:
        term = _mean_sq(ad.sub(s, 1.0))
        loss = term if loss is None else ad.add(loss, term)
    return loss


def adv_discriminator(real_scores: list, fake_scores: list) -> ad.Tensor | np.ndarray:
    """Least-squares discriminator objective:
    sum_k [mean((D_k(real) - 1)^2) + mean(D_k(fake)^2)]."""
    if len(real_scores) != len(fake_scores):
        raise ValidationError(
            f"adv_discriminator: {len(real_scores)} real vs {len(fake_scores)} fake score sets"
        )
    if not real_scores:
        raise ValidationError("adv_discriminator: empty discriminator suite")
    loss = None
    for r, f in zip(real_scores, fake_scores):
        term = ad.add(_mean_sq(ad.sub(r, 1.0)), _mean_sq(f))
        loss = term if loss is None else ad.add(loss, term)
    return loss


def feature_matching(real_features: list, fake_features: list) -> ad.Tensor | np.ndarray:
    """Per-layer normalized L1 between real and generated activations:
    sum_k sum_l (1/N_kl) ||real - fake||_1. Real activations are treated
    as constants."""
    if len(real_features) != len(fake_features):
        raise ValidationError(
            f"feature_matching: {len(real_features)} real vs {len(fake_features)} fake feature lists"
        )
    loss = None
    for reals, fakes in zip(real_features, fake_features):
        if len(reals) != len(fakes):
            raise ValidationError(
                f"feature_matching: layer count mismatch ({len(reals)} vs {len(fakes)})"
            )
        for r, f in zip(reals, fakes):
            rv, fv = ad.value(r), ad.value(f)
            if rv.shape != fv.shape:
                raise ValidationError(f"feature_matching: feature shapes {rv.shape} vs {fv.shape}")
            term = ad.mean(ad.absolute(ad.sub(f, rv)))
            loss = term if loss is None else ad.add(loss, term)
    if loss is None:
        raise ValidationError("feature_matching: no feature maps")
    return loss


def mel_reconstruction(y_ref, y_gen, cfg: MelConfig) -> ad.Tensor | np.ndarray:
    """Mean L1 between the log-mel transforms of two equal-length
    waveforms; the reference is a constant."""
    ref, gen_len = ad.value(y_ref), ad.value(y_gen).shape[-1]
    if ref.shape[-1] != gen_len:
        raise ValidationError(f"mel_reconstruction: lengths {ref.shape[-1]} and {gen_len} differ")
    return ad.mean(ad.absolute(ad.sub(mel_transform_t(y_gen, cfg), mel_transform_t(ref, cfg))))


def dsp_consistency(y_dsp, y_ref, cfg: MelConfig) -> ad.Tensor | np.ndarray:
    """Mel L1 anchoring the signal-processing branch to the target:
    ``mel_reconstruction`` with the render in place of the generated wave."""
    return mel_reconstruction(y_ref, y_dsp, cfg)


def aux_prediction(true_log_f0, true_mel, pred_log_f0, pred_mel) -> ad.Tensor | np.ndarray:
    """MSE on log-f0 plus mean L1 on the mel prediction."""
    tf0 = np.asarray(true_log_f0, dtype=np.float64)
    tmel = np.asarray(true_mel, dtype=np.float64)
    pf0_shape, pmel_shape = ad.value(pred_log_f0).shape, ad.value(pred_mel).shape
    if pf0_shape != tf0.shape:
        raise ValidationError(f"aux_prediction: f0 shapes {pf0_shape} and {tf0.shape} differ")
    if pmel_shape != tmel.shape:
        raise ValidationError(f"aux_prediction: mel shapes {pmel_shape} and {tmel.shape} differ")
    return ad.add(_mean_sq(ad.sub(pred_log_f0, tf0)), ad.mean(ad.absolute(ad.sub(pred_mel, tmel))))


# The generator's parts and their weights, in the order the composite sums them.
_COMPOSITE_WEIGHTS = {"adv": 1.0, "fm": 2.0, "mel": 45.0, "kl": 1.0, "dsp": 45.0, "dur": 1.0, "aux": 1.0, "cfm": 1.0}


def generator_composite(parts: dict) -> tuple[ad.Tensor | np.ndarray, LossReport]:
    """Weighted sum of all generator terms.

    total = adv + 2 fm + 45 mel + kl + 45 dsp + dur + aux + cfm
    Returns the total and an itemized LossReport of the unweighted parts,
    whose total is the total's value.
    """
    missing = [name for name in _COMPOSITE_WEIGHTS if name not in parts]
    if missing:
        raise ValidationError(f"generator_composite: missing loss part(s): {', '.join(missing)}")
    report = LossReport()
    total = None
    for name, weight in _COMPOSITE_WEIGHTS.items():
        report.terms[name] = float(ad.value(parts[name]))
        scaled = ad.mul(parts[name], weight)
        total = scaled if total is None else ad.add(total, scaled)
    report.total = total.item()
    return total, report
