"""Adaptive Dormand-Prince 5(4) integration for latent refinement.

Works on plain float64 ndarrays of any shape; the right-hand side is an
arbitrary callable rhs(z, t) -> dz/dt evaluated in inference mode.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError, ValidationError

# Dormand & Prince (1980) 7-stage 5(4) pair, FSAL.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# step-size control: the factor _SAFETY * err^(-1/5), clamped to [_MIN_FACTOR, _MAX_FACTOR]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 5.0
# a solve gives up after this many consecutive rejected steps
_MAX_REJECTED = 20


@dataclass(frozen=True)
class SolverConfig:
    """Adaptive step-control settings.

    The defaults (tolerances 3e-4, max step 0.5) are the cheapest setting
    charted whose refined latents are no further from the Gaussian oracle
    than at tolerances 1e-5 with max step 0.1, on each of seven seeds of
    the benchmark's synth workload (``scripts/solver_chart.py``). There the
    field's fit error (W1 about 0.017 to the oracle) swamps the solver
    error (W1 0.002-0.005 to a 1e-7 solve), and a solve makes about 86
    velocity-field calls instead of 530. Pass tighter settings where the
    right-hand side is exact and the solver error is what is measured.
    """

    abs_tol: float = 3e-4
    rel_tol: float = 3e-4
    max_step: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.max_step <= 1.0:
            raise ValidationError(f"solver: max_step must be in (0, 1], got {self.max_step}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValidationError("solver: tolerances must be positive")


@dataclass
class SolveStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    step_sizes: list = field(default_factory=list)


def dopri5_step(rhs, z: np.ndarray, t: float, h: float, k1: np.ndarray | None = None):
    """One embedded step: returns (z5, error_estimate, k_stages).

    ``k1`` may be the previous step's last stage (FSAL reuse). The error
    estimate is the difference between the 5th- and 4th-order solutions.
    """
    if h <= 0:
        raise ValidationError(f"dopri5_step: step size must be positive, got {h}")
    ks = [k1 if k1 is not None else rhs(z, t)]
    for s in range(7):
        if s:
            acc = _A[s][0] * ks[0]
            for j in range(1, s):
                acc = acc + _A[s][j] * ks[j]
            ks.append(rhs(z + h * acc, t + _C[s] * h))
        if not np.all(np.isfinite(ks[s])):
            raise NumericalError(f"dopri5_step: non-finite value in stage {s + 1} at t={t:.6g}")
    increment = _B5[0] * ks[0]
    err = _E[0] * ks[0]
    for s in range(1, 7):
        if _B5[s] != 0.0:
            increment = increment + _B5[s] * ks[s]
        if _E[s] != 0.0:
            err = err + _E[s] * ks[s]
    z5 = z + h * increment
    return z5, h * err, ks


def solve(rhs, z0: np.ndarray, cfg: SolverConfig | None = None):
    """Integrate dz/dt = rhs(z, t) adaptively from t = 0 to t = 1, the
    span of the flow.

    Error norm: rms of e_i / (abs_tol + rel_tol * max(|z_i|, |z'_i|));
    a step is accepted when the norm is <= 1. The proposed factor
    0.9 * err^(-1/5) is clamped to [0.2, 5.0] and the step to max_step.
    The final step is truncated to land exactly on t = 1. More than 20
    consecutive rejected steps raise NumericalError.
    """
    cfg = cfg or SolverConfig()
    z = np.asarray(z0, dtype=np.float64)
    stats = SolveStats()
    t = 0.0
    h = cfg.max_step  # validated to lie in (0, 1]
    k1: np.ndarray | None = None
    rejected_run = 0
    while t < 1.0:
        if 1.0 - (t + h) < 1e-12:
            h = 1.0 - t
        if k1 is None:
            k1 = rhs(z, t)
            stats.rhs_evals += 1
        z_new, err_vec, ks = dopri5_step(rhs, z, t, h, k1=k1)
        stats.rhs_evals += 6
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t = 1.0 if 1.0 - (t + h) < 1e-12 else t + h
            z = z_new
            if not np.all(np.isfinite(z)):
                raise NumericalError(f"solve: NaN in state after accepted step; last accepted t={t:.6g}")
            k1 = ks[6]  # FSAL: last stage is rhs at (t_new, z_new)
            stats.accepted += 1
            stats.step_sizes.append(h)
            rejected_run = 0
        else:
            stats.rejected += 1
            rejected_run += 1
            if rejected_run > _MAX_REJECTED:
                raise NumericalError(
                    f"solve: {rejected_run} consecutive rejected steps at t={t:.6g} (h={h:.3g}, err={err:.3g})"
                )
        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-0.2)
        factor = min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
        h = min(h * factor, cfg.max_step)
    return z, stats
