"""Test oracles: exact answers the production solvers are checked against.

- ``brute_force_align`` enumerates every duration assignment a note
  constraint allows and keeps the best, scored by ``path_score``; the
  tests check that ``alignment.mas_align`` finds the same path and score,
  ties included.
- ``gaussian_oracle_velocity`` is the closed-form minimizer of the
  flow-matching loss between independent Gaussian endpoints, and
  ``loss_floor`` that loss's irreducible value (the average over t of
  ``conditional_velocity_variance``); the tests check a trained
  ``VelocityField`` and the dopri5 solver against them.

Production code never imports this module.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .alignment import AlignmentPath, NoteBoundaryConstraint, _check_instance
from .exceptions import ValidationError
from .flowmatch import GaussianTransportSpec


def path_score(ll: np.ndarray, durations: np.ndarray):
    """Sum of covered cells, accumulated in frame order from 0.0 (the same
    association the DP uses, so scores compare exactly).

    ``durations`` is an int array, one path [N] or a stack of paths [C, N],
    each summing to the frame count; the result is a float or one score per
    path. Array methods rather than numpy functions keep the per-call cost
    low for the small instances the brute-force oracle scores.
    """
    frames = np.arange(ll.shape[1])
    cells = ll[(durations.cumsum(-1)[..., :, None] <= frames).sum(-2), frames]
    cells[..., 0] += 0.0  # the first step is ll + 0.0, which turns -0.0 into 0.0
    return cells.cumsum(-1)[..., -1]


def _compositions(total: int, parts: int) -> np.ndarray:
    """[C, parts]: every way to write total as an ordered sum of ``parts``
    positive ints."""
    cuts = list(combinations(range(1, total), parts - 1))
    edges = np.zeros((len(cuts), parts + 1), dtype=np.int64)
    edges[:, 1:-1] = cuts
    edges[:, -1] = total
    return np.diff(edges, axis=1)


@lru_cache(maxsize=None)
def _candidates(note_token_counts: tuple, note_frame_counts: tuple) -> np.ndarray:
    """[C, N] read-only: every feasible duration vector for these per-note
    counts, ordered by the tie key (durations read from the last token
    backward) from largest to smallest."""
    per_note = [_compositions(f, k) for k, f in zip(note_token_counts, note_frame_counts)]
    pick = np.indices([len(c) for c in per_note]).reshape(len(per_note), -1)
    cands = np.concatenate([c[p] for c, p in zip(per_note, pick)], axis=1)
    cands = cands[np.lexsort(cands.T)[::-1]]
    cands.flags.writeable = False
    return cands


# A constraint is frozen, holds read-only ids and hashes by identity, so its
# candidates can be cached per instance; the bound keeps the cache from
# holding every constraint alive.
@lru_cache(maxsize=64)
def _constraint_candidates(nb: NoteBoundaryConstraint) -> np.ndarray:
    """_candidates for the per-note counts of ``nb``, in ascending note
    order; the constraint has checked that both id arrays name the same
    notes."""
    counts = (np.unique(ids, return_counts=True)[1] for ids in (nb.token_note_id, nb.frame_note_id))
    return _candidates(*(tuple(c.tolist()) for c in counts))


def brute_force_align(ll, nb: NoteBoundaryConstraint):
    """Exact optimum by enumerating every feasible duration assignment.

    Ties break exactly like mas_align: among equal scores, prefer the
    path maximizing durations read from the last token backward (i.e.
    earliest boundaries). Guarded to instances of at most 6 tokens by 12
    frames.
    """
    ll = _check_instance(ll, nb)
    n, t = ll.shape
    if n > 6 or t > 12:  # the candidates grow combinatorially with the instance
        raise ValidationError(f"brute_force_align: instance {n}x{t} exceeds guard 6x12")
    cands = _constraint_candidates(nb)
    scores = path_score(ll, cands)
    best = int(np.argmax(scores))  # the first maximum holds the largest tie key
    return AlignmentPath(cands[best]), float(scores[best])


def gaussian_oracle_velocity(spec: GaussianTransportSpec, t, z):
    """Minimizer of the flow-matching regression under independent Gaussian
    endpoints: the conditional expectation E[z_q - z_p | z_t = z],

        v*(z, t) = (b - a) + [(t r^2 - (1-t) s^2) / ((1-t)^2 s^2 + t^2 r^2)]
                   * (z - mu_t),  mu_t = (1-t) a + t b.
    """
    t = np.asarray(t, dtype=np.float64)
    denom = spec.path_var(t)
    if np.any(denom == 0.0):
        raise ValidationError("gaussian oracle: degenerate path variance (s = r = 0)")
    coeff = (t * spec.r**2 - (1.0 - t) * spec.s**2) / denom
    z = np.asarray(z, dtype=np.float64)
    return (spec.b - spec.a) + coeff * (z - spec.path_mean(t))


def conditional_velocity_variance(spec: GaussianTransportSpec, t):
    """Var(z_q - z_p | z_t) per coordinate; its average over t is the
    irreducible floor of the flow-matching loss."""
    cov = t * spec.r**2 - (1.0 - t) * spec.s**2
    return (spec.s**2 + spec.r**2) - cov**2 / spec.path_var(t)


def loss_floor(spec: GaussianTransportSpec) -> float:
    """Trapezoid rule on 10001 points of t."""
    ts = np.linspace(0.0, 1.0, 10001)
    return float(np.trapezoid(conditional_velocity_variance(spec, ts), ts))
