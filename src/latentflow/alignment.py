"""Monotonic alignment search constrained by note boundaries, plus a
brute-force enumeration oracle and the duration loss."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError

_NEG = -np.inf


@dataclass(frozen=True, eq=False)
class NoteBoundaryConstraint:
    """Per-token and per-frame note ids, checked once at construction.

    Both id arrays must be non-empty and non-decreasing, name the same
    notes, and give every note at least as many frames as tokens. They are
    stored as read-only int64 copies, so a constraint stays valid and the
    caller's arrays are never shared.
    """

    token_note_id: np.ndarray
    frame_note_id: np.ndarray
    # Derived once from the ids. Per note, in ascending note order:
    note_token_counts: np.ndarray = field(init=False, repr=False)
    note_frame_counts: np.ndarray = field(init=False, repr=False)
    # Per frame j, the tokens [lo, hi) a monotonic path may hold there: the
    # frame's note's tokens with index <= j.
    frame_token_lo: np.ndarray = field(init=False, repr=False)
    frame_token_hi: np.ndarray = field(init=False, repr=False)
    # Flat indices into the [tokens, frames] matrix of those cells, frame by
    # frame and, within a frame, from token hi - 1 down to lo.
    frame_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        tok, frm = (np.array(ids, dtype=np.int64) for ids in (self.token_note_id, self.frame_note_id))
        for name, ids in (("token", tok), ("frame", frm)):
            if ids.ndim != 1:
                raise ValidationError(f"note constraint: {name} ids must be 1-D, got shape {ids.shape}")
            if ids.size == 0:
                raise ValidationError(f"note constraint: empty {name} ids")
            if np.any(np.diff(ids) < 0):
                raise ValidationError(f"note constraint: {name} note ids must be non-decreasing")
        notes, n_tok = np.unique(tok, return_counts=True)
        frame_notes, n_frm = np.unique(frm, return_counts=True)
        if not np.array_equal(notes, frame_notes):
            raise ValidationError("note constraint: token and frame note-id sets differ")
        short = np.flatnonzero(n_tok > n_frm)
        if short.size:
            k = short[0]
            raise ValidationError(f"alignment: note {notes[k]} has {n_tok[k]} tokens but only {n_frm[k]} frames")
        t = len(frm)
        lo = np.searchsorted(tok, frm, side="left")
        hi = np.minimum(np.searchsorted(tok, frm, side="right"), np.arange(1, t + 1))
        counts = np.maximum(hi - lo, 0)
        starts = counts.cumsum() - counts
        # the k-th cell, d = k - starts[j] places below token hi - 1 of frame
        # j, is (hi - 1 - d) * t + j = (hi - 1 + starts[j]) * t + j - k * t
        cells = np.repeat((hi - 1 + starts) * t + np.arange(t), counts) - np.arange(0, counts.sum() * t, t)
        derived = {
            "token_note_id": tok,
            "frame_note_id": frm,
            "note_token_counts": n_tok,
            "note_frame_counts": n_frm,
            "frame_token_lo": lo,
            "frame_token_hi": hi,
            "frame_cells": cells,
        }
        for name, a in derived.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass
class AlignmentPath:
    """Monotonic token -> contiguous-frame-block assignment, stored as
    per-token durations."""

    durations: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=np.int64)


def _check_instance(ll: np.ndarray, nb: NoteBoundaryConstraint):
    ll = np.asarray(ll, dtype=np.float64)
    if ll.ndim != 2:
        raise ValidationError(f"alignment: log-likelihood matrix must be 2-D, got shape {ll.shape}")
    if not np.isfinite(ll).all():
        raise ValidationError("alignment: log-likelihood matrix must be finite")
    n, t = ll.shape
    if len(nb.token_note_id) != n or len(nb.frame_note_id) != t:
        raise ValidationError(
            f"alignment: constraint lengths {len(nb.token_note_id)}x{len(nb.frame_note_id)} "
            f"do not match matrix {n}x{t}"
        )
    return ll


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


def mas_align(ll, nb: NoteBoundaryConstraint) -> tuple[AlignmentPath, float]:
    """Constrained-optimal monotonic alignment.

    DP over Q[i, j] = ll[i, j] + max(Q[i, j-1], Q[i-1, j-1]), one frame
    column at a time over the tokens the constraint allows at frame j; every
    other cell stays -inf. Exact ties prefer staying on the current token,
    which backtracks to the path whose boundaries fall earliest. A column
    holds a few cells (the tokens of one note), so the loop runs on Python
    floats, and only those cells of ``ll`` are converted.
    """
    ll = _check_instance(ll, nb)
    n = ll.shape[0]
    next_cell = iter(ll.take(nb.frame_cells).tolist()).__next__
    # q[i + 1] holds Q[i, j], updated in place from column j-1 to column j;
    # q[0] stays -inf, so token 0 needs no branch for its missing move
    # predecessor.
    q = [_NEG] * (n + 1)
    q[1] = next_cell()  # frame 0 allows token 0 alone
    stays = []  # per frame j >= 1: (lo, whether token lo + k chose Q[i, j-1])
    prev_lo = 0
    for lo, hi in zip(nb.frame_token_lo[1:].tolist(), nb.frame_token_hi[1:].tolist()):
        took = [False] * (hi - lo)
        # from the last token down, so both predecessors still hold column
        # j-1; the cells come in the same order
        for i in range(hi - 1, lo - 1, -1):
            from_stay, from_move = q[i + 1], q[i]
            if from_stay >= from_move:
                q[i + 1] = next_cell() + from_stay
                took[i - lo] = True
            else:
                q[i + 1] = next_cell() + from_move
        if lo != prev_lo:  # tokens the window has left are -inf from column j on
            q[prev_lo + 1:lo + 1] = [_NEG] * (lo - prev_lo)
            prev_lo = lo
        stays.append((lo, took))
    if q[n] == _NEG:
        raise ValidationError("alignment: no feasible monotonic path")
    durations = [0] * n
    i = n - 1
    for lo, took in reversed(stays):
        durations[i] += 1
        if not took[i - lo]:
            i -= 1
    durations[i] += 1
    return AlignmentPath(durations), q[n]


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
    cands = _candidates(tuple(nb.note_token_counts.tolist()), tuple(nb.note_frame_counts.tolist()))
    scores = path_score(ll, cands)
    best = int(np.argmax(scores))  # the first maximum holds the largest tie key
    return AlignmentPath(cands[best].copy()), float(scores[best])


def durations_from_path(path: AlignmentPath) -> np.ndarray:
    """Per-token frame counts; positive ints summing to the frame count."""
    if np.any(path.durations < 1):
        raise ValidationError("alignment path: durations must be >= 1")
    return path.durations.copy()


def duration_loss(d_target: np.ndarray, log_d_pred):
    """Mean squared error, in the log domain, of predicted log-durations
    against aligner-derived frame counts."""
    d_target = np.asarray(d_target, dtype=np.float64)
    pv = ad.value(log_d_pred)
    if d_target.shape != pv.shape:
        raise ValidationError(f"duration_loss: lengths {d_target.shape} and {pv.shape} differ")
    if np.any(d_target < 1):
        raise ValidationError("duration_loss: target durations must be >= 1")
    return ad.mean(ad.square(ad.sub(log_d_pred, np.log(d_target))))
