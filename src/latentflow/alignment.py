"""Monotonic alignment search constrained by note boundaries, and the
duration loss."""
from __future__ import annotations

from dataclasses import dataclass, field

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
    # Derived once from the ids. Per frame j, the tokens [lo, hi) a
    # monotonic path may hold there: the frame's note's tokens with index
    # <= j.
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
            "frame_token_lo": lo,
            "frame_token_hi": hi,
            "frame_cells": cells,
        }
        for name, a in derived.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class AlignmentPath:
    """Monotonic token -> contiguous-frame-block assignment, stored as
    per-token durations: a read-only 1-D int64 copy, each at least 1,
    checked once at construction."""

    durations: np.ndarray

    def __post_init__(self):
        d = np.array(self.durations, dtype=np.int64)
        if d.ndim != 1 or (d.size and d.min() < 1):
            raise ValidationError(f"alignment path: durations must be 1-D and >= 1, got shape {d.shape}")
        d.flags.writeable = False
        object.__setattr__(self, "durations", d)


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


def durations_from_path(path: AlignmentPath) -> np.ndarray:
    """Per-token frame counts, a writable copy; positive ints summing to the
    frame count."""
    return path.durations.copy()


def duration_loss(d_target: np.ndarray, log_d_pred):
    """Mean squared error, in the log domain, of predicted log-durations
    against aligner-derived frame counts."""
    d_target = np.asarray(d_target, dtype=np.float64)
    pv = ad.value(log_d_pred)
    if d_target.shape != pv.shape:
        raise ValidationError(f"duration_loss: lengths {d_target.shape} and {pv.shape} differ")
    if not (np.isfinite(d_target).all() and np.all(d_target >= 1)):
        raise ValidationError("duration_loss: target durations must be finite and >= 1")
    return ad.mean(ad.square(ad.sub(log_d_pred, np.log(d_target))))
