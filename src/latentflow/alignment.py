"""Monotonic alignment search constrained by note boundaries, plus a
brute-force enumeration oracle and the duration loss."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import autodiff as ad
from .exceptions import ValidationError

_NEG = -np.inf


@dataclass
class NoteBoundaryConstraint:
    token_note_id: np.ndarray
    frame_note_id: np.ndarray

    def __post_init__(self):
        self.token_note_id = np.asarray(self.token_note_id, dtype=np.int64)
        self.frame_note_id = np.asarray(self.frame_note_id, dtype=np.int64)

    def validate(self) -> "NoteBoundaryConstraint":
        for name, ids in (("token", self.token_note_id), ("frame", self.frame_note_id)):
            if ids.size == 0:
                raise ValidationError(f"note constraint: empty {name} ids")
            if np.any(np.diff(ids) < 0):
                raise ValidationError(f"note constraint: {name} note ids must be non-decreasing")
        if set(self.token_note_id.tolist()) != set(self.frame_note_id.tolist()):
            raise ValidationError("note constraint: token and frame note-id sets differ")
        return self

    @classmethod
    def single_note(cls, n_tokens: int, n_frames: int) -> "NoteBoundaryConstraint":
        return cls(np.zeros(n_tokens, dtype=np.int64), np.zeros(n_frames, dtype=np.int64))


@dataclass
class AlignmentPath:
    """Monotonic token -> contiguous-frame-block assignment, stored as
    per-token durations."""

    durations: np.ndarray

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=np.int64)

    @property
    def n_frames(self) -> int:
        return int(self.durations.sum())


def _check_instance(ll: np.ndarray, nb: NoteBoundaryConstraint):
    ll = np.asarray(ll, dtype=np.float64)
    if ll.ndim != 2:
        raise ValidationError(f"alignment: log-likelihood matrix must be 2-D, got shape {ll.shape}")
    if not np.all(np.isfinite(ll)):
        raise ValidationError("alignment: log-likelihood matrix must be finite")
    n, t = ll.shape
    nb.validate()
    if len(nb.token_note_id) != n or len(nb.frame_note_id) != t:
        raise ValidationError(
            f"alignment: constraint lengths {len(nb.token_note_id)}x{len(nb.frame_note_id)} "
            f"do not match matrix {n}x{t}"
        )
    for note in np.unique(nb.token_note_id):
        n_tok = int((nb.token_note_id == note).sum())
        n_frm = int((nb.frame_note_id == note).sum())
        if n_tok > n_frm:
            raise ValidationError(f"alignment: note {note} has {n_tok} tokens but only {n_frm} frames")
    return ll


def path_score(ll: np.ndarray, durations: np.ndarray) -> float:
    """Sum of covered cells, accumulated in frame order (the same
    association the DP uses, so scores compare exactly)."""
    s = 0.0
    j = 0
    for i, d in enumerate(durations):
        for _ in range(int(d)):
            s = ll[i, j] + s
            j += 1
    return float(s)


def mas_align(ll, nb: NoteBoundaryConstraint) -> tuple[AlignmentPath, float]:
    """Constrained-optimal monotonic alignment.

    DP over Q[i, j] = ll[i, j] + max(Q[i, j-1], Q[i-1, j-1]) with cells
    masked to -inf when token and frame note ids differ. Exact ties prefer
    staying on the current token, which backtracks to the path whose
    boundaries fall earliest.
    """
    ll = _check_instance(ll, nb)
    n, t = ll.shape
    allowed = nb.token_note_id[:, None] == nb.frame_note_id[None, :]
    q = np.full((n, t), _NEG)
    stay = np.zeros((n, t), dtype=bool)  # chose Q[i, j-1] at (i, j)
    if allowed[0, 0]:
        q[0, 0] = ll[0, 0]
    for j in range(1, t):
        lo = int(np.searchsorted(nb.token_note_id, nb.frame_note_id[j], side="left"))
        hi = int(np.searchsorted(nb.token_note_id, nb.frame_note_id[j], side="right"))
        for i in range(lo, min(hi, j + 1)):
            best = _NEG
            from_stay = False
            if q[i, j - 1] > _NEG:
                best = q[i, j - 1]
                from_stay = True
            if i > 0 and q[i - 1, j - 1] > _NEG and q[i - 1, j - 1] > best:
                best = q[i - 1, j - 1]
                from_stay = False
            if best > _NEG:
                q[i, j] = ll[i, j] + best
                stay[i, j] = from_stay
    if q[n - 1, t - 1] == _NEG:
        raise ValidationError("alignment: no feasible monotonic path")
    durations = np.zeros(n, dtype=np.int64)
    i = n - 1
    for j in range(t - 1, -1, -1):
        durations[i] += 1
        if j > 0 and not stay[i, j]:
            i -= 1
    path = AlignmentPath(durations)
    return path, float(q[n - 1, t - 1])


def mas_align_per_note(ll, nb: NoteBoundaryConstraint) -> tuple[AlignmentPath, float]:
    """Equivalent solver exploiting per-note independence: one
    unconstrained search per note, concatenated."""
    ll = _check_instance(ll, nb)
    durations = []
    score = 0.0
    for note in np.unique(nb.token_note_id):
        ti = np.nonzero(nb.token_note_id == note)[0]
        fi = np.nonzero(nb.frame_note_id == note)[0]
        sub = ll[np.ix_(ti, fi)]
        path, s = mas_align(sub, NoteBoundaryConstraint.single_note(len(ti), len(fi)))
        durations.append(path.durations)
        score += s
    return AlignmentPath(np.concatenate(durations)), score


def _compositions(total: int, parts: int):
    """All ways to write total as an ordered sum of ``parts`` positive ints."""
    for cuts in combinations(range(1, total), parts - 1):
        edges = (0,) + cuts + (total,)
        yield np.diff(edges)


def brute_force_align(ll, nb: NoteBoundaryConstraint, max_tokens: int = 6, max_frames: int = 12):
    """Exact optimum by enumerating every feasible duration assignment.

    Ties break exactly like mas_align: among equal scores, prefer the
    path maximizing durations read from the last token backward (i.e.
    earliest boundaries). Guarded to small instances.
    """
    ll = _check_instance(ll, nb)
    n, t = ll.shape
    if n > max_tokens or t > max_frames:
        raise ValidationError(f"brute_force_align: instance {n}x{t} exceeds guard {max_tokens}x{max_frames}")
    notes = np.unique(nb.token_note_id)
    note_token_counts = [(nb.token_note_id == note).sum() for note in notes]
    note_frame_counts = [(nb.frame_note_id == note).sum() for note in notes]

    best_durs = None
    best_score = -np.inf
    best_key = None

    def enumerate_note(k: int, acc: list):
        nonlocal best_durs, best_score, best_key
        if k == len(notes):
            durs = np.concatenate(acc)
            score = path_score(ll, durs)
            key = tuple(durs[::-1])
            if score > best_score or (score == best_score and key > best_key):
                best_score = score
                best_durs = durs
                best_key = key
            return
        for comp in _compositions(int(note_frame_counts[k]), int(note_token_counts[k])):
            enumerate_note(k + 1, acc + [comp])

    enumerate_note(0, [])
    return AlignmentPath(best_durs), float(best_score)


def durations_from_path(path: AlignmentPath) -> np.ndarray:
    """Per-token frame counts; positive ints summing to the frame count."""
    if np.any(path.durations < 1):
        raise ValidationError("alignment path: durations must be >= 1")
    return path.durations.copy()


def duration_loss(d_target: np.ndarray, log_d_pred, raw: bool = False):
    """Mean squared duration error against aligner-derived targets.

    The head predicts log-durations; by default the error is taken in the
    log domain. ``raw=True`` compares exp(prediction) to the raw frame
    counts instead.
    """
    d_target = np.asarray(d_target, dtype=np.float64)
    pv = ad.value(log_d_pred)
    if d_target.shape != pv.shape:
        raise ValidationError(f"duration_loss: lengths {d_target.shape} and {pv.shape} differ")
    if np.any(d_target < 1):
        raise ValidationError("duration_loss: target durations must be >= 1")

    def body():
        if raw:
            return ad.mean(ad.square(ad.sub(ad.exp(log_d_pred), d_target)))
        return ad.mean(ad.square(ad.sub(log_d_pred, np.log(d_target))))

    return ad.evaluate(body, log_d_pred)
