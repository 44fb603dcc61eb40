"""Seeded synthetic singing corpus on the desk analysis preset.

Every utterance is built the way the package's own data path builds one:
``SingingSpec`` -> ``singing_f0_contour`` -> ``dsp_synthesize``. Only the
seed chooses the content; the spread of lengths is fixed, so two seeds
give the same amount of work but different notes, tokens and noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from latentflow import signals
from latentflow.cvae import ScoreCondition

MIN_FRAMES = 80
MAX_FRAMES = 650
MIDI_RANGE = (55, 70)  # three harmonics of the top note plus vibrato stay below fmax
VOCAB = 64  # LatentConfig.vocab_size
LENGTH_BINS = 4


@dataclass
class Utterance:
    spec: signals.SingingSpec
    cond: ScoreCondition
    durations: np.ndarray  # per token: the note's frames split evenly over its tokens
    frame_note_id: np.ndarray
    f0: np.ndarray  # per-frame Hz
    wave: np.ndarray  # frames * hop samples

    @property
    def frames(self) -> int:
        return len(self.f0)


def mel_config() -> signals.MelConfig:
    return signals.desk_pipeline_mel()


def _spread_order(m: int) -> np.ndarray:
    """0..m-1 in base-2 radical-inverse order, so that every prefix is
    spread evenly over the range."""
    def radical_inverse(k: int) -> float:
        r, f = 0.0, 0.5
        while k:
            r, k, f = r + f * (k & 1), k >> 1, f / 2
        return r

    return np.argsort([radical_inverse(k) for k in range(m)], kind="stable")


def balanced_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` lengths in [MIN_FRAMES, MAX_FRAMES], one per equal-width
    stratum, ordered in blocks that hold one length from each quarter of
    the range. Within a quarter the strata come in an order that spreads
    every prefix evenly, so any prefix of whole blocks has nearly the same
    mix of short inputs (per-op overhead) and long inputs (per-element
    work) whatever the seed."""
    if n % LENGTH_BINS:
        raise ValueError(f"corpus size {n} is not a multiple of {LENGTH_BINS}")
    edges = np.linspace(MIN_FRAMES, MAX_FRAMES, n + 1)
    lengths = np.floor(edges[:-1] + rng.random(n) * np.diff(edges)).astype(np.int64)
    groups = lengths.reshape(LENGTH_BINS, n // LENGTH_BINS)[:, _spread_order(n // LENGTH_BINS)]
    return np.concatenate([rng.permutation(block) for block in groups.T])


def even_split(total: int, parts: int) -> np.ndarray:
    return np.array([len(a) for a in np.array_split(np.arange(total), parts)], dtype=np.int64)


def make_utterance(rng: np.random.Generator, frames: int, cfg: signals.MelConfig) -> Utterance:
    note_frames = []
    left = frames
    while left > 0:
        d = int(rng.integers(10, 61))
        if left - d < 10:
            d = left
        note_frames.append(d)
        left -= d
    entries, tokens, pitch, note_dur, note_id, durations = [], [], [], [], [], []
    for k, d in enumerate(note_frames):
        midi = int(rng.integers(MIDI_RANGE[0], MIDI_RANGE[1] + 1))
        n_tok = int(rng.integers(1, 4))
        toks = rng.integers(0, VOCAB, n_tok)
        split = even_split(d, n_tok)
        for tok, dt in zip(toks, split):
            entries.append((midi, int(dt), int(tok)))
        tokens += toks.tolist()
        pitch += [midi] * n_tok
        note_dur += [d] * n_tok
        note_id += [k] * n_tok
        durations += split.tolist()
    spec = signals.SingingSpec(
        notes=entries,
        vibrato_rate_hz=float(rng.uniform(4.0, 7.0)),
        vibrato_depth_cents=float(rng.uniform(20.0, 80.0)),
        vibrato_phase=float(rng.uniform(0.0, 2.0 * np.pi)),
        noise_level=0.01,
    )
    f0 = signals.singing_f0_contour(spec, cfg)
    wave = signals.dsp_synthesize(f0, spec.harmonic_amps, spec.noise_level, cfg, rng=rng)
    cond = ScoreCondition(tokens, pitch, note_dur, note_id).validate()
    frame_note_id = np.repeat(np.arange(len(note_frames)), note_frames)
    return Utterance(spec, cond, np.asarray(durations, dtype=np.int64), frame_note_id, f0, wave)


def make_corpus(seed: int, n: int, cfg: signals.MelConfig) -> list[Utterance]:
    rng = np.random.default_rng([seed, 0xC0])
    return [make_utterance(rng, int(t), cfg) for t in balanced_lengths(rng, n)]
