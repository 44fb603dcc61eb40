"""Self-tests of the benchmark itself (not collected by the package's test run):

    python3 -m pytest perfbench/selftest.py -q
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _short_train() -> workloads.Train:
    w = workloads.Train()
    w.min_ops, w.loss_window = 6, 3
    return w


def test_train_loss_final_is_bit_equal_for_one_seed():
    def loss():
        w = _short_train()
        st = w.setup(7)
        return w.quality(st, [w.op(st, i, None) for i in range(w.min_ops)])

    a, b = loss(), loss()
    assert np.isfinite(a) and a == b


def test_synth_fit_is_deterministic():
    (fa, ca), (fb, cb) = workloads.fit_field(3), workloads.fit_field(3)
    assert ca == cb
    sa, sb = fa.store.state_dict(), fb.store.state_dict()
    assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def test_corpus_is_seeded_and_balanced():
    cfg = corpus.mel_config()
    a, b = corpus.make_corpus(5, 8, cfg), corpus.make_corpus(5, 8, cfg)
    assert all(np.array_equal(x.wave, y.wave) for x, y in zip(a, b))
    assert not np.array_equal(a[0].wave, corpus.make_corpus(6, 8, cfg)[0].wave)
    for u in a:
        assert len(u.wave) == u.frames * cfg.hop_size
        assert u.durations.sum() == u.frames == len(u.frame_note_id)
    quarter = (corpus.MAX_FRAMES - corpus.MIN_FRAMES) / 4
    for block in range(2):
        bins = {int((u.frames - corpus.MIN_FRAMES) // quarter) for u in a[4 * block : 4 * block + 4]}
        assert bins == {0, 1, 2, 3}


def test_spans_nest_and_self_times_fit_in_wall_time():
    rec = spans.Recorder()
    loops = [(run.Loop(w, w.setup(1), rec), n) for w, n in ((_short_train(), 2), (workloads.Eval(), 1))]
    with spans.Tracer(rec, workloads.LAYER_SPANS):
        for loop, n in loops:
            loop.for_count(n)
            assert loop.failed == 0
    assert workloads.signals.mel_transform.__name__ == "mel_transform"
    assert not hasattr(workloads.signals.mel_transform, "__wrapped__")

    names = {s.name for s in rec.spans}
    assert {"bench.op", "autodiff.backward", "alignment.mas_align", "signals.f0_extract"} <= names
    for s in rec.spans:
        assert s.end is not None and s.start <= s.end
        if s.parent is None:
            assert s.name == "bench.op"
            continue
        p = rec.spans[s.parent]
        assert p.start <= s.start and s.end <= p.end and p.op == s.op
    wall = sum(s.end - s.start for s in rec.spans if s.parent is None)
    times = rec.layer_times()
    assert all(0.0 <= own <= total for own, total, _ in times.values())
    assert sum(own for own, _, _ in times.values()) <= wall * (1 + 1e-9)
    assert times["bench.op"][1] == wall


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
