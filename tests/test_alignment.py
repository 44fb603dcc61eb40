from dataclasses import FrozenInstanceError
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentflow import autodiff as ad
from latentflow.alignment import AlignmentPath, NoteBoundaryConstraint, duration_loss, durations_from_path, mas_align
from latentflow.exceptions import ValidationError
from latentflow.oracles import brute_force_align, path_score


def single(n, t):
    return NoteBoundaryConstraint(np.zeros(n, int), np.zeros(t, int))


def test_single_token_covers_whole_range():
    ll = np.array([[0.3, -0.7, 1.2]])
    path, score = mas_align(ll, single(1, 3))
    np.testing.assert_array_equal(path.durations, [3])
    assert score == pytest.approx(ll.sum())


def test_two_token_example():
    ll = np.array([[0.0, -1.0, -5.0], [-5.0, 0.0, 0.0]])
    path, score = mas_align(ll, single(2, 3))
    np.testing.assert_array_equal(path.durations, [1, 2])
    assert score == 0.0
    assert path_score(ll, np.array([2, 1])) == -1.0


def test_note_constraint_forces_path():
    rng = np.random.default_rng(0)
    nb = NoteBoundaryConstraint([1, 2], [1, 1, 2])
    for _ in range(20):
        path, _ = mas_align(rng.standard_normal((2, 3)), nb)
        np.testing.assert_array_equal(path.durations, [2, 1])


def test_all_zero_ll_ties_break_to_earliest_boundaries():
    path, score = mas_align(np.zeros((3, 6)), single(3, 6))
    np.testing.assert_array_equal(path.durations, [1, 1, 4])
    assert score == 0.0
    bf_path, bf_score = brute_force_align(np.zeros((3, 6)), single(3, 6))
    np.testing.assert_array_equal(bf_path.durations, [1, 1, 4])
    assert bf_score == 0.0


def test_infeasible_note_names_note_id():
    with pytest.raises(ValidationError, match="note 5"):
        NoteBoundaryConstraint([5, 5, 5], [5, 5])


def test_constraint_validation():
    with pytest.raises(ValidationError, match="non-decreasing"):
        NoteBoundaryConstraint([2, 1], [1, 2])
    with pytest.raises(ValidationError, match="sets differ"):
        NoteBoundaryConstraint([0, 1], [0, 0, 2])
    with pytest.raises(ValidationError, match="1-D"):
        NoteBoundaryConstraint([[0, 1]], [0, 1])


def test_constraint_is_frozen_and_owns_read_only_ids():
    tok, frm = np.array([0, 0, 1]), np.array([0, 0, 1, 1])
    nb = NoteBoundaryConstraint(tok, frm)
    with pytest.raises(FrozenInstanceError):
        nb.token_note_id = np.array([0, 1, 1])
    with pytest.raises(ValueError):
        nb.token_note_id[0] = 1
    assert tok.flags.writeable and frm.flags.writeable
    tok[2] = 7  # the caller's array is not the constraint's
    np.testing.assert_array_equal(nb.token_note_id, [0, 0, 1])


def test_exhaustive_agreement_small_instances():
    values = (0.0, -1.0, 2.5)
    for n, t in ((1, 3), (2, 3), (2, 4), (3, 4)):
        nb = single(n, t)
        for cells in product(values, repeat=n * t):
            ll = np.array(cells).reshape(n, t)
            p_dp, s_dp = mas_align(ll, nb)
            p_bf, s_bf = brute_force_align(ll, nb)
            assert s_dp == s_bf
            assert np.array_equal(p_dp.durations, p_bf.durations)


def _random_constraint(rng, n, t):
    n_notes = int(rng.integers(1, n + 1))
    # split tokens and frames into n_notes contiguous groups, tokens <= frames;
    # the single-note case draws nothing and needs an integer empty cut array
    no_cuts = np.array([], dtype=np.int64)
    while True:
        tok_cuts = np.sort(rng.choice(np.arange(1, n), size=n_notes - 1, replace=False)) if n_notes > 1 else no_cuts
        frm_cuts = np.sort(rng.choice(np.arange(1, t), size=n_notes - 1, replace=False)) if n_notes > 1 else no_cuts
        tok_counts = np.diff(np.concatenate(([0], tok_cuts, [n])))
        frm_counts = np.diff(np.concatenate(([0], frm_cuts, [t])))
        if np.all(tok_counts <= frm_counts):
            break
    token_ids = np.repeat(np.arange(n_notes), tok_counts)
    frame_ids = np.repeat(np.arange(n_notes), frm_counts)
    return NoteBoundaryConstraint(token_ids, frame_ids)


def test_randomized_agreement_with_note_constraints():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(n, 9))
        nb = _random_constraint(rng, n, t)
        ll = rng.standard_normal((n, t))
        p_dp, s_dp = mas_align(ll, nb)
        p_bf, s_bf = brute_force_align(ll, nb)
        assert s_dp == s_bf
        np.testing.assert_array_equal(p_dp.durations, p_bf.durations)


def test_constant_shift_changes_score_not_path():
    rng = np.random.default_rng(3)
    ll = rng.standard_normal((3, 7))
    nb = single(3, 7)
    path, score = mas_align(ll, nb)
    shifted_path, shifted_score = mas_align(ll + 2.5, nb)
    np.testing.assert_array_equal(path.durations, shifted_path.durations)
    assert shifted_score == pytest.approx(score + 2.5 * 7, rel=1e-12)


def _mas_align_per_note(ll, nb):
    """Reference exploiting per-note independence: one unconstrained search
    per note's sub-block, concatenated."""
    durations = []
    score = 0.0
    for note in np.unique(nb.token_note_id):
        ti = np.nonzero(nb.token_note_id == note)[0]
        fi = np.nonzero(nb.frame_note_id == note)[0]
        path, s = mas_align(ll[np.ix_(ti, fi)], single(len(ti), len(fi)))
        durations.append(path.durations)
        score += s
    return AlignmentPath(np.concatenate(durations)), score


def test_per_note_decomposition_matches_global():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, t = 5, 11
        nb = _random_constraint(rng, n, t)
        ll = rng.standard_normal((n, t))
        p_global, s_global = mas_align(ll, nb)
        p_split, s_split = _mas_align_per_note(ll, nb)
        assert s_global == pytest.approx(s_split, abs=1e-12)
        np.testing.assert_array_equal(p_global.durations, p_split.durations)
        p_bf, s_bf = brute_force_align(ll, nb)
        assert s_global == s_bf
        np.testing.assert_array_equal(p_global.durations, p_bf.durations)


@st.composite
def _constrained_instances(draw):
    """A note-constrained instance within the brute-force guard (6x12);
    ``ll`` comes from a small value set (so ties occur) or from floats."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(n, 12))
    n_notes = draw(st.integers(1, n))
    tok_counts = np.ones(n_notes, dtype=np.int64)
    for _ in range(n - n_notes):
        tok_counts[draw(st.integers(0, n_notes - 1))] += 1
    frm_counts = tok_counts.copy()
    for _ in range(t - n):
        frm_counts[draw(st.integers(0, n_notes - 1))] += 1
    nb = NoteBoundaryConstraint(np.repeat(np.arange(n_notes), tok_counts), np.repeat(np.arange(n_notes), frm_counts))
    values = st.one_of(
        st.sampled_from((0.0, -1.0, 2.5)),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
    ll = np.array(draw(st.lists(values, min_size=n * t, max_size=n * t))).reshape(n, t)
    return ll, nb


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_constrained_instances())
def test_mas_align_equals_brute_force_property(instance):
    ll, nb = instance
    p_dp, s_dp = mas_align(ll, nb)
    p_bf, s_bf = brute_force_align(ll, nb)
    assert s_dp == s_bf
    np.testing.assert_array_equal(p_dp.durations, p_bf.durations)


def _corpus_instance(rng, frames):
    """A note-constrained instance shaped like the corpus: notes of 1-3
    tokens, each note at least as long as its tokens, ``frames`` in all."""
    tok = rng.integers(1, 4, size=max(1, frames // 25))
    frm = tok + rng.multinomial(frames - tok.sum(), np.full(len(tok), 1.0 / len(tok)))
    nb = NoteBoundaryConstraint(np.repeat(np.arange(len(tok)), tok), np.repeat(np.arange(len(tok)), frm))
    return rng.standard_normal((tok.sum(), frames)) * 10.0 ** rng.integers(-2, 4), nb


@pytest.mark.parametrize("seed", range(6))
def test_mas_score_is_the_path_score_at_corpus_scale(seed):
    """Beyond the brute-force guard: the DP's score is the exact frame-order
    sum of its own path, and the path obeys the note constraint."""
    rng = np.random.default_rng(100 + seed)
    for frames in (80, 81, 250, 369, 518, 650):
        ll, nb = _corpus_instance(rng, frames)
        path, score = mas_align(ll, nb)
        assert type(score) is float and score == path_score(ll, path.durations)
        assert path.durations.sum() == frames and np.all(path.durations >= 1)
        token_of_frame = np.repeat(np.arange(len(path.durations)), path.durations)
        assert np.array_equal(nb.token_note_id[token_of_frame], nb.frame_note_id)


def test_brute_force_guard():
    with pytest.raises(ValidationError, match="guard"):
        brute_force_align(np.zeros((7, 14)), single(7, 14))


def test_durations_from_path():
    p = AlignmentPath(np.array([1, 2]))
    np.testing.assert_array_equal(durations_from_path(p), [1, 2])
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(1, 5, size=4)
        assert durations_from_path(AlignmentPath(d)).sum() == d.sum()


def test_alignment_path_is_checked_once_and_owns_read_only_durations():
    with pytest.raises(ValidationError, match="alignment path: durations must be 1-D and >= 1"):
        AlignmentPath([1, 0])
    with pytest.raises(ValidationError, match=r"shape \(1, 2\)"):
        AlignmentPath([[1, 2]])
    d = np.array([1, 2])
    p = AlignmentPath(d)
    with pytest.raises(FrozenInstanceError):
        p.durations = np.array([3])
    with pytest.raises(ValueError):
        p.durations[0] = 0
    assert p.durations.dtype == np.int64
    d[0] = 0  # the caller's array is not the path's
    np.testing.assert_array_equal(p.durations, [1, 2])
    out = durations_from_path(p)
    out[0] = 5  # the copy handed back is the caller's to change
    np.testing.assert_array_equal(p.durations, [1, 2])


def test_duration_loss_log_domain():
    d = np.array([1.0, 2.0, 4.0])
    assert duration_loss(d, np.log(d)) == pytest.approx(0.0)
    assert duration_loss(np.array([1.0]), np.array([1.0])) == pytest.approx(1.0)  # log 1 + 1
    rng = np.random.default_rng(6)
    for _ in range(10):
        tgt = rng.integers(1, 9, size=5).astype(float)
        pred = rng.standard_normal(5)
        expected = float(np.mean((pred - np.log(tgt)) ** 2))
        assert duration_loss(tgt, pred) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_duration_loss_rejects_non_finite_targets(bad):
    with pytest.raises(ValidationError, match="^duration_loss: target durations must be finite"):
        duration_loss(np.array([2.0, bad, 3.0]), np.zeros(3))


def test_duration_loss_tensor_mode():
    tgt = np.array([2.0, 3.0])
    pred = np.log(np.array([2.0, 3.0]))
    store = ad.ParamStore()
    p = store.create("p", pred)

    def loss_fn():
        return duration_loss(tgt, p)

    assert loss_fn().item() == pytest.approx(0.0)
    assert ad.finite_diff_check(loss_fn, store) < 1e-4
    with pytest.raises(ValidationError):
        duration_loss(np.array([1.0, 2.0]), np.array([0.0]))
