import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.cvae import (
    MAX_FRAMES_PER_TOKEN,
    DiagonalGaussianSeq,
    LatentConfig,
    PosteriorEncoder,
    PriorEncoder,
    ScoreCondition,
    decode_durations,
    expand_to_frames,
    kl_divergence,
    sample_reparam,
)
from latentflow.exceptions import ValidationError

CFG = LatentConfig(channels=4, hidden=12, blocks=2, frame_blocks=1, embed_dim=6, vocab_size=10, mel_bands=8)


def make_posterior(seed=0):
    store = ad.ParamStore()
    enc = PosteriorEncoder(CFG, store, np.random.default_rng(seed))
    return enc, store


def make_prior(seed=0):
    store = ad.ParamStore()
    enc = PriorEncoder(CFG, store, np.random.default_rng(seed))
    return enc, store


def test_score_condition_validation():
    with pytest.raises(ValidationError):
        ScoreCondition([1], [60, 61], [2, 2], [0, 0]).validate()
    with pytest.raises(ValidationError):
        ScoreCondition([1, 2], [60, 61], [2, 0], [0, 0]).validate()
    with pytest.raises(ValidationError):
        ScoreCondition([1, 2], [60, 61], [2, 2], [1, 0]).validate()
    ScoreCondition([1, 2], [60, 61], [2, 3], [0, 1]).validate()


def test_posterior_zero_init_head_reports_standard_normal():
    enc, _ = make_posterior()
    rng = np.random.default_rng(1)
    g = enc(rng.standard_normal((8, 9)) * 3.0)
    np.testing.assert_array_equal(g.mean.data, 0.0)
    np.testing.assert_array_equal(g.log_var.data, 0.0)


def test_posterior_preserves_frame_count():
    enc, _ = make_posterior()
    rng = np.random.default_rng(2)
    for t in (1, 7, 64):
        g = enc(rng.standard_normal((8, t)))
        assert g.shape == (4, t)


def test_posterior_rejects_bad_input():
    enc, _ = make_posterior()
    with pytest.raises(ValidationError):
        enc(np.zeros((8, 0)))
    with pytest.raises(ValidationError):
        enc(np.zeros((5, 4)))


def test_posterior_gradients_match_finite_differences():
    enc, store = make_posterior(3)
    rng = np.random.default_rng(4)
    # nonzero head so log-var branch carries gradient too
    store["post.head.w"].data[...] = rng.standard_normal(store["post.head.w"].shape) * 0.1
    mel = rng.standard_normal((8, 5))

    def loss_fn():
        g = enc(mel)
        return ad.add(ad.mean(ad.square(g.mean)), ad.mean(ad.square(g.log_var)))

    assert ad.finite_diff_check(loss_fn, store, h=1e-5, max_coords_per_param=12) < 1e-4


def test_prior_single_token_expansion():
    enc, _ = make_prior()
    sc = ScoreCondition([3], [69], [5], [0])
    out = enc(sc, durations=np.array([5]))
    assert out.frame_gaussian.shape == (4, 5)
    assert out.pred_log_f0.shape == (5,)
    assert out.pred_mel.shape == (8, 5)
    assert out.token_gaussian.shape == (4, 1)


def test_prior_zero_init_duration_head_decodes_to_one():
    enc, _ = make_prior()
    sc = ScoreCondition([0, 1, 2], [60, 62, 64], [3, 3, 3], [0, 1, 2])
    out = enc(sc)  # inference path: durations decoded from the head
    np.testing.assert_array_equal(out.log_durations.data, 0.0)
    np.testing.assert_array_equal(decode_durations(out.log_durations), [1, 1, 1])
    assert out.frame_gaussian.shape == (4, 3)


def test_decode_durations_caps_frames_per_token():
    np.testing.assert_array_equal(decode_durations(np.log([0.2, 2.0, MAX_FRAMES_PER_TOKEN])), [1, 2, MAX_FRAMES_PER_TOKEN])
    with pytest.raises(ValidationError, match="token 2"):
        decode_durations(np.array([0.0, 0.0, np.log(MAX_FRAMES_PER_TOKEN + 1.0)]))


@pytest.mark.parametrize("bad", [60.0, 800.0, np.inf, -np.inf, np.nan])
def test_decode_durations_rejects_overflowing_and_non_finite(bad):
    with pytest.raises(ValidationError, match="token 1"):
        decode_durations(np.array([0.0, bad, 0.0]))


def test_prior_rejects_unknown_token():
    enc, _ = make_prior()
    sc = ScoreCondition([99], [60], [2], [0])
    with pytest.raises(ValidationError, match="token"):
        enc(sc)


def test_prior_batch_equivariance():
    enc, _ = make_prior(5)
    a = ScoreCondition([1, 2], [60, 64], [2, 3], [0, 1])
    b = ScoreCondition([4, 5, 6], [55, 57, 59], [1, 2, 2], [0, 0, 1])
    first = [enc(x, durations=x.note_duration).frame_gaussian.mean.data for x in (a, b)]
    second = [enc(x, durations=x.note_duration).frame_gaussian.mean.data for x in (b, a)]
    np.testing.assert_array_equal(first[0], second[1])
    np.testing.assert_array_equal(first[1], second[0])


def test_prior_gradients_match_finite_differences():
    enc, store = make_prior(6)
    rng = np.random.default_rng(7)
    for name in ("prior.gauss.w", "prior.dur.w", "prior.f0.w", "prior.mel.w"):
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.1
    sc = ScoreCondition([1, 2, 3], [60, 64, 67], [2, 2, 2], [0, 1, 2])

    def loss_fn():
        out = enc(sc, durations=sc.note_duration)
        g = out.frame_gaussian
        return ad.add(
            ad.add(ad.mean(ad.square(g.mean)), ad.mean(ad.square(out.pred_mel))),
            ad.add(ad.mean(ad.square(out.log_durations)), ad.mean(ad.square(out.pred_log_f0))),
        )

    assert ad.finite_diff_check(loss_fn, store, h=1e-5, max_coords_per_param=10) < 1e-4


def test_expand_to_frames():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = expand_to_frames(x, np.array([2, 3]))
    np.testing.assert_array_equal(out, [[1, 1, 2, 2, 2], [3, 3, 4, 4, 4]])
    with pytest.raises(ValidationError):
        expand_to_frames(x, np.array([0, 5]))
    x3 = np.arange(6.0).reshape(2, 3)
    with pytest.raises(ValidationError, match=r"expand_to_frames: durations of shape \(2,\) for 3 columns"):
        expand_to_frames(x3, np.array([2, 1]))  # too few: no column may be dropped
    with pytest.raises(ValidationError, match=r"expand_to_frames: durations of shape \(4,\) for 3 columns"):
        expand_to_frames(x3, np.array([2, 1, 1, 1]))


@pytest.mark.parametrize("durations", [[1.5, 2.5], [2.0, 3.0], [np.nan, 2.0], [True, True]],
                         ids=["fractions", "whole-floats", "nan", "bool"])
def test_expand_to_frames_rejects_durations_that_are_not_integers(durations):
    """A float was cast to int64, so [1.5, 2.5] became [1, 2] frames."""
    with pytest.raises(ValidationError, match="expand_to_frames: durations must be integers"):
        expand_to_frames(np.array([[1.0, 2.0], [3.0, 4.0]]), np.asarray(durations))


def test_sample_reparam_monte_carlo_moments():
    g = DiagonalGaussianSeq(np.zeros((1, 100_000)), np.zeros((1, 100_000)))
    z = sample_reparam(g, np.random.default_rng(1))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.05


def test_sample_reparam_seed_determinism():
    g = DiagonalGaussianSeq(np.ones((3, 4)), np.full((3, 4), -1.0))
    a = sample_reparam(g, np.random.default_rng(7))
    b = sample_reparam(g, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_sample_reparam_gradients():
    store = ad.ParamStore()
    mean = store.create("mean", np.array([[0.5, -0.5]]))
    log_var = store.create("log_var", np.array([[0.2, -0.3]]))

    def loss_fn():
        g = DiagonalGaussianSeq(mean, log_var)
        z = sample_reparam(g, np.random.default_rng(3))
        return ad.total(z)

    with ad.Tape() as tape:
        loss = loss_fn()
    grads = ad.backward(loss, store, tape)
    # d z / d mean = 1 per coordinate
    np.testing.assert_allclose(grads["mean"], np.ones((1, 2)))
    assert ad.finite_diff_check(loss_fn, store, h=1e-6) < 1e-4


def test_kl_closed_form_values():
    std = DiagonalGaussianSeq(np.zeros((1, 1)), np.zeros((1, 1)))
    assert kl_divergence(std, std) == 0.0
    q = DiagonalGaussianSeq(np.array([[1.0]]), np.zeros((1, 1)))
    assert kl_divergence(q, std) == pytest.approx(0.5, abs=1e-12)
    q2 = DiagonalGaussianSeq(np.zeros((1, 1)), np.array([[np.log(4.0)]]))
    expected = np.log(0.5) + 2.0 - 0.5
    assert kl_divergence(q2, std) == pytest.approx(expected, abs=1e-9)
    assert kl_divergence(q2, std) == pytest.approx(0.80685, abs=1e-5)


def test_kl_nonnegative_and_zero_only_at_equality():
    rng = np.random.default_rng(8)
    for _ in range(200):
        q = DiagonalGaussianSeq(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        p = DiagonalGaussianSeq(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        assert kl_divergence(q, p) >= 0.0
        assert abs(kl_divergence(q, q)) < 1e-12


def test_kl_shape_mismatch():
    q = DiagonalGaussianSeq(np.zeros((2, 3)), np.zeros((2, 3)))
    p = DiagonalGaussianSeq(np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        kl_divergence(q, p)


def test_kl_tensor_mode_matches_numpy_and_differentiates():
    rng = np.random.default_rng(9)
    qm, ql, pm, pl = (rng.standard_normal((2, 5)) for _ in range(4))
    plain = kl_divergence(DiagonalGaussianSeq(qm, ql), DiagonalGaussianSeq(pm, pl))
    store = ad.ParamStore()
    tqm = store.create("qm", qm)
    tql = store.create("ql", ql)

    def loss_fn():
        return kl_divergence(DiagonalGaussianSeq(tqm, tql), DiagonalGaussianSeq(pm, pl))

    assert loss_fn().item() == pytest.approx(plain, rel=1e-12)
    assert ad.finite_diff_check(loss_fn, store, h=1e-5) < 1e-4
