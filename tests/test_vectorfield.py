import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.exceptions import ValidationError
from latentflow.odesolver import solve
from latentflow.vectorfield import VectorFieldConfig, VelocityField, time_embedding_batch, time_frequencies


def make_field(seed=0, **kw):
    cfg = VectorFieldConfig(**{"latent_channels": 4, "hidden": 12, "cond_channels": 0, "dropout_p": 0.1, **kw})
    store = ad.ParamStore()
    field = VelocityField(cfg, store, np.random.default_rng(seed))
    return field, store, cfg


def test_time_embedding_at_zero():
    emb = time_embedding_batch(0.0, 8)[0]
    np.testing.assert_array_equal(emb[:4], 0.0)
    np.testing.assert_array_equal(emb[4:], 1.0)


def test_time_embedding_bounded():
    emb = time_embedding_batch(0.5, 4)[0]
    assert emb.shape == (4,)
    assert np.all(np.isfinite(emb)) and np.all(np.abs(emb) <= 1.0)


def test_time_embedding_separates_distinct_times():
    dim = 16
    grid = np.linspace(0.0, 1.0, 201)
    embs = time_embedding_batch(grid, dim)
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            if grid[j] - grid[i] >= 1e-3:
                assert np.max(np.abs(embs[i] - embs[j])) > 1e-6
                break  # nearest qualifying pair is the hardest


def test_time_embedding_rejects_out_of_range():
    with pytest.raises(ValidationError):
        time_embedding_batch(1.5, 8)
    with pytest.raises(ValidationError):
        time_embedding_batch(8, 7)


def test_zero_init_head_gives_zero_velocity():
    field, _, _ = make_field()
    rng = np.random.default_rng(1)
    for T in (1, 7, 64):
        z = rng.standard_normal((4, T))
        v = field(z, 0.3)
        assert v.shape == (4, T)
        np.testing.assert_array_equal(v.data, 0.0)


def test_output_shape_matches_input_shape():
    field, store, _ = make_field()
    rng = np.random.default_rng(2)
    for name in store.names():  # randomize so the output is nonzero
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.2
    for T in (1, 7, 64):
        z = rng.standard_normal((4, T))
        assert field(z, 0.9).shape == (4, T)
        zb = rng.standard_normal((3, 4, T))
        assert field(zb, np.full(3, 0.9)).shape == (3, 4, T)


def test_deterministic_in_inference_mode():
    field, store, _ = make_field()
    rng = np.random.default_rng(3)
    for name in store.names():
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.2
    z = rng.standard_normal((4, 16))
    a = field(z, 0.5, train=False).data
    b = field(z, 0.5, train=False).data
    assert np.array_equal(a, b)


def test_receptive_field_bounded_by_dilation_sum():
    field, store, _ = make_field()
    rng = np.random.default_rng(4)
    for name in store.names():
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.3
    T = 128
    j = 64
    z = rng.standard_normal((4, T))
    base = field(z, 0.5).data
    z2 = z.copy()
    z2[:, j] += 1.0
    diff = np.abs(field(z2, 0.5).data - base).max(axis=0)
    changed = np.nonzero(diff > 0)[0]
    radius = 2 * (3 + 5 + 7 + 9)
    assert changed.size > 0
    assert changed.min() >= j - radius and changed.max() <= j + radius
    # actual spread is one dilation per block per side
    assert changed.min() >= j - 24 and changed.max() <= j + 24


def test_parameter_gradients_match_finite_differences():
    field, store, _ = make_field(hidden=8, time_embed_dim=4)
    rng = np.random.default_rng(5)
    for name in store.names():
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.3
    z = rng.standard_normal((4, 8))

    def loss_fn():
        return ad.mean(ad.square(field(z, 0.7, train=False)))

    assert ad.finite_diff_check(loss_fn, store, h=1e-5) < 1e-4


def test_zero_init_flow_is_identity():
    field, _, _ = make_field()
    z0 = np.random.default_rng(6).standard_normal((4, 5))
    z1, _ = solve(lambda z, t: field(z[None], t).data[0], z0)
    np.testing.assert_array_equal(z0, z1)


def test_conditioning_shape_checked():
    field, _, _ = make_field(cond_channels=2)
    z = np.zeros((4, 6))
    with pytest.raises(ValidationError, match="conditioning"):
        field(z, 0.5)
    with pytest.raises(ValidationError, match="conditioning"):
        field(z, 0.5, cond=np.zeros((2, 5)))
    out = field(z, 0.5, cond=np.zeros((2, 6)))
    assert out.shape == (4, 6)
    unconditioned, _, _ = make_field()  # conditioning it would drop is an error
    with pytest.raises(ValidationError, match="conditioning"):
        unconditioned(z, 0.5, cond=np.ones((3, 6)))



def test_forward_under_no_grad_is_bit_identical_to_the_taped_forward():
    """Recording changes no arithmetic: the same forward, with a scalar t
    shared by the batch and with one t per element, gives the same bits
    under no_grad as inside a Tape, where it records every op."""
    field, store, _ = make_field(cond_channels=2)
    rng = np.random.default_rng(4)
    for name in store.names():
        store[name].data[...] = rng.standard_normal(store[name].shape) * 0.2
    z, cond = rng.standard_normal((3, 4, 20)), rng.standard_normal((3, 2, 20))
    for t in (0.7, np.array([0.0, 0.4, 1.0])):
        with ad.no_grad():
            plain = field(z, t, cond=cond)
        with ad.Tape() as tape:
            taped = field(ad.Tensor(z), t, cond=cond)
        assert len(tape) > 0 and np.array_equal(plain.data, taped.data)


def test_time_frequencies_are_the_harmonics_of_the_top_over_their_count():
    assert np.array_equal(time_frequencies(16), 1.5 * np.arange(1, 9))
    assert np.array_equal(time_frequencies(2), [12.0])


def test_time_embedding_equals_the_concatenated_sin_cos():
    """Writing both halves into one array gives the bits of concatenating
    sin(t w) and cos(t w), for a scalar and for a vector of times."""
    w = time_frequencies(16)
    for ts in (0.37, np.linspace(0.0, 1.0, 33)):
        arg = np.atleast_1d(ts)[:, None] * w[None, :]
        assert np.array_equal(time_embedding_batch(ts, 16), np.concatenate([np.sin(arg), np.cos(arg)], axis=1))


@pytest.mark.parametrize("ts", [np.nan, np.array([0.5, np.nan]), np.array([np.nan, 2.0]), np.array([0.5, np.nan, 2.0])])
def test_time_embedding_rejects_nan_wherever_it_sits(ts):
    with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
        time_embedding_batch(ts, 8)
