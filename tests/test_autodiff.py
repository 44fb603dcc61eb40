import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.autodiff import ops
from latentflow.exceptions import NumericalError


def scalar(x):
    return ad.Tensor(np.asarray(x, dtype=np.float64))


def test_multiply_product_rule():
    store = ad.ParamStore()
    x = store.create("x", 3.0)
    y = store.create("y", 4.0)
    with ad.Tape() as tape:
        out = ad.mul(x, y)
    assert out.item() == 12.0
    grads = ad.backward(out, store, tape)
    assert grads["x"] == 4.0 and grads["y"] == 3.0


def test_conv1d_identity_kernel():
    x = ad.Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = ad.Tensor(np.ones((1, 1, 1)))
    out = ad.conv1d(x, w, dilation=1)
    np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])


def test_leaky_relu_value_and_gradient():
    store = ad.ParamStore()
    x = store.create("x", -1.0)
    with ad.Tape() as tape:
        out = ad.leaky_relu(x)
    assert out.item() == pytest.approx(-0.1)
    grads = ad.backward(out, store, tape)
    assert grads["x"] == pytest.approx(0.1)


def test_backward_sum_of_squares():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(w, w))
    grads = ad.backward(loss, store, tape)
    np.testing.assert_allclose(grads["w"], [2.0, 4.0])


def test_backward_unreachable_param_gets_zeros():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    v = store.create("v", [5.0, 5.0])
    with ad.Tape() as tape:
        loss = ad.total(ad.square(w))
    grads = ad.backward(loss, store, tape)
    np.testing.assert_array_equal(grads["v"], [0.0, 0.0])
    assert grads["v"].shape == v.data.shape


def test_backward_requires_scalar_loss():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    with ad.Tape() as tape:
        loss = ad.square(w)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(loss, store, tape)


def test_two_layer_net_37_params_matches_finite_differences():
    rng = np.random.default_rng(7)
    store = ad.ParamStore()
    w1 = store.create("w1", rng.standard_normal((5, 4)) * 0.5)
    b1 = store.create("b1", rng.standard_normal(5) * 0.1)
    w2 = store.create("w2", rng.standard_normal((2, 5)) * 0.5)
    b2 = store.create("b2", rng.standard_normal(2) * 0.1)
    assert sum(store[n].size for n in store.names()) == 37
    x = rng.standard_normal((4, 3))

    def dense(w, b, h):  # w @ h plus b[i] on every column of row i
        out = ad.reshape(ad.matmul(w, h), (1, -1, 3))
        return ad.reshape(ad.add_frame_bias(out, ad.reshape(b, (1, -1, 1))), (-1, 3))

    def loss_fn():
        h = ad.tanh(dense(w1, b1, ad.Tensor(x)))
        return ad.mean(ad.square(dense(w2, b2, h)))

    assert ad.finite_diff_check(loss_fn, store, h=1e-5) < 1e-4


OP_CASES = [
    ("add", lambda x, y: ad.add(x, y)),
    ("sub", lambda x, y: ad.sub(x, y)),
    ("mul", lambda x, y: ad.mul(x, y)),
    ("leaky_relu", lambda x, y: ad.leaky_relu(ad.mul(x, y))),
    ("tanh", lambda x, y: ad.tanh(ad.mul(x, y))),
    ("exp", lambda x, y: ad.exp(ad.mul(ad.mul(x, y), 0.3))),
    ("square", lambda x, y: ad.square(ad.sub(x, y))),
    ("abs", lambda x, y: ad.absolute(ad.sub(x, y))),
    ("clamp", lambda x, y: ad.clamp(ad.mul(x, y), -0.5, 0.5)),
    ("concat", lambda x, y: ad.concat([x, y], axis=0)),
    ("narrow", lambda x, y: ad.narrow(ad.mul(x, y), 1, 1, 2)),
    ("pad_last", lambda x, y: ad.pad_last(ad.mul(x, y), 2, 1)),
    ("reshape", lambda x, y: ad.reshape(ad.mul(x, y), (4, 3))),
    ("transpose", lambda x, y: ad.transpose(ad.mul(x, y), (1, 0))),
    ("frame_signal", lambda x, y: ad.frame_signal(ad.reshape(ad.mul(x, y), (12,)), 5, 2)),
    ("conv_transpose1d", lambda x, y: ad.conv_transpose1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (3, 1, 4)), stride=2)),
    ("conv1d_strided_padded", lambda x, y: ad.conv1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (2, 3, 2)), stride=2, padding=1)),
    ("conv1d_dilated", lambda x, y: ad.conv1d(ad.reshape(x, (1, 2, 6)), ad.reshape(y, (2, 2, 3)), dilation=2)),
    ("conv1d_depthwise", lambda x, y: ad.conv1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (3, 1, 4)), dilation=2, groups=3)),
    ("rfft_magnitude", lambda x, y: ad.rfft_magnitude(ad.mul(x, y), 8)),
    ("rfft_magnitude_odd_n", lambda x, y: ad.rfft_magnitude(ad.mul(x, y), 7)),
]


# y is a parameter in the store, an ndarray constant, or a Tensor outside the
# store; in the last two the check runs over x alone, through every op's
# skipped-edge path. The parameter mode keeps the ids its cases always had.
@pytest.mark.parametrize(
    "name,builder,y_kind",
    [
        pytest.param(name, builder, kind, id=f"{name}-<lambda>" if kind == "param" else f"{name}-{kind}")
        for name, builder in OP_CASES
        for kind in ("param", "const", "tensor")
    ],
)
def test_op_gradients_match_finite_differences(name, builder, y_kind):
    rng = np.random.default_rng(sum(name.encode()))
    store = ad.ParamStore()
    x = store.create("x", rng.standard_normal((3, 4)) + 0.1)
    y = rng.standard_normal((3, 4)) + 2.0
    if y_kind == "param":
        y = store.create("y", y)
    elif y_kind == "tensor":
        y = ad.Tensor(y)

    def loss_fn():
        return ad.mean(ad.square(builder(x, y)))

    assert ad.finite_diff_check(loss_fn, store, h=1e-5) < 1e-4


def test_grad_runs_no_vjp_for_operands_outside_wrt(monkeypatch):
    """A gradient with respect to x alone forms no gradient for the conv
    weights x feeds, and equals x's entry of a full-store sweep."""
    rng = np.random.default_rng(19)
    store = ad.ParamStore()
    x = store.create("x", rng.standard_normal((1, 3, 9)))
    w = store.create("w", rng.standard_normal((4, 3, 3)))
    b = store.create("b", rng.standard_normal(4))
    wt = store.create("wt", rng.standard_normal((4, 2, 4)))
    with ad.Tape() as tape:
        h = ad.leaky_relu(ad.conv1d(ad.tanh(x), w, b, dilation=2))
        loss = ad.mean(ad.square(ad.conv_transpose1d(h, wt, stride=2)))
    calls = []
    dense_w = ops._dense_w
    monkeypatch.setattr(ops, "_dense_w", lambda g, cols: calls.append(cols.shape) or dense_w(g, cols))
    (gx,) = ad.grad(loss, [x], tape)
    assert calls == []
    full = ad.backward(loss, store, tape)
    assert len(calls) == 2  # the counter sees both weight gradients of a full sweep
    assert np.array_equal(gx, full["x"])


def test_leaky_relu_vjp_is_bit_identical_to_the_select_form():
    rng = np.random.default_rng(23)
    xv = rng.standard_normal((1, 32, 509))
    xv[0, 0, :4] = [0.0, -0.0, 5e-324, -5e-324]
    g = rng.standard_normal(xv.shape) * 10.0 ** rng.integers(-150, 150, size=xv.shape)
    x = ad.Tensor(xv)
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(ad.leaky_relu(x), g))
    (gx,) = ad.grad(loss, [x], tape)
    assert np.array_equal(gx, np.where(xv > 0, g, 0.1 * g))


@pytest.mark.parametrize("cin,cout,k,stride", [(3, 2, 4, 2), (16, 8, 8, 4), (2, 5, 3, 1), (1, 1, 5, 3)])
def test_conv_transpose1d_is_the_adjoint_of_strided_conv1d(cin, cout, k, stride):
    rng = np.random.default_rng(cin * 100 + k)
    x = rng.standard_normal((2, cin, 7))
    w = rng.standard_normal((cin, cout, k))
    y = rng.standard_normal((2, cout, 7 * stride))
    lhs = np.vdot(ad.conv_transpose1d(x, w, stride=stride), y)
    rhs = np.vdot(x, ad.conv1d(y, w, stride=stride, padding=(k - stride) // 2))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _conv1d_direct(x, w, bias, stride, dilation, pad, depthwise):
    """conv1d as the defining sum over taps and input channels, one output
    sample at a time; a depthwise weight [C, 1, K] reads only its own channel."""
    B, _, T = x.shape
    Co, Cig, K = w.shape
    t_out = (T + 2 * pad - (K - 1) * dilation - 1) // stride + 1
    out = np.zeros((B, Co, t_out))
    for b in range(B):
        for o in range(Co):
            for t in range(t_out):
                acc = bias[o]
                for i in range(Cig):
                    for j in range(K):
                        s = t * stride + j * dilation - pad
                        if 0 <= s < T:
                            acc += w[o, i, j] * x[b, o if depthwise else i, s]
                out[b, o, t] = acc
    return out


@pytest.mark.parametrize("depthwise", [False, True])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [None, 2])
def test_conv1d_matches_direct_sum(depthwise, kernel, dilation, stride, padding):
    rng = np.random.default_rng([kernel, dilation, stride])
    cin, cout = (3, 3) if depthwise else (3, 4)
    x = rng.standard_normal((2, cin, 11))
    w = rng.standard_normal((cout, 1 if depthwise else cin, kernel))
    bias = rng.standard_normal(cout)
    out = ad.conv1d(x, w, bias, stride=stride, dilation=dilation, groups=cin if depthwise else 1, padding=padding)
    pad = (kernel - 1) * dilation // 2 if padding is None else padding
    expected = _conv1d_direct(x, w, bias, stride, dilation, pad, depthwise)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def _conv1d_adjoint_case(depthwise, kernel, dilation, stride, padding):
    """A conv1d of the direct-sum grid with B=2, and the index triples
    (weight, input, output) of its defining sum."""
    rng = np.random.default_rng([kernel, dilation, stride, 1])
    cin, cout = (3, 3) if depthwise else (3, 4)
    B, T = 2, 11
    x = rng.standard_normal((B, cin, T))
    w = rng.standard_normal((cout, 1 if depthwise else cin, kernel))
    pad = (kernel - 1) * dilation // 2 if padding is None else padding
    t_out = (T + 2 * pad - (kernel - 1) * dilation - 1) // stride + 1
    taps = [
        ((o, i, j), (b, o if depthwise else i, t * stride + j * dilation - pad), (b, o, t))
        for b in range(B) for o in range(cout) for i in range(w.shape[1]) for j in range(kernel) for t in range(t_out)
        if 0 <= t * stride + j * dilation - pad < T
    ]

    def conv(a, b):
        return ad.conv1d(a, b, stride=stride, dilation=dilation, groups=cin if depthwise else 1, padding=padding)

    return conv, x, w, rng.standard_normal((B, cout, t_out)), taps


def _conv_transpose1d_adjoint_case(cin, cout, k, stride):
    """A conv_transpose1d of the adjoint test's shapes, and the index triples
    (weight, input, output) of its defining sum."""
    rng = np.random.default_rng(cin * 100 + k + 1)
    B, T = 2, 7
    x = rng.standard_normal((B, cin, T))
    w = rng.standard_normal((cin, cout, k))
    pad = (k - stride) // 2
    taps = [
        ((i, c, j), (b, i, t), (b, c, t * stride + j - pad))
        for b in range(B) for i in range(cin) for c in range(cout) for j in range(k) for t in range(T)
        if 0 <= t * stride + j - pad < T * stride
    ]

    def conv(a, b):
        return ad.conv_transpose1d(a, b, stride=stride)

    return conv, x, w, rng.standard_normal((B, cout, T * stride)), taps


CONV_ADJOINT_CASES = [
    pytest.param(_conv1d_adjoint_case, (dw, k, d, s, p), id=f"conv1d-{'depthwise' if dw else 'dense'}-k{k}-d{d}-s{s}-p{p}")
    for dw in (False, True) for k in (1, 3) for d in (1, 3) for s in (1, 2) for p in (None, 2)
] + [
    pytest.param(_conv_transpose1d_adjoint_case, shape, id="conv_transpose1d-{}-{}-{}-{}".format(*shape))
    for shape in [(3, 2, 4, 2), (16, 8, 8, 4), (2, 5, 3, 1), (1, 1, 5, 3)]
]


@pytest.mark.parametrize("make_case,args", CONV_ADJOINT_CASES)
def test_conv_vjps_match_direct_adjoint(make_case, args):
    """grad of <conv(x, w), y> in x and in w equals the direct sums of y
    against the other operand over the conv's defining index triples."""
    conv, x, w, y, taps = make_case(*args)
    xt, wt = ad.Tensor(x), ad.Tensor(w)
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(conv(xt, wt), y))
    gx, gw = ad.grad(loss, [xt, wt], tape)
    ex, ew = np.zeros_like(x), np.zeros_like(w)
    for wi, xi, yi in taps:
        ex[xi] += w[wi] * y[yi]
        ew[wi] += x[xi] * y[yi]
    np.testing.assert_allclose(gx, ex, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw, ew, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kernel,stride,padding", [(3, 1, None), (4, 2, 1), (1, 1, None)])
def test_dense_conv1d_copies_its_windows_once(monkeypatch, kernel, stride, padding):
    """The weight vjp contracts the very contiguous window buffer the forward
    built, the window adjoint is contiguous, and a pointwise conv copies nothing."""
    rng = np.random.default_rng(kernel)
    x = ad.Tensor(rng.standard_normal((2, 3, 10)))
    w = ad.Tensor(rng.standard_normal((4, 3, kernel)))
    seen = {}
    dense, dense_t, dense_w = ops._dense, ops._dense_t, ops._dense_w
    monkeypatch.setattr(ops, "_dense", lambda cols, wv: seen.update(dense=cols) or dense(cols, wv))
    monkeypatch.setattr(ops, "_dense_w", lambda g, cols: seen.update(dense_w=cols) or dense_w(g, cols))
    monkeypatch.setattr(ops, "_dense_t", lambda g, wv: seen.setdefault("dense_t", dense_t(g, wv)))
    with ad.Tape() as tape:
        loss = ad.total(ad.square(ad.conv1d(x, w, stride=stride, padding=padding)))
    ad.grad(loss, [x, w], tape)
    assert seen["dense_w"] is seen["dense"]
    assert seen["dense"].flags.c_contiguous
    assert seen["dense_t"].flags.c_contiguous
    assert np.shares_memory(seen["dense"], x.data) == (kernel == 1)


@pytest.mark.parametrize("cin,cout,groups", [(4, 4, 2), (3, 6, 3)])
def test_conv1d_rejects_groups_other_than_one_or_depthwise(cin, cout, groups):
    x = np.zeros((1, cin, 6))
    w = np.zeros((cout, cin // groups, 3))
    with pytest.raises(ValueError, match="conv1d"):
        ad.conv1d(x, w, groups=groups)


def test_log_sqrt_gradients():
    store = ad.ParamStore()
    rng = np.random.default_rng(3)
    x = store.create("x", rng.random((3, 3)) + 0.5)

    def loss_fn():
        return ad.mean(ad.add(ad.log(x), ad.sqrt(x)))

    assert ad.finite_diff_check(loss_fn, store, h=1e-6) < 1e-4


def test_take_rows_and_bias_gradients():
    rng = np.random.default_rng(11)
    store = ad.ParamStore()
    table = store.create("table", rng.standard_normal((6, 3)))
    bias = store.create("bias", rng.standard_normal(3))
    ids = np.array([0, 2, 2, 5])

    def loss_fn():
        em = ad.take_rows(table, ids)  # [4, 3]
        em = ad.reshape(ad.transpose(em, (1, 0)), (1, 3, 4))
        return ad.mean(ad.square(ad.add_frame_bias(em, ad.reshape(bias, (1, 3, 1)))))

    assert ad.finite_diff_check(loss_fn, store) < 1e-4


def test_add_frame_bias_gradient():
    rng = np.random.default_rng(13)
    store = ad.ParamStore()
    x = store.create("x", rng.standard_normal((2, 3, 5)))
    b = store.create("b", rng.standard_normal((2, 3, 1)))

    def loss_fn():
        return ad.mean(ad.square(ad.add_frame_bias(x, b)))

    assert ad.finite_diff_check(loss_fn, store) < 1e-4


def test_shape_mismatch_error_names_op():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="add"):
        ad.add(a, b)
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(a, ad.Tensor(np.zeros((2, 2))))
    with pytest.raises(ValueError, match="conv1d"):
        ad.conv1d(ad.Tensor(np.zeros((1, 2, 5))), ad.Tensor(np.zeros((4, 3, 3))))


def test_replay_is_bit_identical():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 9))
    w = ad.Tensor(rng.standard_normal((4, 4, 3)))

    def forward():
        h = ad.conv1d(ad.Tensor(x), w, dilation=2)
        return ad.tanh(h).data

    first = forward()
    second = forward()
    assert np.array_equal(first, second)


def test_dropout_inference_is_identity_and_train_scales():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal((50, 50)))
    out = ad.dropout(x, 0.3, training=False)
    assert out is x
    kept = ad.dropout(x, 0.3, rng=np.random.default_rng(1), training=True)
    mask = kept.data != 0
    np.testing.assert_allclose(kept.data[mask], x.data[mask] / 0.7)
    assert 0.6 < mask.mean() < 0.8


def test_dropout_gradient_and_seed_determinism():
    store = ad.ParamStore()
    rng = np.random.default_rng(2)
    x = store.create("x", rng.standard_normal((6, 6)))

    def loss_fn():
        return ad.mean(ad.square(ad.dropout(x, 0.4, rng=np.random.default_rng(42), training=True)))

    assert ad.finite_diff_check(loss_fn, store) < 1e-4


def test_finite_diff_check_rejects_nondeterministic_loss():
    store = ad.ParamStore()
    # distinct powers of two: the (exact) loss identifies the kept set, so any
    # two different masks give different losses
    x = store.create("x", (2.0 ** np.arange(16)).reshape(4, 4))
    shared = np.random.default_rng(0)  # one generator, a fresh mask per call

    def loss_fn():
        return ad.mean(ad.dropout(x, 0.5, rng=shared, training=True))

    with pytest.raises(ValueError, match="deterministic"):
        ad.finite_diff_check(loss_fn, store)


def test_finite_diff_check_quadratic_is_exact():
    store = ad.ParamStore()
    w = store.create("w", np.array([0.5, -1.5, 2.0]))

    def loss_fn():
        return ad.total(ad.square(w))

    assert ad.finite_diff_check(loss_fn, store, h=1e-5) < 1e-9


def test_adam_zero_gradient_leaves_params_unchanged():
    store = ad.ParamStore()
    w = store.create("w", [1.0, -2.0])
    before = w.data.copy()
    ad.adam_step(store, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(w.data, before)
    assert store.step_count == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected Adam with g=1 moves by lr * g / (|g| + eps) on step 1
    store = ad.ParamStore()
    w = store.create("w", [0.0])
    ad.adam_step(store, {"w": np.array([1.0])}, lr=0.1)
    assert abs(abs(w.data[0]) - 0.1) < 1e-6
    assert w.data[0] < 0  # descends against the gradient


def test_adam_missing_gradient_raises():
    store = ad.ParamStore()
    store.create("w", [1.0])
    with pytest.raises(ValueError, match="missing gradient"):
        ad.adam_step(store, {})


def test_adam_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        store = ad.ParamStore()
        w = store.create("w", rng.standard_normal((3, 3)))
        for _ in range(5):
            with ad.Tape() as tape:
                loss = ad.mean(ad.square(ad.tanh(w)))
            ad.adam_step(store, ad.backward(loss, store, tape), lr=1e-2)
        return w.data.copy()

    assert np.array_equal(run(), run())


def test_debug_mode_flags_non_finite():
    ad.set_debug_checks(True)
    try:
        with pytest.raises(NumericalError, match="log"):
            ad.log(ad.Tensor(np.array([-1.0])))
    finally:
        ad.set_debug_checks(False)


def test_param_names_unique():
    store = ad.ParamStore()
    store.create("w", [1.0])
    with pytest.raises(ValueError, match="already exists"):
        store.create("w", [2.0])


def test_state_dict_roundtrip_keeps_references_valid():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    snap = store.state_dict()
    w.data[...] = 0.0
    store.load_state_dict(snap)
    np.testing.assert_array_equal(w.data, [1.0, 2.0])
