import re
import tracemalloc

import numpy as np
import pytest

from latentflow import autodiff as ad
from latentflow.autodiff import ops
from latentflow.autodiff.store import _BETA1, _BETA2, _EPS
from latentflow.exceptions import NumericalError, ValidationError


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
    assert sum(store[n].data.size for n in store.names()) == 37
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
    ("conv_transpose1d", lambda x, y: ad.conv_transpose1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (3, 1, 4)), stride=2)),
    ("conv1d_strided_padded", lambda x, y: ad.conv1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (2, 3, 2)), stride=2, padding=1)),
    ("conv1d_dilated", lambda x, y: ad.conv1d(ad.reshape(x, (1, 2, 6)), ad.reshape(y, (2, 2, 3)), dilation=2)),
    ("conv1d_depthwise", lambda x, y: ad.conv1d(ad.reshape(x, (1, 3, 4)), ad.reshape(y, (3, 1, 4)), dilation=2, groups=3)),
    ("magnitude", lambda x, y: ad.magnitude(ad.reshape(ad.mul(x, y), (2, 2, 3)))),
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


def test_grad_leaves_the_tape_intact_for_a_second_sweep():
    rng = np.random.default_rng(23)
    store = ad.ParamStore()
    w = store.create("w", rng.standard_normal((3, 4)))
    x = store.create("x", rng.standard_normal((4, 5)))
    with ad.Tape() as tape:
        h = ad.tanh(ad.matmul(w, x))
        loss = ad.mean(ad.square(ad.mul(h, h)))
    nodes = list(tape.nodes)
    first = ad.grad(loss, [w, x], tape)
    second = ad.grad(loss, [w, x], tape)
    assert tape.nodes == nodes
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_grad_keeps_the_gradient_of_an_intermediate_in_wrt():
    """An intermediate in ``wrt`` still gets its gradient although the sweep
    drops the other intermediates' gradients once used."""
    store = ad.ParamStore()
    w = store.create("w", [0.5, -1.0, 2.0])
    with ad.Tape() as tape:
        h = ad.mul(w, 3.0)
        u = ad.tanh(h)
        loss = ad.total(ad.square(u))
    gw, gh, gu = ad.grad(loss, [w, h, u], tape)
    u_ref = np.tanh(3.0 * w.data)
    np.testing.assert_array_equal(gu, 2.0 * u_ref)
    np.testing.assert_array_equal(gh, gu * (1.0 - u_ref * u_ref))
    np.testing.assert_array_equal(gw, gh * 3.0)


def test_grad_holds_only_live_gradients():
    """Over a chain of 50 tanh ops on 1e5 elements, the memory that grad
    allocates peaks at a few input sizes, not at one per op of the chain."""
    x = ad.Tensor(np.random.default_rng(29).standard_normal(100_000) * 0.1)
    with ad.Tape() as tape:
        h = x
        for _ in range(50):
            h = ad.tanh(h)
        loss = ad.total(h)
    tracemalloc.start()
    try:
        (gx,) = ad.grad(loss, [x], tape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape
    assert peak < 6 * x.data.nbytes


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


@pytest.mark.parametrize("cin,cout,k,stride", [(3, 2, 4, 2), (16, 8, 8, 4), (2, 5, 3, 1), (1, 1, 5, 3)])
def test_conv_transpose1d_is_bit_identical_to_the_input_gradient_of_conv1d(cin, cout, k, stride):
    rng = np.random.default_rng(cin * 100 + k)
    x = rng.standard_normal((2, cin, 7))
    w = rng.standard_normal((cin, cout, k))
    y = ad.Tensor(rng.standard_normal((2, cout, 7 * stride)))
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(ad.conv1d(y, w, stride=stride, padding=(k - stride) // 2), x))
    (gy,) = ad.grad(loss, [y], tape)
    assert np.array_equal(ad.conv_transpose1d(x, w, stride=stride), gy)


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


def _conv1d_adjoint_case(depthwise, kernel, dilation, stride, padding, B=2, T=11):
    """A conv1d of the direct-sum grid with B=2 and T=11 unless given, and
    the index triples (weight, input, output) of its defining sum."""
    rng = np.random.default_rng([kernel, dilation, stride, 1])
    cin, cout = (3, 3) if depthwise else (3, 4)
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
    pytest.param(_conv1d_adjoint_case, (dw, k, d, s, p, B, T),
                 id=f"conv1d-{'depthwise' if dw else 'dense'}-k{k}-d{d}-s{s}-p{p}-B{B}-T{T}")
    for dw in (False, True) for k, d, s, p, B, T in [
        (5, 2, 1, None, 2, 11), (5, 2, 1, 2, 2, 11), (5, 2, 2, None, 2, 11), (5, 2, 2, 2, 2, 11),
        (3, 9, 1, None, 128, 1),  # the CFM fixture's shape: many batch items of one frame
        (5, 2, 1, None, 2, 3), (5, 2, 1, 3, 2, 3),  # fewer frames than the kernel's span of 8
    ]
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
    built, every window buffer and window adjoint is contiguous, and a
    pointwise conv copies nothing. At stride 1 the input vjp is the forward's
    lowering run on g, so it windows g once and forms no window adjoint."""
    rng = np.random.default_rng(kernel)
    x = ad.Tensor(rng.standard_normal((2, 3, 10)))
    w = ad.Tensor(rng.standard_normal((4, 3, kernel)))
    seen = {"dense": [], "windows": []}
    dense, dense_t, dense_w, windows = ops._dense, ops._dense_t, ops._dense_w, ops._windows
    monkeypatch.setattr(ops, "_dense", lambda cols, wv: seen["dense"].append(cols) or dense(cols, wv))
    monkeypatch.setattr(ops, "_dense_w", lambda g, cols: seen.update(dense_w=cols) or dense_w(g, cols))
    monkeypatch.setattr(ops, "_dense_t", lambda g, wv: seen.setdefault("dense_t", dense_t(g, wv)))

    def record_windows(xp, *args):
        seen["windows"].append((xp, windows(xp, *args)))
        return seen["windows"][-1][1]

    monkeypatch.setattr(ops, "_windows", record_windows)
    with ad.Tape() as tape:
        loss = ad.total(ad.square(ad.conv1d(x, w, stride=stride, padding=padding)))
    ad.grad(loss, [x, w], tape)
    forward, *backward = seen["dense"]
    assert seen["dense_w"] is forward
    assert all(cols.flags.c_contiguous for cols in seen["dense"])
    assert np.shares_memory(forward, x.data) == (kernel == 1)
    assert all(np.shares_memory(cols, xp) == (kernel == 1) for xp, cols in seen["windows"])
    if stride == 1:
        assert len(backward) == 1 and len(seen["windows"]) == 2 and "dense_t" not in seen
    else:
        assert backward == [] and len(seen["windows"]) == 1 and seen["dense_t"].flags.c_contiguous


def test_conv_transpose1d_windows_g_once_for_both_gradients(monkeypatch):
    """A sweep over both x and w pads and windows the output gradient once,
    and gives the gradients of two sweeps taken one at a time."""
    rng = np.random.default_rng(29)
    x = ad.Tensor(rng.standard_normal((2, 3, 7)))
    w = ad.Tensor(rng.standard_normal((3, 2, 4)))
    y = rng.standard_normal((2, 2, 14))
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(ad.conv_transpose1d(x, w, stride=2), y))
    calls = []
    windows = ops._windows
    monkeypatch.setattr(ops, "_windows", lambda *a: calls.append(a[0].shape) or windows(*a))
    gx, gw = ad.grad(loss, [x, w], tape)
    assert calls == [(2, 2, 16)]
    (gx_alone,), (gw_alone,) = ad.grad(loss, [x], tape), ad.grad(loss, [w], tape)
    assert np.array_equal(gx, gx_alone) and np.array_equal(gw, gw_alone)


@pytest.mark.parametrize("cin,cout,groups", [(4, 4, 2), (3, 6, 3)])
def test_conv1d_rejects_groups_other_than_one_or_depthwise(cin, cout, groups):
    x = np.zeros((1, cin, 6))
    w = np.zeros((cout, cin // groups, 3))
    with pytest.raises(ValueError, match="conv1d"):
        ad.conv1d(x, w, groups=groups)


_X, _W, _WT = np.zeros((1, 2, 10)), np.zeros((3, 2, 3)), np.zeros((2, 3, 4))
ARGUMENT_CASES = [
    pytest.param("conv1d", "kernel", lambda: ad.conv1d(_X, _W[:, :, :0], padding=0), id="conv1d-kernel=0"),
    pytest.param("conv1d", "stride", lambda: ad.conv1d(_X, _W, stride=0), id="conv1d-stride=0"),
    pytest.param("conv1d", "stride", lambda: ad.conv1d(_X, _W, stride=-1), id="conv1d-stride=-1"),
    pytest.param("conv1d", "dilation", lambda: ad.conv1d(_X, _W, dilation=0), id="conv1d-dilation=0"),
    pytest.param("conv1d", "padding", lambda: ad.conv1d(_X, _W, padding=-1), id="conv1d-padding=-1"),
    pytest.param("conv1d", "padding", lambda: ad.conv1d(_X, _W, padding=1.5), id="conv1d-padding=1.5"),
    pytest.param("conv_transpose1d", "stride", lambda: ad.conv_transpose1d(_X, _WT, stride=0),
                 id="conv_transpose1d-stride=0"),
    pytest.param("conv_transpose1d", "stride", lambda: ad.conv_transpose1d(_X, _WT[:, :, :0], stride=0),
                 id="conv_transpose1d-stride=0-K=0"),
    pytest.param("conv_transpose1d", "stride", lambda: ad.conv_transpose1d(_X, _WT, stride=-2),
                 id="conv_transpose1d-stride=-2"),
    pytest.param("pad_last", "before", lambda: ad.pad_last(_X, -1, 0), id="pad_last-before=-1"),
    pytest.param("pad_last", "after", lambda: ad.pad_last(_X, 0, -1), id="pad_last-after=-1"),
    pytest.param("narrow", "length", lambda: ad.narrow(np.ones((2, 6)), 1, 2, -1), id="narrow-length=-1"),
]


@pytest.mark.parametrize("op,arg,call", ARGUMENT_CASES)
def test_conv_and_framing_ops_reject_bad_counts_by_name(op, arg, call):
    with pytest.raises(ValidationError, match=rf"^{op}: {arg} "):
        call()


def test_log_gradients():
    store = ad.ParamStore()
    rng = np.random.default_rng(3)
    x = store.create("x", rng.random((3, 3)) + 0.5)

    def loss_fn():
        return ad.mean(ad.log(x))

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
    with pytest.raises(ValueError, match="matmul: operands must be 2-D"):
        ad.matmul(a, np.zeros(3))
    with pytest.raises(ValueError, match="conv1d"):
        ad.conv1d(ad.Tensor(np.zeros((1, 2, 5))), ad.Tensor(np.zeros((4, 3, 3))))
    with pytest.raises(ValidationError, match=r"^concat: part shapes \[\(2, 3\), \(3, 2\)\]"):
        ad.concat([a, b], axis=0)
    with pytest.raises(ValidationError, match=r"^reshape: cannot reshape shape \(2, 3\) to \(4,\)"):
        ad.reshape(a, (4,))
    with pytest.raises(ValidationError, match=r"^narrow: axis 2 out of range for shape \(2, 3\)"):
        ad.narrow(a, 2, 0, 1)


@pytest.mark.parametrize("axes", [(0, 0), (0, 2), (1, 0, 2), (-1, 0), (0,)],
                         ids=["repeated", "out_of_range", "too_many", "negative", "too_few"])
def test_transpose_rejects_axes_that_are_not_a_permutation(axes):
    with pytest.raises(ValidationError, match=rf"^transpose: axes {re.escape(str(axes))} are not a permutation"):
        ad.transpose(ad.Tensor(np.zeros((2, 3))), axes)


def test_magnitude_rejects_an_odd_row_count_or_a_rank_other_than_three():
    for shape in [(1, 3, 4), (4, 5)]:
        with pytest.raises(ValidationError, match=r"^magnitude: expected \[batch, 2N, frames\] input"):
            ad.magnitude(np.ones(shape))


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
    # the error names the parameter, and the failed step changes nothing
    v = store.create("v", [2.0])
    with pytest.raises(ValidationError, match=r"adam_step: missing gradient for parameter 'v' \(detached graph\?\)"):
        ad.adam_step(store, {"w": np.array([1.0])})
    assert store["w"].data[0] == 1.0 and v.data[0] == 2.0 and store.step_count == 0


def test_adam_rejects_a_gradient_of_the_wrong_size():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    v = store.create("v", [3.0, 4.0, 5.0])
    # the total size matches, so only a per-parameter check catches it
    with pytest.raises(ValidationError, match="adam_step: gradient for parameter 'w' has 3 values, not 2"):
        ad.adam_step(store, {"w": np.ones(3), "v": np.ones(2)})
    assert np.array_equal(w.data, [1.0, 2.0]) and np.array_equal(v.data, [3.0, 4.0, 5.0]) and store.step_count == 0


@pytest.mark.parametrize(
    "bad, lr, error, message",
    [(np.nan, 1e-2, NumericalError, "non-finite gradient for parameter 'v' at step 3"),
     (-np.inf, 1e-2, NumericalError, "non-finite gradient for parameter 'v' at step 3"),
     (0.5, np.nan, ValidationError, "learning rate nan at step 3 is not finite")],
    ids=["nan_grad", "inf_grad", "nan_lr"],
)
def test_adam_rejects_a_non_finite_step_and_leaves_the_store_as_it_was(bad, lr, error, message):
    rng = np.random.default_rng(41)
    store = ad.ParamStore()
    shapes = {"w": (2, 3), "v": (4,), "u": (1,)}
    for name, shape in shapes.items():
        store.create(name, rng.standard_normal(shape))
    for _ in range(2):
        ad.adam_step(store, {n: rng.standard_normal(s) for n, s in shapes.items()}, lr=1e-2)
    params = {n: store[n].data.copy() for n in shapes}
    m, v = store._m.copy(), store._v.copy()
    grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
    grads["v"][2] = grads["u"][0] = bad  # the error names v, the first in names() order
    with pytest.raises(error, match=re.escape(f"adam_step: {message}")):
        ad.adam_step(store, grads, lr=lr)
    assert all(np.array_equal(store[n].data, params[n]) for n in shapes)
    assert np.array_equal(store._m, m) and np.array_equal(store._v, v) and store.step_count == 2


def _adam_reference(p, moments, g, t, lr):
    """One Adam step on one parameter, written per parameter as the update
    is defined: the reference for the flat update."""
    m, v = moments
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)


def test_flat_adam_is_bit_identical_to_the_per_parameter_update():
    rng = np.random.default_rng(31)
    shapes = {"a": (4, 3, 5), "b": (1,), "c": (7,), "d": (2, 6), "e": ()}
    store = ad.ParamStore()
    ref = {}
    for name, shape in shapes.items():
        data = rng.standard_normal(shape)
        store.create(name, data)
        ref[name] = (np.array(data), (np.zeros(shape), np.zeros(shape)))
    for t in range(1, 8):
        lr = 10.0 ** rng.uniform(-4, -1)
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.uniform(-6, 3) for n, s in shapes.items()}
        ad.adam_step(store, grads, lr=lr)
        for name, (p, moments) in ref.items():
            _adam_reference(p, moments, grads[name], t, lr)
            assert np.array_equal(store[name].data, p), (name, t)


def test_flat_adam_gives_a_parameter_created_after_a_step_zero_moments():
    rng = np.random.default_rng(37)
    store = ad.ParamStore()
    w = store.create("w", rng.standard_normal((2, 3)))
    w_ref, w_moments = np.array(w.data), (np.zeros((2, 3)), np.zeros((2, 3)))
    g1 = rng.standard_normal((2, 3))
    ad.adam_step(store, {"w": g1}, lr=1e-2)
    _adam_reference(w_ref, w_moments, g1, 1, 1e-2)
    late = store.create("late", rng.standard_normal(4))
    late_ref, late_moments = np.array(late.data), (np.zeros(4), np.zeros(4))
    for t in (2, 3):
        grads = {"w": rng.standard_normal((2, 3)), "late": rng.standard_normal(4)}
        ad.adam_step(store, grads, lr=1e-2)
        _adam_reference(w_ref, w_moments, grads["w"], t, 1e-2)
        _adam_reference(late_ref, late_moments, grads["late"], t, 1e-2)
        assert np.array_equal(w.data, w_ref) and np.array_equal(late.data, late_ref)


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


def test_conv_draws_the_conv1d_init_and_creates_the_weight_then_the_bias():
    store = ad.ParamStore()
    w, b = store.conv("layer", 4, 3, 5, np.random.default_rng(11))
    expected = np.random.default_rng(11).standard_normal((4, 3, 5)) / np.sqrt(3 * 5)
    assert np.array_equal(w.data, expected) and np.array_equal(b.data, np.zeros(4))
    zw, zb = store.conv("head", 2, 4, 1)
    assert np.array_equal(zw.data, np.zeros((2, 4, 1))) and np.array_equal(zb.data, np.zeros(2))
    assert store.names() == ["layer.w", "layer.b", "head.w", "head.b"]
    assert store["layer.w"] is w and store["head.b"] is zb
    with pytest.raises(ValidationError, match="parameter 'layer.w' already exists"):
        store.conv("layer", 4, 3, 5)


def test_state_dict_roundtrip_keeps_references_valid():
    store = ad.ParamStore()
    w = store.create("w", [1.0, 2.0])
    snap = store.state_dict()
    w.data[...] = 0.0
    store.load_state_dict(snap)
    np.testing.assert_array_equal(w.data, [1.0, 2.0])


@pytest.mark.parametrize("kernel,dilation,stride", [(3, 2, 1), (5, 1, 2), (1, 1, 1)])
def test_im2col_views_are_read_only_and_match_as_strided(kernel, dilation, stride):
    """The window view of a C-contiguous base (built by the ndarray
    constructor) and of a non-contiguous one (built by as_strided) are
    read-only and hold the very elements as_strided reads."""
    base = np.random.default_rng(kernel).standard_normal((2, 3, 40))
    for xp in (base, base[:, :, 3:31], base[:, ::2, :]):
        t_out = (xp.shape[-1] - (kernel - 1) * dilation - 1) // stride + 1
        view = ops._im2col(xp, kernel, dilation, stride, t_out)
        *lead, st = xp.strides
        expected = np.lib.stride_tricks.as_strided(
            xp, shape=xp.shape[:-1] + (kernel, t_out), strides=(*lead, st * dilation, st * stride))
        assert not view.flags.writeable and np.shares_memory(view, base)
        assert view.shape == expected.shape and np.array_equal(view, expected)
        with pytest.raises(ValueError, match="read-only"):
            view[..., 0, 0] = 0.0


def test_value_returns_a_float64_ndarray_as_it_is_and_converts_the_rest():
    x = np.arange(6.0).reshape(2, 3)
    assert ad.value(x) is x and ad.value(ad.Tensor(x)) is x
    for other in (3, 2.5, np.arange(4, dtype=np.float32), [1, 2, 3], np.arange(3)):
        v = ad.value(other)
        assert type(v) is np.ndarray and v.dtype == np.float64
        np.testing.assert_array_equal(v, np.asarray(other, dtype=np.float64))


@pytest.mark.parametrize("lo,hi", [(-0.5, 0.5), (-0.5, None)])
def test_clamp_vjp_equals_the_select_form(lo, hi):
    """The product VJP gives np.where's values (+0 and -0 compare equal),
    at, below and above each bound given."""
    x = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, -0.5000001, 0.4999999])
    g = np.array([1.5, -2.0, 3.0, -4.0, 0.5, 6.0, -7.0, 8.0, -9.0])
    xt = ad.Tensor(x)
    with ad.Tape() as tape:
        loss = ad.total(ad.mul(ad.clamp(xt, lo, hi), g))
    (gx,) = ad.grad(loss, [xt], tape)
    inside = x > lo
    if hi is not None:
        inside &= x < hi
    assert np.array_equal(gx, np.where(inside, g, 0.0))
    np.testing.assert_array_equal(ad.clamp(xt, lo, hi).data, np.clip(x, lo, hi))
