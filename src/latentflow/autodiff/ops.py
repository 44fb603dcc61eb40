"""Primitive differentiable ops.

Conventions:
  - Operands may be Tensors, ndarrays, or Python scalars. Non-Tensor
    operands, and an optional bias left as None, are constants.
  - Each op reads its operands with ``value``, which hands a float64
    ndarray back as it is, and hands ``_make`` (tensor.py) its output and
    one ``(operand, vjp)`` edge per operand; vjp maps the output gradient
    to that operand's gradient, one array of its shape. ``_make`` keeps
    only edges whose operand is a Tensor, so no vjp ever runs for a
    constant. Every op pays these two calls, so both stay short: with
    debug checks off ``_make`` tests the flag once and wraps the output
    without converting it.
  - An op with no Tensor operand returns a plain ndarray (a numpy scalar
    when 0-d) and records nothing, even inside an active Tape; only an op
    with a Tensor operand returns a Tensor.
  - Elementwise binary ops require the result shape to equal every Tensor
    operand's shape (constants may broadcast up to it); general
    tensor-tensor broadcasting is deliberately unsupported. Bias-style
    additions with shape changes are dedicated ops with explicit VJPs.
  - Convolutions default to "same-length" padding: symmetric zero padding
    of (kernel-1)*dilation/2 per side.
"""
from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .tensor import Tensor, _make, value


def _binary_vals(op: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Values for an elementwise binary op.

    Tensor operands must already have the broadcast result shape; only
    constants may broadcast up to it.
    """
    av, bv = value(a), value(b)
    if av.shape == bv.shape:
        return av, bv
    try:
        out_shape = np.broadcast_shapes(av.shape, bv.shape)
    except ValueError:
        raise ValidationError(f"{op}: operand shapes {av.shape} and {bv.shape} do not conform") from None
    for operand, v in ((a, av), (b, bv)):
        if isinstance(operand, Tensor) and v.shape != out_shape:
            raise ValidationError(
                f"{op}: tensor operand shape {v.shape} does not match result shape {out_shape}"
            )
    return av, bv


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor | np.ndarray:
    av, bv = _binary_vals("add", a, b)
    return _make("add", av + bv, (a, lambda g: g), (b, lambda g: g))


def sub(a, b) -> Tensor | np.ndarray:
    av, bv = _binary_vals("sub", a, b)
    return _make("sub", av - bv, (a, lambda g: g), (b, np.negative))


def mul(a, b) -> Tensor | np.ndarray:
    av, bv = _binary_vals("mul", a, b)
    return _make("mul", av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


_LEAKY_SLOPE = 0.1


def leaky_relu(x) -> Tensor | np.ndarray:
    """Leaky ReLU with slope 0.1: max(x, 0.1 * x)."""
    xv = value(x)
    out = np.maximum(xv, _LEAKY_SLOPE * xv)

    def vjp(g):
        # g where x > 0, else 0.1 * g, without np.where's slow select; the
        # mask times 0.9, plus 0.1, is exactly 1.0 or 0.1, so the product is
        # bit-identical to the select. Every step after the mask is in place.
        d = (xv > 0).astype(float)
        d *= 1.0 - _LEAKY_SLOPE
        d += _LEAKY_SLOPE
        d *= g
        return d

    return _make("leaky_relu", out, (x, vjp))


def tanh(x) -> Tensor | np.ndarray:
    out = np.tanh(value(x))
    return _make("tanh", out, (x, lambda g: g * (1.0 - out * out)))


def exp(x) -> Tensor | np.ndarray:
    out = np.exp(value(x))
    return _make("exp", out, (x, lambda g: g * out))


def log(x) -> Tensor | np.ndarray:
    xv = value(x)
    out = np.log(xv)
    return _make("log", out, (x, lambda g: g / xv))


def square(x) -> Tensor | np.ndarray:
    xv = value(x)
    return _make("square", xv * xv, (x, lambda g: 2.0 * xv * g))


def absolute(x) -> Tensor | np.ndarray:
    xv = value(x)
    return _make("abs", np.abs(xv), (x, lambda g: g * np.sign(xv)))


def clamp(x, lo: float, hi: float | None = None) -> Tensor | np.ndarray:
    """x clipped to [lo, hi], no upper bound when hi is None; the gradient
    passes where x lies strictly inside the bounds given."""
    xv = value(x)
    out = np.clip(xv, lo, hi)
    inside = xv > lo if hi is None else (xv > lo) & (xv < hi)
    # g where inside, else 0, as a product: np.where's values up to the sign
    # of a zero, without its slow select
    return _make("clamp", out, (x, lambda g: g * inside))


def dropout(x, p: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor | np.ndarray:
    """Inverted dropout: scales by 1/(1-p) at train time so inference is identity."""
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"dropout: p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValidationError("dropout: training mode requires a seeded Generator")
    xv = value(x)
    keep = (rng.random(xv.shape) >= p) / (1.0 - p)
    return _make("dropout", xv * keep, (x, lambda g: g * keep))


# ---------------------------------------------------------------------------
# reductions and reshaping


def total(x) -> Tensor | np.ndarray:
    xv = value(x)
    return _make("sum", np.asarray(xv.sum()), (x, lambda g: np.broadcast_to(g, xv.shape).copy()))


def mean(x) -> Tensor | np.ndarray:
    xv = value(x)
    n = xv.size
    return _make("mean", np.asarray(xv.mean()), (x, lambda g: np.broadcast_to(g / n, xv.shape).copy()))


def reshape(x, shape) -> Tensor | np.ndarray:
    xv = value(x)
    try:
        out = xv.reshape(shape)
    except ValueError:
        raise ValidationError(f"reshape: cannot reshape shape {xv.shape} to {shape}") from None
    return _make("reshape", out, (x, lambda g: g.reshape(xv.shape)))


def transpose(x, axes) -> Tensor | np.ndarray:
    xv = value(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(xv.ndim)):
        raise ValidationError(f"transpose: axes {axes} are not a permutation of the axes of shape {xv.shape}")
    inv = tuple(np.argsort(axes))
    return _make("transpose", xv.transpose(axes).copy(), (x, lambda g: g.transpose(inv)))


def concat(parts, axis: int) -> Tensor | np.ndarray:
    vals = [value(p) for p in parts]
    try:
        out = np.concatenate(vals, axis=axis)
    except ValueError:
        raise ValidationError(f"concat: part shapes {[v.shape for v in vals]} do not conform on axis {axis}") from None
    splits = np.cumsum([v.shape[axis] for v in vals])[:-1]
    edges = [(p, lambda g, i=i: np.split(g, splits, axis=axis)[i]) for i, p in enumerate(parts)]
    return _make("concat", out, *edges)


def narrow(x, axis: int, start: int, length: int) -> Tensor | np.ndarray:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    xv = value(x)
    _check_count("narrow", "length", length, 0)
    try:
        size = xv.shape[axis]
    except IndexError:
        raise ValidationError(f"narrow: axis {axis} out of range for shape {xv.shape}") from None
    if start < 0 or start + length > size:
        raise ValidationError(
            f"narrow: slice [{start}, {start + length}) out of range for axis {axis} of shape {xv.shape}"
        )
    idx = [slice(None)] * xv.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros_like(xv)
        full[idx] = g
        return full

    return _make("narrow", xv[idx].copy(), (x, vjp))


def _check_count(op: str, name: str, n, least: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise ValidationError(f"{op}: {name} must be an integer >= {least}, got {n!r}")


def _pad(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """x with zeros put ahead of and behind its last axis, in a fresh array;
    counts both <= 0 cut instead, as a view, and (0, 0) returns x itself."""
    if not (before or after):
        return x
    if before < 0 or after < 0:
        return x[..., -before : x.shape[-1] + after]
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + before + after,))
    out[..., before : before + x.shape[-1]] = x
    return out


def pad_last(x, before: int, after: int) -> Tensor | np.ndarray:
    """Zero-pad along the final axis."""
    _check_count("pad_last", "before", before, 0)
    _check_count("pad_last", "after", after, 0)
    return _make("pad_last", _pad(value(x), before, after), (x, lambda g: _pad(g, -before, -after)))


def take_rows(w, ids) -> Tensor | np.ndarray:
    """Row gather (embedding lookup): w[ids] for a 2-D table."""
    wv = value(w)
    ids = np.asarray(ids, dtype=np.intp)
    if wv.ndim != 2:
        raise ValidationError(f"take_rows: table must be 2-D, got shape {wv.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= wv.shape[0]):
        raise ValidationError(f"take_rows: index out of range for table with {wv.shape[0]} rows")

    def vjp(g):
        gw = np.zeros_like(wv)
        np.add.at(gw, ids, g)
        return gw

    return _make("take_rows", wv[ids].copy(), (w, vjp))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor | np.ndarray:
    av, bv = value(a), value(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValidationError(f"matmul: operands must be 2-D, got ranks {av.ndim} and {bv.ndim}")
    if av.shape[1] != bv.shape[0]:
        raise ValidationError(f"matmul: inner dims disagree, {av.shape} @ {bv.shape}")
    return _make("matmul", av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


def add_frame_bias(x, b) -> Tensor | np.ndarray:
    """x[B, C, T] + b[B, C, 1]: per-element per-channel bias shared over frames."""
    xv, bv = value(x), value(b)
    if xv.ndim != 3 or bv.shape != (xv.shape[0], xv.shape[1], 1):
        raise ValidationError(f"add_frame_bias: shapes {xv.shape} and {bv.shape} do not conform")
    return _make("add_frame_bias", xv + bv, (x, lambda g: g), (b, lambda g: g.sum(axis=2, keepdims=True)))


# ---------------------------------------------------------------------------
# convolution


def _same_pad(kernel: int, dilation: int) -> int:
    span = (kernel - 1) * dilation
    if span % 2:
        raise ValidationError(f"conv1d: same-length padding needs even (kernel-1)*dilation, got {span}")
    return span // 2


def _im2col(xp: np.ndarray, kernel: int, dilation: int, stride: int, t_out: int) -> np.ndarray:
    """Strided read-only view [..., kernel, t_out] of the windows of xp[..., T]:
    window t, tap j reads xp[..., t*stride + j*dilation]. A C-contiguous xp
    is viewed through the ndarray constructor, which checks that the windows
    lie inside its buffer and is several times cheaper than ``as_strided``;
    any other xp, such as a slice, goes through ``as_strided``."""
    *lead, st = xp.strides
    shape = xp.shape[:-1] + (kernel, t_out)
    strides = (*lead, st * dilation, st * stride)
    if not xp.flags.c_contiguous:
        return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides, writeable=False)
    view = np.ndarray(shape, xp.dtype, xp, 0, strides)
    view.flags.writeable = False
    return view


def _col2im(cols: np.ndarray, length: int, dilation: int, stride: int) -> np.ndarray:
    """Adjoint of _im2col: overlap-add windows cols[..., kernel, t_out] into
    a zero signal [..., length]."""
    kernel, t_out = cols.shape[-2:]
    out = np.zeros(cols.shape[:-2] + (length,))
    for j in range(kernel):
        out[..., j * dilation : j * dilation + stride * t_out : stride] += cols[..., j, :]
    return out


def _windows(xp: np.ndarray, kernel: int, dilation: int, stride: int, t_out: int) -> np.ndarray:
    """The windows of xp[B, C, T] as one C-contiguous [B, C*kernel, t_out]
    array, row c*kernel + j holding tap j of channel c. _im2col's view is
    copied once here, so every contraction on it reads contiguous memory; for
    kernel 1 and stride 1 a contiguous xp of t_out frames is its own window
    array and is returned as it is."""
    if kernel == 1 and stride == 1 and xp.shape[-1] == t_out and xp.flags.c_contiguous:
        return xp
    B, C = xp.shape[:2]
    return np.ascontiguousarray(_im2col(xp, kernel, dilation, stride, t_out)).reshape(B, C * kernel, t_out)


def _dense(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Windows [B, Cin*K, T] times weight [Cout, Cin, K] -> [B, Cout, T]:
    one matmul of w as [Cout, Cin*K]."""
    return w.reshape(w.shape[0], -1) @ cols


def _dense_t(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of _dense in the windows: g[B, Cout, T] -> C-contiguous
    [B, Cin, K, T], one matmul of w as [Cin*K, Cout]."""
    Co, Ci, K = w.shape
    return (w.reshape(Co, Ci * K).T @ g).reshape(g.shape[0], Ci, K, g.shape[-1])


def _dense_w(g: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Adjoint of _dense in the weight: g[B, Cout, T] against the windows
    [B, Cin*K, T] -> [Cout, Cin*K], one batched matmul summed over B."""
    return (g @ cols.transpose(0, 2, 1)).sum(0)


def _correlate(xp: np.ndarray, w: np.ndarray, dilation: int, stride: int, t_out: int, depthwise: bool):
    """xp[B, Cin, T] correlated with w[Cout, Cin, K] (depthwise: w[C, 1, K])
    at t_out frames, as a fresh array, and the windows that it read."""
    K = w.shape[-1]
    if depthwise:
        cols = _im2col(xp, K, dilation, stride, t_out)
        return np.einsum("bcjt,cj->bct", cols, w[:, 0, :]), cols
    cols = _windows(xp, K, dilation, stride, t_out)
    return _dense(cols, w), cols


def _correlate_t(g: np.ndarray, w: np.ndarray, T: int, pad: int, dilation: int, stride: int, depthwise: bool):
    """Adjoint of _correlate(_pad(x, pad, pad), w, ...) in x[B, Cin, T]. Stride
    1: correlate g, padded by span - pad, with w flipped along K and its channel
    axes swapped (Dumoulin & Visin 2016). Else: overlap-add the windows' adjoint."""
    if stride == 1:
        e = (w.shape[-1] - 1) * dilation - pad
        wf = w[:, :, ::-1] if depthwise else w[:, :, ::-1].transpose(1, 0, 2)
        return _correlate(_pad(g, e, e), wf, dilation, 1, T, depthwise)[0]
    gcols = w[None, :, 0, :, None] * g[:, :, None, :] if depthwise else _dense_t(g, w)
    return _pad(_col2im(gcols, T + 2 * pad, dilation, stride), -pad, -pad)


def _add_bias(op: str, out: np.ndarray, bias) -> np.ndarray:
    """out[B, C, T] plus a per-channel bias[C], if one is given, added in
    place: out must be a fresh array the caller owns."""
    if bias is None:
        return out
    bv = value(bias)
    if bv.shape != (out.shape[1],):
        raise ValidationError(f"{op}: bias shape {bv.shape} != ({out.shape[1]},)")
    out += bv[:, None]
    return out


def conv1d(x, w, bias=None, stride: int = 1, dilation: int = 1, groups: int = 1, padding=None) -> Tensor | np.ndarray:
    """Dilated 1-D convolution of x[B, Cin, T] with w[Cout, Cin/groups, K].

    groups is 1 (dense) or Cin == Cout (depthwise, w[C, 1, K]).
    padding=None selects same-length symmetric zero padding; an int pads
    both sides explicitly.
    """
    xv, wv = value(x), value(w)
    if xv.ndim != 3 or wv.ndim != 3:
        raise ValidationError(f"conv1d: expected 3-D input and weight, got {xv.shape} and {wv.shape}")
    _, Ci, T = xv.shape
    Co, Cig, K = wv.shape
    if Ci != Cig * groups or Co % groups:
        raise ValidationError(
            f"conv1d: weight {wv.shape} incompatible with input {xv.shape} under groups={groups}"
        )
    depthwise = groups != 1
    if depthwise and not groups == Ci == Co:
        raise ValidationError(f"conv1d: groups={groups} must be 1 or equal the {Ci} input and {Co} output channels")
    _check_count("conv1d", "kernel", K, 1)
    _check_count("conv1d", "stride", stride, 1)
    _check_count("conv1d", "dilation", dilation, 1)
    if padding is not None:
        _check_count("conv1d", "padding", padding, 0)
    pad = _same_pad(K, dilation) if padding is None else int(padding)
    t_out = (T + 2 * pad - (K - 1) * dilation - 1) // stride + 1
    if t_out <= 0:
        raise ValidationError(f"conv1d: input of {T} frames too short for kernel {K} dilation {dilation}")

    out, cols = _correlate(_pad(xv, pad, pad), wv, dilation, stride, t_out, depthwise)
    out = _add_bias("conv1d", out, bias)

    def vjp_w(g):
        return np.einsum("bcjt,bct->cj", cols, g)[:, None, :] if depthwise else _dense_w(g, cols).reshape(wv.shape)

    return _make("conv1d", out, (x, lambda g: _correlate_t(g, wv, T, pad, dilation, stride, depthwise)),
                 (w, vjp_w), (bias, lambda g: g.sum(axis=(0, 2))))


def conv_transpose1d(x, w, bias=None, stride: int = 1) -> Tensor | np.ndarray:
    """Transposed 1-D convolution of x[B, Cin, T] with w[Cin, Cout, K]: the
    input gradient of conv1d(., w, stride=stride, padding=(K - stride)/2).

    The output has exactly T*stride frames; requires K >= stride and
    K - stride even.
    """
    xv, wv = value(x), value(w)
    if xv.ndim != 3 or wv.ndim != 3:
        raise ValidationError(f"conv_transpose1d: expected 3-D input and weight, got {xv.shape} and {wv.shape}")
    _, Ci, T = xv.shape
    Ciw, _, K = wv.shape
    if Ci != Ciw:
        raise ValidationError(f"conv_transpose1d: weight {wv.shape} incompatible with input {xv.shape}")
    _check_count("conv_transpose1d", "stride", stride, 1)
    if K < stride or (K - stride) % 2:
        raise ValidationError(f"conv_transpose1d: need kernel >= stride with even difference, got K={K} stride={stride}")
    pad = (K - stride) // 2
    out = np.ascontiguousarray(_correlate_t(xv, wv, stride * T, pad, 1, stride, False))
    out = _add_bias("conv_transpose1d", out, bias)

    corr = [None, None]  # the last g and _correlate's (x gradient, windows) of it, shared by both vjps

    def correlate(g):
        if corr[0] is not g:
            corr[:] = g, _correlate(_pad(g, pad, pad), wv, 1, stride, T, False)
        return corr[1]

    return _make("conv_transpose1d", out, (x, lambda g: correlate(g)[0]),
                 (w, lambda g: _dense_w(xv, correlate(g)[1]).reshape(wv.shape)), (bias, lambda g: g.sum(axis=(0, 2))))


_MAG_FLOOR = 1e-30  # keeps the magnitude differentiable at silent bins


def magnitude(x) -> Tensor | np.ndarray:
    """Magnitudes sqrt(re^2 + im^2 + 1e-30) [B, N, F] of x[B, 2N, F], whose
    first N rows are real parts and last N rows the imaginary parts."""
    xv = value(x)
    if xv.ndim != 3 or xv.shape[1] % 2:
        raise ValidationError(f"magnitude: expected [batch, 2N, frames] input, got shape {xv.shape}")
    B, N2, F = xv.shape
    parts = xv.reshape(B, 2, N2 // 2, F)
    sq = parts * parts
    out = np.add(sq[:, 0], sq[:, 1], out=sq[:, 0])
    out += _MAG_FLOOR
    np.sqrt(out, out=out)
    return _make("magnitude", out, (x, lambda g: (parts * (g / out)[:, None]).reshape(xv.shape)))
