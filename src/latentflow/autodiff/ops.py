"""Primitive differentiable ops.

Conventions:
  - Operands may be Tensors, ndarrays, or Python scalars. Non-Tensor
    operands, and an optional bias left as None, are constants.
  - Each op hands ``_make`` one ``(operand, vjp)`` edge per operand; vjp
    maps the output gradient to that operand's gradient, one array of its
    shape. ``_make`` keeps only edges whose operand is a Tensor, so no vjp
    ever runs for a constant.
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
from .tensor import Node, Tensor, _active_tape, _check_finite, value


def _make(op: str, out_data: np.ndarray, *edges) -> Tensor | np.ndarray:
    _check_finite(op, out_data)
    for operand, _ in edges:  # a loop, not a comprehension: it runs on every op, traced or not
        if isinstance(operand, Tensor):
            break
    else:
        return out_data
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None:
        tape.nodes.append(Node(op, out, [e for e in edges if isinstance(e[0], Tensor)]))
    return out


def _binary_vals(op: str, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Values for an elementwise binary op.

    Tensor operands must already have the broadcast result shape; only
    constants may broadcast up to it.
    """
    av, bv = value(a), value(b)
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


def sqrt(x) -> Tensor | np.ndarray:
    xv = value(x)
    out = np.sqrt(xv)
    return _make("sqrt", out, (x, lambda g: g * (0.5 / out)))


def square(x) -> Tensor | np.ndarray:
    xv = value(x)
    return _make("square", xv * xv, (x, lambda g: 2.0 * xv * g))


def absolute(x) -> Tensor | np.ndarray:
    xv = value(x)
    return _make("abs", np.abs(xv), (x, lambda g: g * np.sign(xv)))


def clamp(x, lo: float | None = None, hi: float | None = None) -> Tensor | np.ndarray:
    xv = value(x)
    out = np.clip(xv, lo, hi)
    pass_mask = np.ones_like(xv, dtype=bool)
    if lo is not None:
        pass_mask &= xv > lo
    if hi is not None:
        pass_mask &= xv < hi
    return _make("clamp", out, (x, lambda g: np.where(pass_mask, g, 0.0)))


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
    out = xv.reshape(shape)
    return _make("reshape", out, (x, lambda g: g.reshape(xv.shape)))


def transpose(x, axes) -> Tensor | np.ndarray:
    xv = value(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make("transpose", xv.transpose(axes).copy(), (x, lambda g: g.transpose(inv)))


def concat(parts, axis: int) -> Tensor | np.ndarray:
    vals = [value(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    splits = np.cumsum([v.shape[axis] for v in vals])[:-1]
    edges = [(p, lambda g, i=i: np.split(g, splits, axis=axis)[i]) for i, p in enumerate(parts)]
    return _make("concat", out, *edges)


def narrow(x, axis: int, start: int, length: int) -> Tensor | np.ndarray:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    xv = value(x)
    if start < 0 or start + length > xv.shape[axis]:
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


def pad_last(x, before: int, after: int) -> Tensor | np.ndarray:
    """Zero-pad along the final axis."""
    xv = value(x)
    width = [(0, 0)] * (xv.ndim - 1) + [(before, after)]
    out = np.pad(xv, width)
    sl = (Ellipsis, slice(before, before + xv.shape[-1]))
    return _make("pad_last", out, (x, lambda g: g[sl]))


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
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise ValidationError(f"matmul: unsupported operand ranks {av.ndim} and {bv.ndim}")
    if av.shape[1] != bv.shape[0]:
        raise ValidationError(f"matmul: inner dims disagree, {av.shape} @ {bv.shape}")
    ga = (lambda g: g @ bv.T) if bv.ndim == 2 else (lambda g: np.outer(g, bv))
    return _make("matmul", av @ bv, (a, ga), (b, lambda g: av.T @ g))


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
    window t, tap j reads xp[..., t*stride + j*dilation]."""
    *lead, st = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=xp.shape[:-1] + (kernel, t_out),
        strides=(*lead, st * dilation, st * stride),
        writeable=False,
    )


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
    kernel 1 and stride 1 the view already is contiguous and nothing is copied."""
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
    [B, Cin*K, T] -> [Cout, Cin*K]. With fewer frames than window rows
    (T < Cin*K) B is folded into T for one matmul, which at T=1 replaces B
    rank-1 products; otherwise one batched matmul is summed over B, which
    reads long frame axes faster than the folded copy."""
    B, CK, T = cols.shape
    if T < CK:
        return np.moveaxis(g, 0, 1).reshape(g.shape[1], B * T) @ np.moveaxis(cols, 0, 1).reshape(CK, B * T).T
    return (g @ cols.transpose(0, 2, 1)).sum(0)


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
    B, Ci, T = xv.shape
    Co, Cig, K = wv.shape
    if Ci != Cig * groups or Co % groups:
        raise ValidationError(
            f"conv1d: weight {wv.shape} incompatible with input {xv.shape} under groups={groups}"
        )
    depthwise = groups != 1
    if depthwise and not groups == Ci == Co:
        raise ValidationError(f"conv1d: groups={groups} must be 1 or equal the {Ci} input and {Co} output channels")
    pad = _same_pad(K, dilation) if padding is None else int(padding)
    span = (K - 1) * dilation
    t_out = (T + 2 * pad - span - 1) // stride + 1
    if t_out <= 0:
        raise ValidationError(f"conv1d: input of {T} frames too short for kernel {K} dilation {dilation}")

    if pad:
        xp = np.zeros((B, Ci, T + 2 * pad))
        xp[:, :, pad : pad + T] = xv
    else:
        xp = xv
    if depthwise:
        cols = _im2col(xp, K, dilation, stride, t_out)
        out = np.einsum("bcjt,cj->bct", cols, wv[:, 0, :])
    else:
        cols = _windows(xp, K, dilation, stride, t_out)
        out = _dense(cols, wv)
    out = _add_bias("conv1d", out, bias)

    def vjp_x(g):
        if stride == 1:
            # The forward convolution of g, padded to T + span frames with
            # span - pad zeros on each side (or cut where pad > span), by the
            # kernel flipped along K: gx[n] = sum_j w[:, :, K-1-j]^T gp[n + j*dilation].
            e = span - pad
            if e > 0:
                gp = np.zeros((B, Co, T + span))
                gp[:, :, e : e + t_out] = g
            else:
                gp = g[:, :, -e : t_out + e]
            if depthwise:
                return np.einsum("bcjt,cj->bct", _im2col(gp, K, dilation, 1, T), wv[:, 0, ::-1])
            return _dense(_windows(gp, K, dilation, 1, T), wv[:, :, ::-1].transpose(1, 0, 2))
        gcols = wv[None, :, 0, :, None] * g[:, :, None, :] if depthwise else _dense_t(g, wv)
        gxp = _col2im(gcols, T + 2 * pad, dilation, stride)
        return gxp[:, :, pad : pad + T] if pad else gxp

    def vjp_w(g):
        return np.einsum("bcjt,bct->cj", cols, g)[:, None, :] if depthwise else _dense_w(g, cols).reshape(wv.shape)

    return _make("conv1d", out, (x, vjp_x), (w, vjp_w), (bias, lambda g: g.sum(axis=(0, 2))))


def conv_transpose1d(x, w, bias=None, stride: int = 1) -> Tensor | np.ndarray:
    """Transposed 1-D convolution of x[B, Cin, T] with w[Cin, Cout, K]: the
    input gradient of conv1d(., w, stride=stride, padding=(K - stride)/2).

    The output has exactly T*stride frames; requires K >= stride and
    K - stride even.
    """
    xv, wv = value(x), value(w)
    if xv.ndim != 3 or wv.ndim != 3:
        raise ValidationError(f"conv_transpose1d: expected 3-D input and weight, got {xv.shape} and {wv.shape}")
    B, Ci, T = xv.shape
    Ciw, Co, K = wv.shape
    if Ci != Ciw:
        raise ValidationError(f"conv_transpose1d: weight {wv.shape} incompatible with input {xv.shape}")
    if K < stride or (K - stride) % 2:
        raise ValidationError(f"conv_transpose1d: need kernel >= stride with even difference, got K={K} stride={stride}")
    pad = (K - stride) // 2
    full = (T - 1) * stride + K
    out_full = _col2im(_dense_t(xv, wv), full, 1, stride)
    out = _add_bias("conv_transpose1d", out_full[:, :, pad : pad + stride * T].copy(), bias)

    windowed = [None, None]  # the last g and its windows, shared by both vjps of one sweep

    def gcols(g):
        if windowed[0] is not g:
            gfull = np.zeros((B, Co, full))
            gfull[:, :, pad : pad + stride * T] = g
            windowed[:] = g, _windows(gfull, K, 1, stride, T)
        return windowed[1]

    return _make("conv_transpose1d", out, (x, lambda g: _dense(gcols(g), wv)),
                 (w, lambda g: _dense_w(xv, gcols(g)).reshape(wv.shape)), (bias, lambda g: g.sum(axis=(0, 2))))


def frame_signal(x, frame: int, hop: int) -> Tensor | np.ndarray:
    """Frame a 1-D signal into [n_frames, frame] with the shape law
    n_frames = 1 + (len - frame) // hop."""
    xv = value(x)
    if xv.ndim != 1:
        raise ValidationError(f"frame_signal: expected 1-D signal, got shape {xv.shape}")
    L = xv.shape[0]
    if L < frame:
        raise ValidationError(f"frame_signal: signal of {L} samples shorter than frame {frame}")
    n = 1 + (L - frame) // hop
    out = _im2col(xv, frame, 1, hop, n).T.copy()

    def vjp(g):
        # Overlap-add in whole-hop blocks: block b adds g[:, b*hop : (b+1)*hop]
        # to rows b..b+n-1 of the signal seen as [rows, hop]. Each sample gets
        # its terms in the order of a per-sample loop, so the sum is the same.
        blocks = -(-frame // hop)
        gx = np.zeros((n + blocks, hop))
        for b in range(blocks):
            w = min(hop, frame - b * hop)
            gx[b : b + n, :w] += g[:, b * hop : b * hop + w]
        return gx.reshape(-1)[:L]

    return _make("frame_signal", out, (x, vjp))


_MAG_FLOOR = 1e-30  # keeps the magnitude differentiable at silent bins


def rfft_magnitude(x, n: int) -> Tensor | np.ndarray:
    """Magnitude spectrum |rfft(x, n)| of each row of x[F, W], W <= n, with
    the rows zero-padded to n: [F, n//2 + 1] values sqrt(re^2 + im^2 + 1e-30).

    VJP: n * irfft(g * X / |X| * w) cut to W samples, where w is 1 at the DC
    and Nyquist bins and 1/2 at the interior bins, which irfft counts twice.
    """
    xv = value(x)
    if xv.ndim != 2 or xv.shape[1] > n:
        raise ValidationError(f"rfft_magnitude: expected [frames, width <= {n}] input, got shape {xv.shape}")
    spec = np.fft.rfft(xv, n=n, axis=1)
    out = np.sqrt(spec.real * spec.real + spec.imag * spec.imag + _MAG_FLOOR)

    def vjp(g):
        y = (g / out) * spec
        y[:, 1 : (n + 1) // 2] *= 0.5
        return n * np.fft.irfft(y, n=n, axis=1)[:, : xv.shape[1]]

    return _make("rfft_magnitude", out, (x, vjp))
