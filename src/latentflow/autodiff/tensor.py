"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` is the computation record: while active, every primitive op
with a Tensor operand appends one ``Node`` holding the op's name, its
output and one ``(operand, vjp)`` edge per Tensor operand, where vjp maps
the output's gradient to that operand's. Nodes are appended in execution
order, so the list is topologically sorted by construction; ``grad`` marks
what depends on ``wrt`` in one forward pass, then runs one reverse sweep
that drops each intermediate gradient as soon as its vjps have run, so it
holds only the gradients still to be used. ``grad`` reads the tape and
never changes it, so one tape may be swept more than once.

Constants are ndarrays and Python scalars. An op with no Tensor operand
returns a plain ndarray (a numpy scalar when 0-d) and records nothing, even
inside an active Tape, so a computation on constants stays constant.
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..exceptions import NumericalError, ValidationError

_TAPES: list["Tape"] = []
_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """Enable per-op NaN/Inf detection (debug evaluation mode)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    """A shaped float64 array participating in differentiation."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = value(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Node:
    """One recorded op: its name, its output, and one (operand, vjp) edge
    per Tensor operand."""

    __slots__ = ("op", "out", "edges")

    def __init__(self, op: str, out: Tensor, edges: list[tuple[Tensor, Callable]]):
        self.op = op
        self.out = out
        self.edges = edges


class Tape:
    """Computation record; use as a context manager around a forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPES.pop()
        assert popped is self, "tape stack corrupted"

    def __len__(self) -> int:
        return len(self.nodes)


class no_grad:
    """Context that suspends recording (inference mode)."""

    def __enter__(self):
        _TAPES.append(None)  # type: ignore[arg-type]
        return self

    def __exit__(self, *exc):
        _TAPES.pop()


_F64 = np.dtype(np.float64)


def value(x) -> np.ndarray:
    """The float64 array behind a Tensor, ndarray or scalar; a float64
    ndarray is returned as it is."""
    if isinstance(x, Tensor):
        return x.data
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    return np.asarray(x, dtype=np.float64)


def _make(op: str, out_data: np.ndarray, *edges) -> Tensor | np.ndarray:
    """The result of primitive ``op``: ``out_data`` itself when no operand
    is a Tensor, else a Tensor around it, recorded on the active tape with
    the edges whose operand is a Tensor. It runs on every op, so with debug
    checks off it costs one flag test."""
    if _DEBUG_CHECKS and not np.all(np.isfinite(out_data)):
        raise NumericalError(f"{op}: non-finite values produced (debug evaluation mode)")
    for operand, _ in edges:
        if isinstance(operand, Tensor):
            break
    else:
        return out_data
    out = Tensor(out_data)
    if _TAPES and _TAPES[-1] is not None:
        _TAPES[-1].nodes.append(Node(op, out, [e for e in edges if isinstance(e[0], Tensor)]))
    return out


def grad(loss: Tensor | np.ndarray, wrt: Iterable[Tensor], tape: Tape) -> list[np.ndarray]:
    """Vector-Jacobian sweep of ``tape`` from scalar ``loss``.

    Returns one gradient array per tensor in ``wrt``; tensors unreachable
    from the loss get zeros of their shape. Only edges whose operand depends
    on ``wrt`` run their vjp, so no gradient is formed for a constant or for
    a tensor outside ``wrt``'s reach. A node's output gradient is dropped
    once its vjps have run (no later node in the sweep reads it), unless
    that output is in ``wrt``, so the sweep holds only the live gradients.
    The tape is left intact: ``grad`` may run again on it.
    """
    if value(loss).shape != ():
        raise ValidationError(f"backward: loss must be scalar, got shape {value(loss).shape}")
    wrt = list(wrt)
    keep = {id(w) for w in wrt}
    marked = set(keep)
    for node in tape.nodes:
        for operand, _ in node.edges:
            if id(operand) in marked:
                marked.add(id(node.out))
                break
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        key = id(node.out)
        if key not in grads:
            continue
        g_out = grads[key] if key in keep else grads.pop(key)
        for operand, vjp in node.edges:
            if id(operand) in marked:
                g = vjp(g_out)
                grads[id(operand)] = grads[id(operand)] + g if id(operand) in grads else g
    return [grads.get(id(w), np.zeros_like(w.data)) for w in wrt]
