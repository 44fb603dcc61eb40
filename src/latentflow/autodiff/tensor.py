"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` is the computation record: while active, every primitive op
appends one node holding its parents, its output, and a closure computing
vector-Jacobian products. Nodes are appended in execution order, so the
list is topologically sorted by construction and ``backward`` is a single
reverse sweep that visits each node exactly once.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..exceptions import NumericalError

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
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # Operator sugar; the heavy lifting lives in ops.py.
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        from . import ops

        return ops.mul(self, -1.0)


class Node:
    """One recorded op: parents, output, and the VJP closure."""

    __slots__ = ("op", "parents", "out", "vjp")

    def __init__(self, op: str, parents: tuple, out: Tensor, vjp: Callable[[np.ndarray], Sequence]):
        self.op = op
        self.parents = parents
        self.out = out
        self.vjp = vjp


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

    def record(self, op: str, parents: tuple, out: Tensor, vjp: Callable) -> None:
        self.nodes.append(Node(op, parents, out, vjp))

    def __len__(self) -> int:
        return len(self.nodes)


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


class no_grad:
    """Context that suspends recording (inference mode)."""

    def __enter__(self):
        _TAPES.append(None)  # type: ignore[arg-type]
        return self

    def __exit__(self, *exc):
        _TAPES.pop()


def value(x) -> np.ndarray:
    """The float64 array behind a Tensor, ndarray or scalar."""
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def evaluate(body: Callable[[], Tensor], *inputs):
    """Run ``body()``, a computation on ad ops over ``inputs``.

    When any input is a Tensor the body runs as usual and its Tensor is
    returned. Otherwise every input is a constant: the body runs under
    ``no_grad``, so it records nothing even inside an active Tape, and the
    result is unwrapped once, to a float when it is 0-d and to an ndarray
    otherwise.
    """
    if any(isinstance(x, Tensor) for x in inputs):
        return body()
    with no_grad():
        out = value(body())
    return float(out) if out.ndim == 0 else out


def _check_finite(op: str, arr: np.ndarray) -> None:
    if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
        raise NumericalError(f"{op}: non-finite values produced (debug evaluation mode)")


def grad(loss: Tensor, wrt: Iterable[Tensor], tape: Tape) -> list[np.ndarray]:
    """Vector-Jacobian sweep of ``tape`` from scalar ``loss``.

    Returns one gradient array per tensor in ``wrt``; tensors unreachable
    from the loss get zeros of their shape.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=np.float64)}
    for node in reversed(tape.nodes):
        g_out = grads.get(id(node.out))
        if g_out is None:
            continue
        parent_grads = node.vjp(g_out)
        for parent, g in zip(node.parents, parent_grads):
            if g is None or not isinstance(parent, Tensor):
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = g if acc is None else acc + g
    return [grads.get(id(w), np.zeros_like(w.data)) for w in wrt]
