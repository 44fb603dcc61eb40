"""Named parameter collection with Adam state."""
from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .tensor import Tensor, Tape, grad

# Adam's moment decay rates and denominator floor
_BETA1, _BETA2, _EPS = 0.8, 0.99, 1e-8


class ParamStore:
    """Uniquely named parameter tensors plus optimizer moment buffers.

    Shapes are fixed at creation; loading a state dict writes into the
    existing arrays so live network references stay valid.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def create(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValidationError(f"parameter {name!r} already exists")
        t = Tensor(np.array(data, dtype=np.float64))
        self._params[name] = t
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValidationError(f"state dict mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, arr in state.items():
            t = self._params[name]
            if t.data.shape != arr.shape:
                raise ValidationError(f"parameter {name!r}: shape {arr.shape} != expected {t.data.shape}")
            t.data[...] = arr


def backward(loss: Tensor | np.ndarray, store: ParamStore, tape: Tape) -> dict[str, np.ndarray]:
    """Gradient map name -> array for every parameter.

    Parameters not reachable from the loss get zero gradients.
    """
    names = store.names()
    gs = grad(loss, [store[n] for n in names], tape)
    return dict(zip(names, gs))


def adam_step(store: ParamStore, grads: dict[str, np.ndarray], lr: float = 2e-4) -> None:
    """Standard Adam update with bias correction over all params, with
    beta1 0.8, beta2 0.99 and eps 1e-8."""
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    for name in store.names():
        if name not in grads:
            raise ValidationError(f"adam_step: missing gradient for parameter {name!r} (detached graph?)")
        g = grads[name]
        p = store[name]
        m = store._m.get(name)
        if m is None:
            m = store._m[name] = np.zeros_like(p.data)
        v = store._v.get(name)
        if v is None:
            v = store._v[name] = np.zeros_like(p.data)
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)
