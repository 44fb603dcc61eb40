"""Named parameter collection with Adam state."""
from __future__ import annotations

import numpy as np

from ..exceptions import NumericalError, ValidationError
from .tensor import Tensor, Tape, grad

# Adam's moment decay rates and denominator floor
_BETA1, _BETA2, _EPS = 0.8, 0.99, 1e-8


class ParamStore:
    """Uniquely named parameter tensors plus Adam's moments.

    Shapes are fixed at creation; loading a state dict writes into the
    existing arrays so live network references stay valid. Each parameter
    stays its own array. The two moments are one flat buffer each, holding
    the parameters raveled one after another in ``names()`` order; a
    parameter created after a step gets zero moments appended at its
    first step.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m = np.zeros(0)
        self._v = np.zeros(0)
        self.step_count = 0

    def create(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValidationError(f"parameter {name!r} already exists")
        t = Tensor(np.array(data, dtype=np.float64))
        self._params[name] = t
        return t

    def conv(
        self, name: str, cout: int, cin: int, kernel: int, rng: np.random.Generator | None = None
    ) -> tuple[Tensor, Tensor]:
        """Weight and bias of a ``conv1d`` layer, created in that order as
        ``name.w`` [cout, cin, kernel] and ``name.b`` [cout]. The weight is
        drawn N(0, 1/(cin * kernel)) from ``rng``, or zeros without one; the
        bias is zeros."""
        shape = (cout, cin, kernel)
        w = np.zeros(shape) if rng is None else rng.standard_normal(shape) / np.sqrt(cin * kernel)
        return self.create(f"{name}.w", w), self.create(f"{name}.b", np.zeros(cout))

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
    beta1 0.8, beta2 0.99 and eps 1e-8.

    The gradients are concatenated in ``names()`` order into one flat
    buffer, the update runs as whole-buffer in-place ops on it and on the
    flat moments, and each parameter then subtracts its view of the flat
    step. Adam is elementwise, so each element sees the arithmetic of a
    per-parameter update, in the same order.

    A non-finite ``lr`` or gradient value is rejected, naming the step and
    the first bad parameter, before the moments or the step count change,
    so a failed step leaves the store as it was.
    """
    names = store.names()
    params = []
    for name in names:
        if name not in grads:
            raise ValidationError(f"adam_step: missing gradient for parameter {name!r} (detached graph?)")
        p = store[name].data
        if grads[name].size != p.size:
            raise ValidationError(f"adam_step: gradient for parameter {name!r} has {grads[name].size} values, not {p.size}")
        params.append(p)
    g = np.concatenate([grads[n] for n in names], axis=None)
    t = store.step_count + 1
    if not np.isfinite(lr):
        raise ValidationError(f"adam_step: learning rate {lr} at step {t} is not finite")
    if not np.isfinite(g).all():
        bad = next(n for n in names if not np.isfinite(grads[n]).all())
        raise NumericalError(f"adam_step: non-finite gradient for parameter {bad!r} at step {t}")
    store.step_count = t
    c1 = 1.0 - _BETA1**t
    c2 = 1.0 - _BETA2**t
    new = g.size - store._m.size  # parameters created since the last step
    if new:
        store._m = np.concatenate([store._m, np.zeros(new)])
        store._v = np.concatenate([store._v, np.zeros(new)])
    m, v = store._m, store._v
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    g *= g
    g *= 1.0 - _BETA2
    v += g
    step = np.divide(m, c1, out=g)
    step *= lr
    den = v / c2
    np.sqrt(den, out=den)
    den += _EPS
    step /= den
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size
