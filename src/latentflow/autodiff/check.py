"""Central finite-difference gradient checking, the independent oracle for
every backward rule in the package."""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ValidationError
from .store import ParamStore, backward
from .tensor import Tape, Tensor, value


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    store: ParamStore,
    h: float = 1e-5,
    max_coords_per_param: int | None = None,
) -> float:
    """Worst relative error between reverse-mode and central-difference
    gradients over every parameter of the store.

    ``loss_fn`` must rebuild the forward pass from the store's current
    values and be deterministic (dropout off or with a fixed mask). Before
    differencing, ``loss_fn`` is evaluated twice at the same parameters and
    ``ValidationError`` is raised if the two values differ; a nondeterministic
    loss whose two probes happen to agree is not caught. Relative errors use
    denominators floored at 1e-8. ``max_coords_per_param`` caps the
    per-tensor work by probing a random coordinate subset, drawn from one
    generator seeded 0.
    """
    probe_a = float(value(loss_fn()))
    probe_b = float(value(loss_fn()))
    if probe_a != probe_b:
        raise ValidationError(
            "finite_diff_check: loss function is not deterministic "
            f"({probe_a!r} vs {probe_b!r}); fix the seed or disable dropout"
        )

    with Tape() as tape:
        loss = loss_fn()
    grads = backward(loss, store, tape)

    coord_rng = np.random.default_rng(0)
    worst = 0.0
    for name in store.names():
        flat = store[name].data.ravel()
        gflat = grads[name].ravel()
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            coords = coord_rng.choice(flat.size, size=max_coords_per_param, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            lp = float(value(loss_fn()))
            flat[i] = orig - h
            lm = float(value(loss_fn()))
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            ad = gflat[i]
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst
