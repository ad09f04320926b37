"""Central-difference gradient oracle for the taped primitives.

grad_check runs its analytic pass in float64, as the model does, and its
+-h passes through the same src primitives on np.longdouble copies of the
inputs; DTensor and temporal_conv1d keep that dtype, so the differences are
taken in extended precision.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tape_oracle import mul, sum_all
from wogma.autodiff import EXTENDED, DTensor, Tape
from wogma.errors import NumericalError


def grad_check(fn: Callable[..., DTensor], inputs: Sequence[np.ndarray], h: float = 1e-6,
               seed: int = 0) -> float:
    """Max relative error between analytic gradients and central differences.

    `fn` maps DTensor arguments to a DTensor of any shape; the output is
    reduced to a scalar with a fixed random projection so the full Jacobian
    is exercised. Relative error follows
    |analytic - numeric| / max(1e-8, |numeric|), maximised over all input
    elements.

    The analytic pass runs in float64, as the model does. The +-h passes run
    on np.longdouble copies of the inputs and take their difference in
    longdouble: in float64, the central difference of an O(1) loss at
    h = 1e-5 is off by about eps/h ~ 1e-11, which swamps gradients of
    order 1e-9.

    Raises NumericalError if longdouble is no wider than float64 on this
    platform, or if `fn` returns anything but longdouble on those passes
    (some operation dropped back to float64).
    """
    if np.finfo(EXTENDED).eps >= np.finfo(np.float64).eps:
        raise NumericalError(
            f"grad_check needs an extended-precision longdouble; {np.dtype(EXTENDED)} "
            f"has eps {np.finfo(EXTENDED).eps:.3g}, no smaller than float64's")
    arrays = [np.asarray(a, dtype=np.float64) for a in inputs]

    # analytic pass
    tensors = [DTensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = fn(*tensors)
        probe = np.random.default_rng(seed).standard_normal(out.values.shape)
        loss = sum_all(mul(out, DTensor(probe)))
    tape.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.values) for t in tensors]

    wide = [a.astype(EXTENDED) for a in arrays]

    def loss_value() -> np.floating:
        out = fn(*[DTensor(a) for a in wide]).values
        if out.dtype != EXTENDED:
            raise NumericalError(
                f"grad_check: fn returned {out.dtype} on longdouble inputs; "
                "an operation dropped the extended precision")
        return (out * probe).sum()

    worst = 0.0
    for idx, base in enumerate(wide):
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_value()
            flat[j] = orig - h
            down = loss_value()
            flat[j] = orig
            numeric = float((up - down) / (2.0 * h))
            err = abs(analytic[idx].reshape(-1)[j] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, err)
    return worst
