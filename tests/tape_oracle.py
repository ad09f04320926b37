"""Taped primitives that only the test oracles compose.

tanh, softmax, a masked sigmoid, row slicing, row stacking and the per-step
LSTM cell: lstm_oracle.py builds the per-step form of ad.lstm_timeline from
them, tiled_oracle.py stacks its clip windows with stack_rows, and
criterion 1 checks the gradients of tanh, softmax and lstm_cell. softmax
runs ad._softmax_vals, the kernel of ad.lstm_timeline's head, so the
per-step form can equal the one-node timeline bitwise. The gates' sigmoid
is the two-branch form below, not ad._sigmoid_vals, so the per-step form
checks that kernel's bits instead of sharing them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wogma import autodiff as ad
from wogma.autodiff import DTensor


def masked_sigmoid_vals(v: np.ndarray) -> np.ndarray:
    """Sigmoid by the sign of each element, computing each half apart:
    1/(1+exp(-v)) where v >= 0, exp(v)/(1+exp(v)) elsewhere, so exp()
    stays in the underflow-safe half plane."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x) -> DTensor:
    """ad.sigmoid with the masked two-branch values."""
    x = ad._as_tensor(x)
    y = masked_sigmoid_vals(x.values)
    out = DTensor(y, requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * y * (1.0 - y)

    ad._record(out, pull)
    return out


def tanh(x) -> DTensor:
    x = ad._as_tensor(x)
    y = np.tanh(x.values)
    out = DTensor(y, requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * (1.0 - y * y)

    ad._record(out, pull)
    return out


def softmax(x) -> DTensor:
    """Softmax over the last dimension, computed with max subtraction."""
    x = ad._as_tensor(x)
    y = ad._softmax_vals(x.values)
    out = DTensor(y, requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            x.ensure_grad()[...] += y * (g - dot)

    ad._record(out, pull)
    return out


def slice_rows(x, start: int, stop: int) -> DTensor:
    """View rows [start:stop) along axis 0 (works for 1-D vectors too)."""
    x = ad._as_tensor(x)
    out = DTensor(x.values[start:stop].copy(), requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[start:stop] += g

    ad._record(out, pull)
    return out


def stack_rows(tensors: Sequence[DTensor]) -> DTensor:
    """Stack 1-D tensors of equal length into a matrix (len, d)."""
    ts = [ad._as_tensor(t) for t in tensors]
    out = DTensor(np.stack([t.values for t in ts]), requires_grad=ad._needs(*ts))

    def pull(g: np.ndarray) -> None:
        for i, t in enumerate(ts):
            if t.requires_grad:
                t.ensure_grad()[...] += g[i]

    ad._record(out, pull)
    return out


def lstm_cell(h_prev, c_prev, f, w_ih, w_hh, b) -> tuple[DTensor, DTensor]:
    """One step of the standard gated recurrence.

    f: (C_f,), h_prev/c_prev: (H,), w_ih: (C_f, 4H), w_hh: (H, 4H), b: (4H,).
    Gate layout along the 4H axis: input, forget, candidate, output.
    Returns (h, c); h is bounded in (-1, 1) by construction.
    ad.lstm_step_values runs the same operations in the same order on plain
    arrays, and ad.lstm_timeline runs a whole sequence of steps as one node.
    """
    hidden = ad._as_tensor(h_prev).values.shape[0]
    z = ad.add(ad.affine(f, w_ih, b), ad.linear(h_prev, w_hh))
    gate_i = sigmoid(slice_rows(z, 0, hidden))
    gate_f = sigmoid(slice_rows(z, hidden, 2 * hidden))
    cand = tanh(slice_rows(z, 2 * hidden, 3 * hidden))
    gate_o = sigmoid(slice_rows(z, 3 * hidden, 4 * hidden))
    c = ad.add(ad.mul(gate_f, c_prev), ad.mul(gate_i, cand))
    h = ad.mul(gate_o, tanh(c))
    return h, c
