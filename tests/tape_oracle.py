"""Taped primitives that only the test oracles compose.

The elementwise product, the whole-tensor sum, tanh, softmax, a masked
sigmoid, row slicing, row stacking and the per-step LSTM cell: lstm_oracle.py
builds the per-step form of ad.lstm_timeline from them, tiled_oracle.py
stacks its clip windows with stack_rows, grad_oracle.py projects outputs
onto a probe with mul and sum_all, and
criterion 1 checks the gradients of tanh, softmax and lstm_cell. softmax
runs ad._softmax_vals, the kernel of ad.lstm_timeline's head, so the
per-step form can equal the one-node timeline bitwise. The gates' sigmoid
is the two-branch form below, not ad._sigmoid_vals, so the per-step form
checks that kernel's bits instead of sharing them.

The scalar multiple, the constant shift, the log and the lower clamp are
the chain that ad.neg_log and ad.one_minus each record as one node: the
two-term binary cross-entropy built from them is the oracle for
cpgb.binary_cross_entropy, and chain_frame_loss the one for
oamb.frame_loss.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from wogma import autodiff as ad
from wogma.autodiff import DTensor
from wogma.cpgb import PROB_EPS


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


def mul(a, b) -> DTensor:
    """Elementwise product of two tensors of one shape."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ad.ShapeError(f"mul: shapes {a.values.shape} and {b.values.shape} differ")
    out = DTensor(a.values * b.values, requires_grad=ad._needs(a, b))

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a.ensure_grad()[...] += g * b.values
        if b.requires_grad:
            b.ensure_grad()[...] += g * a.values

    ad._record(out, pull)
    return out


def scale(x, k: float) -> DTensor:
    x = ad._as_tensor(x)
    out = DTensor(x.values * k, requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * k

    ad._record(out, pull)
    return out


def sum_all(x) -> DTensor:
    """The sum of all entries of x, as a () tensor."""
    x = ad._as_tensor(x)
    out = DTensor(x.values.sum(), requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g

    ad._record(out, pull)
    return out


def add_const(x, k: float) -> DTensor:
    x = ad._as_tensor(x)
    out = DTensor(x.values + k, requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g

    ad._record(out, pull)
    return out


def log(x) -> DTensor:
    """Natural log; callers keep inputs positive (clip_min first)."""
    x = ad._as_tensor(x)
    out = DTensor(np.log(x.values), requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g / x.values

    ad._record(out, pull)
    return out


def clip_min(x, lo: float) -> DTensor:
    """max(x, lo); the gradient is zero where the clamp is active."""
    x = ad._as_tensor(x)
    out = DTensor(np.maximum(x.values, lo), requires_grad=ad._needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * (x.values > lo)

    ad._record(out, pull)
    return out


def chain_neg_log(x, lo: float) -> DTensor:
    """ad.neg_log as three nodes: clamp, log, negate."""
    return scale(log(clip_min(x, lo)), -1.0)


def chain_one_minus(x) -> DTensor:
    """ad.one_minus as two nodes: negate, then add 1."""
    return add_const(scale(x, -1.0), 1.0)


def chain_frame_loss(timeline, labels) -> DTensor:
    """oamb.frame_loss as the negated mean of the picked entries of the
    clamped log of every timeline entry."""
    count = ad._as_tensor(timeline).values.shape[0]
    picked = ad.take_entries(log(clip_min(timeline, PROB_EPS)), np.arange(count), labels)
    return scale(ad.reduce_mean(picked), -1.0)


def two_term_binary_cross_entropy(probs, labels) -> DTensor:
    """-[y log p + (1 - y) log(1 - p)], summed over entries, with both
    probabilities clamped at cpgb.PROB_EPS and `labels` of the shape of
    `probs`: the soft-label form that cpgb.binary_cross_entropy must equal
    bitwise for y in {0, 1}."""
    y = np.asarray(labels, dtype=np.float64)
    log_p = log(clip_min(probs, PROB_EPS))
    log_not_p = log(clip_min(chain_one_minus(probs), PROB_EPS))
    pos = mul(DTensor(y), log_p)
    neg = mul(DTensor(1.0 - y), log_not_p)
    return scale(sum_all(ad.add(pos, neg)), -1.0)


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
    ad.lstm_timeline runs the same operations in the same order on plain
    arrays, the cell after the two products through ad.lstm_cell_values, and
    records a whole sequence of steps as one node.
    """
    hidden = ad._as_tensor(h_prev).values.shape[0]
    z = ad.add(ad.affine(f, w_ih, b), ad.linear(h_prev, w_hh))
    gate_i = sigmoid(slice_rows(z, 0, hidden))
    gate_f = sigmoid(slice_rows(z, hidden, 2 * hidden))
    cand = tanh(slice_rows(z, 2 * hidden, 3 * hidden))
    gate_o = sigmoid(slice_rows(z, 3 * hidden, 4 * hidden))
    c = ad.add(mul(gate_f, c_prev), mul(gate_i, cand))
    h = mul(gate_o, tanh(c))
    return h, c
