"""Minimal reverse-mode autodiff on dense float64 arrays.

Provides exactly the primitives that training, eval and streaming run; the
ones that only test oracles compose live under tests/. Every operation
records a node on the active tape; backward() replays the tape in reverse
execution order and accumulates gradients additively at fan-out points.
The model runs in float64. The primitives also carry np.longdouble values
through unchanged (DTensor keeps that dtype, temporal_conv1d pads in it):
tests/grad_oracle.py runs these src primitives on longdouble inputs to take
its central differences in extended precision, so EXTENDED and that
passthrough stay here.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

# Extended-precision dtype that DTensor keeps as it is, for the gradient
# oracle's finite differences.
EXTENDED = np.longdouble


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class DTensor:
    """Dense n-dimensional array with an optional gradient buffer.

    Values are float64, except that an np.longdouble array stays longdouble
    so the gradient oracle can run the model in extended precision.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        if values.dtype != EXTENDED:
            values = values.astype(np.float64, copy=False)
        self.values = values
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        return self.grad

    def zero_grad(self) -> None:
        """Clear the gradient. A buffer that is a view, as into the trainer's
        ParameterArena, is zeroed in place and stays bound, so the next
        backward pass allocates nothing; a buffer the tensor owns is dropped,
        which frees its memory between passes outside training."""
        if self.grad is not None and self.grad.base is not None:
            self.grad.fill(0.0)
        else:
            self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DTensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """A named trainable tensor.

    It holds no Adam state: the moments and the step count belong to the
    ParameterArena that one `trainer.train` call builds, so a model carries
    only its values.
    """

    __slots__ = ("name", "tensor")

    def __init__(self, values, name: str = ""):
        self.name = name
        self.tensor = DTensor(values, requires_grad=True)

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.tensor.values.shape})"


def init_uniform(rng: np.random.Generator | None, shape: Sequence[int], fan_in: int,
                 name: str) -> Parameter:
    """Uniform init in +-sqrt(1/fan_in), the convention used for every weight.

    With no generator the values are left uninitialised, for a checkpoint
    loader that overwrites every one of them.
    """
    if rng is None:
        return Parameter(np.empty(tuple(shape)), name=name)
    bound = math.sqrt(1.0 / fan_in)
    return Parameter(rng.uniform(-bound, bound, size=tuple(shape)), name=name)


def init_zeros(shape: Sequence[int], name: str) -> Parameter:
    return Parameter(np.zeros(tuple(shape)), name=name)


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class Tape:
    """Ordered record of executed primitives for one forward pass."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[tuple[DTensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, output: DTensor) -> None:
        """Seed d(output)=1 and pull gradients back through the tape.

        `output` must be a scalar (size-1) tensor. Nodes whose output never
        received a gradient are dead branches and are skipped.
        """
        if output.values.size != 1:
            raise ShapeError(f"backward needs a scalar output, got shape {output.values.shape}")
        output.ensure_grad()[...] = 1.0
        for out, pull in reversed(self._nodes):
            if out.grad is not None:
                pull(out.grad)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def _as_tensor(x) -> DTensor:
    if isinstance(x, Parameter):
        return x.tensor
    if isinstance(x, DTensor):
        return x
    return DTensor(x)


def _record(out: DTensor, pull: Callable[[np.ndarray], None]) -> None:
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1]._nodes.append((out, pull))


def _needs(*tensors: DTensor) -> bool:
    return bool(_TAPE_STACK) and any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def affine(x, w, b) -> DTensor:
    """out = x @ w + b with x: (..., k), w: (k, n), b: (n,)."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.values.shape[-1] != w.values.shape[0]:
        raise ShapeError(f"affine: x shape {x.values.shape} does not match w shape {w.values.shape}")
    if b.values.shape != (w.values.shape[1],):
        raise ShapeError(f"affine: b shape {b.values.shape} does not match w shape {w.values.shape}")
    out = DTensor(x.values @ w.values + b.values, requires_grad=_needs(x, w, b))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g @ w.values.T
        if w.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.values.reshape(-1, x.values.shape[-1])
            w.ensure_grad()[...] += x2.T @ g2
        if b.requires_grad:
            b.ensure_grad()[...] += g.reshape(-1, g.shape[-1]).sum(axis=0)

    _record(out, pull)
    return out


def linear(x, w) -> DTensor:
    """out = x @ w, the bias-free affine map."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.values.shape[-1] != w.values.shape[0]:
        raise ShapeError(f"linear: x shape {x.values.shape} does not match w shape {w.values.shape}")
    out = DTensor(x.values @ w.values, requires_grad=_needs(x, w))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g @ w.values.T
        if w.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.values.reshape(-1, x.values.shape[-1])
            w.ensure_grad()[...] += x2.T @ g2

    _record(out, pull)
    return out


def graph_apply(a: np.ndarray, x) -> DTensor:
    """Left-multiply by a constant (non-learnable) matrix: out = a @ x.

    x may carry leading batch dimensions: (..., n, c) with a: (n, n).
    """
    x = _as_tensor(x)
    a = np.asarray(a, dtype=np.float64)
    if x.values.shape[-2] != a.shape[1]:
        raise ShapeError(f"graph_apply: matrix {a.shape} does not match x {x.values.shape}")
    out = DTensor(np.matmul(a, x.values), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += np.matmul(a.T, g)

    _record(out, pull)
    return out


def temporal_conv1d(x, w, b) -> DTensor:
    """Same-length 1D convolution over the leading (time) axis.

    x: (L, C_in), w: (C_out, C_in, k) with k odd, b: (C_out,). The input is
    zero-padded by (k-1)/2 frames on each side so the output is (L, C_out).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    c_out, c_in, k = w.values.shape
    if k % 2 == 0:
        raise ConfigurationError(f"temporal_conv1d kernel size must be odd, got {k}")
    if x.values.ndim != 2 or x.values.shape[1] != c_in:
        raise ShapeError(f"temporal_conv1d: x shape {x.values.shape} does not match w shape {w.values.shape}")
    length = x.values.shape[0]
    half = (k - 1) // 2
    padded = np.zeros((length + k - 1, c_in), dtype=np.result_type(x.values, w.values))
    padded[half:half + length] = x.values
    # windows[i] = padded[i : i+k] flattened as (k, C_in)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, c_in)).reshape(length, k * c_in)
    # kernel laid out to match the (k, C_in) window flattening
    w2 = np.transpose(w.values, (2, 1, 0)).reshape(k * c_in, c_out)
    out = DTensor(windows @ w2 + b.values, requires_grad=_needs(x, w, b))

    def pull(g: np.ndarray) -> None:
        if w.requires_grad:
            gw2 = windows.T @ g  # (k*C_in, C_out)
            w.ensure_grad()[...] += np.transpose(gw2.reshape(k, c_in, c_out), (2, 1, 0))
        if b.requires_grad:
            b.ensure_grad()[...] += g.sum(axis=0)
        if x.requires_grad:
            gwin = (g @ w2.T).reshape(length, k, c_in)
            gpad = np.zeros_like(padded)
            for j in range(k):
                gpad[j:j + length] += gwin[:, j, :]
            x.ensure_grad()[...] += gpad[half:half + length]

    _record(out, pull)
    return out


def _sigmoid_vals(v: np.ndarray) -> np.ndarray:
    # exp(-|v|) stays in the underflow-safe half plane; each element then
    # takes 1/(1+e) or e/(1+e) by its sign, the same operations as a masked
    # two-branch form (tests/tape_oracle.py) without gathering the halves.
    # The result is allocated before the temporaries, so the gates that
    # lstm_timeline keeps per step do not sit above freed blocks: allocated
    # last, they raised the paper point's peak RSS by 2-3 MB.
    out = np.empty_like(v)
    e = np.exp(-np.abs(v))
    return np.divide(np.where(v >= 0, 1.0, e), 1.0 + e, out=out)


def _softmax_vals(v: np.ndarray) -> np.ndarray:
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def relu(x) -> DTensor:
    x = _as_tensor(x)
    out = DTensor(np.maximum(x.values, 0.0), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * (x.values > 0.0)

    _record(out, pull)
    return out


def sigmoid(x) -> DTensor:
    x = _as_tensor(x)
    y = _sigmoid_vals(x.values)
    out = DTensor(y, requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * y * (1.0 - y)

    _record(out, pull)
    return out


def add(a, b) -> DTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add: shapes {a.values.shape} and {b.values.shape} differ")
    out = DTensor(a.values + b.values, requires_grad=_needs(a, b))

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a.ensure_grad()[...] += g
        if b.requires_grad:
            b.ensure_grad()[...] += g

    _record(out, pull)
    return out


def mul(a, b) -> DTensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: shapes {a.values.shape} and {b.values.shape} differ")
    out = DTensor(a.values * b.values, requires_grad=_needs(a, b))

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a.ensure_grad()[...] += g * b.values
        if b.requires_grad:
            b.ensure_grad()[...] += g * a.values

    _record(out, pull)
    return out


def scale(x, k: float) -> DTensor:
    x = _as_tensor(x)
    out = DTensor(x.values * k, requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * k

    _record(out, pull)
    return out


def add_const(x, k: float) -> DTensor:
    x = _as_tensor(x)
    out = DTensor(x.values + k, requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g

    _record(out, pull)
    return out


def log(x) -> DTensor:
    """Natural log; callers must keep inputs positive (clip_min first)."""
    x = _as_tensor(x)
    out = DTensor(np.log(x.values), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g / x.values

    _record(out, pull)
    return out


def clip_min(x, lo: float) -> DTensor:
    """max(x, lo); the gradient is zero where the clamp is active."""
    x = _as_tensor(x)
    out = DTensor(np.maximum(x.values, lo), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g * (x.values > lo)

    _record(out, pull)
    return out


def reduce_sum(x, axis: int | None = None) -> DTensor:
    x = _as_tensor(x)
    out = DTensor(x.values.sum(axis=axis), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            if axis is None:
                x.ensure_grad()[...] += g
            else:
                x.ensure_grad()[...] += np.expand_dims(g, axis)

    _record(out, pull)
    return out


def reduce_mean(x, axis: int | None = None) -> DTensor:
    x = _as_tensor(x)
    count = x.values.size if axis is None else x.values.shape[axis]
    out = DTensor(x.values.mean(axis=axis), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            if axis is None:
                x.ensure_grad()[...] += g / count
            else:
                x.ensure_grad()[...] += np.expand_dims(g, axis) / count

    _record(out, pull)
    return out


def reshape(x, shape: Sequence[int]) -> DTensor:
    x = _as_tensor(x)
    out = DTensor(x.values.reshape(tuple(shape)), requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            x.ensure_grad()[...] += g.reshape(x.values.shape)

    _record(out, pull)
    return out


def take_entries(x, rows: np.ndarray, cols: np.ndarray) -> DTensor:
    """Gather x[rows[j], cols[j]] into a vector; backward scatter-adds."""
    x = _as_tensor(x)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = DTensor(x.values[rows, cols], requires_grad=_needs(x))

    def pull(g: np.ndarray) -> None:
        if x.requires_grad:
            np.add.at(x.ensure_grad(), (rows, cols), g)

    _record(out, pull)
    return out


# ---------------------------------------------------------------------------
# LSTM: one step on plain arrays and a whole timeline as one node
# ---------------------------------------------------------------------------

def lstm_step_values(f, h_prev, c_prev, w_ih, w_hh, b, w_a, b_a) -> tuple[np.ndarray, ...]:
    """One step of the standard gated recurrence and its softmax head.

    f: (C_f,), h_prev/c_prev: (H,), w_ih: (C_f, 4H), w_hh: (H, 4H), b: (4H,),
    w_a: (H, K), b_a: (K,). Gate layout along the 4H axis: input, forget,
    candidate, output. Returns (gate_i, gate_f, cand, gate_o, c, tanh_c, h, y)
    with y = softmax(h @ w_a + b_a); h is bounded in (-1, 1), and the
    intermediates are what lstm_timeline's backward pass needs.
    """
    hidden = h_prev.shape[0]
    z = (f @ w_ih + b) + h_prev @ w_hh
    gates_if = _sigmoid_vals(z[0:2 * hidden])
    gate_i, gate_f = gates_if[0:hidden], gates_if[hidden:2 * hidden]
    cand = np.tanh(z[2 * hidden:3 * hidden])
    gate_o = _sigmoid_vals(z[3 * hidden:4 * hidden])
    c = gate_f * c_prev + gate_i * cand
    tanh_c = np.tanh(c)
    h = gate_o * tanh_c
    return gate_i, gate_f, cand, gate_o, c, tanh_c, h, _softmax_vals(h @ w_a + b_a)


# Bytes of a weight-gradient row block in lstm_timeline's backward pass: the
# block stays in cache while einsum adds every step's term to it.
OUTER_BLOCK_BYTES = 256 * 1024


def _add_outer_sums(worker_jobs, own_jobs) -> None:
    """grad += einsum("ir,ic->rc", left, right) for each (grad, left, right)
    job, the first list on a worker thread and the second on this one.

    einsum releases the GIL, so the two lists run on two cores. Each job
    adds into its own gradient rows, so the bits do not depend on the split.
    The worker is joined before this returns, and the first error either
    thread met is raised here.
    """
    errors = []

    def add_sums(jobs) -> None:
        try:
            for grad, left, right in jobs:
                grad += np.einsum("ir,ic->rc", left, right)
        except BaseException as exc:
            errors.append(exc)

    worker = threading.Thread(target=add_sums, args=(worker_jobs,), name="lstm-outer-sums")
    worker.start()
    add_sums(own_jobs)
    worker.join()
    if errors:
        raise errors[0]


def lstm_timeline(x, w_ih, w_hh, b, w_a, b_a) -> DTensor:
    """Softmax rows of an LSTM run over the rows of x from a zero state.

    x: (L, C_f), w_ih: (C_f, 4H), w_hh: (H, 4H), b: (4H,), w_a: (H, K),
    b_a: (K,) -> (L, K), row i = softmax(h_i @ w_a + b_a). This is an LSTM
    cell, affine and softmax per step followed by a row stack, recorded as
    one tape node. Its values are bitwise the same as those per-step nodes
    give, and so are its gradients where they start from zero
    (tests/lstm_oracle.py records both forms):
    - the forward pass runs lstm_step_values per row, the kernel, head
      included, that OnlineBranch.online_step runs too;
    - the backward pass walks the steps newest first with the per-step
      nodes' operations in their order, keeping each step's gate gradient
      dz as a row of an (L, 4H) array;
    - the weight gradients are summed once the walk ends. Each step's dz and
      softmax-gradient rows are kept newest first, in row 0 up, so
      np.einsum("ir,ic->rc", left, rows) adds each weight's rounded terms
      outer(h_{i-1}, dz_i), outer(x_i, dz_i) and outer(h_i, dlogits_i)
      from zero, newest first, as the per-step nodes add them, and the sum
      is added to the gradient once; b and b_a take np.add.reduce of the
      rows. With numpy's default optimize=False, einsum adds the products
      in the memory order of the summed axis, with no fused multiply-add
      (tests/test_autodiff.py guards this), so every operand has positive
      strides. The sums run in cache-sized row blocks, half of them on a
      worker thread (_add_outer_sums).
    A node thus adds its whole contribution to each weight once: into a
    zero gradient it gives the per-step nodes' bits, and into a gradient
    that holds g it gives g + (those bits).
    """
    x, w_ih, w_hh, b, w_a, b_a = (_as_tensor(t) for t in (x, w_ih, w_hh, b, w_a, b_a))
    hidden = w_hh.values.shape[0]
    if (x.values.ndim != 2 or w_ih.values.shape != (x.values.shape[1], 4 * hidden)
            or w_hh.values.shape != (hidden, 4 * hidden) or b.values.shape != (4 * hidden,)
            or w_a.values.ndim != 2 or w_a.values.shape[0] != hidden
            or b_a.values.shape != (w_a.values.shape[1],)):
        raise ShapeError(
            f"lstm_timeline: x {x.values.shape}, w_ih {w_ih.values.shape}, "
            f"w_hh {w_hh.values.shape}, b {b.values.shape}, "
            f"w_a {w_a.values.shape}, b_a {b_a.values.shape}")
    count = x.values.shape[0]
    zero = np.zeros(hidden)
    cells = []
    h = c = zero
    for i in range(count):
        cell = lstm_step_values(x.values[i], h, c, w_ih.values, w_hh.values, b.values,
                                w_a.values, b_a.values)
        c, h = cell[4], cell[6]
        cells.append(cell)
    out = DTensor(np.stack([cell[7] for cell in cells]),
                  requires_grad=_needs(x, w_ih, w_hh, b, w_a, b_a))
    recurrent = any(t.requires_grad for t in (x, w_ih, w_hh, b))

    def pull(g: np.ndarray) -> None:
        # row n of each buffer is step count-1-n: row 0 is the newest step
        h_rows = np.stack([cell[6] for cell in reversed(cells)] + [zero])
        dlogits_rows = np.empty((count, w_a.values.shape[1]))
        dz_rows = np.empty((count, 4 * hidden)) if recurrent else None
        dx = np.empty_like(x.values) if x.requires_grad else None
        dh_next = dc_next = None    # what step i+1 passed back to h_i and c_i
        for n, i in enumerate(reversed(range(count))):
            gate_i, gate_f, cand, gate_o, c, tanh_c, h, y = cells[i]
            dlogits = np.multiply(y, g[i] - (g[i] * y).sum(axis=-1, keepdims=True),
                                  out=dlogits_rows[n])
            if not recurrent:
                continue
            dh = dlogits @ w_a.values.T
            if dh_next is not None:
                dh = dh_next + dh
            dc = dh * gate_o * (1.0 - tanh_c * tanh_c)
            if dc_next is not None:
                dc = dc_next + dc
            c_prev = cells[i - 1][4] if i else zero
            dz = np.concatenate([
                dc * cand * gate_i * (1.0 - gate_i),
                dc * c_prev * gate_f * (1.0 - gate_f),
                dc * gate_i * (1.0 - cand * cand),
                dh * tanh_c * gate_o * (1.0 - gate_o)], out=dz_rows[n])
            if dx is not None:
                dx[i] = dz @ w_ih.values.T
            dh_next = dz @ w_hh.values.T if i else None
            dc_next = dc * gate_f
        if dx is not None:
            x.ensure_grad()[...] += dx
        if b.requires_grad:
            b.ensure_grad()[...] += np.add.reduce(dz_rows, axis=0)
        if b_a.requires_grad:
            b_a.ensure_grad()[...] += np.add.reduce(dlogits_rows, axis=0)
        jobs = []
        for weight, left, rows in ((w_hh, h_rows[1:], dz_rows),
                                   (w_ih, x.values[::-1], dz_rows),
                                   (w_a, h_rows[:-1], dlogits_rows)):
            if weight.requires_grad:
                grad, left = weight.ensure_grad(), np.ascontiguousarray(left)
                block = max(1, OUTER_BLOCK_BYTES // (rows.shape[1] * grad.itemsize))
                jobs += [(grad[start:start + block], left[:, start:start + block], rows)
                         for start in range(0, grad.shape[0], block)]
        if jobs:
            _add_outer_sums(jobs[:len(jobs) // 2], jobs[len(jobs) // 2:])

    _record(out, pull)
    return out
