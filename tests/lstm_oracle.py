"""Per-step tape form of the OAMB timeline, the oracle for ad.lstm_timeline.

per_step_timeline records lstm_cell, affine and softmax per clip and stacks
the rows, one tape node per primitive: the form the one-node timeline must
equal bitwise when its inputs' gradients start from zero. per_step_node
wraps it as one node that adds each input's whole gradient once, as
ad.lstm_timeline does, the form it must equal when a gradient already holds
another video's terms.
"""

import numpy as np

from tape_oracle import lstm_cell, mul, slice_rows, softmax, stack_rows, sum_all
from wogma import autodiff as ad
from wogma.autodiff import DTensor


def per_step_timeline(x, w_ih, w_hh, b, w_a, b_a):
    x = ad._as_tensor(x)
    hidden = ad._as_tensor(w_hh).values.shape[0]
    h = DTensor(np.zeros(hidden))
    c = DTensor(np.zeros(hidden))
    rows = []
    for i in range(x.values.shape[0]):
        f = ad.reshape(slice_rows(x, i, i + 1), (x.values.shape[1],))
        h, c = lstm_cell(h, c, f, w_ih, w_hh, b)
        rows.append(softmax(ad.affine(h, w_a, b_a)))
    return stack_rows(rows)


def per_step_node(x, w_ih, w_hh, b, w_a, b_a):
    """per_step_timeline as one node on the active tape. Its backward pass
    runs the per-step tape on fresh copies of the inputs, from zero
    gradients, and adds each copy's gradient to its input once."""
    inputs = [ad._as_tensor(t) for t in (x, w_ih, w_hh, b, w_a, b_a)]
    out = DTensor(per_step_timeline(*[t.values for t in inputs]).values,
                  requires_grad=ad._needs(*inputs))

    def pull(g):
        copies = [DTensor(t.values, requires_grad=t.requires_grad) for t in inputs]
        with ad.Tape() as tape:
            loss = sum_all(mul(per_step_timeline(*copies), DTensor(g)))
        tape.backward(loss)
        for t, copy in zip(inputs, copies):
            if t.requires_grad:
                t.ensure_grad()[...] += copy.grad

    ad._record(out, pull)
    return out
