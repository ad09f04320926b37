"""Per-step tape form of the OAMB timeline, the oracle for ad.lstm_timeline.

It records lstm_cell, affine and softmax per clip and stacks the rows, one
tape node per primitive: the form the one-node timeline must equal bitwise.
"""

import numpy as np

from tape_oracle import lstm_cell, slice_rows, softmax, stack_rows
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
