"""Per-parameter Adam, the oracle for the arena's blocked trainer.adam_step.

It keeps its own moments and step count, and updates one parameter at a
time with whole-array expressions, treating a missing gradient as zero: the
formula the blocked pass must equal bitwise.
"""

import numpy as np

from wogma.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


class PerParameterAdam:
    def __init__(self, params):
        self.params = list(params)
        self.adam_m = [np.zeros_like(p.values) for p in self.params]
        self.adam_v = [np.zeros_like(p.values) for p in self.params]
        self.step_count = 0

    def step(self, config):
        self.step_count += 1
        for p, m, v in zip(self.params, self.adam_m, self.adam_v):
            grad = p.tensor.grad
            grad = np.zeros_like(p.values) if grad is None else grad
            grad = grad + config.weight_decay * p.values
            m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1 ** self.step_count)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.step_count)
            p.tensor.values[...] -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
