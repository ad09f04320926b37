"""Per-parameter Adam, the oracle for the arena's blocked trainer.adam_step.

It updates one parameter at a time with whole-array expressions, treating a
missing gradient as zero: the formula the blocked pass must equal bitwise.
"""

import numpy as np

from wogma.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def per_parameter_adam_step(params, config, grad_scale=1.0):
    for p in params:
        grad = p.tensor.grad
        grad = np.zeros_like(p.values) if grad is None else grad * grad_scale
        grad = grad + config.weight_decay * p.values
        p.step_count += 1
        p.adam_m[...] = ADAM_BETA1 * p.adam_m + (1.0 - ADAM_BETA1) * grad
        p.adam_v[...] = ADAM_BETA2 * p.adam_v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = p.adam_m / (1.0 - ADAM_BETA1 ** p.step_count)
        v_hat = p.adam_v / (1.0 - ADAM_BETA2 ** p.step_count)
        p.tensor.values[...] -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
