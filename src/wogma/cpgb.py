"""Pseudo-label generating branch: temporal convolutions over clip features,
per-clip action scores, top-K video pooling with its MIL loss, and the
two-stage-threshold pseudo labels.

The branch sees the whole clip sequence (it only runs at training time), so
its convolutions may mix future clips freely.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Parameter

PROB_EPS = 1e-7


class PseudoLabelBranch:
    """Temporal conv stack + per-clip scoring head."""

    def __init__(self, feature_dim: int, n_classes: int, conv_layers: int,
                 conv_kernel: int, ablate_longrange: bool, rng: np.random.Generator):
        self.n_classes = n_classes
        self.ablate_longrange = ablate_longrange
        self.params: dict[str, Parameter] = {}
        self.conv_layers = 0 if ablate_longrange else conv_layers
        fan = feature_dim * conv_kernel
        for layer in range(self.conv_layers):
            self._add(ad.init_uniform(rng, (feature_dim, feature_dim, conv_kernel), fan,
                                      f"cpgb.conv{layer}_w"))
            self._add(ad.init_zeros((feature_dim,), f"cpgb.conv{layer}_b"))
        self._add(ad.init_uniform(rng, (feature_dim, n_classes), feature_dim, "cpgb.fc_w"))
        self._add(ad.init_zeros((n_classes,), "cpgb.fc_b"))

    def _add(self, param: Parameter) -> Parameter:
        self.params[param.name] = param
        return param

    def temporal_stack(self, features: DTensor) -> DTensor:
        """Long-range mixing; identity when the conv stack is ablated."""
        out = features
        for layer in range(self.conv_layers):
            out = ad.relu(ad.temporal_conv1d(out, self.params[f"cpgb.conv{layer}_w"],
                                             self.params[f"cpgb.conv{layer}_b"]))
        return out

    def clip_scores(self, features: DTensor) -> DTensor:
        """(L, C_f) -> raw per-clip scores (L, n_c)."""
        mixed = self.temporal_stack(features)
        return ad.affine(mixed, self.params["cpgb.fc_w"], self.params["cpgb.fc_b"])


def top_k_count(clip_count: int, kappa: int) -> int:
    return max(1, clip_count // kappa)


def top_k_indices(scores: np.ndarray, kappa: int) -> np.ndarray:
    """(n_c, K) indices of each column's K largest clip scores, ascending;
    lower index on ties."""
    count = top_k_count(scores.shape[0], kappa)
    return np.sort(np.argsort(-scores, axis=0, kind="stable")[:count], axis=0).T


def topk_pool(x: DTensor, kappa: int, first_col: int) -> DTensor:
    """Mean of the K largest entries of each column of x from `first_col` on.

    K = max(1, L // kappa). The (n_c,) result is every video-level score of
    the model; its gradient reaches only the picked entries, each as 1/K.
    """
    picked = top_k_indices(x.values[:, first_col:], kappa)
    n_cols, count = picked.shape
    cols = np.repeat(np.arange(first_col, first_col + n_cols), count)
    return ad.reduce_mean(ad.reshape(ad.take_entries(x, picked.ravel(), cols),
                                     (n_cols, count)), axis=1)


def binary_cross_entropy(probs: DTensor, labels: np.ndarray) -> DTensor:
    """-sum_c [y_c log p_c + (1 - y_c) log(1 - p_c)] with clamped probs.

    The plain MIL objective only scores positive classes; the binary form
    extends it so all-negative videos still push their probabilities down.
    """
    y = np.asarray(labels, dtype=np.float64)
    log_p = ad.log(ad.clip_min(probs, PROB_EPS))
    log_not_p = ad.log(ad.clip_min(ad.add_const(ad.scale(probs, -1.0), 1.0), PROB_EPS))
    pos = ad.mul(DTensor(y), log_p)
    neg = ad.mul(DTensor(1.0 - y), log_not_p)
    return ad.scale(ad.reduce_sum(ad.add(pos, neg)), -1.0)


def mil_loss(scores: DTensor, labels: np.ndarray, kappa: int) -> tuple[DTensor, np.ndarray]:
    """Video-level MIL loss from raw clip scores; also returns video probs."""
    video_probs = ad.sigmoid(topk_pool(scores, kappa, 0))
    return binary_cross_entropy(video_probs, labels), video_probs.values


def generate_pseudo_labels(clip_probs: np.ndarray, video_probs: np.ndarray,
                           theta_class: float, theta_score: float,
                           labels: np.ndarray) -> np.ndarray:
    """Two-stage thresholding into {0 (background), 1..n_c}.

    A class survives only if its video probability clears theta_class AND the
    video's ground-truth label is positive (label filtering). Surviving
    classes claim clips whose probability clears theta_score; ties go to the
    highest probability. The result is a constant under differentiation.
    """
    clip_count, n_classes = clip_probs.shape
    out = np.zeros(clip_count, dtype=np.intp)
    alive = (np.asarray(video_probs) >= theta_class) & (np.asarray(labels) == 1)
    if not alive.any():
        return out
    masked = np.where(alive[None, :], clip_probs, -np.inf)
    best = masked.argmax(axis=1)
    best_prob = masked[np.arange(clip_count), best]
    hit = best_prob >= theta_score
    out[hit] = best[hit] + 1
    return out
