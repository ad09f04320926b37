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
# Clips each temporal convolution spans, centred on the clip it scores.
CONV_KERNEL = 3


class PseudoLabelBranch:
    """Temporal conv stack + per-clip scoring head.

    `conv_layers` = 0 is the long-range ablation: no convolution mixes the
    clips, and the head scores each clip's features alone.
    """

    def __init__(self, feature_dim: int, conv_layers: int, rng: np.random.Generator | None):
        self.params: dict[str, Parameter] = {}
        self.conv_layers = conv_layers
        fan = feature_dim * CONV_KERNEL
        for layer in range(self.conv_layers):
            self._add(ad.init_uniform(rng, (feature_dim, feature_dim, CONV_KERNEL), fan,
                                      f"cpgb.conv{layer}_w"))
            self._add(ad.init_zeros((feature_dim,), f"cpgb.conv{layer}_b"))
        self._add(ad.init_uniform(rng, (feature_dim, 1), feature_dim, "cpgb.fc_w"))
        self._add(ad.init_zeros((1,), "cpgb.fc_b"))

    def _add(self, param: Parameter) -> Parameter:
        self.params[param.name] = param
        return param

    def temporal_stack(self, features: DTensor) -> DTensor:
        """Long-range mixing; identity with no conv layer."""
        out = features
        for layer in range(self.conv_layers):
            out = ad.relu(ad.temporal_conv1d(out, self.params[f"cpgb.conv{layer}_w"],
                                             self.params[f"cpgb.conv{layer}_b"]))
        return out

    def clip_scores(self, features: DTensor) -> DTensor:
        """(L, C_f) -> raw per-clip action scores (L, 1)."""
        mixed = self.temporal_stack(features)
        return ad.affine(mixed, self.params["cpgb.fc_w"], self.params["cpgb.fc_b"])


def top_k_count(clip_count: int, kappa: int) -> int:
    return max(1, clip_count // kappa)


def top_k_indices(scores: np.ndarray, kappa: int) -> np.ndarray:
    """Indices of the K largest of the (L,) clip scores, ascending; lower
    index on ties."""
    count = top_k_count(scores.shape[0], kappa)
    return np.sort(np.argsort(-scores, kind="stable")[:count])


def topk_pool(x: DTensor, kappa: int, col: int) -> DTensor:
    """Mean of the K largest entries of column `col` of x, as a () tensor.

    K = max(1, L // kappa). The result is every video-level score of the
    model; its gradient reaches only the picked entries, each as 1/K.
    """
    picked = top_k_indices(x.values[:, col], kappa)
    return ad.reduce_mean(ad.take_entries(x, picked, np.full(picked.size, col)))


def binary_cross_entropy(prob: DTensor, labels: np.ndarray) -> DTensor:
    """-log p for a positive video, -log(1 - p) for a negative one, from the
    () video probability and the video's one 0/1 label, as a () tensor;
    the probability is clamped at PROB_EPS before the log.

    The plain MIL objective only scores positive videos; the binary form
    extends it so negative videos still push their probability down. The
    values and gradients are bitwise those of the two-term form
    -[y log p + (1 - y) log(1 - p)] (tests/tape_oracle.py).
    """
    if labels[0] == 0:
        prob = ad.one_minus(prob)
    return ad.neg_log(prob, PROB_EPS)


def mil_loss(scores: DTensor, labels: np.ndarray, kappa: int) -> tuple[DTensor, float]:
    """Video-level MIL loss from raw clip scores; also returns the video
    probability."""
    video_prob = ad.sigmoid(topk_pool(scores, kappa, 0))
    return binary_cross_entropy(video_prob, labels), float(video_prob.values)


def generate_pseudo_labels(clip_probs: np.ndarray, video_prob: float,
                           theta_class: float, theta_score: float,
                           labels: np.ndarray) -> np.ndarray:
    """Two-stage thresholding of the (L, 1) clip probabilities into 0
    (background) or 1 (action).

    A video's clips may be labelled only if its video probability
    `video_prob` clears theta_class AND its ground-truth label is positive
    (label filtering); then each clip whose probability clears theta_score
    is labelled 1. The result is a constant under differentiation.
    """
    out = np.zeros(clip_probs.shape[0], dtype=np.intp)
    if video_prob >= theta_class and labels[0] == 1:
        out[clip_probs[:, 0] >= theta_score] = 1
    return out
