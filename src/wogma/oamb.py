"""Online action modeling branch: causal recurrent scoring of clips.

Each clip advances an LSTM state and emits a softmax over background (index
0) and the action (index 1). Row i of the timeline depends on clips 1..i only.
The streaming path (online_step) and the training path (timeline, one tape
node through ad.lstm_timeline) both run the one step kernel
ad.lstm_step_values per clip, softmax head included, so their outputs are
bitwise identical by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Parameter
from .cpgb import PROB_EPS, binary_cross_entropy, topk_pool
from .errors import NumericalError
from .lfem import ClipWindowing


@dataclass
class OnlineState:
    """Single-owner recurrent state; advanced exactly once per clip."""

    h: np.ndarray
    c: np.ndarray
    clips_seen: int = 0


@dataclass(frozen=True)
class DetectionInstance:
    start_frame: int
    end_frame: int
    score: float


class OnlineBranch:
    """LSTM over clip features plus an affine scoring head."""

    def __init__(self, feature_dim: int, hidden: int, rng: np.random.Generator | None):
        self.hidden = hidden
        self.params: dict[str, Parameter] = {}
        gate_fan = feature_dim + hidden
        self._add(ad.init_uniform(rng, (feature_dim, 4 * hidden), gate_fan, "oamb.w_ih"))
        self._add(ad.init_uniform(rng, (hidden, 4 * hidden), gate_fan, "oamb.w_hh"))
        self._add(ad.init_zeros((4 * hidden,), "oamb.b"))
        self._add(ad.init_uniform(rng, (hidden, 2), hidden, "oamb.w_a"))
        self._add(ad.init_zeros((2,), "oamb.b_a"))

    def _add(self, param: Parameter) -> Parameter:
        self.params[param.name] = param
        return param

    def initial_state(self) -> OnlineState:
        return OnlineState(h=np.zeros(self.hidden), c=np.zeros(self.hidden), clips_seen=0)

    # -- streaming (inference) path ----------------------------------------

    def online_step(self, state: OnlineState, feature: np.ndarray) -> tuple[OnlineState, np.ndarray]:
        """Advance one clip; returns the new state and the (2,) softmax row.

        Runs ad.lstm_step_values, the training timeline's step kernel and head,
        so streaming rows equal `timeline` rows bitwise by construction. A
        non-finite row, as from a non-finite weight, raises NumericalError
        naming the clip, so no inference path reports it as a score.
        """
        p = self.params
        _, _, _, _, c, _, h, probs = ad.lstm_step_values(
            feature, state.h, state.c, p["oamb.w_ih"].values, p["oamb.w_hh"].values,
            p["oamb.b"].values, p["oamb.w_a"].values, p["oamb.b_a"].values)
        clips_seen = state.clips_seen + 1
        # the two probabilities sum to about 1 unless one is nan or inf; one
        # scalar test costs less than np.isfinite on a (2,) array
        if not math.isfinite(probs[0] + probs[1]):
            raise NumericalError(f"clip {clips_seen}: non-finite probabilities {probs.tolist()}")
        return OnlineState(h=h, c=c, clips_seen=clips_seen), probs

    def stream(self, features: np.ndarray) -> np.ndarray:
        """Run the streaming path over (L, C_f) features -> (L, 2)."""
        state = self.initial_state()
        rows = np.empty((features.shape[0], 2))
        for i in range(features.shape[0]):
            state, rows[i] = self.online_step(state, features[i])
        return rows

    # -- training path -------------------------------------------------------

    def timeline(self, features: DTensor) -> DTensor:
        """Differentiable timeline (L, 2) over clip features (L, C_f).

        One tape node for the whole recurrence; its rows equal `stream`'s
        bitwise, as both run `ad.lstm_step_values` per clip.
        """
        return ad.lstm_timeline(features, self.params["oamb.w_ih"], self.params["oamb.w_hh"],
                                self.params["oamb.b"], self.params["oamb.w_a"],
                                self.params["oamb.b_a"])


def frame_loss(timeline: DTensor, pseudo_labels: np.ndarray) -> DTensor:
    """Mean cross-entropy of timeline rows against one-hot pseudo labels:
    the mean of -log of each row's labelled entry, clamped at PROB_EPS."""
    labels = np.asarray(pseudo_labels, dtype=np.intp)
    count = timeline.values.shape[0]
    if labels.shape != (count,):
        raise ad.ShapeError(
            f"frame_loss: {labels.shape[0]} labels for {count} timeline rows")
    picked = ad.take_entries(timeline, np.arange(count), labels)
    return ad.reduce_mean(ad.neg_log(picked, PROB_EPS))


def mil_loss_online(timeline: DTensor, labels: np.ndarray,
                    kappa: int) -> tuple[DTensor, float]:
    """Top-K pooled video probability of the action, scored as BCE; also
    returns that probability.

    Pooling runs on the post-softmax action column, which already live in
    [0, 1], so no extra squashing is applied.
    """
    video_prob = topk_pool(timeline, kappa, 1)
    return binary_cross_entropy(video_prob, labels), float(video_prob.values)


def prefix_video_prob(timeline_probs: np.ndarray, prefix: int, kappa: int) -> float:
    """Top-K video probability of the action over the first `prefix` clips."""
    count = timeline_probs.shape[0]
    if not 1 <= prefix <= count:
        raise ValueError(f"prefix {prefix} outside 1..{count}")
    return float(topk_pool(DTensor(timeline_probs[:prefix]), kappa, 1).values)


def extract_instances(timeline_probs: np.ndarray, threshold: float,
                      windowing: ClipWindowing) -> list[DetectionInstance]:
    """Maximal runs of consecutive clips whose action probability (column 1)
    is at or above threshold, one instance each.

    Instance score is the mean clip probability over the run; boundaries map
    through the clip window. Instances come back sorted by score descending.
    """
    instances: list[DetectionInstance] = []
    col = timeline_probs[:, 1]
    count = col.shape[0]
    i = 0
    while i < count:
        if col[i] >= threshold:
            j = i
            while j + 1 < count and col[j + 1] >= threshold:
                j += 1
            start, _ = windowing.frame_interval(i + 1)
            _, end = windowing.frame_interval(j + 1)
            instances.append(DetectionInstance(start_frame=start, end_frame=end,
                                               score=float(col[i:j + 1].mean())))
            i = j + 1
        else:
            i += 1
    instances.sort(key=lambda inst: (-inst.score, inst.start_frame))
    return instances


def stream_record(clip_index: int, windowing: ClipWindowing, probs: np.ndarray) -> dict:
    """One JSONL record of the streaming detection output."""
    start, end = windowing.frame_interval(clip_index)
    return {"clip": clip_index, "start_frame": start, "end_frame": end,
            "probs": [float(p) for p in probs]}
