"""Local feature extraction: clip windowing, one multi-scale graph
convolution of each clip, time collapse, and joint aggregation.

The convolution is defined on a clip window through the tiled, normalised
multi-scale matrices that tests/tiled_oracle.py builds. Every frame block
of those matrices is the same N x N matrix divided by tau, so the layer maps
a window to identical frames that are a graph convolution of the window's
per-joint mean pose. That spatial form is what runs: the mean pose is taken
once, each N x N matrix of `graph.build_multiscale` multiplies it as a
constant, and the learned per-frame time collapse reduces to its
frame-summed kernel.

Every clip runs through the same parameters, so features are local: row i of
the output depends only on the frames of clip i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Parameter
from .errors import DataFormatError

# The graph layer mixes joints at graph distances 0..SCALES, with one
# normalised matrix and one weight per distance (MS-G3D's multi-scale scheme).
SCALES = 3


@dataclass(frozen=True)
class ClipWindowing:
    """Sliding-window bookkeeping: tau-frame clips every `stride` frames."""

    tau: int
    stride: int

    def clip_count(self, total_frames: int) -> int:
        return (total_frames - self.tau) // self.stride + 1

    def frame_interval(self, clip_index: int) -> tuple[int, int]:
        """1-indexed inclusive frame range covered by 1-indexed clip i."""
        start = (clip_index - 1) * self.stride + 1
        return start, start + self.tau - 1


def split_clips(frames: np.ndarray, windowing: ClipWindowing, video_id: str) -> np.ndarray:
    """Split video `video_id`'s (T, N, C) frames into (L, tau, N, C) clips;
    remainder dropped. A video shorter than one clip is a data error."""
    tau = windowing.tau
    if frames.shape[0] < tau:
        raise DataFormatError(
            f"video {video_id!r}: {frames.shape[0]} frames, fewer than the {tau} of one clip")
    starts = np.arange(windowing.clip_count(frames.shape[0])) * windowing.stride
    return frames[starts[:, None] + np.arange(tau)]


class LocalFeatureExtractor:
    """Per-clip feature pipeline shared by both downstream branches.

    The default path runs one multi-scale graph convolution on each clip's
    mean pose, collapses time per joint, then aggregates all joints with an
    affine map + relu into one feature vector per clip. `adjacency` holds
    the normalised N x N matrix of each scale, and `thetas` the layer's
    weight for each. With `ablate_local` the whole pipeline is replaced by a
    single affine projection of the flattened raw clip.
    """

    def __init__(self, adjacency: tuple[np.ndarray, ...], tau: int, joints: int,
                 in_channels: int, gcn_channels: int, feature_dim: int,
                 ablate_local: bool, rng: np.random.Generator | None):
        self.adjacency = adjacency
        self.tau = tau
        self.ablate_local = ablate_local
        self.params: dict[str, Parameter] = {}

        if ablate_local:
            flat = tau * joints * in_channels
            self._add(ad.init_uniform(rng, (flat, feature_dim), flat, "lfem.proj_w"))
            self._add(ad.init_zeros((feature_dim,), "lfem.proj_b"))
            return

        self.thetas = [self._add(ad.init_uniform(rng, (in_channels, gcn_channels), in_channels,
                                                 f"lfem.g3d0.theta{m}"))
                       for m in range(len(adjacency))]
        self._add(ad.init_uniform(rng, (gcn_channels, tau, gcn_channels),
                                  gcn_channels * tau, "lfem.collapse"))
        agg_in = joints * gcn_channels
        self._add(ad.init_uniform(rng, (agg_in, feature_dim), agg_in, "lfem.agg_w"))
        self._add(ad.init_zeros((feature_dim,), "lfem.agg_b"))

    def _add(self, param: Parameter) -> Parameter:
        self.params[param.name] = param
        return param

    # -- forward -----------------------------------------------------------

    def aggregate_joints(self, per_joint: DTensor) -> DTensor:
        """(L, N, D) -> (L, C_f): affine over all joints' channels, then relu."""
        count, joints, channels = per_joint.values.shape
        per_joint = ad.reshape(per_joint, (count, joints * channels))
        return ad.relu(ad.affine(per_joint, self.params["lfem.agg_w"], self.params["lfem.agg_b"]))

    def extract(self, clips: np.ndarray) -> DTensor:
        """Feature matrix (L, C_f) for clips shaped (L, tau, N, C).

        The tiled window matrices define the convolution; by their block
        identity (see the module docstring) it is computed on the per-joint
        mean pose with the N x N matrices, and the (C, tau, D) time collapse
        is applied as its frame-summed (C, D) kernel. The matrices and the
        pose are constants, so their products need no tape node.
        """
        count = clips.shape[0]
        if self.ablate_local:
            flat = DTensor(clips.reshape(count, -1))
            return ad.affine(flat, self.params["lfem.proj_w"], self.params["lfem.proj_b"])

        pose = clips.sum(axis=1) * (1.0 / self.tau)     # (L, N, C) mean pose
        total = None
        for mat, theta in zip(self.adjacency, self.thetas):
            term = ad.linear(mat @ pose, theta)
            total = term if total is None else ad.add(total, term)
        w_sum = ad.reduce_sum(self.params["lfem.collapse"], axis=1)       # (C, D)
        collapsed = ad.linear(ad.relu(total), w_sum)    # (L, N, D)
        return self.aggregate_joints(collapsed)
