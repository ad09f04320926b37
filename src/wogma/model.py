"""Composition of the feature extractor and the two branches into one model."""

from __future__ import annotations

import numpy as np

from .autodiff import DTensor, Parameter
from .config import TrainConfig
from .cpgb import PseudoLabelBranch
from .dataset import CHANNELS, SkeletonSequence, preprocess
from .graph import JOINT_COUNT, build_multiscale, skeleton_adjacency
from .lfem import SCALES, ClipWindowing, LocalFeatureExtractor, split_clips
from .oamb import OnlineBranch


class ActionDetector:
    """Full detection model: clip features, pseudo-label branch, online branch.

    It detects one action class on the 18-joint skeleton of
    `graph.SKELETON_EDGES`, as the data format fixes both: one 0/1 label
    per video and `graph.JOINT_COUNT` joints per frame.

    Parameter creation order is fixed, and all randomness flows from the
    config seed, so two models built from the same config are identical.
    With `initialise=False` the weights are left uninitialised; only the
    checkpoint loader builds that way, as it overwrites every one of them.

    The parameters hold values only; the Adam state lives in the arena that
    `trainer.train` builds for one call. Every frame carries
    `dataset.CHANNELS` values per joint.
    """

    def __init__(self, config: TrainConfig, *, initialise: bool = True):
        self.config = config
        self.windowing = ClipWindowing(tau=config.tau, stride=config.stride)
        rng = np.random.default_rng(config.seed) if initialise else None
        self.extractor = LocalFeatureExtractor(
            build_multiscale(skeleton_adjacency(), SCALES), tau=config.tau,
            joints=JOINT_COUNT, in_channels=CHANNELS, gcn_channels=config.gcn_channels,
            feature_dim=config.feature_dim, ablate_local=config.ablate_local, rng=rng)
        self.pseudo_branch = PseudoLabelBranch(
            feature_dim=config.feature_dim, conv_layers=config.conv_layers, rng=rng)
        self.online_branch = OnlineBranch(
            feature_dim=config.feature_dim, hidden=config.hidden, rng=rng)
        self.params: dict[str, Parameter] = {}
        for bundle in (self.extractor.params, self.pseudo_branch.params,
                       self.online_branch.params):
            self.params.update(bundle)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    # -- data plumbing -------------------------------------------------------

    def prepare_clips(self, seq: SkeletonSequence) -> np.ndarray:
        """Preprocess a raw sequence and split it into (L, tau, N, C) clips."""
        frames = preprocess(seq, self.config.max_frames)
        return split_clips(frames, self.windowing, seq.video_id)

    # -- forward -------------------------------------------------------------

    def features(self, clips: np.ndarray) -> DTensor:
        return self.extractor.extract(clips)

    def infer_timeline(self, clips: np.ndarray) -> np.ndarray:
        """Causal (L, 2) probabilities, background then action; tape-free
        inference path."""
        feats = self.extractor.extract(clips)
        return self.online_branch.stream(feats.values)
