"""Composition of the feature extractor and the two branches into one model."""

from __future__ import annotations

import numpy as np

from .autodiff import DTensor, Parameter
from .config import TrainConfig
from .cpgb import PseudoLabelBranch
from .dataset import SkeletonSequence, preprocess
from .graph import SkeletonGraph, build_multiscale, default_skeleton
from .lfem import ClipWindowing, LocalFeatureExtractor, split_clips
from .oamb import OnlineBranch


class ActionDetector:
    """Full detection model: clip features, pseudo-label branch, online branch.

    Parameter creation order is fixed, and all randomness flows from the
    config seed, so two models built from the same config are identical.
    """

    def __init__(self, config: TrainConfig, skeleton: SkeletonGraph | None = None):
        config.validate()
        self.config = config
        self.skeleton = skeleton if skeleton is not None else default_skeleton()
        self.windowing = ClipWindowing(tau=config.tau, stride=config.stride)
        rng = np.random.default_rng(config.seed)
        self.extractor = LocalFeatureExtractor(
            build_multiscale(self.skeleton, scales=config.scales), tau=config.tau,
            joints=self.skeleton.joint_count,
            in_channels=config.input_channels, gcn_channels=config.gcn_channels,
            gcn_layers=config.gcn_layers, feature_dim=config.feature_dim,
            ablate_local=config.ablate_local, rng=rng)
        self.pseudo_branch = PseudoLabelBranch(
            feature_dim=config.feature_dim, n_classes=config.n_c,
            conv_layers=config.conv_layers, conv_kernel=config.conv_kernel,
            ablate_longrange=config.ablate_longrange, rng=rng)
        self.online_branch = OnlineBranch(
            feature_dim=config.feature_dim, hidden=config.hidden,
            n_classes=config.n_c, rng=rng)
        self.params: dict[str, Parameter] = {}
        for bundle in (self.extractor.params, self.pseudo_branch.params,
                       self.online_branch.params):
            self.params.update(bundle)

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def parameter_count(self) -> int:
        return sum(p.values.size for p in self.parameters())

    # -- data plumbing -------------------------------------------------------

    def prepare_clips(self, seq: SkeletonSequence) -> np.ndarray:
        """Preprocess a raw sequence and split it into (L, tau, N, C) clips."""
        processed = preprocess(seq, self.config.max_frames)
        return split_clips(processed.frames, self.config.tau, self.config.stride)

    # -- forward -------------------------------------------------------------

    def features(self, clips: np.ndarray) -> DTensor:
        return self.extractor.extract(clips)

    def infer_timeline(self, clips: np.ndarray) -> np.ndarray:
        """Causal (L, n_c+1) probabilities; tape-free inference path."""
        feats = self.extractor.extract(clips)
        return self.online_branch.stream(feats.values)
