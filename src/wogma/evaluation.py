"""Evaluation: video-level classification metrics, temporal detection AP,
early-observation curves, and the aggregate report.

Detection AP uses greedy one-to-one matching in descending score order; a
prediction is a true positive when its best-IoU unmatched ground-truth
segment (same video) clears the IoU threshold. AP sums precision at the
true-positive ranks divided by the number of ground-truth segments.
Detection metrics are computed over videos that carry ground-truth
annotations (>= 1 segment), matching how annotated subsets are scored; a
video's segments are cut to the frames the model saw, as preprocessing cuts
the video.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import SkeletonSequence, visible_segments
from .model import ActionDetector
from .oamb import DetectionInstance, extract_instances, prefix_video_prob

IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classification_metrics(probs, labels) -> tuple[float, float, float]:
    """(accuracy and F1 of the positive class at probability 0.5, rank AUC
    with averaged ties).

    AUC is undefined when only one class is present; it comes back as nan.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if probs.shape != labels.shape:
        raise ValueError(f"{probs.shape} probabilities for {labels.shape} labels")
    predicted = (probs > 0.5).astype(int)
    accuracy = float((predicted == labels).mean())

    tp = int(((predicted == 1) & (labels == 1)).sum())
    fp = int(((predicted == 1) & (labels == 0)).sum())
    fn = int(((predicted == 0) & (labels == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return accuracy, f1, float("nan")
    order = np.argsort(probs, kind="stable")
    ranks = np.empty(labels.size)
    sorted_probs = probs[order]
    i = 0
    while i < labels.size:
        j = i
        while j + 1 < labels.size and sorted_probs[j + 1] == sorted_probs[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0   # averaged tied ranks
        i = j + 1
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return accuracy, f1, float(auc)


# ---------------------------------------------------------------------------
# Temporal detection
# ---------------------------------------------------------------------------

def temporal_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Intersection over union of two inclusive frame intervals."""
    if a[0] > a[1] or b[0] > b[1]:
        raise ValueError(f"invalid interval: {a} / {b}")
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


@dataclass(frozen=True)
class ScoredSegment:
    """One prediction or ground-truth segment, tagged with its video."""

    video_id: str
    start: int
    end: int
    score: float = 0.0


def average_precision(predictions: list[ScoredSegment], gt: list[ScoredSegment],
                      iou_threshold: float) -> float:
    """Greedy-matched AP; ties in IoU go to the lower ground-truth index."""
    if not gt:
        return 0.0 if predictions else 1.0
    ranked = sorted(predictions, key=lambda p: (-p.score, p.video_id, p.start))
    matched = [False] * len(gt)
    tp_count = 0
    ap = 0.0
    for rank, pred in enumerate(ranked, start=1):
        best_iou = 0.0
        best_idx = -1
        for idx, seg in enumerate(gt):
            if matched[idx] or seg.video_id != pred.video_id:
                continue
            iou = temporal_iou((pred.start, pred.end), (seg.start, seg.end))
            if iou > best_iou:
                best_iou = iou
                best_idx = idx
        if best_idx >= 0 and best_iou >= iou_threshold:
            matched[best_idx] = True
            tp_count += 1
            ap += tp_count / rank
    return ap / len(gt)


def detection_map(predictions: list[ScoredSegment],
                  gt: list[ScoredSegment]) -> dict[float, float]:
    """AP at each of IOU_THRESHOLDS."""
    return {thr: average_precision(predictions, gt, thr) for thr in IOU_THRESHOLDS}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class VideoResult:
    video_id: str
    label: int
    timeline: np.ndarray                       # (L, 2) causal probabilities
    video_prob: float
    instances: list[DetectionInstance]
    # the ground truth inside the frames the model saw, which may be none of
    # it; None for a video without segments, whose detections go unscored
    gt_segments: list[tuple[int, int, int]] | None


@dataclass
class EvalReport:
    accuracy: float
    f1: float
    auc: float
    map_at: dict[float, float]
    mean_map: float
    instance_count: int
    early_curve: list[tuple[float, float]] = field(default_factory=list)

    def to_json(self) -> str:
        """The report as strict JSON: an AUC that one class leaves undefined
        (nan) is null."""
        def auc(value: float) -> float | None:
            return None if math.isnan(value) else value

        return json.dumps({
            "accuracy": self.accuracy,
            "f1": self.f1,
            "auc": auc(self.auc),
            "map_at": {f"{k:.1f}": v for k, v in sorted(self.map_at.items())},
            "mean_map": self.mean_map,
            "instance_count": self.instance_count,
            "early_curve": [[f, auc(a)] for f, a in self.early_curve],
        }, indent=2, sort_keys=True, allow_nan=False)


def score_videos(model: ActionDetector, dataset: list[SkeletonSequence],
                 instance_threshold: float) -> list[VideoResult]:
    results = []
    for seq in dataset:
        clips = model.prepare_clips(seq)
        timeline = model.infer_timeline(clips)
        prob = prefix_video_prob(timeline, timeline.shape[0], model.config.kappa)
        instances = extract_instances(timeline, instance_threshold, model.windowing)
        segments = (visible_segments(seq.gt_segments, model.config.max_frames)
                    if seq.gt_segments else None)
        results.append(VideoResult(video_id=seq.video_id, label=int(seq.labels[0]),
                                   timeline=timeline, video_prob=prob,
                                   instances=instances, gt_segments=segments))
    return results


def early_observation_curve(results: list[VideoResult], fractions, kappa: int) -> list[tuple[float, float]]:
    """AUC when classifying each video from the first ceil(p * L) of its L
    clips only.

    The timelines are causal in the clips, so slicing a stored timeline
    equals re-running the model on the truncated clips. It does not equal
    re-running on truncated raw frames: preprocessing normalises every frame
    by a statistic of the whole video.
    """
    labels = np.array([r.label for r in results])
    curve = []
    for fraction in fractions:
        probs = []
        for r in results:
            count = r.timeline.shape[0]
            prefix = min(count, max(1, math.ceil(fraction * count)))
            probs.append(prefix_video_prob(r.timeline, prefix, kappa))
        _, _, auc = classification_metrics(np.array(probs), labels)
        curve.append((float(fraction), float(auc)))
    return curve


def build_report(results: list[VideoResult], fractions, kappa: int) -> EvalReport:
    labels = np.array([r.label for r in results])
    probs = np.array([r.video_prob for r in results])
    accuracy, f1, auc = classification_metrics(probs, labels)

    predictions: list[ScoredSegment] = []
    gt: list[ScoredSegment] = []
    for r in results:
        if r.gt_segments is None:
            continue   # detection is scored on annotated videos only
        for s, e, _ in r.gt_segments:
            gt.append(ScoredSegment(video_id=r.video_id, start=s, end=e))
        for inst in r.instances:
            predictions.append(ScoredSegment(video_id=r.video_id, start=inst.start_frame,
                                             end=inst.end_frame, score=inst.score))
    map_at = detection_map(predictions, gt)
    curve = early_observation_curve(results, fractions, kappa)
    return EvalReport(accuracy=accuracy, f1=f1, auc=auc, map_at=map_at,
                      mean_map=float(np.mean(list(map_at.values()))),
                      instance_count=sum(len(r.instances) for r in results),
                      early_curve=curve)


def evaluate(model: ActionDetector, dataset: list[SkeletonSequence], fractions,
             instance_threshold: float) -> tuple[EvalReport, list[VideoResult]]:
    """Score every video and build the report, with the early curve at
    `fractions` and instances above `instance_threshold`."""
    results = score_videos(model, dataset, instance_threshold)
    report = build_report(results, fractions, model.config.kappa)
    return report, results
