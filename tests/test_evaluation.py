import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import micro_model
from wogma import evaluation as ev
from wogma.dataset import SynthParams, synthesize
from wogma.evaluation import ScoredSegment
from wogma.oamb import prefix_video_prob


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def pair_count_auc(probs, labels):
    """Brute-force AUC: fraction of pos/neg pairs ranked correctly, ties half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def set_iou(a, b):
    """Interval IoU by explicit frame enumeration."""
    sa = set(range(a[0], a[1] + 1))
    sb = set(range(b[0], b[1] + 1))
    return len(sa & sb) / len(sa | sb)


def brute_force_ap(predictions, gt, threshold):
    """AP oracle: explicit loops, frame-set IoU, first-found best match."""
    if not gt:
        return 0.0 if predictions else 1.0
    ranked = sorted(predictions, key=lambda p: (-p.score, p.video_id, p.start))
    used = set()
    flags = []
    for pred in ranked:
        best_iou, best_idx = 0.0, None
        for idx, seg in enumerate(gt):
            if idx in used or seg.video_id != pred.video_id:
                continue
            iou = set_iou((pred.start, pred.end), (seg.start, seg.end))
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        if best_idx is not None and best_iou >= threshold:
            used.add(best_idx)
            flags.append(True)
        else:
            flags.append(False)
    hits = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / len(gt)


# ---------------------------------------------------------------------------
# Classification metrics
# ---------------------------------------------------------------------------

def test_perfect_separation():
    acc, f1, auc = ev.classification_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert (acc, f1, auc) == (1.0, 1.0, 1.0)


def test_flipped_probabilities():
    acc, f1, auc = ev.classification_metrics([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0])
    assert acc == 0.0
    assert auc == 0.0


def test_auc_example_and_oracle():
    probs = [0.9, 0.4, 0.6]
    labels = [1, 0, 1]
    _, _, auc = ev.classification_metrics(probs, labels)
    assert auc == 1.0
    assert auc == pair_count_auc(probs, labels)


def test_auc_matches_pair_counting_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(4, 20))
        probs = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, _, auc = ev.classification_metrics(probs, labels)
        assert auc == pytest.approx(pair_count_auc(probs, labels), abs=1e-12)


def test_auc_single_class_is_nan():
    _, _, auc = ev.classification_metrics([0.4, 0.6], [1, 1])
    assert math.isnan(auc)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    probs = rng.uniform(0, 1, size=20)
    labels = rng.integers(0, 2, size=20)
    labels[0], labels[1] = 0, 1
    _, _, base = ev.classification_metrics(probs, labels)
    _, _, squeezed = ev.classification_metrics(probs ** 3, labels)
    assert base == pytest.approx(squeezed, abs=1e-12)


# ---------------------------------------------------------------------------
# Temporal IoU
# ---------------------------------------------------------------------------

def test_iou_identical():
    assert ev.temporal_iou((3, 9), (3, 9)) == 1.0


def test_iou_disjoint():
    assert ev.temporal_iou((1, 5), (10, 20)) == 0.0


def test_iou_inclusive_frame_example():
    # [1,10] vs [6,15]: 5 shared frames of 15 total
    assert ev.temporal_iou((1, 10), (6, 15)) == pytest.approx(1.0 / 3.0)


def test_iou_invalid_interval():
    with pytest.raises(ValueError):
        ev.temporal_iou((5, 3), (1, 2))


# Frames on a coarse grid as often as anywhere: equal intervals, intervals
# that share an edge, and a prediction with the same IoU against two
# ground-truth segments all come up often.
FRAME = st.sampled_from([1, 6, 11, 16, 21]) | st.integers(1, 40)
LENGTH = st.sampled_from([0, 4, 9]) | st.integers(0, 20)


@st.composite
def intervals(draw):
    start = draw(FRAME)
    return start, start + draw(LENGTH)


@settings(max_examples=300, deadline=None)
@given(intervals(), intervals())
def test_iou_equals_frame_set_iou(a, b):
    assert ev.temporal_iou(a, b) == set_iou(a, b) == ev.temporal_iou(b, a)


@st.composite
def segments(draw, scored):
    start, end = draw(intervals())
    # scores on a coarse grid tie often
    score = draw(st.sampled_from([0.2, 0.5, 0.8]) | st.floats(0.0, 1.0)) if scored else 0.0
    return ScoredSegment(draw(st.sampled_from(["a", "b", "c"])), start, end, score)


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------

def test_ap_exact_match_all_thresholds():
    pred = [ScoredSegment("v", 0, 10, score=0.9)]
    gt = [ScoredSegment("v", 0, 10)]
    for thr in ev.IOU_THRESHOLDS:
        assert ev.average_precision(pred, gt, thr) == 1.0


def test_ap_threshold_crossing_case():
    # IoU([1,10], [6,15]) = 1/3: TP at 0.1-0.3, FP at 0.4-0.5
    pred = [ScoredSegment("v", 6, 15, score=0.8)]
    gt = [ScoredSegment("v", 1, 10)]
    for thr in (0.1, 0.2, 0.3):
        assert ev.average_precision(pred, gt, thr) == 1.0
    for thr in (0.4, 0.5):
        assert ev.average_precision(pred, gt, thr) == 0.0


def test_ap_empty_gt_conventions():
    assert ev.average_precision([], [], 0.5) == 1.0
    assert ev.average_precision([ScoredSegment("v", 1, 5, score=0.5)], [], 0.5) == 0.0


def test_ap_monotone_in_iou_threshold():
    rng = np.random.default_rng(2)
    for _ in range(20):
        preds, gts = random_detection_case(rng)
        values = [ev.average_precision(preds, gts, t) for t in ev.IOU_THRESHOLDS]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_ap_invariant_under_monotone_score_transform():
    rng = np.random.default_rng(3)
    for _ in range(20):
        preds, gts = random_detection_case(rng)
        base = [ev.average_precision(preds, gts, t) for t in ev.IOU_THRESHOLDS]
        boosted = [ScoredSegment(p.video_id, p.start, p.end, score=p.score * 10 + 3)
                   for p in preds]
        after = [ev.average_precision(boosted, gts, t) for t in ev.IOU_THRESHOLDS]
        assert base == after


def random_detection_case(rng):
    preds = []
    gts = []
    video = f"v{int(rng.integers(0, 2))}"
    for _ in range(int(rng.integers(0, 6))):
        start = int(rng.integers(1, 80))
        preds.append(ScoredSegment(video if rng.random() < 0.8 else "other",
                                   start, start + int(rng.integers(0, 30)),
                                   score=float(rng.choice([0.2, 0.5, 0.5, 0.8, 0.9]))))
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(1, 80))
        gts.append(ScoredSegment(video, start, start + int(rng.integers(5, 40))))
    return preds, gts


@settings(max_examples=200, deadline=None)
@given(st.lists(segments(scored=True), max_size=8), st.lists(segments(scored=False), max_size=5))
# the first prediction's IoU is 1/3 with either segment: matching the lower
# index leaves the second prediction unmatched, the higher would match it
@example([ScoredSegment("a", 6, 15, 0.8), ScoredSegment("a", 1, 5, 0.5)],
         [ScoredSegment("a", 1, 10), ScoredSegment("a", 11, 20)])
def test_ap_equals_brute_force_oracle_on_200_cases(preds, gts):
    # empty prediction and ground-truth lists, several videos, equal scores
    # and equal IoUs are all drawn
    for thr in ev.IOU_THRESHOLDS:
        assert ev.average_precision(preds, gts, thr) == brute_force_ap(preds, gts, thr)


# ---------------------------------------------------------------------------
# Early observation and report plumbing
# ---------------------------------------------------------------------------

def synthetic_results(seed=0, videos=10, clips=12):
    rng = np.random.default_rng(seed)
    results = []
    for i in range(videos):
        label = int(i % 2)
        probs = rng.uniform(0.0, 1.0, size=clips) * (0.5 + 0.5 * label)
        timeline = np.stack([1.0 - probs, probs], axis=1)
        results.append(ev.VideoResult(video_id=f"v{i}", label=label, timeline=timeline,
                                      video_prob=float(probs.mean()), instances=[],
                                      gt_segments=[]))
    return results


def test_early_curve_fraction_one_equals_full_auc():
    results = synthetic_results()
    curve = ev.early_observation_curve(results, [0.25, 1.0], kappa=8)
    labels = np.array([r.label for r in results])
    probs = np.array([prefix_video_prob(r.timeline, r.timeline.shape[0], 8)
                      for r in results])
    _, _, auc = ev.classification_metrics(probs, labels)
    assert curve[-1] == (1.0, auc)


def test_early_curve_values_in_unit_interval():
    curve = ev.early_observation_curve(synthetic_results(), [0.1, 0.5, 1.0], kappa=8)
    for _, auc in curve:
        assert 0.0 <= auc <= 1.0


def test_early_curve_ignores_frames_beyond_prefix():
    results = synthetic_results(seed=5)
    truncated = []
    for r in results:
        clipped = r.timeline[:3].copy()
        truncated.append(ev.VideoResult(video_id=r.video_id, label=r.label,
                                        timeline=clipped, video_prob=r.video_prob,
                                        instances=[], gt_segments=[]))
    full_curve = ev.early_observation_curve(results, [0.25], kappa=8)
    cut_curve = ev.early_observation_curve(truncated, [1.0], kappa=8)
    assert full_curve[0][1] == cut_curve[0][1]


def test_evaluate_end_to_end_micro_model():
    from wogma.config import TrainConfig
    from wogma.model import ActionDetector
    config = TrainConfig(tau=20, stride=20, max_frames=120, hidden=8,
                         feature_dim=8, gcn_channels=4, scales=2, seed=0)
    model = ActionDetector(config)
    data = synthesize(SynthParams(n_videos=6, frames=120, seed=2,
                                  segment_len_min=40, segment_len_max=60))
    report, results = ev.evaluate(model, data, [0.2, 1.0], 0.5)
    assert 0.0 <= report.accuracy <= 1.0
    assert set(report.map_at) == set(ev.IOU_THRESHOLDS)
    assert report.mean_map == pytest.approx(np.mean(list(report.map_at.values())))
    assert len(report.early_curve) == 2
    assert report.instance_count == sum(len(r.instances) for r in results)
    parsed = json.loads(report.to_json())
    assert set(parsed) == {"accuracy", "f1", "auc", "map_at", "mean_map",
                           "instance_count", "early_curve"}


@pytest.mark.parametrize("late_video, map_at_01", [(False, 1.0), (True, 0.5)],
                         ids=["one-video", "with-a-video-annotated-past-max-frames"])
def test_evaluate_scores_the_ground_truth_the_model_sees(monkeypatch, late_video, map_at_01):
    # a 200-frame video at max_frames 120: the segment at 150-180 lies in
    # frames preprocessing drops, so no model can hit it and it is no miss;
    # a video whose every segment lies there still counts as annotated, so
    # its instance is a false positive
    from wogma.config import TrainConfig
    from wogma.model import ActionDetector
    model = ActionDetector(TrainConfig(tau=20, stride=20, max_frames=120, hidden=8,
                                       feature_dim=8, gcn_channels=4, scales=2))
    data = synthesize(SynthParams(n_videos=2, frames=200, seed=2, positive_fraction=1.0,
                                  segment_len_min=40, segment_len_max=60))
    data[0].gt_segments = [(30, 60, 1), (150, 180, 1)]
    data[1].gt_segments = [(150, 180, 1)]
    data = data if late_video else data[:1]
    # every clip above the threshold: one instance at frames 1-120 per video,
    # the later video's scored higher
    probs = iter([0.9, 0.95])
    monkeypatch.setattr(model, "infer_timeline",
                        lambda clips: np.tile([0.0, next(probs)], (clips.shape[0], 1)))
    report, results = ev.evaluate(model, data, [1.0], 0.5)
    assert [[(i.start_frame, i.end_frame) for i in r.instances] for r in results] == (
        [[(1, 120)]] * len(data))
    assert report.map_at[0.1] == map_at_01


def test_score_videos_cuts_gt_segments_at_max_frames():
    # a segment that starts past the frames the model sees is dropped, and
    # one that ends past them ends at max_frames
    model = micro_model(max_frames=60)
    [seq] = synthesize(SynthParams(n_videos=1, frames=100, seed=0, segment_len_min=10,
                                   segment_len_max=40))
    seq.gt_segments = [(1, 40, 1), (50, 90, 1), (95, 100, 1)]
    [result] = ev.score_videos(model, [seq], 0.5)
    assert result.gt_segments == [(1, 40, 1), (50, 60, 1)]


# ---------------------------------------------------------------------------
# A video is as long as its frames
# ---------------------------------------------------------------------------

TAU = 4


def synth_video(frames, seed, label=1):
    [seq] = synthesize(SynthParams(n_videos=1, frames=frames, seed=seed,
                                   positive_fraction=float(label), segment_len_min=1,
                                   segment_len_max=frames))
    return seq


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(TAU, 40), max_frames=st.integers(TAU, 40),
       stride=st.integers(1, TAU), threshold=st.floats(0.0, 1.0), seed=st.integers(0, 9))
def test_no_instance_ends_past_the_frames_the_model_sees(frames, max_frames, stride,
                                                         threshold, seed):
    model = micro_model(tau=TAU, stride=stride, max_frames=max_frames, seed=seed)
    [result] = ev.score_videos(model, [synth_video(frames, seed)], threshold)
    assert all(inst.end_frame <= min(frames, max_frames) for inst in result.instances)
    assert result.timeline.shape[0] == (min(frames, max_frames) - TAU) // stride + 1


@settings(max_examples=30, deadline=None)
@given(frames=st.integers(TAU, 40), extra=st.integers(1, 40), stride=st.integers(1, TAU),
       seed=st.integers(0, 9))
def test_timeline_of_a_video_does_not_depend_on_a_max_frames_past_its_end(frames, extra,
                                                                         stride, seed):
    seq = synth_video(frames, seed)
    timelines = []
    for max_frames in (frames, frames + extra):
        model = micro_model(tau=TAU, stride=stride, max_frames=max_frames, seed=seed)
        timelines.append(model.infer_timeline(model.prepare_clips(seq)).tobytes())
    assert timelines[0] == timelines[1]


@settings(max_examples=40, deadline=None)
@given(lengths=st.tuples(st.integers(TAU, 60), st.integers(TAU, 60)),
       fraction=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 9))
def test_early_curve_counts_the_clips_a_short_video_has(lengths, fraction, seed):
    # at max_frames 64 neither video fills the clips a full-length one has
    model = micro_model(tau=TAU, stride=TAU, max_frames=64, seed=seed)
    videos = [synth_video(frames, seed + label, label)
              for label, frames in enumerate(lengths)]
    results = ev.score_videos(model, videos, 0.5)
    observed = [frames // TAU for frames in lengths]
    assert [r.timeline.shape[0] for r in results] == observed
    probs = [prefix_video_prob(r.timeline, math.ceil(fraction * count), model.config.kappa)
             for r, count in zip(results, observed)]
    auc = ev.classification_metrics(np.array(probs), np.array([0, 1]))[2]
    assert ev.early_observation_curve(results, [fraction], model.config.kappa) == [
        (fraction, auc)]
