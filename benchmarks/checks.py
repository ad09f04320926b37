"""The benchmark's own oracles, computed apart from the program.

Everything here is plain Python over numbers the program wrote out: frame
intervals follow from tau and stride, AUC is a count over all positive and
negative pairs, AP matches predictions to ground truth by comparing frame
sets. Each `check_*` function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import math

# Streaming recomputes LFEM features one clip at a time while infer_timeline
# does all clips at once; the rows then differ in the last bits (about 1e-16),
# so online and offline rows are compared within this absolute tolerance.
PROB_TOL = 1e-12
# The loss is piecewise smooth (relu, top-K selection, pseudo-label
# thresholds). Central differences at GRAD_STEP and GRAD_STEP / 2 that agree
# within GRAD_REL_TOL show no kink lies within the step; then the analytic
# directional derivative must match them within GRAD_REL_TOL.
GRAD_STEP = 1e-5
GRAD_REL_TOL = 1e-6


def clip_interval(clip: int, tau: int, stride: int) -> tuple[int, int]:
    """1-indexed inclusive frame range of 1-indexed clip `clip`."""
    start = (clip - 1) * stride + 1
    return start, start + tau - 1


def above_threshold_runs(probs: list[float], threshold: float, tau: int,
                         stride: int) -> list[tuple[int, int, float]]:
    """(start_frame, end_frame, mean probability) of each maximal run of
    consecutive clips whose probability is at least `threshold`."""
    runs = []
    first = None
    for i, p in enumerate(probs + [-math.inf]):
        if p >= threshold and first is None:
            first = i
        elif p < threshold and first is not None:
            values = probs[first:i]
            runs.append((clip_interval(first + 1, tau, stride)[0],
                         clip_interval(i, tau, stride)[1], sum(values) / len(values)))
            first = None
    return runs


def top_k_mean(probs: list[float], kappa: int) -> float:
    """Video probability: mean of the max(1, L // kappa) largest clip probabilities."""
    k = max(1, len(probs) // kappa)
    return sum(sorted(probs, reverse=True)[:k]) / k


def pairwise_auc(probs: list[float], labels: list[int]) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting half."""
    pos = [p for p, y in zip(probs, labels) if y == 1]
    neg = [p for p, y in zip(probs, labels) if y == 0]
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def accuracy_f1(probs: list[float], labels: list[int]) -> tuple[float, float]:
    predicted = [1 if p > 0.5 else 0 for p in probs]
    hits = sum(1 for p, y in zip(predicted, labels) if p == y)
    tp = sum(1 for p, y in zip(predicted, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(predicted, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(predicted, labels) if p == 0 and y == 1)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return hits / len(labels), f1


def brute_force_ap(predictions: list[tuple[str, int, int, float]],
                   ground_truth: list[tuple[str, int, int]], iou_threshold: float) -> float:
    """AP of (video, start, end, score) predictions against (video, start, end)
    segments, by greedy one-to-one matching in descending score order.

    A prediction is a true positive when the unmatched segment of its video
    with the largest frame-set IoU (the earliest listed on ties) reaches the
    threshold. AP is the sum of precision at each true positive over the
    number of segments.
    """
    if not ground_truth:
        return 0.0 if predictions else 1.0
    frames = [set(range(s, e + 1)) for _, s, e in ground_truth]
    matched = [False] * len(ground_truth)
    hits = 0
    total = 0.0
    ranked = sorted(predictions, key=lambda p: (-p[3], p[0], p[1]))
    for rank, (video, start, end, _) in enumerate(ranked, start=1):
        predicted = set(range(start, end + 1))
        best, best_iou = None, 0.0
        for idx, (gt_video, _, _) in enumerate(ground_truth):
            if matched[idx] or gt_video != video:
                continue
            iou = len(predicted & frames[idx]) / len(predicted | frames[idx])
            if iou > best_iou:
                best, best_iou = idx, iou
        if best is not None and best_iou >= iou_threshold:
            matched[best] = True
            hits += 1
            total += hits / rank
    return total / len(ground_truth)


def _close(a: float, b: float, tol: float = PROB_TOL) -> bool:
    return abs(a - b) <= tol


def _relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def check_directional_derivative(loss_along, slope: float) -> list[str] | None:
    """The analytic derivative `slope` of t -> loss_along(t) at t = 0 against
    central differences of the loss.

    Returns None when the differences at two step sizes disagree: a kink lies
    within the step, so this direction cannot judge the gradient.
    """
    wide, narrow = ((loss_along(h) - loss_along(-h)) / (2 * h)
                    for h in (GRAD_STEP, GRAD_STEP / 2))
    if not all(math.isfinite(v) for v in (slope, wide, narrow)):
        return [f"non-finite directional derivative: {slope} vs {wide}, {narrow}"]
    if _relative_error(wide, narrow) > GRAD_REL_TOL:
        return None
    if _relative_error(slope, narrow) > GRAD_REL_TOL:
        return [f"gradient along the probe is {slope!r}, central difference {narrow!r} "
                f"(relative error {_relative_error(slope, narrow):.3g} > {GRAD_REL_TOL})"]
    return []


def check_stream(records: list[dict], offline: list[list[float]], tau: int,
                 stride: int) -> list[str]:
    """Records of one `detect --stdin` session against the clips sent.

    One record per clip, clip index and frames from tau and stride, each
    probability row a distribution, equal to the offline timeline of the
    same clips within PROB_TOL.
    """
    problems = []
    if len(records) != len(offline):
        return [f"{len(records)} records for {len(offline)} clips"]
    for i, (record, expected) in enumerate(zip(records, offline), start=1):
        start, end = clip_interval(i, tau, stride)
        if (record["clip"], record["start_frame"], record["end_frame"]) != (i, start, end):
            problems.append(f"record {i}: clip {record['clip']} frames "
                            f"{record['start_frame']}-{record['end_frame']}, expected {start}-{end}")
        row = record["probs"]
        if any(not 0.0 <= p <= 1.0 for p in row) or not _close(sum(row), 1.0):
            problems.append(f"record {i}: probabilities {row} are not a distribution")
        if len(row) != len(expected) or any(not _close(a, b) for a, b in zip(row, expected)):
            problems.append(f"record {i}: online {row} differs from offline {expected}")
    return problems


def check_instances(instances: list[dict], video_id: str, probs: list[float],
                    threshold: float, tau: int, stride: int) -> list[str]:
    """Written instances of one video against the above-threshold runs of its
    class-1 probabilities (as a multiset; the order is the program's)."""
    expected = sorted((s, e, score) for s, e, score in
                      above_threshold_runs(probs, threshold, tau, stride))
    got = sorted((inst["start_frame"], inst["end_frame"], inst["score"])
                 for inst in instances if inst["video_id"] == video_id)
    if len(got) != len(expected) or any(
            g[:2] != x[:2] or not _close(g[2], x[2]) for g, x in zip(got, expected)):
        return [f"{video_id}: instances {got} differ from above-threshold runs {expected}"]
    return []


def check_report(report: dict, timelines: dict[str, list[tuple[int, int, int, float]]],
                 videos: list[tuple[str, int, list[tuple[int, int]]]], threshold: float,
                 tau: int, stride: int, kappa: int) -> list[str]:
    """An eval report against numbers recomputed from its timelines.

    `timelines` maps a video to its (clip, start, end, class-1 probability)
    rows as written to timelines.csv; `videos` lists (video id, label,
    ground-truth segments) in evaluation order.
    """
    problems = []
    for video_id, rows in timelines.items():
        for clip, start, end, _ in rows:
            if (start, end) != clip_interval(clip, tau, stride):
                problems.append(f"{video_id} clip {clip}: frames {start}-{end}")
                break
    probs = {v: [r[3] for r in rows] for v, rows in timelines.items()}
    if set(probs) != {v for v, _, _ in videos}:
        return problems + [f"timelines cover {sorted(probs)}, not the test set"]
    labels = [label for _, label, _ in videos]
    video_probs = [top_k_mean(probs[v], kappa) for v, _, _ in videos]
    accuracy, f1 = accuracy_f1(video_probs, labels)
    auc = pairwise_auc(video_probs, labels)
    for name, value in (("accuracy", accuracy), ("f1", f1), ("auc", auc)):
        if not _close(report[name], value):
            problems.append(f"{name} {report[name]!r}, recomputed {value!r}")
    curve = dict((f, a) for f, a in report["early_curve"])
    if 1.0 not in curve or not _close(curve[1.0], report["auc"]):
        problems.append(f"early-observation AUC at 1.0 is {curve.get(1.0)!r}, "
                        f"full-video AUC {report['auc']!r}")

    predictions, ground_truth, count = [], [], 0
    for video_id, _, segments in videos:
        runs = above_threshold_runs(probs[video_id], threshold, tau, stride)
        count += len(runs)
        if segments:       # detection is scored on annotated videos only
            ground_truth += [(video_id, s, e) for s, e in segments]
            predictions += [(video_id, s, e, score) for s, e, score in runs]
    if report["instance_count"] != count:
        problems.append(f"instance_count {report['instance_count']}, recomputed {count}")
    for key, value in report["map_at"].items():
        ap = brute_force_ap(predictions, ground_truth, float(key))
        if not _close(value, ap):
            problems.append(f"AP@{key} {value!r}, recomputed {ap!r}")
    return problems
