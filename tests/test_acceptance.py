"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The synthetic-learning
criterion trains the full desk-scale model (about 6.5 minutes on a 2-core
x86-64 machine) and criterion 8 trains its ablations (about 2 minutes);
everything else is fast. Session fixtures share the trained model between criteria.
Criteria 6-8 carry the `slow` marker: `-m "not slow"` skips their training.
"""

import dataclasses
import math
import time
import warnings
from collections import deque

import numpy as np
import pytest

from conftest import micro_clips, micro_model
from grad_oracle import grad_check
from tape_oracle import lstm_cell, softmax, tanh
from tiled_oracle import collapse_window, graph_apply, tile_window
from wogma import autodiff as ad
from wogma import cpgb, graph as gr
from wogma import evaluation as ev
from wogma.autodiff import DTensor
from wogma.config import TrainConfig
from wogma.dataset import SynthParams, synthesize
from wogma.evaluation import ScoredSegment, evaluate
from wogma.model import ActionDetector
from wogma.trainer import load_checkpoint, save_checkpoint, train, write_metrics_csv

GRAD_TOL = 1e-4


def report_line(number: int, ok: bool, message: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {message}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient suite
# ---------------------------------------------------------------------------

def rebound_model_loss(model, clips, labels):
    """grad_check adapter: model parameters become function inputs."""
    names = sorted(model.params)

    def wrapped(*tensors):
        originals = {name: model.params[name].tensor for name in names}
        for name, tensor in zip(names, tensors):
            model.params[name].tensor = tensor
        try:
            from wogma.trainer import joint_loss
            loss, _ = joint_loss(model, clips, labels)
            return loss
        finally:
            for name in names:
                model.params[name].tensor = originals[name]

    return wrapped, [model.params[n].values.copy() for n in names]


def test_criterion_1_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(42)
    errors = {}

    x = rng.standard_normal((3, 4))
    errors["affine"] = grad_check(
        ad.affine, [x, rng.standard_normal((4, 2)), rng.standard_normal(2)])
    safe = rng.standard_normal((4, 5))
    safe[np.abs(safe) < 1e-3] = 0.25
    for kind, fn in (("relu", ad.relu), ("sigmoid", ad.sigmoid), ("tanh", tanh),
                     ("softmax", softmax)):
        errors[kind] = grad_check(fn, [safe])
    errors["temporal_conv1d"] = grad_check(
        ad.temporal_conv1d, [rng.standard_normal((7, 3)),
                             rng.standard_normal((2, 3, 3)),
                             rng.standard_normal(2)])
    errors["collapse_window"] = grad_check(
        collapse_window, [rng.standard_normal((2, 3, 2, 2)),
                          rng.standard_normal((2, 3, 4))])
    a = rng.standard_normal((4, 4))
    errors["graph_apply"] = grad_check(
        lambda t: graph_apply(a, t), [rng.standard_normal((2, 4, 3))])

    def lstm_sum(h, c, f, w_ih, w_hh, b):
        h1, c1 = lstm_cell(h, c, f, w_ih, w_hh, b)
        return ad.add(h1, c1)

    hidden = 8
    errors["lstm_cell"] = grad_check(
        lstm_sum, [rng.standard_normal(hidden) * 0.5, rng.standard_normal(hidden) * 0.5,
                   rng.standard_normal(5), rng.standard_normal((5, 4 * hidden)) * 0.3,
                   rng.standard_normal((hidden, 4 * hidden)) * 0.3,
                   rng.standard_normal(4 * hidden) * 0.3])

    def softmax_ce(z):
        labels = np.array([0, 2, 1, 1])
        picked = ad.take_entries(softmax(z), np.arange(4), labels)
        return ad.reduce_mean(ad.neg_log(picked, 1e-7))

    errors["softmax_cross_entropy"] = grad_check(softmax_ce, [rng.standard_normal((4, 3))])

    # full end-to-end model on the micro instance: the 18-joint skeleton,
    # tau=4, L=3, C_f=8, H=8
    model = micro_model(seed=5)
    clips = micro_clips(seed=6, model=model)
    wrapped, values = rebound_model_loss(model, clips, np.array([1]))
    errors["end_to_end"] = grad_check(wrapped, values, h=1e-5)

    elapsed = time.time() - start
    worst = max(errors.values())
    ok = worst < GRAD_TOL and elapsed < 60.0
    report_line(1, ok, f"gradient suite: worst rel err {worst:.2e} "
                       f"(limit {GRAD_TOL:.0e}), {elapsed:.1f}s (limit 60s)")
    assert worst < GRAD_TOL, f"gradient errors: {errors}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# Criterion 2: causality suite
# ---------------------------------------------------------------------------

def test_criterion_2_causality():
    config = TrainConfig(max_frames=600, hidden=128, seed=3)
    model = ActionDetector(config)
    videos = synthesize(SynthParams(n_videos=20, frames=600, seed=13))
    rng = np.random.default_rng(99)
    checked = 0
    for seq in videos:
        clips = model.prepare_clips(seq)
        count = clips.shape[0]
        base = model.infer_timeline(clips)
        for k in (1, count // 2, count):
            corrupted = clips.copy()
            if k < count:
                corrupted[k:] = rng.standard_normal(corrupted[k:].shape)
            after = model.infer_timeline(corrupted)
            assert np.array_equal(base[:k], after[:k]), \
                f"{seq.video_id}: outputs differ within first {k} clips"
            checked += 1
    report_line(2, True, f"causality: {checked} prefix comparisons bitwise identical "
                         f"across 20 videos, k in {{1, L/2, L}}")


# ---------------------------------------------------------------------------
# Criterion 3: graph suite
# ---------------------------------------------------------------------------

def bfs_distances(adjacency):
    n = adjacency.shape[0]
    dist = -np.ones((n, n), dtype=int)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if adjacency[u, v] > 0 and dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    return dist


def test_criterion_3_graph_suite():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(2, 11))
        adj = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i, j] = adj[j, i] = 1.0
        scales = int(rng.integers(1, 5))
        mats = gr.disentangle_multiscale(adj, scales)
        dist = bfs_distances(adj)
        for m in range(scales + 1):
            np.testing.assert_array_equal(mats[m], (dist == m).astype(float),
                                          err_msg=f"trial {trial}, scale {m}")
        tau = int(rng.integers(1, 5))
        tiled = tile_window(adj, tau)
        degrees = adj.sum(axis=1)
        for t in range(tau):
            for i in range(n):
                assert tiled[t * n + i].sum() == tau * (degrees[i] + 1)
        norm = gr.normalize(tiled)
        radius = max(abs(np.linalg.eigvalsh((norm + norm.T) / 2)))
        assert radius <= 1.0 + 1e-9, f"spectral radius {radius}"
    report_line(3, True, "graph suite: 50 random graphs match the BFS oracle; "
                         "tiled degrees and spectral radius bounds hold")


# ---------------------------------------------------------------------------
# Criterion 4: MIL / pseudo-label suite
# ---------------------------------------------------------------------------

def test_criterion_4_mil_pseudo_suite():
    for clip_count in range(1, 51):
        for kappa in range(1, 11):
            k = cpgb.top_k_count(clip_count, kappa)
            assert k == max(1, clip_count // kappa)
            assert 1 <= k <= clip_count

    zero_scores = DTensor(np.zeros((4, 1)))
    loss_pos, _ = cpgb.mil_loss(zero_scores, np.array([1]), kappa=1)
    loss_neg, _ = cpgb.mil_loss(zero_scores, np.array([0]), kappa=1)
    assert loss_pos.values == pytest.approx(math.log(2.0))
    assert loss_neg.values == pytest.approx(math.log(2.0))
    sure = DTensor(np.full((4, 1), 60.0))
    loss_sure, _ = cpgb.mil_loss(sure, np.array([1]), kappa=1)
    assert loss_sure.values == pytest.approx(0.0, abs=1e-6)

    rng = np.random.default_rng(21)
    for _ in range(100):
        count = int(rng.integers(1, 40))
        probs = rng.uniform(0, 1, size=(count, 1))
        out = cpgb.generate_pseudo_labels(probs, rng.uniform(0, 1),
                                          0.4, 0.3, np.array([0]))
        assert (out == 0).all()

    for _ in range(50):
        probs = rng.uniform(0, 1, size=(25, 1))
        counts = [int((cpgb.generate_pseudo_labels(probs, 0.9, 0.4, t,
                                                   np.array([1])) > 0).sum())
                  for t in np.linspace(0.05, 0.95, 10)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    report_line(4, True, "MIL/pseudo-label suite: K formula over L=1..50 x kappa=1..10, "
                         "ln2 loss values, negative-video filtering, threshold monotonicity")


# ---------------------------------------------------------------------------
# Criterion 5: AP oracle
# ---------------------------------------------------------------------------

def set_iou(a, b):
    sa = set(range(a[0], a[1] + 1))
    sb = set(range(b[0], b[1] + 1))
    return len(sa & sb) / len(sa | sb)


def brute_force_ap(predictions, gt, threshold):
    if not gt:
        return 0.0 if predictions else 1.0
    ranked = sorted(predictions, key=lambda p: (-p.score, p.video_id, p.start))
    used = set()
    hits = 0
    total = 0.0
    for rank, pred in enumerate(ranked, start=1):
        best_iou, best_idx = 0.0, None
        for idx, seg in enumerate(gt):
            if idx in used or seg.video_id != pred.video_id:
                continue
            iou = set_iou((pred.start, pred.end), (seg.start, seg.end))
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        if best_idx is not None and best_iou >= threshold:
            used.add(best_idx)
            hits += 1
            total += hits / rank
    return total / len(gt)


def test_criterion_5_ap_oracle():
    rng = np.random.default_rng(17)
    for case in range(200):
        preds = []
        gts = []
        video = f"v{int(rng.integers(0, 2))}"
        for _ in range(int(rng.integers(0, 6))):
            start = int(rng.integers(1, 90))
            preds.append(ScoredSegment(video, start, start + int(rng.integers(0, 25)),
                                       score=float(rng.choice([0.3, 0.5, 0.5, 0.7, 0.9]))))
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(1, 90))
            gts.append(ScoredSegment(video, start, start + int(rng.integers(5, 35))))
        for thr in ev.IOU_THRESHOLDS:
            mine = ev.average_precision(preds, gts, thr)
            oracle = brute_force_ap(preds, gts, thr)
            assert mine == oracle, f"case {case} thr {thr}: {mine} != {oracle}"

    # the inclusive-frame IoU = 1/3 case crosses thresholds as specified
    assert ev.temporal_iou((1, 10), (6, 15)) == pytest.approx(1.0 / 3.0)
    pred = [ScoredSegment("v", 6, 15, score=0.9)]
    gt = [ScoredSegment("v", 1, 10)]
    for thr in (0.1, 0.2, 0.3):
        assert ev.average_precision(pred, gt, thr) == 1.0
    for thr in (0.4, 0.5):
        assert ev.average_precision(pred, gt, thr) == 0.0

    report_line(5, True, "AP oracle: 200 random micro-cases exactly equal "
                         "brute force; IoU=1/3 case crosses thresholds as specified")


# ---------------------------------------------------------------------------
# Criteria 6-8: synthetic learning, early observation, ablation wiring
# ---------------------------------------------------------------------------

ACCEPT_CONFIG = TrainConfig(max_frames=600, hidden=128, epochs=100, seed=0)
ABLATION_EPOCHS = 30
ABLATION_VIDEOS = 60


@pytest.fixture(scope="session")
def synthetic_data():
    train_set = synthesize(SynthParams(n_videos=200, frames=600, seed=1))
    test_set = synthesize(SynthParams(n_videos=50, frames=600, seed=2))
    return train_set, test_set


@pytest.fixture(scope="session")
def trained_full(synthetic_data):
    train_set, test_set = synthetic_data
    start = time.perf_counter()
    model, metrics = train(train_set, ACCEPT_CONFIG)
    elapsed = time.perf_counter() - start
    report, results = evaluate(model, test_set, [0.1, 0.2, 0.4, 0.6, 0.8, 1.0], 0.5)
    return model, metrics, report, results, elapsed


@pytest.mark.slow
def test_criterion_6_synthetic_learning(trained_full):
    model, metrics, report, _, elapsed = trained_full
    ok = (report.auc >= 0.95 and report.accuracy >= 0.90
          and report.map_at[0.1] >= 0.5 and elapsed <= 15 * 60)
    report_line(6, ok, f"synthetic learning: AUC={report.auc:.3f} (>=0.95), "
                       f"accuracy={report.accuracy:.3f} (>=0.90), "
                       f"mAP@0.1={report.map_at[0.1]:.3f} (>=0.5), "
                       f"train time {elapsed:.1f} s (<={15 * 60})")
    assert report.auc >= 0.95
    assert report.accuracy >= 0.90
    assert report.map_at[0.1] >= 0.5
    assert elapsed <= 15 * 60


@pytest.mark.slow
def test_criterion_7_early_observation(trained_full):
    model, _, report, results, _ = trained_full
    curve = dict(report.early_curve)
    gap = abs(curve[0.2] - curve[1.0])

    labels = np.array([r.label for r in results])
    probs = np.array([r.video_prob for r in results])
    _, _, full_auc = ev.classification_metrics(probs, labels)

    ok = gap <= 0.05 and curve[1.0] == full_auc
    report_line(7, ok, f"early observation: AUC@0.2={curve[0.2]:.3f} vs "
                       f"AUC@1.0={curve[1.0]:.3f} (gap {gap:.3f} <= 0.05); "
                       f"fraction 1.0 equals full-video AUC exactly")
    assert gap <= 0.05
    assert curve[1.0] == full_auc


@pytest.mark.slow
def test_criterion_8_ablation_wiring(synthetic_data):
    train_set, test_set = synthetic_data
    subset = train_set[:ABLATION_VIDEOS]
    base = dataclasses.replace(ACCEPT_CONFIG, epochs=ABLATION_EPOCHS)

    reports = {}
    # the long-range ablation is the pseudo-label branch without its conv stack
    for name, change in (("full", {}), ("ablate_pseudo", {"ablate_pseudo": True}),
                         ("ablate_local", {"ablate_local": True}),
                         ("ablate_longrange", {"conv_layers": 0})):
        model, _ = train(subset, dataclasses.replace(base, **change))
        report, _ = evaluate(model, test_set, [0.2, 1.0], 0.5)
        reports[name] = report
        assert isinstance(report, ev.EvalReport)

    fragmentation_ok = (reports["ablate_longrange"].instance_count
                        >= reports["full"].instance_count)
    if not fragmentation_ok:
        warnings.warn(
            "soft assertion: w/o long-range instance count "
            f"{reports['ablate_longrange'].instance_count} < full model "
            f"{reports['full'].instance_count}")
    counts = {name: r.instance_count for name, r in reports.items()}
    report_line(8, True, f"ablation wiring: all ablations trained and evaluated; "
                         f"instance counts {counts} "
                         f"(fragmentation direction {'held' if fragmentation_ok else 'SOFT-FAILED'})")


# ---------------------------------------------------------------------------
# Criterion 9: determinism + round-trip
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_roundtrip(tmp_path):
    data = synthesize(SynthParams(n_videos=8, frames=120, seed=4,
                                  segment_len_min=40, segment_len_max=60))
    config = TrainConfig(max_frames=120, hidden=16, feature_dim=16, gcn_channels=8,
                         epochs=3, lr=1e-3, seed=5)

    csv_paths = []
    models = []
    for tag in ("a", "b"):
        model, metrics = train(data, config)
        path = tmp_path / f"metrics_{tag}.csv"
        write_metrics_csv(path, metrics)
        csv_paths.append(path)
        models.append(model)
    identical_csv = csv_paths[0].read_bytes() == csv_paths[1].read_bytes()

    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, models[0], epoch=config.epochs)
    reloaded, _ = load_checkpoint(checkpoint)
    report_before, _ = evaluate(models[0], data, [0.5, 1.0], 0.5)
    report_after, _ = evaluate(reloaded, data, [0.5, 1.0], 0.5)
    identical_eval = report_before.to_json() == report_after.to_json()

    ok = identical_csv and identical_eval
    report_line(9, ok, "determinism: identical metrics CSV across two seeded runs; "
                       "checkpoint round-trip preserves evaluation output exactly")
    assert identical_csv
    assert identical_eval
