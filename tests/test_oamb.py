import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wogma import autodiff as ad
from wogma import oamb
from wogma.autodiff import DTensor
from wogma.lfem import ClipWindowing


def make_branch(feature_dim=5, hidden=8, n_classes=1, seed=0):
    return oamb.OnlineBranch(feature_dim=feature_dim, hidden=hidden,
                             n_classes=n_classes, rng=np.random.default_rng(seed))


def test_zero_recurrent_weights_constant_distribution():
    branch = make_branch()
    for name in ("oamb.w_ih", "oamb.w_hh", "oamb.w_a"):
        branch.params[name].tensor.values[...] = 0.0
    branch.params["oamb.b_a"].tensor.values[...] = np.array([0.3, -0.2])
    feats = np.random.default_rng(1).standard_normal((6, 5))
    rows = branch.stream(feats)
    expected = np.exp([0.3, -0.2]) / np.exp([0.3, -0.2]).sum()
    for row in rows:
        np.testing.assert_allclose(row, expected)


def test_rows_sum_to_one():
    branch = make_branch()
    rows = branch.stream(np.random.default_rng(2).standard_normal((10, 5)))
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_prefix_determinism_streaming():
    branch = make_branch()
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 5))
    longer = np.vstack([feats, rng.standard_normal((10, 5))])
    short_rows = branch.stream(feats)
    long_rows = branch.stream(longer)
    np.testing.assert_array_equal(short_rows, long_rows[:12])


def test_training_path_matches_streaming_bitwise():
    branch = make_branch()
    feats = np.random.default_rng(4).standard_normal((7, 5))
    trained = branch.timeline(DTensor(feats)).values
    streamed = branch.stream(feats)
    np.testing.assert_array_equal(trained, streamed)


@settings(max_examples=40, deadline=None)
@given(count=st.integers(1, 12), hidden=st.integers(1, 40), feature_dim=st.integers(1, 16),
       n_classes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_taped_timeline_equals_stream_bitwise(count, hidden, feature_dim, n_classes, seed):
    # guards the per-row forward: a batched one differs from x @ W in the last bits
    branch = make_branch(feature_dim=feature_dim, hidden=hidden, n_classes=n_classes, seed=seed)
    feats = np.random.default_rng(seed).standard_normal((count, feature_dim))
    with ad.Tape():
        trained = branch.timeline(DTensor(feats, requires_grad=True)).values
    streamed = branch.stream(feats)
    assert trained.shape == streamed.shape == (count, n_classes + 1)
    assert trained.tobytes() == streamed.tobytes()


def test_state_advances_once_per_clip():
    branch = make_branch()
    state = branch.initial_state()
    assert state.clips_seen == 0
    state, _ = branch.online_step(state, np.zeros(5))
    assert state.clips_seen == 1


def test_frame_loss_one_hot_match_is_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1, 0])
    loss = oamb.frame_loss(DTensor(probs), labels)
    # clamped log(1) = 0 exactly
    assert loss.values == pytest.approx(0.0, abs=1e-12)


def test_frame_loss_uniform_is_ln2():
    probs = np.full((5, 2), 0.5)
    loss = oamb.frame_loss(DTensor(probs), np.array([0, 1, 0, 1, 1]))
    assert loss.values == pytest.approx(math.log(2.0))


def test_frame_loss_length_mismatch():
    with pytest.raises(ad.ShapeError):
        oamb.frame_loss(DTensor(np.full((4, 2), 0.5)), np.array([0, 1]))


def test_frame_loss_gradient_through_softmax():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((6, 3))
    labels = np.array([0, 2, 1, 1, 0, 2])

    def fn(z):
        return oamb.frame_loss(ad.softmax(z), labels)

    assert ad.grad_check(fn, [logits], h=1e-6) < 1e-6


def test_mil_loss_online_hand_values():
    ones = np.zeros((4, 2))
    ones[:, 1] = 1.0
    loss, _ = oamb.mil_loss_online(DTensor(ones), np.array([1]), kappa=2)
    assert loss.values == pytest.approx(0.0, abs=1e-5)

    half = np.full((4, 2), 0.5)
    loss_half, _ = oamb.mil_loss_online(DTensor(half), np.array([1]), kappa=2)
    assert loss_half.values == pytest.approx(math.log(2.0))


def test_mil_loss_online_small_video_uses_max():
    probs = np.array([[0.9, 0.1], [0.4, 0.6], [0.8, 0.2], [0.7, 0.3], [0.95, 0.05]])
    loss, _ = oamb.mil_loss_online(DTensor(probs), np.array([1]), kappa=8)
    assert loss.values == pytest.approx(-math.log(0.6))


def test_prefix_video_prob_full_equals_total():
    branch = make_branch()
    rows = branch.stream(np.random.default_rng(6).standard_normal((9, 5)))
    full = oamb.prefix_video_prob(rows, 9, kappa=3)
    head = rows[:, 1]
    order = np.argsort(-head, kind="stable")
    assert full[0] == pytest.approx(head[order[:3]].mean())


def test_prefix_video_prob_single_clip():
    rows = np.array([[0.3, 0.7], [0.6, 0.4]])
    assert oamb.prefix_video_prob(rows, 1, kappa=8)[0] == pytest.approx(0.7)


def test_prefix_video_prob_ignores_later_clips():
    branch = make_branch()
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((10, 5))
    rows = branch.stream(feats)
    truncated = branch.stream(feats[:4])
    np.testing.assert_array_equal(
        oamb.prefix_video_prob(rows, 4, kappa=8),
        oamb.prefix_video_prob(truncated, 4, kappa=8))


def test_prefix_video_prob_range_check():
    rows = np.full((3, 2), 0.5)
    with pytest.raises(ValueError):
        oamb.prefix_video_prob(rows, 0, kappa=8)
    with pytest.raises(ValueError):
        oamb.prefix_video_prob(rows, 4, kappa=8)


WINDOW = ClipWindowing(tau=20, stride=20)


def test_extract_instances_example():
    probs = np.array([0.1, 0.8, 0.9, 0.2, 0.7])
    timeline = np.stack([1.0 - probs, probs], axis=1)
    instances = oamb.extract_instances(timeline, 0.5, WINDOW)
    spans = sorted((i.start_frame, i.end_frame) for i in instances)
    assert spans == [(21, 60), (81, 100)]
    by_span = {(i.start_frame, i.end_frame): i for i in instances}
    assert by_span[(21, 60)].score == pytest.approx((0.8 + 0.9) / 2)
    assert by_span[(81, 100)].score == pytest.approx(0.7)
    assert instances[0].score >= instances[1].score


def test_extract_instances_none_above_threshold():
    probs = np.full(6, 0.2)
    timeline = np.stack([1.0 - probs, probs], axis=1)
    assert oamb.extract_instances(timeline, 0.5, WINDOW) == []


def test_extract_instances_all_above_threshold():
    probs = np.full(6, 0.9)
    timeline = np.stack([1.0 - probs, probs], axis=1)
    instances = oamb.extract_instances(timeline, 0.5, WINDOW)
    assert len(instances) == 1
    assert (instances[0].start_frame, instances[0].end_frame) == (1, 120)


def test_extract_instances_cover_exactly_above_threshold_clips():
    rng = np.random.default_rng(8)
    for _ in range(20):
        probs = rng.uniform(0, 1, size=15)
        timeline = np.stack([1.0 - probs, probs], axis=1)
        instances = oamb.extract_instances(timeline, 0.5, WINDOW)
        covered = set()
        previous_end = 0
        for inst in sorted(instances, key=lambda i: i.start_frame):
            assert inst.start_frame > previous_end, "instances must be disjoint"
            previous_end = inst.end_frame
            first = (inst.start_frame - 1) // 20
            last = (inst.end_frame - 20) // 20
            covered.update(range(first, last + 1))
        assert covered == set(np.flatnonzero(probs >= 0.5))


def test_extract_instances_threshold_monotonicity():
    rng = np.random.default_rng(9)
    probs = rng.uniform(0, 1, size=25)
    timeline = np.stack([1.0 - probs, probs], axis=1)

    def covered_frames(threshold):
        return sum(i.end_frame - i.start_frame + 1
                   for i in oamb.extract_instances(timeline, threshold, WINDOW))

    thresholds = [0.2, 0.4, 0.6, 0.8]
    counts = [covered_frames(t) for t in thresholds]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_stream_record_format():
    record = oamb.stream_record(3, WINDOW, np.array([0.25, 0.75]))
    assert record == {"clip": 3, "start_frame": 41, "end_frame": 60,
                      "probs": [0.25, 0.75]}
