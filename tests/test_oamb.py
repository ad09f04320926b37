import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wogma import autodiff as ad
from wogma import oamb
from wogma.autodiff import DTensor, Tape
from wogma.cpgb import PROB_EPS
from wogma.lfem import ClipWindowing
from grad_oracle import grad_check
from conftest import micro_clips, micro_model
from tape_oracle import chain_frame_loss, softmax


def make_branch(feature_dim=5, hidden=8, seed=0):
    return oamb.OnlineBranch(feature_dim=feature_dim, hidden=hidden,
                             rng=np.random.default_rng(seed))


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
       seed=st.integers(0, 2**32 - 1))
def test_taped_timeline_equals_stream_bitwise(count, hidden, feature_dim, seed):
    # guards the per-row forward: a batched one differs from x @ W in the last bits
    branch = make_branch(feature_dim=feature_dim, hidden=hidden, seed=seed)
    feats = np.random.default_rng(seed).standard_normal((count, feature_dim))
    with ad.Tape():
        trained = branch.timeline(DTensor(feats, requires_grad=True)).values
    streamed = branch.stream(feats)
    assert trained.shape == streamed.shape == (count, 2)
    assert trained.tobytes() == streamed.tobytes()


def test_state_advances_once_per_clip():
    branch = make_branch()
    state = branch.initial_state()
    assert state.clips_seen == 0
    state, _ = branch.online_step(state, branch.input_half(np.zeros(5)),
                                  branch.recurrent_half(state))
    assert state.clips_seen == 1


def test_stream_and_infer_timeline_start_no_thread(monkeypatch):
    # only `detect --stdin` splits a step across threads
    def refuse(thread):
        raise AssertionError(f"thread {thread.name!r} started")

    model = micro_model()
    clips = micro_clips(model=model)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert model.infer_timeline(clips).shape == (3, 2)
    assert make_branch().stream(np.zeros((4, 5))).shape == (4, 2)


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
        return oamb.frame_loss(softmax(z), labels)

    assert grad_check(fn, [logits], h=1e-6) < 1e-6


# the clamp, below it, on it, inside, 1 - p below it, and the top
EDGE_PROBS = [0.0, 1e-9, PROB_EPS, 0.3, 1.0 - 1e-12, 1.0]


@st.composite
def timelines_and_labels(draw):
    """(L, 2) entries in [0, 1], L pseudo labels, and the gradient another
    loss left on the timeline, with no -0.0 in it."""
    count = draw(st.integers(1, 8))
    entries = st.sampled_from(EDGE_PROBS) | st.floats(0.0, 1.0)
    probs = draw(hnp.arrays(np.float64, (count, 2), elements=entries))
    labels = draw(hnp.arrays(np.intp, count, elements=st.integers(0, 1)))
    prior = draw(hnp.arrays(np.float64, (count, 2),
                            elements=st.floats(-1.0, 1.0).map(lambda v: v + 0.0)))
    return probs, labels, prior


def frame_loss_on_tape(loss_fn, probs, labels, prior):
    timeline = DTensor(probs.copy(), requires_grad=True)
    timeline.grad = prior.copy()
    with Tape() as tape:
        loss = loss_fn(timeline, labels)
    tape.backward(loss)
    return loss.values, timeline.grad


@settings(max_examples=300, deadline=None)
@given(case=timelines_and_labels())
@example(case=(np.ones((3, 2)), np.array([0, 1, 0]), np.zeros((3, 2)))).via("zero loss")
@example(case=(np.array([EDGE_PROBS[:2], EDGE_PROBS[2:4], EDGE_PROBS[4:]]),
               np.array([0, 1, 1]), np.full((3, 2), 0.25))).via("edge entries")
def test_frame_loss_equals_the_clamped_log_chain(case):
    # the gradient keeps the chain's bits; the value too, except that an
    # exactly zero loss may be +0.0 where the chain gives -0.0
    value, grad = frame_loss_on_tape(oamb.frame_loss, *case)
    want_value, want_grad = frame_loss_on_tape(chain_frame_loss, *case)
    assert grad.tobytes() == want_grad.tobytes()
    assert value.tobytes() == want_value.tobytes() or value == want_value == 0.0


def test_mil_loss_online_gradient():
    # both BCE branches, through the softmax rows the timeline emits
    logits = np.random.default_rng(6).standard_normal((6, 2))
    for label in (1, 0):
        def fn(z):
            loss, _ = oamb.mil_loss_online(softmax(z), np.array([label]), kappa=3)
            return loss

        assert grad_check(fn, [logits], h=1e-6) < 1e-6, f"label {label}"


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
    assert full == pytest.approx(head[order[:3]].mean())


def test_prefix_video_prob_single_clip():
    rows = np.array([[0.3, 0.7], [0.6, 0.4]])
    assert oamb.prefix_video_prob(rows, 1, kappa=8) == pytest.approx(0.7)


def test_prefix_video_prob_ignores_later_clips():
    branch = make_branch()
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((10, 5))
    rows = branch.stream(feats)
    truncated = branch.stream(feats[:4])
    assert (oamb.prefix_video_prob(rows, 4, kappa=8)
            == oamb.prefix_video_prob(truncated, 4, kappa=8))


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


def brute_force_runs(column, threshold):
    """(first, last) 0-based clip of every maximal run of entries >= threshold,
    found by trying every span."""
    above = [v >= threshold for v in column]
    count = len(column)
    return [(i, j) for i in range(count) for j in range(i, count)
            if all(above[i:j + 1]) and (i == 0 or not above[i - 1])
            and (j == count - 1 or not above[j + 1])]


# a coarse grid puts entries exactly on the threshold and makes equal scores
probability = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                        st.floats(0.0, 1.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.integers(0, 30), threshold=probability,
       tau=st.integers(1, 25), stride=st.integers(1, 25))
def test_extract_instances_equals_brute_force_runs(data, count, threshold, tau, stride):
    # the background column is drawn apart from the action column, so an
    # instance that read it would show
    timeline = np.array(data.draw(st.lists(st.lists(probability, min_size=2, max_size=2),
                                           min_size=count, max_size=count)),
                        dtype=float).reshape(count, 2)
    instances = oamb.extract_instances(timeline, threshold, ClipWindowing(tau, stride))
    column = timeline[:, 1].tolist()
    expected = {}
    for first, last in brute_force_runs(column, threshold):
        span = (first * stride + 1, last * stride + tau)
        expected[span] = math.fsum(column[first:last + 1]) / (last - first + 1)
    got = {(i.start_frame, i.end_frame): i.score for i in instances}
    assert len(got) == len(instances)
    assert got.keys() == expected.keys()
    for span, score in got.items():
        assert score == pytest.approx(expected[span], rel=1e-12, abs=1e-15)
    keys = [(-i.score, i.start_frame) for i in instances]
    assert keys == sorted(keys)


def test_stream_record_format():
    record = oamb.stream_record(3, WINDOW, np.array([0.25, 0.75]))
    assert record == {"clip": 3, "start_frame": 41, "end_frame": 60,
                      "probs": [0.25, 0.75]}
