import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wogma import autodiff as ad
from wogma import cpgb
from wogma.autodiff import DTensor, Tape
from grad_oracle import grad_check
from tape_oracle import two_term_binary_cross_entropy


def make_branch(feature_dim=6, ablate=False, seed=0):
    return cpgb.PseudoLabelBranch(feature_dim=feature_dim, conv_layers=0 if ablate else 2,
                                  rng=np.random.default_rng(seed))


def test_temporal_stack_ablated_is_bitwise_identity():
    branch = make_branch(ablate=True)
    feats = DTensor(np.random.default_rng(1).standard_normal((7, 6)))
    out = branch.temporal_stack(feats)
    np.testing.assert_array_equal(out.values, feats.values)
    assert set(branch.params) == {"cpgb.fc_w", "cpgb.fc_b"}


def test_temporal_stack_receptive_field_two_layers_kernel_three():
    # perturbation oracle: output row i depends on rows i-2..i+2 only
    branch = make_branch()
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((9, 6))
    base = branch.temporal_stack(DTensor(feats)).values
    edited = feats.copy()
    edited[1] += 1.0
    after = branch.temporal_stack(DTensor(edited)).values
    changed = np.any(after != base, axis=1)
    assert not changed[4:].any(), "clips beyond i+2 must be untouched"
    assert changed[:4].any()


def test_temporal_stack_identity_initialised_kernels_passthrough():
    branch = make_branch()
    for layer in range(2):
        w = np.zeros_like(branch.params[f"cpgb.conv{layer}_w"].values)
        for c in range(w.shape[0]):
            w[c, c, 1] = 1.0  # centre tap
        branch.params[f"cpgb.conv{layer}_w"].tensor.values[...] = w
        branch.params[f"cpgb.conv{layer}_b"].tensor.values[...] = 0.0
    feats = np.abs(np.random.default_rng(3).standard_normal((5, 6)))  # relu-safe
    out = branch.temporal_stack(DTensor(feats)).values
    np.testing.assert_allclose(out, feats)


def test_clip_scores_zero_weights_give_half_probs():
    branch = make_branch()
    branch.params["cpgb.fc_w"].tensor.values[...] = 0.0
    scores = branch.clip_scores(DTensor(np.random.default_rng(4).standard_normal((5, 6))))
    probs = ad.sigmoid(scores).values
    np.testing.assert_array_equal(probs, np.full((5, 1), 0.5))


def test_clip_scores_preserves_rows_and_monotonicity():
    branch = make_branch()
    feats = DTensor(np.random.default_rng(5).standard_normal((8, 6)))
    scores = branch.clip_scores(feats)
    assert scores.values.shape == (8, 1)
    probs = ad.sigmoid(scores).values
    bumped = ad.sigmoid(DTensor(scores.values + 1.0)).values
    assert np.all(bumped > probs)


def test_top_k_count_paper_constants():
    assert cpgb.top_k_count(300, 8) == 37
    assert cpgb.top_k_count(5, 8) == 1


@pytest.mark.parametrize("clip_count", range(1, 51))
@pytest.mark.parametrize("kappa", range(1, 11))
def test_top_k_count_formula(clip_count, kappa):
    k = cpgb.top_k_count(clip_count, kappa)
    assert k == max(1, clip_count // kappa)
    assert 1 <= k <= clip_count


def test_topk_video_score_example():
    scores = DTensor(np.array([[0.9], [0.1], [0.5], [0.7]]))
    video = cpgb.topk_pool(scores, kappa=2, col=0)
    picked = cpgb.top_k_indices(scores.values[:, 0], kappa=2)
    assert video.values == pytest.approx(0.8)
    np.testing.assert_array_equal(picked, [0, 3])


def test_topk_clamps_to_max_score():
    scores = DTensor(np.array([[0.2], [0.9], [0.4], [0.1], [0.6]]))
    video = cpgb.topk_pool(scores, kappa=8, col=0)
    picked = cpgb.top_k_indices(scores.values[:, 0], kappa=8)
    assert video.values == pytest.approx(0.9)
    np.testing.assert_array_equal(picked, [1])


def test_topk_tie_break_prefers_lower_index():
    picked = cpgb.top_k_indices(np.array([0.5, 0.5, 0.5]), kappa=2)
    np.testing.assert_array_equal(picked, [0])


def test_topk_shift_invariance():
    rng = np.random.default_rng(6)
    scores = rng.standard_normal((12, 2))
    for col in (0, 1):
        video_a = cpgb.topk_pool(DTensor(scores), kappa=3, col=col)
        video_b = cpgb.topk_pool(DTensor(scores + 5.0), kappa=3, col=col)
        picked_a = cpgb.top_k_indices(scores[:, col], kappa=3)
        picked_b = cpgb.top_k_indices(scores[:, col] + 5.0, kappa=3)
        np.testing.assert_array_equal(picked_a, picked_b)
        np.testing.assert_allclose(video_b.values - video_a.values, 5.0)


def test_topk_gradient_reaches_only_selected_clips():
    scores = DTensor(np.array([[0.9], [0.1], [0.5], [0.7]]), requires_grad=True)
    with Tape() as tape:
        video = cpgb.topk_pool(scores, kappa=2, col=0)
    tape.backward(video)
    expected = np.zeros((4, 1))
    expected[[0, 3], 0] = 0.5
    np.testing.assert_array_equal(scores.grad, expected)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 40), kappa=st.integers(1, 10), col=st.integers(0, 1),
       seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_topk_pool_matches_brute_force(count, kappa, col, seed, ties):
    # oracle: mean of the K largest values of the pooled column, where
    # K = max(1, L // kappa); the gradient of the sum is 1/K on the picked
    # entries (lower index on ties) and zero everywhere else
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, 2))
    if ties:
        x = np.round(x)          # many equal values, so the tie rule decides
    k = max(1, count // kappa)
    ranked = sorted(range(count), key=lambda i: (-x[i, col], i))[:k]
    expected_mean = sum(x[i, col] for i in ranked) / k
    expected_grad = np.zeros_like(x)
    expected_grad[ranked, col] = 1.0 / k

    tensor = DTensor(x, requires_grad=True)
    with Tape() as tape:
        pooled = cpgb.topk_pool(tensor, kappa, col)
    tape.backward(pooled)
    assert pooled.values.shape == ()
    np.testing.assert_allclose(pooled.values, expected_mean, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tensor.grad, expected_grad)


def test_mil_loss_hand_values():
    # y=1, p=1 -> 0 ; y=1, p=0.5 -> ln 2 ; y=0, p=0.5 -> ln 2
    big = DTensor(np.full((3, 1), 50.0))  # sigmoid ~ 1
    loss, _ = cpgb.mil_loss(big, np.array([1]), kappa=1)
    assert loss.values == pytest.approx(0.0, abs=1e-6)

    zero = DTensor(np.zeros((3, 1)))      # sigmoid = 0.5
    loss_pos, prob = cpgb.mil_loss(zero, np.array([1]), kappa=1)
    assert prob == 0.5
    assert loss_pos.values == pytest.approx(math.log(2.0))
    loss_neg, _ = cpgb.mil_loss(zero, np.array([0]), kappa=1)
    assert loss_neg.values == pytest.approx(math.log(2.0))


def test_mil_loss_gradient():
    # both BCE branches: -log p for a positive video, -log(1 - p) for a negative one
    rng = np.random.default_rng(7)
    scores = rng.standard_normal((6, 1))
    for label in (1, 0):
        def fn(s):
            loss, _ = cpgb.mil_loss(s, np.array([label]), kappa=3)
            return loss

        assert grad_check(fn, [scores], h=1e-6) < 1e-6, f"label {label}"


def bce_on_tape(bce, p, labels):
    """(loss, d loss / d p, tape nodes) of `bce` at the () probability p."""
    prob = DTensor(np.array(p), requires_grad=True)
    with Tape() as tape:
        loss = bce(prob, labels)
    tape.backward(loss)
    return loss.values, prob.grad, len(tape)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(0.0, 1.0), label=st.sampled_from([0, 1]))
@example(p=0.0, label=0).via("clamped")
@example(p=0.0, label=1).via("clamped")
@example(p=1e-9, label=0).via("below the clamp")
@example(p=1e-9, label=1).via("below the clamp")
@example(p=0.3, label=0)
@example(p=0.3, label=1)
@example(p=1.0 - 1e-12, label=0).via("1 - p below the clamp")
@example(p=1.0 - 1e-12, label=1).via("1 - p below the clamp")
@example(p=1.0, label=0).via("clamped")
@example(p=1.0, label=1).via("clamped")
def test_binary_cross_entropy_equals_two_term_oracle_bitwise(p, label):
    # the one-label form drops the term the label zeroes; its value and
    # gradient keep the two-term form's bits, in fewer tape nodes
    loss, grad, nodes = bce_on_tape(cpgb.binary_cross_entropy, p, np.array([label]))
    want_loss, want_grad, _ = bce_on_tape(two_term_binary_cross_entropy, p, np.array(label))
    assert loss.shape == want_loss.shape == grad.shape == ()
    assert loss.tobytes() == want_loss.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert nodes == (1 if label == 1 else 2)


def test_pseudo_labels_video_below_class_threshold():
    probs = np.array([[0.9], [0.8], [0.7]])
    out = cpgb.generate_pseudo_labels(probs, 0.35, 0.4, 0.3, np.array([1]))
    np.testing.assert_array_equal(out, [0, 0, 0])


def test_pseudo_labels_score_threshold():
    probs = np.array([[0.2], [0.5], [0.9]])
    out = cpgb.generate_pseudo_labels(probs, 0.8, 0.4, 0.3, np.array([1]))
    np.testing.assert_array_equal(out, [0, 1, 1])


def test_pseudo_labels_ground_truth_filter():
    rng = np.random.default_rng(8)
    for _ in range(100):
        probs = rng.uniform(0.0, 1.0, size=(rng.integers(1, 30), 1))
        out = cpgb.generate_pseudo_labels(probs, rng.uniform(0, 1),
                                          0.4, 0.3, np.array([0]))
        assert (out == 0).all()


def test_pseudo_labels_theta_score_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        probs = rng.uniform(0.0, 1.0, size=(20, 1))
        video = 0.9
        labels = np.array([1])
        counts = []
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            out = cpgb.generate_pseudo_labels(probs, video, 0.4, theta, labels)
            counts.append(int((out > 0).sum()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))
