import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wogma import autodiff as ad
from wogma.autodiff import DTensor, Tape
from wogma.cpgb import PROB_EPS
from wogma.errors import NumericalError
from wogma.oamb import OnlineBranch
import grad_oracle
from conftest import JobsTakenBy
from grad_oracle import grad_check
from lstm_oracle import per_step_node, per_step_timeline
from tape_oracle import (add_const, chain_neg_log, chain_one_minus, lstm_cell,
                         masked_sigmoid_vals, mul, scale, softmax, sum_all, tanh)
from tiled_oracle import collapse_window, graph_apply


def test_affine_identity():
    out = ad.affine(DTensor([[1.0, 2.0]]), DTensor([[1.0, 0.0], [0.0, 1.0]]), DTensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.values, [[1.0, 2.0]])


def test_affine_scalar_case():
    out = ad.affine(DTensor([[1.0, 1.0]]), DTensor([[2.0], [3.0]]), DTensor([1.0]))
    np.testing.assert_array_equal(out.values, [[6.0]])


def test_affine_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(1, 3\).*\(2, 4\)"):
        ad.affine(DTensor(np.zeros((1, 3))), DTensor(np.zeros((2, 4))), DTensor(np.zeros(4)))


def test_affine_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    err = grad_check(ad.affine, [x, w, b], h=1e-6)
    assert err < 1e-6


def test_relu_values():
    np.testing.assert_array_equal(ad.relu(DTensor([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(DTensor([0.0, 0.0])).values, [0.5, 0.5])


def test_sigmoid_at_zero():
    assert ad.sigmoid(DTensor(0.0)).values == 0.5


def test_sigmoid_extreme_inputs_stay_finite():
    out = ad.sigmoid(DTensor([-1000.0, 1000.0])).values
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


# finite values of either sign, ±0.0 and subnormals included, in arrays whose
# lengths are mostly not a multiple of the SIMD width
SIGMOID_INPUTS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=67),
    elements=st.floats(-1e308, 1e308, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(SIGMOID_INPUTS)
@example(np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e308, -1e308, 745.2,
                   -745.2, 36.7, -36.7]))
def test_sigmoid_vals_equal_masked_two_branch_form_bitwise(v):
    # float64, and longdouble values between float64 ones, as the gradient
    # oracle's extended-precision passes give
    for values in (v, v.astype(np.longdouble) * (1 + np.longdouble(2) ** -62)):
        got, want = ad._sigmoid_vals(values), masked_sigmoid_vals(values)
        assert got.dtype == want.dtype == values.dtype and got.shape == want.shape
        # equal values of equal sign are equal bits; a longdouble's padding
        # bytes hold no part of its value
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        if values.dtype == np.float64:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh", "softmax"])
def test_activation_gradients(kind):
    rng = np.random.default_rng(11)
    # keep relu inputs away from the kink
    x = rng.standard_normal((4, 5))
    x[np.abs(x) < 1e-2] = 0.1
    fn = {"relu": ad.relu, "sigmoid": ad.sigmoid, "tanh": tanh, "softmax": softmax}[kind]
    assert grad_check(fn, [x], h=1e-6) < 1e-6


def test_temporal_conv1d_identity_kernel():
    out = ad.temporal_conv1d(DTensor([[1.0], [2.0], [3.0]]),
                             DTensor(np.ones((1, 1, 1))), DTensor([0.0]))
    np.testing.assert_array_equal(out.values, [[1.0], [2.0], [3.0]])


def test_temporal_conv1d_boundary_zero_padding():
    out = ad.temporal_conv1d(DTensor([[1.0], [1.0], [1.0]]),
                             DTensor(np.ones((1, 1, 3))), DTensor([0.0]))
    np.testing.assert_array_equal(out.values[:, 0], [2.0, 3.0, 2.0])


def test_temporal_conv1d_keeps_longdouble_input():
    # 1 + 2**-60 is exact in longdouble and rounds to 1.0 in float64, so a
    # float64 padding buffer would show up in the identity-kernel output
    x = np.array([[1.0], [1.0]], dtype=np.longdouble) + np.longdouble(2.0) ** -60
    out = ad.temporal_conv1d(DTensor(x), DTensor(np.ones((1, 1, 3), dtype=np.longdouble)),
                             DTensor(np.zeros(1, dtype=np.longdouble)))
    assert out.values.dtype == np.longdouble
    np.testing.assert_array_equal(out.values, x + x)


def test_temporal_conv1d_even_kernel_rejected():
    with pytest.raises(ad.ShapeError, match="kernel size must be odd"):
        ad.temporal_conv1d(DTensor(np.zeros((4, 2))), DTensor(np.zeros((3, 2, 4))), DTensor(np.zeros(3)))


def test_temporal_conv1d_gradient():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((7, 3))
    w = rng.standard_normal((2, 3, 3))
    b = rng.standard_normal(2)
    assert grad_check(ad.temporal_conv1d, [x, w, b], h=1e-6) < 1e-6


def test_collapse_window_uniform_average():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 3, 2))  # L=2, tau=4, N=3, C=2
    w = np.zeros((2, 4, 2))
    for c in range(2):
        w[c, :, c] = 0.25
    out = collapse_window(DTensor(x), DTensor(w))
    np.testing.assert_allclose(out.values, x.mean(axis=1))


def test_collapse_window_tau1_identity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 1, 3, 2))
    w = np.zeros((2, 1, 2))
    w[0, 0, 0] = 1.0
    w[1, 0, 1] = 1.0
    out = collapse_window(DTensor(x), DTensor(w))
    np.testing.assert_allclose(out.values, x[:, 0])


def test_collapse_window_gradient():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 2, 2))
    w = rng.standard_normal((2, 3, 4))
    assert grad_check(collapse_window, [x, w], h=1e-6) < 1e-6


def test_graph_apply_gradient():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    x = rng.standard_normal((2, 4, 3))
    assert grad_check(lambda t: graph_apply(a, t), [x], h=1e-6) < 1e-6


def test_lstm_cell_zero_weights_zero_state():
    h = DTensor(np.zeros(4))
    c = DTensor(np.zeros(4))
    f = DTensor(np.array([1.0, -2.0, 3.0]))
    w_ih = DTensor(np.zeros((3, 16)))
    w_hh = DTensor(np.zeros((4, 16)))
    b = DTensor(np.zeros(16))
    h1, c1 = lstm_cell(h, c, f, w_ih, w_hh, b)
    np.testing.assert_array_equal(h1.values, np.zeros(4))
    np.testing.assert_array_equal(c1.values, np.zeros(4))


def test_lstm_cell_hidden_state_bounded():
    rng = np.random.default_rng(12)
    h, c = np.zeros(8), np.zeros(8)
    w_ih = rng.standard_normal((5, 32))
    w_hh = rng.standard_normal((8, 32))
    b = rng.standard_normal(32)
    for _ in range(20):
        f = rng.standard_normal(5) * 3.0
        ht, ct = lstm_cell(DTensor(h), DTensor(c), DTensor(f), DTensor(w_ih), DTensor(w_hh), DTensor(b))
        h, c = ht.values, ct.values
        assert np.max(np.abs(h)) < 1.0


def test_lstm_cell_gradient():
    rng = np.random.default_rng(13)
    hidden = 8
    args = [
        rng.standard_normal(hidden) * 0.5,       # h_prev
        rng.standard_normal(hidden) * 0.5,       # c_prev
        rng.standard_normal(5),                  # f
        rng.standard_normal((5, 4 * hidden)) * 0.3,
        rng.standard_normal((hidden, 4 * hidden)) * 0.3,
        rng.standard_normal(4 * hidden) * 0.3,
    ]

    def step_h(h_prev, c_prev, f, w_ih, w_hh, b):
        h, c = lstm_cell(h_prev, c_prev, f, w_ih, w_hh, b)
        return ad.add(h, c)

    assert grad_check(step_h, args, h=1e-6) < 1e-5


def timeline_inputs(seed, count=9, feature_dim=5, hidden=6, classes=3):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((count, feature_dim)),
            rng.standard_normal((feature_dim, 4 * hidden)) * 0.5,
            rng.standard_normal((hidden, 4 * hidden)) * 0.5,
            rng.standard_normal(4 * hidden) * 0.3,
            rng.standard_normal((hidden, classes)),
            rng.standard_normal(classes) * 0.3]


def run_videos(timeline, arrays, xs, probes, frozen=()):
    """Forward and backward over each video in turn, the weights' gradients
    gathered as in a batch; the inputs at the indices in `frozen` take no
    gradient."""
    weights = [DTensor(a.copy(), requires_grad=j not in frozen)
               for j, a in enumerate(arrays[1:], start=1)]
    results = []
    for x, probe in zip(xs, probes):
        x = DTensor(x.copy(), requires_grad=0 not in frozen)
        with Tape() as tape:
            out = timeline(x, *weights)
            loss = sum_all(mul(out, DTensor(probe)))
        tape.backward(loss)
        results += [out.values, x.grad]
    return results + [w.grad for w in weights]


def assert_same_bits(fused, steps):
    assert len(fused) == len(steps)
    for a, b in zip(fused, steps):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def video_inputs(seed, count, videos=2):
    arrays = timeline_inputs(seed, count=count)
    rng = np.random.default_rng(seed + 1)
    xs = [arrays[0]] + [rng.standard_normal(arrays[0].shape) for _ in range(videos - 1)]
    probes = [rng.standard_normal((count, 3)) for _ in range(videos)]
    return arrays, xs, probes


def lstm_threads():
    return [t for t in threading.enumerate() if t.name == "lstm-outer-sums"]


@pytest.mark.parametrize("block_rows", [None, 4], ids=["default-block", "4-row-block"])
@pytest.mark.parametrize("count", [9, 1])
@pytest.mark.parametrize("x_requires_grad", [True, False])
def test_lstm_timeline_equals_per_step_tape_bitwise(x_requires_grad, count, block_rows,
                                                     monkeypatch):
    if block_rows is not None:
        # w_hh (6 rows) and w_ih (5 rows) span a partial last block
        monkeypatch.setattr(ad, "OUTER_BLOCK_BYTES", block_rows * 4 * 6 * 8)
    arrays, xs, probes = video_inputs(31, count)
    frozen = () if x_requires_grad else (0,)
    fused = run_videos(ad.lstm_timeline, arrays, xs, probes, frozen)
    # the second video's node adds its whole gradient to the first one's once
    assert_same_bits(fused, run_videos(per_step_node, arrays, xs, probes, frozen))
    assert (fused[1] is None) == (not x_requires_grad)


FROZEN = {"all-grads": (), "x-frozen": (0,), "w_ih-frozen": (1,), "w_hh-frozen": (2,),
          "no-weight-grad": (1, 2)}


@pytest.mark.parametrize("frozen", FROZEN.values(), ids=FROZEN)
@pytest.mark.parametrize("count", [1, 3, 4, 5, 15])
def test_split_backward_equals_per_step_tape_bitwise(count, frozen, monkeypatch):
    # blocks of the default size and of 1 and 4 rows, split between the
    # worker thread and the caller; one video's gradients start from zero
    # and take the per-step tape's bits, a second video's add to them once
    for block_rows in (None, 1, 4):
        if block_rows is not None:
            monkeypatch.setattr(ad, "OUTER_BLOCK_BYTES", block_rows * 4 * 6 * 8)
        for videos, oracle in ((1, per_step_timeline), (2, per_step_node)):
            arrays, xs, probes = video_inputs(41, count, videos)
            fused = run_videos(ad.lstm_timeline, arrays, xs, probes, frozen)
            assert not lstm_threads()
            assert_same_bits(fused, run_videos(oracle, arrays, xs, probes, frozen))
            assert (fused[1] is None) == (0 in frozen)


def test_einsum_sums_products_in_memory_order_without_fused_multiply_add():
    # lstm_timeline's weight gradients take the per-step tape's bits only if
    # einsum adds each rounded product to a running sum from zero, in the
    # memory order of the summed axis. Four hand-made terms, row 0 first:
    # 1, a*b (rounds to 2**-53, exactly a little above it), 2**-53, 2**-53.
    # Row 0 first with rounded products gives 1.0; oldest first, pairwise
    # or with a fused multiply-add, another float.
    a, b = 1 + 2.0**-52, 2.0**-53 * (1 - 2.0**-53)
    left, right = np.array([1.0, a, 2.0**-53, 2.0**-53]), np.array([1.0, b, 1.0, 1.0])

    def rounded(value):
        return float(Fraction(value))

    terms = [rounded(Fraction(l) * Fraction(r)) for l, r in zip(left, right)]
    fused = 0.0
    for l, r in zip(left, right):
        fused = rounded(Fraction(fused) + Fraction(l) * Fraction(r))
    oldest_first = 0.0
    for term in reversed(terms):
        oldest_first += term
    assert fused != 1.0 and oldest_first != 1.0
    assert (terms[0] + terms[1]) + (terms[2] + terms[3]) != 1.0
    got = np.einsum("ir,ic->rc", np.repeat(left[:, None], 2, axis=1),
                    np.repeat(right[:, None], 24, axis=1))
    build = (f"numpy {np.__version__}, SIMD baseline "
             f"{' '.join(np._core._multiarray_umath.__cpu_baseline__)}")
    assert got.tolist() == [[1.0] * 24] * 2, (
        f"np.einsum on {build} no longer sums the products of 'ir,ic->rc' one by "
        f"one from zero in row order without a fused multiply-add; "
        f"ad.lstm_timeline's weight gradients would lose the per-step tape's bits")


SPLITS = {"default-split": None, "all-on-worker": "worker", "all-on-caller": "caller"}


@pytest.mark.parametrize("side", SPLITS.values(), ids=SPLITS)
def test_gradient_bits_do_not_depend_on_the_block_split(side, monkeypatch):
    monkeypatch.setattr(ad, "OUTER_BLOCK_BYTES", 1)   # one gradient row per block
    add_outer_sums = ad._add_outer_sums
    takers = []

    def resplit(jobs):
        routed = JobsTakenBy(jobs, side)
        add_outer_sums(routed)
        takers.append(routed.takers)

    monkeypatch.setattr(ad, "_add_outer_sums", resplit)
    arrays, xs, probes = video_inputs(41, 17)
    fused = run_videos(ad.lstm_timeline, arrays, xs, probes)
    # 6 w_hh rows, 5 w_ih rows and 6 w_a rows, each block taken once
    assert [len(taken) for taken in takers] == [17, 17]
    if side is not None:
        caller = threading.current_thread()
        assert all((t is caller) == (side == "caller") for taken in takers for t in taken)
    assert_same_bits(fused, run_videos(per_step_node, arrays, xs, probes))


def test_free_running_follower_keeps_bits_under_fast_switching(monkeypatch):
    # the follower, the worker thread that takes row blocks from the
    # caller's iterator, runs free beside the caller while the interpreter
    # switches between them every microsecond; a block added twice, or not
    # at all, shows in the bits
    monkeypatch.setattr(ad, "OUTER_BLOCK_BYTES", 1)   # one gradient row per block
    arrays, xs, probes = video_inputs(45, 40)
    expected = run_videos(per_step_node, arrays, xs, probes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        runs = 0
        while runs < 5 or (runs < 50 and time.monotonic() < deadline):
            assert_same_bits(run_videos(ad.lstm_timeline, arrays, xs, probes), expected)
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert not lstm_threads()


class _FailingGrad:
    """A gradient block whose += raises, noting the thread that ran it."""

    def __init__(self):
        self.thread = None

    def __iadd__(self, other):
        self.thread = threading.current_thread()
        raise RuntimeError("block failed")


def run_with_failing_block(side, monkeypatch):
    """Backward with one more job, whose += raises, and every job taken by
    the given side; returns the failing block."""
    add_outer_sums = ad._add_outer_sums
    failing = _FailingGrad()

    def with_failing_job(jobs):
        add_outer_sums(JobsTakenBy(jobs + [(failing, np.ones((2, 1)), np.ones((2, 1)))], side))

    monkeypatch.setattr(ad, "_add_outer_sums", with_failing_job)
    arrays, xs, probes = video_inputs(43, 9, videos=1)
    with pytest.raises(RuntimeError, match="block failed"):
        run_videos(ad.lstm_timeline, arrays, xs, probes)
    return failing


def test_follower_error_is_raised_by_backward(monkeypatch):
    # an error in a block the follower took is raised by Tape.backward, and
    # the follower is joined before it is
    failing = run_with_failing_block("worker", monkeypatch)
    assert failing.thread is not threading.current_thread()
    assert not lstm_threads()


def test_caller_block_error_is_raised_after_joining_the_follower(monkeypatch):
    failing = run_with_failing_block("caller", monkeypatch)
    assert failing.thread is threading.current_thread()
    assert not lstm_threads()


def test_walk_error_stops_the_follower(monkeypatch):
    # an error in the BPTT walk, here inf - inf under np.errstate(invalid=
    # "raise") at the oldest step, is raised before any sum: the follower
    # never starts
    summed = []
    monkeypatch.setattr(ad, "_add_outer_sums", lambda *jobs: summed.append(jobs))
    arrays, xs, probes = video_inputs(44, 9, videos=1)
    probes[0][0, 0] = np.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        run_videos(ad.lstm_timeline, arrays, xs, probes)
    assert not summed and not lstm_threads()


def test_lstm_timeline_gradient():
    assert grad_check(ad.lstm_timeline, timeline_inputs(33, count=4), h=1e-6) < 1e-5


def test_lstm_timeline_shape_mismatch_names_shapes():
    arrays = timeline_inputs(34)
    arrays[2] = arrays[2][:, :-1]
    with pytest.raises(ad.ShapeError, match=r"x \(9, 5\), w_ih \(5, 24\), w_hh \(6, 23\)"):
        ad.lstm_timeline(*arrays)


def test_online_branch_timeline_is_one_tape_node():
    branch = OnlineBranch(feature_dim=5, hidden=6, rng=np.random.default_rng(35))
    feats = DTensor(np.random.default_rng(36).standard_normal((7, 5)), requires_grad=True)
    with Tape() as tape:
        out = branch.timeline(feats)
    assert len(tape) == 1
    assert out.values.shape == (7, 2)


def test_softmax_cross_entropy_composite_gradient():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)

    def ce(z):
        picked = ad.take_entries(softmax(z), np.arange(6), labels)
        return ad.reduce_mean(ad.neg_log(picked, 1e-7))

    assert grad_check(ce, [logits], h=1e-6) < 1e-6


def projected_on_tape(fn, x, probe):
    """(values, d <fn(x), probe> / dx, tape nodes of fn) for the vector x."""
    t = DTensor(np.array(x), requires_grad=True)
    with Tape() as tape:
        out = fn(t)
        nodes = len(tape)
        loss = sum_all(mul(out, DTensor(np.array(probe))))
    tape.backward(loss)
    return out.values, t.grad, nodes


# each entry is (x, upstream gradient); the explicit x values are the clamp,
# below it, on it, inside, 1 - x below it, and the top
UNIT_POINTS = [(0.0, 1.0), (1e-9, 1.0), (PROB_EPS, 1.0), (0.3, 1.0),
               (1.0 - 1e-12, 1.0), (1.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-2.0, 2.0)),
                      min_size=1, max_size=6))
@example(pairs=UNIT_POINTS)
@example(pairs=[(x, -0.5) for x, _ in UNIT_POINTS])
@example(pairs=[(x, 0.0) for x, _ in UNIT_POINTS])
def test_neg_log_equals_clamp_log_negate_chain_bitwise(pairs):
    x, probe = zip(*pairs)
    value, grad, nodes = projected_on_tape(lambda t: ad.neg_log(t, PROB_EPS), x, probe)
    want_value, want_grad, want_nodes = projected_on_tape(
        lambda t: chain_neg_log(t, PROB_EPS), x, probe)
    assert value.tobytes() == want_value.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert (nodes, want_nodes) == (1, 3)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(-1e100, 1e100), st.floats(-2.0, 2.0)),
                      min_size=1, max_size=6))
@example(pairs=UNIT_POINTS)
@example(pairs=[(x, 0.0) for x, _ in UNIT_POINTS])
@example(pairs=[(-0.0, 1.0), (1e100, -1.0), (-1e-300, 0.5)])
def test_one_minus_equals_negate_add_one_chain_bitwise(pairs):
    x, probe = zip(*pairs)
    value, grad, nodes = projected_on_tape(ad.one_minus, x, probe)
    want_value, want_grad, want_nodes = projected_on_tape(chain_one_minus, x, probe)
    assert value.tobytes() == want_value.tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert (nodes, want_nodes) == (1, 2)


def test_fanout_accumulates_gradients():
    # d(f(x)+g(x))/dx = df/dx + dg/dx exactly
    x = DTensor(np.array([1.5, -2.0, 0.5]), requires_grad=True)
    with Tape() as tape:
        doubled = scale(x, 2.0)
        tripled = scale(x, 3.0)
        loss = sum_all(ad.add(doubled, tripled))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(3, 5.0))


def test_dead_branch_is_skipped():
    x = DTensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        unused = scale(x, 10.0)  # noqa: F841 - intentionally dead
        loss = sum_all(scale(x, 2.0))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full(2, 2.0))


def test_forward_is_deterministic():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((5, 4))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    a = softmax(ad.affine(DTensor(x), DTensor(w), DTensor(b))).values
    b2 = softmax(ad.affine(DTensor(x.copy()), DTensor(w.copy()), DTensor(b.copy()))).values
    assert np.array_equal(a, b2)


def test_no_nan_inf_from_primitives_on_finite_input():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((10, 6)) * 500.0
    for fn in (ad.relu, ad.sigmoid, tanh, softmax):
        assert np.all(np.isfinite(fn(DTensor(x)).values))


def test_backward_requires_scalar():
    x = DTensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = scale(x, 2.0)
    with pytest.raises(ad.ShapeError):
        tape.backward(y)


def test_zero_grad_drops_the_buffer():
    # an owned buffer and a view alike; zeroing the trainer's arena in place
    # is the arena's own job
    flat = np.full(5, 2.0)
    for grad in (np.full(3, 2.0), flat[1:4]):
        x = DTensor(np.ones(3), requires_grad=True)
        x.grad = grad
        x.zero_grad()
        assert x.grad is None
    np.testing.assert_array_equal(flat, np.full(5, 2.0))


def test_reduce_sum_along_an_axis_gradient():
    x = np.random.default_rng(8).standard_normal((3, 4, 2))
    assert grad_check(lambda t: ad.reduce_sum(t, axis=1), [x]) < 1e-6


def test_reduce_sum_needs_an_axis():
    # a whole-tensor sum is the test oracle's sum_all
    with pytest.raises(TypeError):
        ad.reduce_sum(DTensor(np.ones(3)))


def test_take_entries_scatter_adds_on_duplicate_rows():
    x = DTensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
    rows = np.array([1, 1])
    cols = np.array([0, 0])
    with Tape() as tape:
        loss = sum_all(ad.take_entries(x, rows, cols))
    tape.backward(loss)
    expected = np.zeros((3, 2))
    expected[1, 0] = 2.0
    np.testing.assert_array_equal(x.grad, expected)


def test_dtensor_float64_and_integer_inputs_stay_float64():
    x = np.arange(6, dtype=np.float64)
    assert DTensor(x).values is x
    for values in (x.astype(np.float32), np.arange(3), [1, 2], 2.5, True):
        assert DTensor(values).values.dtype == np.float64
    assert DTensor(x.astype(np.longdouble)).values.dtype == np.longdouble


def test_grad_check_resolves_tiny_gradients():
    # the gradient is 1e-9 * probe on an O(1) output: a float64 central
    # difference at h = 1e-6 is off by ~3e-3 relative, a longdouble one by ~2e-6
    def fn(t):
        return add_const(scale(t, 1e-9), 1.0)

    x = np.random.default_rng(0).standard_normal(3)
    assert grad_check(fn, [x], h=1e-6) < 1e-5


def test_grad_check_rejects_precision_drop():
    def fn(t):
        return scale(DTensor(np.asarray(t.values, dtype=np.float64)), 2.0)

    with pytest.raises(NumericalError, match="dropped the extended precision"):
        grad_check(fn, [np.ones(2)])


def test_grad_check_rejects_platform_without_extended_precision(monkeypatch):
    # on MSVC builds or macOS arm64, longdouble is plain float64
    monkeypatch.setattr(grad_oracle, "EXTENDED", np.float64)
    with pytest.raises(NumericalError, match="extended-precision"):
        grad_check(ad.relu, [np.ones(2)])
