import numpy as np
import pytest

from wogma import graph as gr
from wogma import lfem
from wogma.autodiff import DTensor, Parameter
from wogma.errors import ConfigurationError, DataFormatError
from conftest import micro_clips, micro_model
from grad_oracle import grad_check
from tiled_oracle import collapse_time, extract_dense, g3d_conv, tiled_multiscale


def path_graph(n=3):
    """The 0/1 adjacency of the path 1 - 2 - ... - n."""
    return np.eye(n, k=1) + np.eye(n, k=-1)


# make_extractor's defaults, which the tests read back
JOINTS, IN_CHANNELS, FEATURE_DIM = 3, 2, 6


def make_extractor(tau=4, scales=2, joints=JOINTS, in_channels=IN_CHANNELS, gcn_channels=4,
                   feature_dim=FEATURE_DIM, ablate_local=False, seed=0):
    adjacency = gr.build_multiscale(path_graph(joints), scales=scales)
    rng = np.random.default_rng(seed)
    return lfem.LocalFeatureExtractor(adjacency, tau=tau, joints=joints,
                                      in_channels=in_channels, gcn_channels=gcn_channels,
                                      feature_dim=feature_dim, ablate_local=ablate_local, rng=rng)


def tiled_of(ex):
    """The tiled window matrices behind `make_extractor`'s extractor."""
    return tiled_multiscale(path_graph(JOINTS), len(ex.adjacency) - 1, ex.tau)


def test_clip_count_paper_defaults():
    assert lfem.ClipWindowing(tau=20, stride=20).clip_count(6000) == 300


WINDOW = lfem.ClipWindowing(tau=20, stride=20)


def test_split_clips_partition():
    frames = np.arange(40 * 2 * 3, dtype=float).reshape(40, 2, 3)
    clips = lfem.split_clips(frames, WINDOW, "v0")
    assert clips.shape == (2, 20, 2, 3)
    np.testing.assert_array_equal(clips[0], frames[:20])
    np.testing.assert_array_equal(clips[1], frames[20:40])


def test_split_clips_drops_remainder():
    frames = np.zeros((25, 2, 3))
    assert lfem.split_clips(frames, WINDOW, "v0").shape[0] == 1


def test_split_clips_too_short_rejected():
    # a video shorter than one clip is bad data, named by its id
    with pytest.raises(DataFormatError,
                       match="video 'v0': 19 frames, fewer than the 20 of one clip"):
        lfem.split_clips(np.zeros((19, 2, 3)), WINDOW, "v0")


def test_frame_interval():
    w = lfem.ClipWindowing(tau=20, stride=20)
    assert w.frame_interval(1) == (1, 20)
    assert w.frame_interval(3) == (41, 60)


def test_g3d_identity_graph_identity_weights():
    tiled = tiled_multiscale(np.zeros((1, 1)), scales=0, tau=1)
    theta = Parameter(np.eye(2), name="t")
    clip = DTensor(np.array([[0.7, -0.3]]))
    out = g3d_conv(clip, tiled, [theta])
    np.testing.assert_allclose(out.values, [[0.7, 0.0]])


def test_g3d_zero_input_zero_output():
    ex = make_extractor()
    clip = DTensor(np.zeros((ex.tau * JOINTS, IN_CHANNELS)))
    out = g3d_conv(clip, tiled_of(ex), ex.thetas)
    np.testing.assert_array_equal(out.values, 0.0)


def test_g3d_scale_count_mismatch():
    ex = make_extractor(scales=2)
    clip = DTensor(np.zeros((ex.tau * JOINTS, IN_CHANNELS)))
    with pytest.raises(ConfigurationError):
        g3d_conv(clip, tiled_of(ex), ex.thetas[:2])


def test_g3d_respects_graph_automorphism():
    # path 1-2-3: swapping joints 1 and 3 is an automorphism, so permuting
    # them in the input permutes the corresponding output rows
    ex = make_extractor(tau=2, scales=2, joints=3, in_channels=2)
    rng = np.random.default_rng(3)
    clip = rng.standard_normal((ex.tau, 3, 2))
    swapped = clip[:, [2, 1, 0], :]
    tiled = tiled_of(ex)
    out = g3d_conv(DTensor(clip.reshape(-1, 2)), tiled, ex.thetas).values
    out_swapped = g3d_conv(DTensor(swapped.reshape(-1, 2)), tiled, ex.thetas).values
    out3 = out.reshape(ex.tau, 3, -1)
    out3_swapped = out_swapped.reshape(ex.tau, 3, -1)
    np.testing.assert_allclose(out3_swapped, out3[:, [2, 1, 0], :], atol=1e-12)


def test_collapse_time_uniform_average():
    tau, joints, ch = 4, 3, 2
    rng = np.random.default_rng(4)
    window = rng.standard_normal((tau, joints, ch))
    weight = np.zeros((ch, tau, ch))
    for c in range(ch):
        weight[c, :, c] = 1.0 / tau
    out = collapse_time(DTensor(window.reshape(tau * joints, ch)),
                        Parameter(weight, "w"), tau, joints)
    np.testing.assert_allclose(out.values, window.mean(axis=0))


def test_collapse_time_tau1_identity():
    joints, ch = 3, 2
    rng = np.random.default_rng(5)
    window = rng.standard_normal((joints, ch))
    weight = np.zeros((ch, 1, ch))
    weight[0, 0, 0] = weight[1, 0, 1] = 1.0
    out = collapse_time(DTensor(window), Parameter(weight, "w"), 1, joints)
    np.testing.assert_allclose(out.values, window)


def test_collapse_time_gradient():
    def fn(window, weight):
        return collapse_time(window, weight, 3, 2)
    rng = np.random.default_rng(6)
    window = rng.standard_normal((6, 4))
    weight = rng.standard_normal((4, 3, 4))
    assert grad_check(fn, [window, weight], h=1e-6) < 1e-6


def test_aggregate_zero_input_zero_output():
    ex = make_extractor()
    out = ex.aggregate_joints(DTensor(np.zeros((5, JOINTS, 4))))
    np.testing.assert_array_equal(out.values, 0.0)


def test_extract_row_count_and_shape():
    ex = make_extractor()
    clips = np.random.default_rng(7).standard_normal((5, ex.tau, JOINTS, IN_CHANNELS))
    out = ex.extract(clips)
    assert out.values.shape == (5, FEATURE_DIM)


def test_extract_locality():
    ex = make_extractor()
    rng = np.random.default_rng(8)
    clips = rng.standard_normal((4, ex.tau, JOINTS, IN_CHANNELS))
    base = ex.extract(clips).values
    edited = clips.copy()
    edited[2] += rng.standard_normal(edited[2].shape)
    after = ex.extract(edited).values
    np.testing.assert_array_equal(after[0], base[0])
    np.testing.assert_array_equal(after[1], base[1])
    np.testing.assert_array_equal(after[3], base[3])
    assert not np.array_equal(after[2], base[2])


def test_extract_identical_clips_identical_rows():
    ex = make_extractor()
    rng = np.random.default_rng(9)
    one = rng.standard_normal((1, ex.tau, JOINTS, IN_CHANNELS))
    clips = np.repeat(one, 3, axis=0)
    out = ex.extract(clips).values
    np.testing.assert_array_equal(out[0], out[1])
    np.testing.assert_array_equal(out[1], out[2])


def test_extract_permuting_clips_permutes_rows():
    ex = make_extractor()
    rng = np.random.default_rng(10)
    clips = rng.standard_normal((5, ex.tau, JOINTS, IN_CHANNELS))
    perm = np.array([3, 0, 4, 1, 2])
    base = ex.extract(clips).values
    shuffled = ex.extract(clips[perm]).values
    np.testing.assert_array_equal(shuffled, base[perm])


def test_extract_matches_dense_tiled_path():
    # sequential clip-at-a-time oracle through the literal tiled matrices, for
    # a small extractor and for the model's own (18 joints, lfem.SCALES)
    ex = make_extractor()
    rng = np.random.default_rng(11)
    clips = rng.standard_normal((4, ex.tau, JOINTS, IN_CHANNELS))
    fast = ex.extract(clips).values
    dense = extract_dense(ex, tiled_of(ex), clips).values
    np.testing.assert_allclose(fast, dense, rtol=1e-10, atol=1e-12)
    model = micro_model()
    clips = micro_clips(seed=11, model=model)
    tiled = tiled_multiscale(gr.skeleton_adjacency(), lfem.SCALES, model.config.tau)
    dense = extract_dense(model.extractor, tiled, clips).values
    np.testing.assert_allclose(model.features(clips).values, dense, rtol=1e-10, atol=1e-12)


def test_extract_ablate_local_is_affine_projection():
    ex = make_extractor(ablate_local=True)
    rng = np.random.default_rng(12)
    clips = rng.standard_normal((3, ex.tau, JOINTS, IN_CHANNELS))
    out = ex.extract(clips).values
    w = ex.params["lfem.proj_w"].values
    b = ex.params["lfem.proj_b"].values
    expected = clips.reshape(3, -1) @ w + b
    np.testing.assert_allclose(out, expected)
    assert set(ex.params) == {"lfem.proj_w", "lfem.proj_b"}


def test_extract_gradient_micro_instance():
    # full-module gradient check: N=3 path graph, tau=4, C=2
    ex = make_extractor(tau=4, scales=2, joints=3, in_channels=2,
                        gcn_channels=3, feature_dim=4)
    rng = np.random.default_rng(13)
    clips = rng.standard_normal((2, ex.tau, JOINTS, IN_CHANNELS))
    names = sorted(ex.params)

    # rebind parameters through grad_check inputs
    def wrapped(*tensors):
        originals = {}
        for name, tensor in zip(names, tensors):
            originals[name] = ex.params[name].tensor
            ex.params[name].tensor = tensor
        try:
            return ex.extract(clips)
        finally:
            for name in names:
                ex.params[name].tensor = originals[name]

    values = [ex.params[n].values.copy() for n in names]
    assert grad_check(wrapped, values, h=1e-5) < 1e-5
