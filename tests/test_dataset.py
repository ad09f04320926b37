import json

import numpy as np
import pytest

from wogma import dataset as ds
from wogma.errors import ConfigurationError, DataFormatError
from wogma.graph import L_HIP, NECK, R_HIP


def tiny_sequence(frames=5, joints=18, seed=0, label=1):
    rng = np.random.default_rng(seed)
    coords = rng.normal(0.0, 10.0, size=(frames, joints, 2)) + 50.0
    conf = rng.uniform(0.5, 1.0, size=(frames, joints, 1))
    return ds.SkeletonSequence(video_id="v0", fps=20.0, labels=[label],
                               frames=np.concatenate([coords, conf], axis=2),
                               gt_segments=[(1, 3, 1)])


def test_jsonl_round_trip_exact(tmp_path):
    seqs = ds.synthesize(ds.SynthParams(n_videos=3, frames=40, seed=5,
                                        segment_len_min=10, segment_len_max=20))
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, seqs)
    loaded = ds.load_sequences(path)
    assert len(loaded) == 3
    for a, b in zip(seqs, loaded):
        assert a.video_id == b.video_id
        assert a.fps == b.fps
        assert a.labels == b.labels
        assert a.gt_segments == b.gt_segments
        np.testing.assert_array_equal(a.frames, b.frames)


def test_missing_gt_segments_accepted(tmp_path):
    seq = tiny_sequence()
    seq.gt_segments = None
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [seq])
    assert json.loads(path.read_text())["gt_segments"] is None
    assert ds.load_sequences(path)[0].gt_segments is None


def test_wrong_joint_count_names_line(tmp_path):
    seq = tiny_sequence(joints=18)
    bad = tiny_sequence(joints=7)
    bad.video_id = "v1"
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [seq, bad])
    with pytest.raises(DataFormatError, match=":2:"):
        ds.load_sequences(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"video_id": "a"\n')
    with pytest.raises(DataFormatError, match=":1:"):
        ds.load_sequences(path)


def test_confidence_out_of_range_rejected(tmp_path):
    seq = tiny_sequence()
    seq.frames[0, 0, 2] = 1.5
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [seq])
    with pytest.raises(DataFormatError, match="confidences"):
        ds.load_sequences(path)


@pytest.mark.parametrize("channel, value", [(2, np.nan), (0, np.nan), (1, np.inf)],
                         ids=["nan-confidence", "nan-coordinate", "inf-coordinate"])
def test_non_finite_value_rejected_naming_line(tmp_path, channel, value):
    bad = tiny_sequence()
    bad.frames[3, 4, channel] = value
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [tiny_sequence(), bad])
    with pytest.raises(DataFormatError, match=":2: frames hold a non-finite value"):
        ds.load_sequences(path)


def test_preprocess_truncates_long_sequences():
    seq = tiny_sequence(frames=70)
    out = ds.preprocess(seq, max_frames=60)
    assert out.length == 60


def test_preprocess_pads_short_sequences():
    seq = tiny_sequence(frames=59)
    out = ds.preprocess(seq, max_frames=600)
    assert out.length == 600
    np.testing.assert_array_equal(out.frames[59:], 0.0)


def test_preprocess_neck_at_origin():
    seq = tiny_sequence(frames=30)
    out = ds.preprocess(seq, max_frames=30)
    np.testing.assert_array_equal(out.frames[:, NECK, :2], 0.0)


def test_preprocess_median_trunk_is_one():
    seq = tiny_sequence(frames=31)
    out = ds.preprocess(seq, max_frames=31)
    midhip = (out.frames[:, R_HIP, :2] + out.frames[:, L_HIP, :2]) / 2
    trunk = np.linalg.norm(out.frames[:, NECK, :2] - midhip, axis=1)
    assert np.median(trunk) == pytest.approx(1.0, abs=1e-12)


def test_preprocess_zero_confidence_joint_left_at_origin():
    seq = tiny_sequence(frames=10)
    seq.frames[4, 5, 2] = 0.0
    out = ds.preprocess(seq, max_frames=10)
    np.testing.assert_array_equal(out.frames[4, 5], [0.0, 0.0, 0.0])


def test_preprocess_idempotent():
    seq = tiny_sequence(frames=50)
    once = ds.preprocess(seq, max_frames=80)
    twice = ds.preprocess(once, max_frames=80)
    np.testing.assert_array_equal(once.frames, twice.frames)


def test_preprocess_all_zero_sequence_rejected():
    seq = ds.SkeletonSequence(video_id="z", fps=20.0, labels=[0],
                              frames=np.zeros((10, 18, 3)), gt_segments=None)
    with pytest.raises(DataFormatError):
        ds.preprocess(seq, max_frames=10)


def test_preprocess_clips_gt_segments():
    seq = tiny_sequence(frames=100)
    seq.gt_segments = [(1, 40, 1), (50, 90, 1), (95, 100, 1)]
    out = ds.preprocess(seq, max_frames=60)
    assert out.gt_segments == [(1, 40, 1), (50, 60, 1)]


def test_synthesize_deterministic():
    params = ds.SynthParams(n_videos=4, frames=80, seed=11,
                            segment_len_min=20, segment_len_max=40)
    a = ds.synthesize(params)
    b = ds.synthesize(ds.SynthParams(n_videos=4, frames=80, seed=11,
                                     segment_len_min=20, segment_len_max=40))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.frames, y.frames)
        assert x.labels == y.labels
        assert x.gt_segments == y.gt_segments


def test_synthesize_positive_have_segments_negative_none():
    seqs = ds.synthesize(ds.SynthParams(n_videos=10, frames=300, seed=3))
    for seq in seqs:
        if seq.labels[0] == 1:
            assert len(seq.gt_segments) >= 1
            for start, end, cls in seq.gt_segments:
                assert 1 <= start <= end <= 300
                assert cls == 1
        else:
            assert seq.gt_segments == []


def test_synthesize_segments_non_overlapping():
    seqs = ds.synthesize(ds.SynthParams(n_videos=12, frames=600, seed=9))
    for seq in seqs:
        segs = sorted(seq.gt_segments or [])
        for (s1, e1, _), (s2, e2, _) in zip(segs, segs[1:]):
            assert e1 < s2


def test_synthesize_label_balance():
    seqs = ds.synthesize(ds.SynthParams(n_videos=20, frames=60, seed=2,
                                        positive_fraction=0.25, segment_len_min=20,
                                        segment_len_max=40))
    assert sum(s.labels[0] for s in seqs) == 5


def test_inside_segment_displacement_variance_dominates():
    # oracle: frame-to-frame displacement variance of limb joints,
    # inside gt segments vs outside, on preprocessed data
    seqs = ds.synthesize(ds.SynthParams(n_videos=12, frames=600, seed=7))
    ratios = []
    for seq in seqs:
        if seq.labels[0] != 1:
            continue
        proc = ds.preprocess(seq, max_frames=600)
        disp = np.diff(proc.frames[:, ds.LIMB_JOINTS, :2], axis=0)
        inside = np.zeros(len(disp), dtype=bool)
        for start, end, _ in seq.gt_segments:
            inside[start - 1:end - 1] = True
        ratios.append(disp[inside].var() / disp[~inside].var())
    assert ratios and min(ratios) >= 2.0


def test_synthesize_infeasible_segment_length_rejected():
    with pytest.raises(ConfigurationError):
        ds.synthesize(ds.SynthParams(n_videos=2, frames=50, segment_len_min=60,
                                     segment_len_max=80))
