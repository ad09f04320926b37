import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wogma import dataset as ds
from wogma.errors import ConfigurationError, DataFormatError
from wogma.graph import JOINT_COUNT, L_HIP, NECK, R_HIP


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


def test_non_utf8_byte_rejected_naming_file(tmp_path):
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [tiny_sequence(), tiny_sequence()])
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + b"\xff" + second)
    with pytest.raises(DataFormatError,
                       match=f"{path}: not UTF-8 text at or after line [12]: "):
        ds.load_sequences(path)


def test_line_numbers_count_every_line_break(tmp_path):
    # CRLF and a lone CR each end a line
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [tiny_sequence()])
    good = path.read_bytes().rstrip(b"\n")
    path.write_bytes(good + b"\r\n" + good + b"\r" + b'{"video_id": "a"\n')
    with pytest.raises(DataFormatError, match=":3: invalid JSON"):
        ds.load_sequences(path)


@pytest.mark.parametrize("label", [0.7, 1.9, 1.0, 2, -1, True, [True], [0, 2], [0, 1], [1],
                                   "1", None],
                         ids=["0.7", "1.9", "1.0", "2", "-1", "true", "[true]", "[0,2]", "[0,1]",
                              "[1]", "string", "null"])
def test_label_other_than_zero_or_one_rejected_naming_line(tmp_path, label):
    # a video has one label, the integer 0 or 1
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [tiny_sequence(), tiny_sequence()])
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), 'label': label})}\n")
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}:2: label must be 0 or 1"):
        ds.load_sequences(path)


@pytest.mark.parametrize("labels", [[1, 1], [0, 1], [], [2]])
def test_sequence_built_in_code_needs_one_zero_or_one_label(labels):
    # the loss, pseudo labels and evaluation read labels[0]; extra labels must not pass
    seq = tiny_sequence()
    with pytest.raises(DataFormatError, match=r"video 'v0': labels must be \[0\] or \[1\]"):
        ds.SkeletonSequence(video_id=seq.video_id, fps=seq.fps, labels=labels,
                            frames=seq.frames)


# any code point: st.text() alone leaves out the lone surrogates, which no
# UTF-8 file can hold, so they are drawn often on their own too
ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"]))


@settings(max_examples=100, deadline=None)
@given(ANY_TEXT)
def test_a_video_id_is_refused_when_built_or_else_read_back_unchanged(tmp_path_factory,
                                                                      video_id):
    # the program never writes a sequence whose file it would reject
    try:
        seq = dataclasses.replace(tiny_sequence(), video_id=video_id)
    except DataFormatError as exc:
        assert f"video_id {video_id!r} is not UTF-8 text" in str(exc)
        with pytest.raises(UnicodeEncodeError):
            video_id.encode("utf-8")
        return
    path = tmp_path_factory.mktemp("ids") / "d.jsonl"
    ds.save_sequences(path, [seq])
    assert [loaded.video_id for loaded in ds.load_sequences(path)] == [video_id]


@pytest.mark.parametrize("key, value, message", [
    ("gt_segments", [[1.9, 5.7, 2.5]], "segment must be a list of three integers"),
    ("gt_segments", [[2.0, 3, 1]], "segment must be a list of three integers"),
    ("gt_segments", [[True, 5, 1]], "segment must be a list of three integers"),
    ("gt_segments", [[1]], "segment must be a list of three integers"),
    ("gt_segments", [[1, 3, 1, 1]], "segment must be a list of three integers"),
    ("gt_segments", [1, 3, 1], "segment must be a list of three integers"),
    ("gt_segments", "abc", "gt_segments must be a list"),
    ("gt_segments", [[-5, 3, 1]], r"needs 1 <= start <= end <= 5 frames"),
    ("gt_segments", [[0, 3, 1]], r"needs 1 <= start <= end <= 5 frames"),
    ("gt_segments", [[4, 3, 1]], r"needs 1 <= start <= end <= 5 frames"),
    ("gt_segments", [[1, 6, 1]], r"needs 1 <= start <= end <= 5 frames"),
    ("gt_segments", [[1, 3, 0]], "has class 0; the only class is 1"),
    ("gt_segments", [[1, 3, 2]], "has class 2; the only class is 1"),
    ("fps", "nan", "fps must be finite and above 0"),
    ("fps", "inf", "fps must be finite and above 0"),
    ("fps", 0, "fps must be finite and above 0"),
    ("fps", -20.0, "fps must be finite and above 0"),
    # valid JSON escapes of lone surrogates, which no UTF-8 output file can hold
    ("video_id", "bad\ud800id", "video_id .* is not UTF-8 text"),
    ("video_id", "\udfff", "video_id .* is not UTF-8 text"),
], ids=["floats", "float-start", "bool", "one-value", "four-values", "flat", "string",
        "start-negative", "start-zero", "start-after-end", "end-past-last-frame", "class-zero",
        "class-two", "fps-nan", "fps-inf", "fps-zero", "fps-negative", "video-id-high-surrogate",
        "video-id-low-surrogate"])
def test_bad_segments_or_fps_rejected_naming_line(tmp_path, key, value, message):
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [tiny_sequence(), tiny_sequence()])
    first, second = path.read_text().splitlines()
    path.write_text(f"{first}\n{json.dumps({**json.loads(second), key: value})}\n")
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}:2: .*{message}"):
        ds.load_sequences(path)


def test_segments_spanning_first_to_last_frame_load(tmp_path):
    seq = tiny_sequence()
    seq.gt_segments = [(1, 5, 1), (3, 3, 1)]
    path = tmp_path / "d.jsonl"
    ds.save_sequences(path, [seq])
    assert ds.load_sequences(path)[0].gt_segments == [(1, 5, 1), (3, 3, 1)]


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
    assert out.shape == (60, JOINT_COUNT, ds.CHANNELS)


def test_preprocess_keeps_a_short_video_as_long_as_it_is():
    # no frame is added: every row is a frame of the video
    seq = tiny_sequence(frames=59)
    out = ds.preprocess(seq, max_frames=600)
    assert out.shape == (59, JOINT_COUNT, ds.CHANNELS)
    assert out.tobytes() == ds.preprocess(seq, max_frames=59).tobytes()


def test_preprocess_neck_at_origin():
    seq = tiny_sequence(frames=30)
    out = ds.preprocess(seq, max_frames=30)
    np.testing.assert_array_equal(out[:, NECK, :2], 0.0)


def test_preprocess_median_trunk_is_one():
    seq = tiny_sequence(frames=31)
    out = ds.preprocess(seq, max_frames=31)
    midhip = (out[:, R_HIP, :2] + out[:, L_HIP, :2]) / 2
    trunk = np.linalg.norm(out[:, NECK, :2] - midhip, axis=1)
    assert np.median(trunk) == pytest.approx(1.0, abs=1e-12)


def test_preprocess_zero_confidence_joint_left_at_origin():
    seq = tiny_sequence(frames=10)
    seq.frames[4, 5, 2] = 0.0
    out = ds.preprocess(seq, max_frames=10)
    np.testing.assert_array_equal(out[4, 5], [0.0, 0.0, 0.0])


def test_preprocess_idempotent():
    seq = tiny_sequence(frames=50)
    once = ds.preprocess(seq, max_frames=80)
    twice = ds.preprocess(dataclasses.replace(seq, frames=once), max_frames=80)
    np.testing.assert_array_equal(once, twice)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("neck, joint, value, message", [
    (-8e307, L_HIP, 2.7e154, "degenerate trunk length inf"),   # its square overflows
    (-8e307, 0, 1.5e308, "coordinates overflow when normalised"),   # centring overflows
    (0.0, 0, 1e300, "coordinates overflow when normalised"),   # scaling by 1e-10 overflows
], ids=["trunk", "centred", "scaled"])
def test_preprocess_rejects_finite_frames_that_overflow(neck, joint, value, message):
    # they became all-zero or inf coordinates, and NaN scores further on;
    # numpy's overflow warnings are not printed besides the error
    seq = tiny_sequence(frames=1)
    seq.frames[0, NECK, :2] = [neck, 0.0]
    seq.frames[0, [R_HIP, L_HIP], :2] = [[neck, 1e-10], [neck, 1e-10]]
    seq.frames[0, joint, 0] = value
    with pytest.raises(DataFormatError, match=f"v0: {message}"):
        ds.preprocess(seq, max_frames=2)


@pytest.mark.filterwarnings("error")
def test_preprocess_rejects_hips_that_nearly_cancel():
    # the normalised trunk rounds to 0, so preprocessing the output again
    # would reject it: preprocess was not idempotent on such frames
    seq = tiny_sequence(frames=1)
    seq.frames[0, NECK, :2] = [1.0, 1.0]
    seq.frames[0, [R_HIP, L_HIP], :2] = [[1.0, 1.7e308], [1.0, -1.7e308]]
    with pytest.raises(DataFormatError,
                       match="v0: median trunk length 0.0 once normalised, not 1"):
        ds.preprocess(seq, max_frames=1)


def test_preprocess_all_zero_sequence_rejected():
    seq = ds.SkeletonSequence(video_id="z", fps=20.0, labels=[0],
                              frames=np.zeros((10, 18, 3)), gt_segments=None)
    with pytest.raises(DataFormatError):
        ds.preprocess(seq, max_frames=10)


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
        disp = np.diff(proc[:, ds.LIMB_JOINTS, :2], axis=0)
        inside = np.zeros(len(disp), dtype=bool)
        for start, end, _ in seq.gt_segments:
            inside[start - 1:end - 1] = True
        ratios.append(disp[inside].var() / disp[~inside].var())
    assert ratios and min(ratios) >= 2.0


def test_synthesize_infeasible_segment_length_rejected():
    with pytest.raises(ConfigurationError):
        ds.synthesize(ds.SynthParams(n_videos=2, frames=50, segment_len_min=60,
                                     segment_len_max=80))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_synth_params_that_builds_gives_a_dataset_the_loader_reads(tmp_path_factory,
                                                                         data):
    # the settings gen-data takes, at small sizes and over the edges of their
    # checks; settings whose frames overflow are rejected by synthesize
    frames = data.draw(st.integers(0, 40), "frames")
    segment_len_max = data.draw(st.integers(0, frames + 1), "segment_len_max")
    try:
        params = ds.SynthParams(
            n_videos=data.draw(st.integers(0, 3), "n_videos"), frames=frames,
            fps=data.draw(st.floats(0.0, exclude_min=True, allow_infinity=False), "fps"),
            positive_fraction=data.draw(st.floats(0.0, 1.0), "positive_fraction"),
            segment_len_min=data.draw(st.integers(0, segment_len_max), "segment_len_min"),
            segment_len_max=segment_len_max,
            noise=data.draw(st.floats(0.0, allow_infinity=False), "noise"),
            seed=data.draw(st.integers(0, 2**32 - 1), "seed"))
    except ConfigurationError:
        assume(False)
    try:
        seqs = ds.synthesize(params)
    except ConfigurationError as exc:
        # only frames that overflow stop a setting that builds
        assert str(exc) == f"fps {params.fps} and noise {params.noise} give non-finite frames"
        return
    path = tmp_path_factory.mktemp("synth") / "d.jsonl"
    ds.save_sequences(path, seqs)
    loaded = ds.load_sequences(path)
    assert len(loaded) == params.n_videos
    for a, b in zip(seqs, loaded):
        assert (a.video_id, a.fps, a.labels, a.gt_segments) == (
            b.video_id, b.fps, b.labels, b.gt_segments)
        np.testing.assert_array_equal(a.frames, b.frames)


# any finite value, ±0.0, subnormals and the extremes included; pixel-sized
# values come up often enough that many drawn videos pass preprocess, which
# rejects a trunk length or a centred coordinate that overflows
FINITE = st.floats(-1e4, 1e4) | st.floats(allow_nan=False, allow_infinity=False)
# a zero confidence is drawn with either sign, a positive one more often
CONFIDENCE = st.floats(0.0, 1.0, exclude_min=True) | st.floats(0.0, 1.0) | st.just(-0.0)


@st.composite
def skeleton_frames(draw, max_length=4):
    length = draw(st.integers(1, max_length))
    # every element drawn on its own, not mostly one fill value
    coords = draw(hnp.arrays(np.float64, (length, JOINT_COUNT, 2), elements=FINITE,
                             fill=st.nothing()))
    conf = draw(hnp.arrays(np.float64, (length, JOINT_COUNT, 1), elements=CONFIDENCE,
                           fill=st.nothing()))
    return np.concatenate([coords, conf], axis=2)


@st.composite
def skeleton_sequences(draw):
    frames = draw(skeleton_frames())
    length = frames.shape[0]
    segment = st.tuples(st.integers(1, length), st.integers(1, length)).map(
        lambda s: (min(s), max(s), 1))
    return ds.SkeletonSequence(
        video_id=draw(st.text(max_size=8)),
        fps=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        labels=[draw(st.sampled_from([0, 1]))],
        frames=frames,
        gt_segments=draw(st.none() | st.lists(segment, max_size=3)))


@settings(max_examples=100, deadline=None)
@given(st.lists(skeleton_sequences(), max_size=3))
def test_save_then_load_gives_back_every_field_and_the_frames_bitwise(tmp_path_factory, seqs):
    path = tmp_path_factory.mktemp("round") / "d.jsonl"
    ds.save_sequences(path, seqs)
    loaded = ds.load_sequences(path)
    assert len(loaded) == len(seqs)
    for a, b in zip(seqs, loaded):
        assert (a.video_id, a.fps, a.labels, a.gt_segments) == (
            b.video_id, b.fps, b.labels, b.gt_segments)
        assert b.frames.dtype == np.float64 and b.frames.shape == a.frames.shape
        assert b.frames.tobytes() == a.frames.tobytes()


@st.composite
def plausible_frames(draw, max_length=4):
    """skeleton_frames whose neck and hips are visible in every frame, the
    hips' midpoint 1 to 1000 units from the neck along each axis: most of
    these videos pass preprocess, where most arbitrary ones fail it."""
    frames = draw(skeleton_frames(max_length)).copy()
    pair = (frames.shape[0], 2)
    neck = draw(hnp.arrays(np.float64, pair, elements=st.floats(-1e3, 1e3)))
    trunk = (draw(hnp.arrays(np.float64, pair, elements=st.floats(1.0, 1e3)))
             * draw(hnp.arrays(np.float64, pair, elements=st.sampled_from([-1.0, 1.0]))))
    half_hips = draw(hnp.arrays(np.float64, pair, elements=st.floats(-1e3, 1e3)))
    frames[:, NECK, :2] = neck
    frames[:, R_HIP, :2] = neck + trunk + half_hips
    frames[:, L_HIP, :2] = neck + trunk - half_hips
    frames[:, [NECK, R_HIP, L_HIP], 2] = draw(hnp.arrays(
        np.float64, (frames.shape[0], 3), elements=st.floats(0.0, 1.0, exclude_min=True)))
    return frames


@settings(max_examples=150, deadline=None)
@given(skeleton_frames() | plausible_frames(), st.integers(1, 6))
def test_preprocess_is_idempotent_bitwise(frames, max_frames):
    seq = ds.SkeletonSequence(video_id="v", fps=20.0, labels=[1], frames=frames)
    try:
        once = ds.preprocess(seq, max_frames)
    except DataFormatError:
        assume(False)
    twice = ds.preprocess(dataclasses.replace(seq, frames=once), max_frames)
    assert twice.tobytes() == once.tobytes()
