"""Skeleton sequence I/O, preprocessing, and the synthetic dataset generator.

Sequences are stored as JSONL, one object per line:
  video_id     a string that encodes as UTF-8 (no lone surrogate);
  fps          a finite number above 0;
  label        the integer 1 if the video shows the action (fidgety
               movements), else 0;
  gt_segments  optional: a list of [start, end, 1] integer triples, 1-indexed
               inclusive frames; 1 is the one action class;
  frames       the raw T x 18 x 3 array (x, y, confidence per joint).
Preprocessing truncates/pads to a fixed length and normalises each frame by
neck position and median trunk length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import check_field_types
from .errors import ConfigurationError, DataFormatError
from .graph import JOINT_COUNT, L_HIP, NECK, R_HIP

# channels per joint in every frame: x, y, confidence
CHANNELS = 3

# joints that carry limb motion in the generator (elbows, wrists, knees, ankles)
LIMB_JOINTS = [3, 4, 6, 7, 9, 10, 12, 13]

# canonical supine 18-joint layout, pixel-ish units, trunk length 100
BASE_POSE = np.array([
    [0.0, -80.0],    # nose
    [0.0, -50.0],    # neck
    [-30.0, -50.0],  # r_shoulder
    [-55.0, -20.0],  # r_elbow
    [-70.0, 15.0],   # r_wrist
    [30.0, -50.0],   # l_shoulder
    [55.0, -20.0],   # l_elbow
    [70.0, 15.0],    # l_wrist
    [-20.0, 50.0],   # r_hip
    [-25.0, 100.0],  # r_knee
    [-30.0, 150.0],  # r_ankle
    [20.0, 50.0],    # l_hip
    [25.0, 100.0],   # l_knee
    [30.0, 150.0],   # l_ankle
    [-8.0, -88.0],   # r_eye
    [8.0, -88.0],    # l_eye
    [-16.0, -82.0],  # r_ear
    [16.0, -82.0],   # l_ear
])


@dataclass
class SkeletonSequence:
    video_id: str
    fps: float
    labels: list[int]                                  # [label]: [0] or [1]
    frames: np.ndarray                                 # (T, N, 3) float64
    gt_segments: list[tuple[int, int, int]] | None = None  # (start, end, class), 1-indexed

    def __post_init__(self):
        if len(self.labels) != 1 or self.labels[0] not in (0, 1):
            raise DataFormatError(
                f"video {self.video_id!r}: labels must be [0] or [1], got {self.labels!r}")

    @property
    def length(self) -> int:
        return self.frames.shape[0]


# ---------------------------------------------------------------------------
# JSONL I/O
# ---------------------------------------------------------------------------

def _label_list(raw) -> list[int]:
    """A video's labels from its JSON label, the integer 0 or 1."""
    if type(raw) is not int or raw not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {raw!r}")
    return [raw]


def save_sequences(path, sequences: list[SkeletonSequence]) -> None:
    with open(path, "w") as handle:
        for seq in sequences:
            obj = {
                "video_id": seq.video_id,
                "fps": seq.fps,
                "label": seq.labels[0],
                "gt_segments": None if seq.gt_segments is None
                else [[int(s), int(e), int(c)] for s, e, c in seq.gt_segments],
                "frames": seq.frames.tolist(),
            }
            handle.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _numbered_lines(path):
    """Each line of a UTF-8 text file with its number, read one line at a time.

    A line ends at LF, CRLF or CR, and is yielded without its line break.
    """
    lineno = 0
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                yield lineno, line.rstrip("\n")
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the file is decoded a block at a time, ahead of the line handed out
        raise DataFormatError(
            f"{path}: not UTF-8 text at or after line {lineno + 1}: {exc}") from exc


def check_frames(frames: np.ndarray, where: str) -> None:
    """Raise DataFormatError, prefixed with `where`, unless `frames` is a
    T x JOINT_COUNT x CHANNELS array of finite values whose confidences lie
    in [0, 1]. Both dataset lines and streamed clips pass through here."""
    if frames.ndim != 3 or frames.shape[2] != CHANNELS:
        raise DataFormatError(
            f"{where}: frames must be T x N x {CHANNELS}, got shape {frames.shape}")
    if frames.shape[1] != JOINT_COUNT:
        raise DataFormatError(f"{where}: expected {JOINT_COUNT} joints, got {frames.shape[1]}")
    if not np.isfinite(frames).all():
        raise DataFormatError(f"{where}: frames hold a non-finite value")
    conf = frames[:, :, 2]
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise DataFormatError(f"{where}: confidences must lie in [0, 1]")


def _segment_list(raw, frame_count: int, where: str) -> list[tuple[int, int, int]]:
    """A video's gt_segments from JSON: [start, end, class] lists of integers
    (booleans excluded) with 1 <= start <= end <= frame_count and class 1."""
    if not isinstance(raw, list):
        raise DataFormatError(f"{where}: gt_segments must be a list, got {raw!r}")
    for seg in raw:
        if not (isinstance(seg, list) and len(seg) == 3
                and all(type(v) is int for v in seg)):
            raise DataFormatError(f"{where}: segment must be a list of three integers "
                                  f"[start, end, class], got {seg!r}")
        if not 1 <= seg[0] <= seg[1] <= frame_count:
            raise DataFormatError(
                f"{where}: segment {seg} needs 1 <= start <= end <= {frame_count} frames")
        if seg[2] != 1:
            raise DataFormatError(f"{where}: segment {seg} has class {seg[2]}; "
                                  "the only class is 1")
    return [tuple(seg) for seg in raw]


def load_sequences(path) -> list[SkeletonSequence]:
    sequences: list[SkeletonSequence] = []
    for lineno, line in _numbered_lines(path):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: invalid JSON: {exc}") from exc
        try:
            frames = np.asarray(obj["frames"], dtype=np.float64)
            video_id = str(obj["video_id"])
            fps = float(obj["fps"])
            labels = _label_list(obj["label"])
            raw_segments = obj.get("gt_segments")
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
        try:
            video_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            # a JSON escape such as "\ud800" decodes to a lone surrogate,
            # which no output file can hold
            raise DataFormatError(f"{where}: video_id {video_id!r} is not UTF-8 text: "
                                  f"{exc.reason}") from exc
        check_frames(frames, where)
        if not (math.isfinite(fps) and fps > 0.0):
            raise DataFormatError(f"{where}: fps must be finite and above 0, got {fps}")
        segments = (None if raw_segments is None
                    else _segment_list(raw_segments, frames.shape[0], where))
        sequences.append(SkeletonSequence(video_id=video_id, fps=fps, labels=labels,
                                          frames=frames, gt_segments=segments))
    return sequences


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def preprocess(seq: SkeletonSequence, max_frames: int) -> SkeletonSequence:
    """Truncate/pad to max_frames, then neck-centre and trunk-scale each frame.

    Frames beyond max_frames are dropped; short sequences are padded with
    all-zero frames. Coordinates are shifted so the neck sits at the origin
    and divided by the median neck-to-mid-hip distance over non-padded
    frames. Joints with zero confidence are left at the origin. Idempotent
    on already-processed sequences (the scale step is skipped when the
    median trunk length is already 1).
    """
    keep = min(seq.length, max_frames)
    out = np.zeros((max_frames, seq.frames.shape[1], CHANNELS))
    out[:keep] = seq.frames[:keep]

    conf = out[:, :, 2]
    valid = conf.max(axis=1) > 0.0
    if not valid.any():
        raise DataFormatError(f"{seq.video_id}: no valid joints in any frame")
    anchors = valid & (conf[:, NECK] > 0) & (conf[:, R_HIP] > 0) & (conf[:, L_HIP] > 0)
    if not anchors.any():
        raise DataFormatError(f"{seq.video_id}: neck/hip joints never visible")

    coords = out[:, :, :2]
    # finite frames can overflow here; they are rejected below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        midhip = (coords[:, R_HIP] + coords[:, L_HIP]) / 2.0
        trunk = np.linalg.norm(coords[:, NECK] - midhip, axis=1)
        scale = float(np.median(trunk[anchors]))
        # a trunk length that overflows would scale every coordinate to zero
        if not 0.0 < scale < math.inf:
            raise DataFormatError(f"{seq.video_id}: degenerate trunk length {scale}")
        centred = coords - coords[:, NECK][:, None, :]
        if abs(scale - 1.0) > 1e-12:
            centred = centred / scale
    centred[conf == 0.0] = 0.0
    centred[~valid] = 0.0
    if not np.isfinite(centred).all():
        raise DataFormatError(f"{seq.video_id}: coordinates overflow when normalised")

    frames = np.concatenate([centred, conf[:, :, None]], axis=2)
    segments = None if seq.gt_segments is None else visible_segments(seq.gt_segments,
                                                                      max_frames)
    return SkeletonSequence(video_id=seq.video_id, fps=seq.fps, labels=list(seq.labels),
                            frames=frames, gt_segments=segments)


def visible_segments(segments: list[tuple[int, int, int]],
                     max_frames: float) -> list[tuple[int, int, int]]:
    """The part of `segments` inside the first `max_frames` frames, which is
    all of a video that preprocessing keeps: a segment that starts later is
    dropped, and one that ends later ends at `max_frames`."""
    return [(s, min(e, max_frames), c) for s, e, c in segments if s <= max_frames]


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

# The motion model: segments per positive video, the frames between them,
# and (low, high) ranges of amplitudes (100-unit trunk) and frequencies (Hz).
SEGMENTS_PER_VIDEO = (1, 3)
SEGMENT_GAP = 20
FIDGET_AMP = (6.0, 12.0)
FIDGET_FREQ = (2.0, 5.0)
FIDGET_WAVES = 2
SWING_AMP = (30.0, 60.0)
SWING_FREQ = (0.15, 0.4)
DRIFT_AMP = (5.0, 15.0)
DRIFT_FREQ = (0.05, 0.15)


@dataclass(frozen=True)
class SynthParams:
    """Generator knobs; defaults give a minutes-scale separable dataset.

    Positive videos overlay small fast multi-directional oscillations on the
    limb joints inside ground-truth segments; negative videos carry large
    slow limb swings instead. Both share body drift and per-joint jitter.
    """

    n_videos: int = 200
    frames: int = 600
    fps: float = 20.0
    positive_fraction: float = 0.5
    segment_len_min: int = 100
    segment_len_max: int = 200
    noise: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_videos < 1:
            raise ConfigurationError(f"n_videos must be >= 1, got {self.n_videos}")
        if self.fps <= 0.0:
            raise ConfigurationError(f"fps must be above 0, got {self.fps}")
        if self.noise < 0.0:
            raise ConfigurationError(f"noise must be >= 0, got {self.noise}")
        if self.segment_len_min < 1:
            raise ConfigurationError(f"segment_len_min must be >= 1, got {self.segment_len_min}")
        if self.segment_len_max > self.frames:
            raise ConfigurationError(
                f"segment length {self.segment_len_max} exceeds video length {self.frames}")
        if self.segment_len_min > self.segment_len_max:
            raise ConfigurationError("segment_len_min exceeds segment_len_max")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ConfigurationError("positive_fraction must lie in [0, 1]")


def _place_segments(rng: np.random.Generator, params: SynthParams) -> list[tuple[int, int]]:
    count = int(rng.integers(SEGMENTS_PER_VIDEO[0], SEGMENTS_PER_VIDEO[1] + 1))
    placed: list[tuple[int, int]] = []
    for _ in range(count):
        length = int(rng.integers(params.segment_len_min, params.segment_len_max + 1))
        for _ in range(200):
            start = int(rng.integers(1, params.frames - length + 2))
            end = start + length - 1
            if all(end + SEGMENT_GAP < s or start > e + SEGMENT_GAP for s, e in placed):
                placed.append((start, end))
                break
    placed.sort()
    return placed


def _sinusoids(rng: np.random.Generator, t: np.ndarray, waves: int,
               amp_range, freq_range) -> np.ndarray:
    """Sum of `waves` random-direction sinusoids, shaped (len(t), 2)."""
    total = np.zeros((t.size, 2))
    for _ in range(waves):
        amp = rng.uniform(*amp_range)
        freq = rng.uniform(*freq_range)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        direction = np.array([math.cos(angle), math.sin(angle)])
        total += amp * np.sin(2.0 * math.pi * freq * t + phase)[:, None] * direction
    return total


# An fps or noise that overflows gives non-finite frames, which the check in
# the loop names; numpy's own warnings about the overflow would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def synthesize(params: SynthParams) -> list[SkeletonSequence]:
    """Deterministic synthetic dataset with video labels and gt segments."""
    rng = np.random.default_rng(params.seed)
    n_pos = int(round(params.n_videos * params.positive_fraction))
    labels = np.zeros(params.n_videos, dtype=int)
    labels[:n_pos] = 1
    labels = labels[rng.permutation(params.n_videos)]

    t = np.arange(params.frames) / params.fps
    sequences = []
    for idx in range(params.n_videos):
        positive = bool(labels[idx])
        coords = np.tile(BASE_POSE, (params.frames, 1, 1))
        coords += _sinusoids(rng, t, 2, DRIFT_AMP, DRIFT_FREQ)[:, None, :]
        coords += rng.normal(0.0, params.noise, size=coords.shape)

        segments: list[tuple[int, int, int]] = []
        if positive:
            for start, end in _place_segments(rng, params):
                rows = slice(start - 1, end)
                span = t[rows]
                for joint in LIMB_JOINTS:
                    coords[rows, joint] += _sinusoids(rng, span, FIDGET_WAVES,
                                                      FIDGET_AMP, FIDGET_FREQ)
                segments.append((start, end, 1))
        else:
            swing_joints = rng.choice(LIMB_JOINTS, size=4, replace=False)
            for joint in swing_joints:
                coords[:, joint] += _sinusoids(rng, t, 1, SWING_AMP, SWING_FREQ)

        if not np.isfinite(coords).all():
            raise ConfigurationError(
                f"fps {params.fps} and noise {params.noise} give non-finite frames")
        conf = rng.uniform(0.6, 1.0, size=(params.frames, coords.shape[1], 1))
        frames = np.concatenate([coords, conf], axis=2)
        sequences.append(SkeletonSequence(
            video_id=f"synth-{idx:04d}", fps=params.fps, labels=[int(positive)],
            frames=frames, gt_segments=segments))
    return sequences
