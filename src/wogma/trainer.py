"""Joint optimisation of the full model with Adam, plus checkpointing.

Training regenerates pseudo labels from the pseudo-label branch's current
outputs at every step (the freshest teacher) and sums the three loss terms;
ablation flags drop individual terms or swap whole sub-networks. A fixed
seed gives a bitwise-reproducible trajectory with one BLAS thread. The
worker thread that sums half of the LSTM weight-gradient row blocks
(autodiff.lstm_timeline) keeps it so: each block is summed by one thread in
a fixed order, whichever thread takes it.

Each `train` call moves every parameter's values into a fresh
ParameterArena of four flat buffers (values, gradient, Adam m and v) with
one step count, which lives for that call only: Adam starts at step 1 on
every call. Every video is one Adam step, as each video carries one 0/1
label: its backward pass accumulates into the arena's gradient buffer,
adam_step updates the whole model in one pass over cache-sized blocks,
bitwise the same as the per-parameter formula, and one fill zeroes the
buffer for the next video. Parameters hold only their values.

A checkpoint holds the trained weights only: the config, the epoch and one
record per parameter name. No command resumes training, so the Adam state
is not stored. load_checkpoint reads the file once, each payload straight
into the array the rebuilt model keeps.
"""

from __future__ import annotations

import csv
import json
import os
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Parameter, Tape
from .config import TrainConfig, train_config_from_dict
from .cpgb import generate_pseudo_labels, mil_loss
from .dataset import SkeletonSequence
from .errors import ConfigurationError, DataFormatError, NumericalError
from .model import ActionDetector
from .oamb import frame_loss, mil_loss_online

CHECKPOINT_MAGIC = b"WOGM"
CHECKPOINT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LossParts:
    total: float
    mil_pseudo: float
    frame: float
    mil_online: float
    video_prob: float  # online video probability


@dataclass
class EpochMetrics:
    epoch: int
    l_mil_p: float
    l_fml: float
    l_mil_o: float
    train_acc: float


def joint_loss(model: ActionDetector, clips: np.ndarray,
               labels: np.ndarray) -> tuple[DTensor, LossParts]:
    """Sum of the pseudo-branch MIL, frame, and online MIL losses.

    Pseudo labels are derived from the current clip scores and enter the
    frame loss as constants; gradients flow through both branches into the
    feature extractor.
    """
    config = model.config
    feats = model.features(clips)
    scores = model.pseudo_branch.clip_scores(feats)
    loss_mil_p, video_prob = mil_loss(scores, labels, config.kappa)

    timeline = model.online_branch.timeline(feats)
    loss_mil_o, online_prob = mil_loss_online(timeline, labels, config.kappa)

    total = ad.add(loss_mil_p, loss_mil_o)
    loss_fml_value = 0.0
    if not config.ablate_pseudo:
        clip_probs = ad._sigmoid_vals(scores.values)
        pseudo = generate_pseudo_labels(clip_probs, video_prob, config.theta_class,
                                        config.theta_score, labels)
        loss_fml = frame_loss(timeline, pseudo)
        total = ad.add(total, loss_fml)
        loss_fml_value = float(loss_fml.values)

    parts = LossParts(total=float(total.values), mil_pseudo=float(loss_mil_p.values),
                      frame=loss_fml_value, mil_online=float(loss_mil_o.values),
                      video_prob=online_prob)
    return total, parts


# Each parameter's views start on a cache-line boundary: on a 2-core x86-64
# Xeon, the row-block updates of the paper point's 32 MB LSTM weight gradient
# ran about 13% faster on a 64-byte aligned buffer than on malloc's 16-byte
# aligned one.
ARENA_ALIGN_BYTES = 64


def _aligned_zeros(count: int) -> np.ndarray:
    """A zeroed float64 vector whose first element starts on an aligned address."""
    raw = np.zeros(count + ARENA_ALIGN_BYTES // 8)
    start = (-raw.ctypes.data % ARENA_ALIGN_BYTES) // 8
    return raw[start:start + count]


class ParameterArena:
    """The Adam optimiser's state over every parameter, in four flat buffers.

    Building it copies each parameter's values, in the given order, into a
    flat float64 buffer and rebinds the parameter's values and gradient to
    views of it and of a gradient buffer, so adam_step runs over whole
    buffers and every backward pass accumulates into gradient buffers that
    persist from step to step. The Adam moments `adam_m`, `adam_v` and the
    step count live here only; they start at zero. The gaps that align each
    view hold zeros, which Adam keeps at zero. The values are copied before
    the other three buffers are made, so building it never holds the
    parameters' own arrays beside all four buffers.
    """

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        self.step_count = 0
        align = ARENA_ALIGN_BYTES // 8
        self.starts = [0]
        for p in self.params:
            self.starts.append(self.starts[-1] + -(-p.values.size // align) * align)
        self.values = _aligned_zeros(self.starts[-1])
        for p, values in zip(self.params, self.views(self.values)):
            values[...] = p.values
            p.tensor.values = values   # the parameter's own array is freed here
        self.grad, self.adam_m, self.adam_v = (
            _aligned_zeros(self.starts[-1]) for _ in range(3))
        for p, grad in zip(self.params, self.views(self.grad)):
            p.tensor.grad = grad

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view of one of the flat buffers, in order."""
        return [flat[start:start + p.values.size].reshape(p.values.shape)
                for p, start in zip(self.params, self.starts)]


# Bytes of one block of adam_step's pass: the block of each flat buffer and
# the two scratch buffers of this size stay in cache through the update.
ADAM_BLOCK_BYTES = 256 * 1024


def adam_step(arena: ParameterArena, config: TrainConfig) -> None:
    """Bias-corrected Adam with weight decay added to the gradient (L2 form).

    One pass over blocks of the arena's flat buffers. Each element gets the
    per-parameter formula's operations in its order, written in place into
    two block-sized scratch buffers, so the result is bitwise that formula's
    and no parameter-sized temporary is made:
        g = weight_decay * values + grad
        m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
        values -= (lr * (m / c1)) / (sqrt(v / c2) + eps)
    with c1 = 1 - b1**t and c2 = 1 - b2**t at step t. A gradient that
    received nothing is zero, as a missing one was.
    """
    arena.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** arena.step_count
    c2 = 1.0 - ADAM_BETA2 ** arena.step_count
    block = max(1, ADAM_BLOCK_BYTES // arena.values.itemsize)
    scratch = np.empty((2, min(block, arena.values.size)))
    for start in range(0, arena.values.size, block):
        values, grad, m, v = (flat[start:start + block] for flat in
                              (arena.values, arena.grad, arena.adam_m, arena.adam_v))
        g, term = scratch[0, :values.size], scratch[1, :values.size]
        np.multiply(values, config.weight_decay, out=g)
        g += grad
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=term)
        m += term
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=term)
        term *= g
        v += term
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        np.divide(m, c1, out=term)
        term *= config.lr
        term /= g
        values -= term


def zero_grads(params: list[Parameter]) -> None:
    """Drop every parameter's gradient, as after a backward pass outside
    training; `train` zeroes its arena's gradient buffer itself."""
    for p in params:
        p.tensor.zero_grad()


def train(dataset: list[SkeletonSequence], config: TrainConfig,
          model: ActionDetector | None = None,
          progress=None) -> tuple[ActionDetector, list[EpochMetrics]]:
    """Train on a dataset of labelled sequences; returns model + epoch log.

    Adam starts afresh at step 1, also on a `model` that was trained or
    loaded before; its moments and the gradient buffer are dropped when the
    call returns or raises.
    """
    if not dataset:
        raise DataFormatError("training dataset is empty")
    if model is None:
        model = ActionDetector(config)
    videos = [(model.prepare_clips(seq), np.asarray(seq.labels), seq.video_id)
              for seq in dataset]
    shuffle_rng = np.random.default_rng(config.seed ^ 0x5EED)
    arena = ParameterArena(model.parameters())
    params = arena.params
    metrics: list[EpochMetrics] = []

    try:
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(len(videos))
            sums = np.zeros(3)
            correct = 0
            for vid in order:
                clips, labels, video_id = videos[vid]
                with Tape() as tape:
                    loss, parts = joint_loss(model, clips, labels)
                if not np.isfinite(parts.total):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}, video {video_id}: "
                        f"mil_p={parts.mil_pseudo}, fml={parts.frame}, mil_o={parts.mil_online}")
                tape.backward(loss)
                adam_step(arena, config)
                arena.grad.fill(0.0)
                sums += (parts.mil_pseudo, parts.frame, parts.mil_online)
                correct += int((parts.video_prob > 0.5) == labels[0])
            row = EpochMetrics(epoch=epoch,
                               l_mil_p=sums[0] / len(videos),
                               l_fml=sums[1] / len(videos),
                               l_mil_o=sums[2] / len(videos),
                               train_acc=correct / len(videos))
            metrics.append(row)
            if progress is not None:
                progress(row)
    finally:
        # inference reads no gradient: unbind the arena's views, also when a
        # NumericalError or the progress callback stops training
        for p in params:
            p.tensor.grad = None
    return model, metrics


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["epoch", "l_mil_p", "l_fml", "l_mil_o", "train_acc"])
        for row in metrics:
            writer.writerow([row.epoch, row.l_mil_p, row.l_fml, row.l_mil_o, row.train_acc])


# ---------------------------------------------------------------------------
# Checkpoint format, version 3: little-endian binary.
#   magic "WOGM" | version u32 | config JSON (u32 length + UTF-8) | epoch u32 |
#   per parameter in model.params order: name length u32, UTF-8 name,
#     rank u32, dims u32[rank], float64 values
# and nothing after the last record. The config JSON holds every TrainConfig
# field; a key TrainConfig lacks or a value it rejects makes the file a data
# error. Payloads are written from the arrays' own buffers and read back into
# the arrays of a freshly built model. Versions 1 and 2 also stored Adam
# state and are not read.
# ---------------------------------------------------------------------------

def _write_payload(handle, array: np.ndarray) -> None:
    handle.write(memoryview(np.asarray(array, dtype="<f8", order="C")))


def _write_record(handle, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    handle.write(struct.pack("<I", len(encoded)))
    handle.write(encoded)
    handle.write(struct.pack("<I", values.ndim))
    handle.write(struct.pack(f"<{values.ndim}I", *values.shape))
    _write_payload(handle, values)


class _Reader:
    """Reads a checkpoint's fields in order from an open file of known size.

    Every length is checked against the bytes left before anything is read,
    so a corrupted length cannot make the reader allocate more than the file
    holds.
    """

    def __init__(self, handle, path):
        self.handle = handle
        self.path = path
        self.size = os.fstat(handle.fileno()).st_size
        self.offset = 0

    def _advance(self, count: int) -> None:
        if self.offset + count > self.size:
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        self.offset += count

    def take(self, count: int) -> bytes:
        self._advance(count)
        chunk = self.handle.read(count)
        if len(chunk) != count:
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self, what: str) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{self.path}: {what} is not UTF-8: {exc}") from exc

    def payload(self, into: np.ndarray) -> None:
        """Read `into.nbytes` bytes of float64 straight into `into`."""
        self._advance(into.nbytes)
        if self.handle.readinto(memoryview(into).cast("B")) != into.nbytes:
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        if sys.byteorder == "big":
            into.byteswap(inplace=True)

    def record(self, name: str, into: np.ndarray) -> None:
        """Read the values record of parameter `name` into `into`, which must
        have the record's shape."""
        if self.text("record name") != name:
            raise DataFormatError(f"{self.path}: parameter names do not match the config")
        rank = self.u32()
        dims = struct.unpack(f"<{rank}I", self.take(4 * rank))
        if dims != into.shape:
            raise DataFormatError(
                f"{self.path}: shape mismatch for {name!r}: {dims} vs {into.shape}")
        self.payload(into)


def save_checkpoint(path, model: ActionDetector, epoch: int) -> None:
    """Write to a temporary file beside `path`, sync it to disk, then rename
    it into place, so after a process crash or a power loss `path` holds
    either its old contents or the whole new checkpoint."""
    config_blob = json.dumps(asdict(model.config),
                             sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(struct.pack("<I", CHECKPOINT_VERSION))
            handle.write(struct.pack("<I", len(config_blob)))
            handle.write(config_blob)
            handle.write(struct.pack("<I", epoch))
            for name, param in model.params.items():
                _write_record(handle, name, param.values)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ActionDetector, int]:
    """Rebuild the model a checkpoint was saved from; returns (model, epoch).

    The file is read once, front to back: the header builds the model
    without its random initialisation, and each weight record's payload is
    read straight into the array the model keeps. A missing, unreadable or
    malformed file raises DataFormatError and leaves no model behind.
    """
    try:
        with open(path, "rb") as handle:
            return _read_checkpoint(_Reader(handle, path))
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_checkpoint(reader: _Reader) -> tuple[ActionDetector, int]:
    path = reader.path
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint version {version}, "
            f"expected {CHECKPOINT_VERSION}")
    try:
        config = json.loads(reader.text("config"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    try:
        config = train_config_from_dict(config)
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: bad config: {exc}") from exc
    epoch = reader.u32()
    # every weight is overwritten below: each parameter must have its record
    model = ActionDetector(config, initialise=False)
    for name, param in model.params.items():
        reader.record(name, param.values)
    left = reader.size - reader.offset
    if left:
        raise DataFormatError(f"{path}: {left} unexpected bytes after the last record")
    return model, epoch
