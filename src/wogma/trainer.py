"""Joint optimisation of the full model with Adam, plus checkpointing.

Training regenerates pseudo labels from the pseudo-label branch's current
outputs at every step (the freshest teacher) and sums the three loss terms;
ablation flags drop individual terms or swap whole sub-networks. A fixed
seed gives a bitwise-reproducible trajectory in single-threaded mode.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import DTensor, Parameter, Tape
from .config import TrainConfig, train_config_from_dict, train_config_to_dict
from .cpgb import generate_pseudo_labels, mil_loss
from .dataset import SkeletonSequence
from .errors import DataFormatError, NumericalError
from .model import ActionDetector
from .oamb import frame_loss, mil_loss_online

CHECKPOINT_MAGIC = b"WOGM"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LossParts:
    total: float
    mil_pseudo: float
    frame: float
    mil_online: float
    video_prob: np.ndarray  # per-class online video probability


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
    loss_mil_p, video_probs = mil_loss(scores, labels, config.kappa)

    timeline = model.online_branch.timeline(feats)
    loss_mil_o, online_prob = mil_loss_online(timeline, labels, config.kappa)

    total = ad.add(loss_mil_p, loss_mil_o)
    loss_fml_value = 0.0
    if not config.ablate_pseudo:
        clip_probs = ad._sigmoid_vals(scores.values)
        pseudo = generate_pseudo_labels(clip_probs, video_probs, config.theta_class,
                                        config.theta_score, labels)
        loss_fml = frame_loss(timeline, pseudo)
        total = ad.add(total, loss_fml)
        loss_fml_value = float(loss_fml.values)

    parts = LossParts(total=float(total.values), mil_pseudo=float(loss_mil_p.values),
                      frame=loss_fml_value, mil_online=float(loss_mil_o.values),
                      video_prob=online_prob)
    return total, parts


def adam_step(params: list[Parameter], config: TrainConfig, grad_scale: float = 1.0) -> None:
    """Bias-corrected Adam with weight decay added to the gradient (L2 form)."""
    for p in params:
        grad = p.tensor.grad
        grad = np.zeros_like(p.values) if grad is None else grad * grad_scale
        grad = grad + config.weight_decay * p.values
        p.step_count += 1
        p.adam_m[...] = ADAM_BETA1 * p.adam_m + (1.0 - ADAM_BETA1) * grad
        p.adam_v[...] = ADAM_BETA2 * p.adam_v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = p.adam_m / (1.0 - ADAM_BETA1 ** p.step_count)
        v_hat = p.adam_v / (1.0 - ADAM_BETA2 ** p.step_count)
        p.tensor.values[...] -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.tensor.zero_grad()


def train(dataset: list[SkeletonSequence], config: TrainConfig,
          model: ActionDetector | None = None,
          progress=None) -> tuple[ActionDetector, list[EpochMetrics]]:
    """Train on a dataset of labelled sequences; returns model + epoch log."""
    config.validate()
    if not dataset:
        raise DataFormatError("training dataset is empty")
    for seq in dataset:
        if len(seq.labels) != config.n_c:
            raise DataFormatError(
                f"{seq.video_id}: {len(seq.labels)} labels for {config.n_c} classes")
    if model is None:
        model = ActionDetector(config)
    videos = [(model.prepare_clips(seq), np.asarray(seq.labels), seq.video_id)
              for seq in dataset]
    shuffle_rng = np.random.default_rng(config.seed ^ 0x5EED)
    params = model.parameters()
    metrics: list[EpochMetrics] = []

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(videos))
        sums = np.zeros(3)
        correct = 0
        pending = 0
        zero_grads(params)
        for vid in order:
            clips, labels, video_id = videos[vid]
            with Tape() as tape:
                loss, parts = joint_loss(model, clips, labels)
            if not np.isfinite(parts.total):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, video {video_id}: "
                    f"mil_p={parts.mil_pseudo}, fml={parts.frame}, mil_o={parts.mil_online}")
            tape.backward(loss)
            pending += 1
            if pending == config.batch_size:
                adam_step(params, config, grad_scale=1.0 / pending)
                zero_grads(params)
                pending = 0
            sums += (parts.mil_pseudo, parts.frame, parts.mil_online)
            predicted = (parts.video_prob > 0.5).astype(int)
            correct += int(np.array_equal(predicted, labels))
        if pending:
            adam_step(params, config, grad_scale=1.0 / pending)
            zero_grads(params)
        row = EpochMetrics(epoch=epoch,
                           l_mil_p=sums[0] / len(videos),
                           l_fml=sums[1] / len(videos),
                           l_mil_o=sums[2] / len(videos),
                           train_acc=correct / len(videos))
        metrics.append(row)
        if progress is not None:
            progress(row)
    return model, metrics


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    with open(path, "w") as handle:
        handle.write("epoch,l_mil_p,l_fml,l_mil_o,train_acc\n")
        for row in metrics:
            handle.write(f"{row.epoch},{row.l_mil_p!r},{row.l_fml!r},"
                         f"{row.l_mil_o!r},{row.train_acc!r}\n")


# ---------------------------------------------------------------------------
# Checkpoint format: little-endian binary.
#   magic "WOGM" | version u32 | config JSON (u32 length + UTF-8) |
#   epoch u32 | seed u64 | param count u32 |
#   per parameter: record(values), record(adam_m), record(adam_v), step u64
# where record = name length u32, UTF-8 name, rank u32, dims u32[rank],
# float64 payload.
# ---------------------------------------------------------------------------

def _write_record(handle, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    handle.write(struct.pack("<I", len(encoded)))
    handle.write(encoded)
    handle.write(struct.pack("<I", array.ndim))
    handle.write(struct.pack(f"<{array.ndim}I", *array.shape))
    handle.write(array.astype("<f8", copy=False).tobytes())


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.offset = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise DataFormatError(f"{self.path}: truncated checkpoint")
        chunk = self.data[self.offset:self.offset + count]
        self.offset += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _read_record(reader: _Reader) -> tuple[str, np.ndarray]:
    name = reader.take(reader.u32()).decode("utf-8")
    rank = reader.u32()
    dims = struct.unpack(f"<{rank}I", reader.take(4 * rank))
    count = int(np.prod(dims)) if dims else 1
    payload = reader.take(8 * count)
    return name, np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def save_checkpoint(path, model: ActionDetector, epoch: int) -> None:
    """Write to a temporary file beside `path`, sync it to disk, then rename
    it into place, so after a process crash or a power loss `path` holds
    either its old contents or the whole new checkpoint."""
    config_blob = json.dumps(train_config_to_dict(model.config),
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
            handle.write(struct.pack("<Q", model.config.seed))
            handle.write(struct.pack("<I", len(model.params)))
            for name, param in model.params.items():
                _write_record(handle, name, param.values)
                _write_record(handle, name + ".adam_m", param.adam_m)
                _write_record(handle, name + ".adam_v", param.adam_v)
                handle.write(struct.pack("<Q", param.step_count))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[ActionDetector, int]:
    """Rebuild the model a checkpoint was saved from; returns (model, epoch)."""
    reader = _Reader(Path(path).read_bytes(), path)
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint version {version}, "
            f"expected {CHECKPOINT_VERSION}")
    config = train_config_from_dict(json.loads(reader.take(reader.u32()).decode("utf-8")))
    epoch = reader.u32()
    reader.u64()  # seed, already inside the config snapshot
    count = reader.u32()

    # parse everything before touching the model: a truncated file must not
    # leave partial state behind
    records: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, int]] = []
    for _ in range(count):
        name, values = _read_record(reader)
        m_name, adam_m = _read_record(reader)
        v_name, adam_v = _read_record(reader)
        if m_name != name + ".adam_m" or v_name != name + ".adam_v":
            raise DataFormatError(f"{path}: malformed optimiser records for {name!r}")
        step = reader.u64()
        records.append((name, values, adam_m, adam_v, step))
    trailing = len(reader.data) - reader.offset
    if trailing:
        raise DataFormatError(f"{path}: {trailing} unexpected bytes after the last record")

    model = ActionDetector(config)
    if {r[0] for r in records} != set(model.params):
        raise DataFormatError(f"{path}: parameter names do not match the config")
    for name, values, adam_m, adam_v, step in records:
        param = model.params[name]
        if param.values.shape != values.shape:
            raise DataFormatError(
                f"{path}: shape mismatch for {name!r}: "
                f"{values.shape} vs {param.values.shape}")
        param.tensor.values[...] = values
        param.adam_m[...] = adam_m
        param.adam_v[...] = adam_v
        param.step_count = step
    return model, epoch
