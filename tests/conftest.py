import json
import threading

import numpy as np
import pytest

from wogma.config import TrainConfig
from wogma.dataset import CHANNELS
from wogma.graph import JOINT_COUNT
from wogma.model import ActionDetector


def micro_config(**overrides):
    """Tiny-but-complete model settings for fast structural tests."""
    base = dict(tau=4, stride=4, max_frames=12, hidden=8, feature_dim=8,
                gcn_channels=4, epochs=2, lr=1e-3,
                weight_decay=0.0, seed=0, kappa=8)
    base.update(overrides)
    return TrainConfig(**base)


def micro_model(**overrides):
    """Model on the 18-joint skeleton with tau=4, for L=3 clips of C=3 channels."""
    return ActionDetector(micro_config(**overrides))


def micro_clips(seed=0, clip_count=3, model=None):
    model = model or micro_model()
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (clip_count, model.config.tau, JOINT_COUNT, CHANNELS))


def parameter_count(model: ActionDetector) -> int:
    """The number of weights `model` trains."""
    return sum(p.values.size for p in model.parameters())


class JobsTakenBy:
    """A job list for ad._add_outer_sums that notes the thread taking each
    job. With `side` "caller" only the thread that built it takes jobs, with
    "worker" only other threads do, and with None every thread may."""

    def __init__(self, jobs, side=None):
        self.jobs = iter(jobs)
        self.side = side
        self.caller = threading.current_thread()
        self.takers = []

    def __iter__(self):
        return self

    def __next__(self):
        thread = threading.current_thread()
        if self.side is not None and (thread is self.caller) != (self.side == "caller"):
            raise StopIteration
        job = next(self.jobs)
        self.takers.append(thread)
        return job


@pytest.fixture
def small_training_config():
    """18-joint config small enough for seconds-scale training tests."""
    return TrainConfig(tau=20, stride=20, max_frames=120, hidden=16,
                       feature_dim=16, gcn_channels=8,
                       epochs=2, lr=1e-3, weight_decay=1e-4, seed=7)


def checkpoint_field_ranges(blob: bytes, model: ActionDetector) -> list[tuple[int, int]]:
    """(start, stop) of every field of `model`'s saved checkpoint `blob` but
    the float payloads: the header and each values record's name and dims."""
    offset = 12 + int.from_bytes(blob[8:12], "little") + 4
    ranges = [(0, offset)]
    for name, param in model.params.items():
        header = 8 + len(name.encode("utf-8")) + 4 * param.values.ndim
        ranges.append((offset, offset + header))
        offset += header + param.values.nbytes
    assert offset == len(blob)
    return ranges


def corrupt_saved_checkpoint(blob: bytes, model: ActionDetector, kind: str) -> bytes:
    """`model`'s saved checkpoint `blob` with one field made malformed: the
    config not UTF-8, not JSON, not a JSON object, with a value TrainConfig
    rejects or with a key it lacks, or the first values record's name not
    UTF-8 or not the first parameter's, or its rank one too large."""
    config_stop = 12 + int.from_bytes(blob[8:12], "little")
    changes = {"config-bad-value": {"hidden": 0}, "config-unknown-key": {"n_c": 1}}
    if kind in changes:
        config = {**json.loads(blob[12:config_stop]), **changes[kind]}
        encoded = json.dumps(config, sort_keys=True).encode("utf-8")
        return blob[:8] + len(encoded).to_bytes(4, "little") + encoded + blob[config_stop:]
    if kind == "config-not-object":
        return blob[:8] + (3).to_bytes(4, "little") + b"[1]" + blob[config_stop:]
    name = checkpoint_field_ranges(blob, model)[1][0] + 4
    corrupted = bytearray(blob)
    if kind == "config-not-utf8":
        corrupted[12] = 0xFF
    elif kind == "config-not-json":
        corrupted[12] = ord("x")
    elif kind == "name-not-utf8":
        corrupted[name] = 0xFF
    elif kind == "name-mismatch":
        corrupted[name] = ord("?")
    elif kind == "values-shape":
        corrupted[name + len(next(iter(model.params)).encode("utf-8"))] += 1
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return bytes(corrupted)
