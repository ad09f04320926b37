"""Training and run configuration. Settings check themselves when they are
built: TrainConfig, RunConfig and dataset.SynthParams are frozen, and their
__post_init__ raises ConfigurationError on a value of the wrong type or range.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

SEED_ENV_VAR = "WOGMA_SEED"


# Per field annotation: the types a value may have and how to name them.
# bool is a subclass of int, so it is told apart: an int or float field
# rejects it and a bool field takes nothing else.
_ACCEPTED = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
             "bool": (bool, "true or false"), "str": (str, "a string")}


def check_field_types(settings) -> None:
    """Raise ConfigurationError naming the first field of the dataclass
    `settings` whose value is of the wrong type. RunConfig.train, the one
    field that is no int, float, bool or str, is built by the program."""
    for f in dataclasses.fields(settings):
        if f.type not in _ACCEPTED:
            continue
        types, wanted = _ACCEPTED[f.type]
        value = getattr(settings, f.name)
        accepted = isinstance(value, types) and isinstance(value, bool) == (f.type == "bool")
        if not accepted or isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"config key {f.name!r} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Model and optimisation settings.

    Defaults follow the reference operating point: Adam at lr 5e-5 with
    weight decay 5e-4 for 100 epochs, clip window tau = stride = 20, top-K
    divisor kappa = 8, pseudo-label thresholds 0.4 / 0.3, the first 6000
    frames of each video kept, LSTM hidden size 1024. The model detects one
    action class; the data format fixes it.
    """

    lr: float = 5e-5
    weight_decay: float = 5e-4
    epochs: int = 100
    kappa: int = 8
    theta_class: float = 0.4
    theta_score: float = 0.3
    tau: int = 20
    stride: int = 20
    max_frames: int = 6000
    hidden: int = 1024
    seed: int = 0
    ablate_pseudo: bool = False
    ablate_local: bool = False
    # network widths (the reference leaves these open; desk-scale defaults);
    # conv_layers = 0 is the long-range ablation
    scales: int = 3
    gcn_channels: int = 32
    gcn_layers: int = 1
    feature_dim: int = 64
    conv_layers: int = 2
    conv_kernel: int = 3

    def __post_init__(self):
        check_field_types(self)
        for name in ("theta_class", "theta_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
        for name in ("tau", "stride", "kappa", "epochs", "max_frames", "hidden", "gcn_channels",
                     "gcn_layers", "feature_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        for name in ("scales", "conv_layers"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.conv_kernel % 2 == 0:
            raise ConfigurationError(f"conv_kernel must be odd, got {self.conv_kernel}")
        if self.max_frames < self.tau:
            raise ConfigurationError(
                f"max_frames ({self.max_frames}) must be >= tau ({self.tau})")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class RunConfig:
    """TrainConfig plus the file locations of a `train` run."""

    train: TrainConfig = field(default_factory=TrainConfig)
    train_data: str = "train.jsonl"
    out_dir: str = "out"

    def __post_init__(self):
        check_field_types(self)


_RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {"train"}


def train_config_from_dict(data: dict) -> TrainConfig:
    """Build a TrainConfig from a JSON object; unknown keys are rejected."""
    unknown = set(data) - {f.name for f in dataclasses.fields(TrainConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return TrainConfig(**data)


def run_config_from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a flat JSON object; unknown keys are rejected."""
    train = train_config_from_dict({k: v for k, v in data.items() if k not in _RUN_FIELDS})
    return RunConfig(train=train, **{k: v for k, v in data.items() if k in _RUN_FIELDS})


def read_config_file(path) -> dict:
    """The JSON object a RunConfig file holds; run_config_from_dict checks
    its keys and values."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return raw


def with_env_seed(settings: dict) -> dict:
    """`settings`, with the seed from the WOGMA_SEED environment variable
    added when they set none and the variable is set."""
    raw = os.environ.get(SEED_ENV_VAR)
    if "seed" in settings or raw is None:
        return settings
    try:
        return {**settings, "seed": int(raw)}
    except ValueError as exc:
        raise ConfigurationError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
