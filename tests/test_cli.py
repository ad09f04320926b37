import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import corrupt_saved_checkpoint
from wogma import cli, plots
from wogma.dataset import SynthParams, save_sequences, synthesize
from wogma.config import RunConfig, TrainConfig
from wogma.model import ActionDetector
from wogma.oamb import extract_instances, stream_record
from wogma.trainer import save_checkpoint

FAST_CONFIG = {
    "tau": 20, "stride": 20, "max_frames": 120, "hidden": 8, "feature_dim": 8,
    "gcn_channels": 4, "epochs": 2, "lr": 1e-3,
    "weight_decay": 0.0, "seed": 3,
}


def write_dataset(path, n_videos=4, frames=120, seed=2):
    seqs = synthesize(SynthParams(n_videos=n_videos, frames=frames, seed=seed,
                                  segment_len_min=40, segment_len_max=60))
    save_sequences(path, seqs)
    return seqs


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_gen_data_deterministic(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert run_cli(["gen-data", "--seed", 7, "--videos", 4, "--frames", 60,
                    "--segment-len-min", 20, "--segment-len-max", 30,
                    "--out", first]) == 0
    assert run_cli(["gen-data", "--seed", 7, "--videos", 4, "--frames", 60,
                    "--segment-len-min", 20, "--segment-len-max", 30,
                    "--out", second]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_unknown_flag_exits_one(capsys):
    assert run_cli(["train", "--no-such-flag"]) == 1
    assert "usage" in capsys.readouterr().err


# Keys TrainConfig once had: the network's scale count, graph layer count
# and temporal kernel size are constants of lfem and cpgb.
NETWORK_SHAPE_KEYS = [("scales", 3), ("gcn_layers", 1), ("conv_kernel", 3)]


@pytest.mark.parametrize("key, value", [("definitely_unknown", 1),
                                        ("eval_fractions", [0.5, 1.0]),
                                        ("instance_threshold", 0.3),
                                        ("ablate_longrange", True), *NETWORK_SHAPE_KEYS],
                         ids=["definitely_unknown", "eval_fractions", "instance_threshold",
                              "ablate_longrange", *(key for key, _ in NETWORK_SHAPE_KEYS)])
def test_unknown_config_key_exits_one(tmp_path, capsys, key, value):
    # the early-curve fractions and the instance threshold are flags of eval
    # and detect; train reads neither. The long-range ablation is conv_layers = 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli(["train", "--config", config]) == 1
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, wanted", [
    ("train_data", 0, "a string"),            # fd 0: train would read stdin
    ("out_dir", None, "a string"),
    ("hidden", 16.5, "an integer"),
    ("epochs", True, "an integer"),
    ("tau", 20.0, "an integer"),
    ("ablate_pseudo", "no", "true or false"),  # a truthy string: the ablation was on
    ("ablate_local", 0, "true or false"),
    ("lr", True, "a finite number"),
    ("lr", float("nan"), "a finite number"),
    ("weight_decay", float("inf"), "a finite number"),
    ("weight_decay", "0", "a finite number"),
])
def test_config_value_of_wrong_type_exits_one(tmp_path, capsys, key, value, wanted):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**FAST_CONFIG, key: value}))
    assert run_cli(["train", "--config", config, "--out-dir", tmp_path]) == 1
    err = capsys.readouterr().err
    assert f"config key '{key}' must be {wanted}, got {value!r}" in err
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_lr_flag_exits_one(tmp_path, capsys, value):
    # a flag value is checked as the same value in the config file is
    data = tmp_path / "train.jsonl"
    write_dataset(data)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(FAST_CONFIG))
    assert run_cli(["train", "--config", config, "--data", data, "--out-dir", tmp_path,
                    "--lr", value]) == 1
    assert f"config key 'lr' must be a finite number, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.bin").exists()


def test_bad_config_value_exits_one_when_a_flag_overrides_it(tmp_path, capsys):
    # the file must build a valid run on its own
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**FAST_CONFIG, "hidden": 0}))
    assert run_cli(["train", "--config", config, "--out-dir", tmp_path, "--hidden", 8]) == 1
    assert "hidden must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("flags, conv_layers", [([], 3), (["--ablate-longrange"], 0)],
                         ids=["file", "flag"])
def test_train_ablate_longrange_flag_sets_conv_layers_zero(tmp_path, flags, conv_layers):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**FAST_CONFIG, "conv_layers": 3}))
    args = cli.build_parser().parse_args(["train", "--config", str(config), *flags])
    assert cli._load_run(args).train.conv_layers == conv_layers


@pytest.mark.parametrize("command, skipped", [
    (["train"], {"config", "quiet"}),
    (["gen-data", "--out", "d.jsonl"], {"out"}),
], ids=["train", "gen-data"])
def test_every_setting_flag_names_a_field(command, skipped):
    # the flags are laid over the settings by their argparse dest: a dest
    # that names no field would be rejected as an unknown key
    fields = {"train": {f.name for f in dataclasses.fields(RunConfig)}
              | {f.name for f in dataclasses.fields(TrainConfig)},
              "gen-data": {f.name for f in dataclasses.fields(SynthParams)}}[command[0]]
    dests = set(vars(cli.build_parser().parse_args(command))) - {"command", "func"}
    assert dests - skipped <= fields
    assert dests & skipped == skipped


@pytest.mark.parametrize("flag, value, message", [
    ("--fps", "0", "fps must be above 0, got 0.0"),
    ("--fps", "-20", "fps must be above 0, got -20.0"),
    ("--fps", "nan", "config key 'fps' must be a finite number, got nan"),
    ("--fps", "inf", "config key 'fps' must be a finite number, got inf"),
    ("--noise", "-1", "noise must be >= 0, got -1.0"),
    ("--noise", "nan", "config key 'noise' must be a finite number, got nan"),
    ("--segment-len-min", "0", "segment_len_min must be >= 1, got 0"),
    # numpy warns of none of the overflow that the error names
    pytest.param("--fps", "5e-324", "fps 5e-324 and noise 1.0 give non-finite frames",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param("--noise", "1e308", "fps 20.0 and noise 1e+308 give non-finite frames",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
], ids=["fps-0", "fps-negative", "fps-nan", "fps-inf", "noise-negative", "noise-nan",
        "segment-len-min-0", "fps-tiny", "noise-huge"])
def test_gen_data_setting_the_loader_would_reject_exits_one(tmp_path, capsys, flag, value,
                                                            message):
    out = tmp_path / "d.jsonl"
    assert run_cli(["gen-data", "--out", out, "--videos", 2, "--frames", 60,
                    "--segment-len-min", 20, "--segment-len-max", 30, flag, value]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_input_channels_config_key_exits_one(tmp_path, capsys):
    # every frame has x, y and confidence: the channel count is no setting
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**FAST_CONFIG, "input_channels": 2}))
    assert run_cli(["train", "--config", config, "--out-dir", tmp_path]) == 1
    assert "unknown config keys: ['input_channels']" in capsys.readouterr().err


def test_missing_data_exits_two(tmp_path, capsys):
    assert run_cli(["train", "--data", tmp_path / "nope.jsonl",
                    "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize("command", [["eval", "--data", "d.jsonl"], ["detect", "--stdin"]],
                         ids=["eval", "detect"])
def test_missing_checkpoint_exits_two(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    checkpoint = tmp_path / "nonexistent.bin"
    assert run_cli([command[0], "--checkpoint", checkpoint, *command[1:],
                    "--out-dir", tmp_path / "out"]) == 2
    assert f"data error: cannot read checkpoint {checkpoint}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind, message", [
    ("config-not-utf8", "config is not UTF-8"),
    ("config-not-json", "config is not valid JSON"),
    ("config-bad-value", "bad config: hidden must be >= 1, got 0"),
    ("config-unknown-key", "bad config: unknown config keys: ['n_c']"),
    ("name-not-utf8", "record name is not UTF-8"),
])
def test_detect_malformed_checkpoint_exits_two(tmp_path, monkeypatch, capsys, kind, message):
    model = ActionDetector(TrainConfig(**FAST_CONFIG))
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    checkpoint.write_bytes(corrupt_saved_checkpoint(checkpoint.read_bytes(), model, kind))
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run_cli(["detect", "--checkpoint", checkpoint, "--stdin",
                    "--out-dir", tmp_path / "out"]) == 2
    assert f"data error: {checkpoint}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval", "--data", "d.jsonl"], ["detect", "--stdin"]],
                         ids=["eval", "detect"])
def test_version_2_checkpoint_exits_two(tmp_path, monkeypatch, capsys, command):
    # version 2 is version 3 with the Adam step (0 here) after the last record
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    blob = checkpoint.read_bytes()
    checkpoint.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:] + bytes(8))
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run_cli([command[0], "--checkpoint", checkpoint, *command[1:],
                    "--out-dir", tmp_path / "out"]) == 2
    assert (f"data error: {checkpoint}: unsupported checkpoint version 2, expected 3"
            in capsys.readouterr().err)


def test_eval_non_utf8_dataset_exits_two(tmp_path, capsys):
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data, n_videos=2)
    first, second = data.read_bytes().splitlines(keepends=True)
    data.write_bytes(first + second.replace(b'"video_id"', b'"video\xffid"', 1))
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "out"]) == 2
    assert f"data error: {data}: not UTF-8 text at or after line " in capsys.readouterr().err


@pytest.mark.parametrize("command, outputs", [
    ("eval", ["report.json", "early_curve.csv", "timelines.csv"]),
    ("detect", ["instances.json"]),
])
def test_video_id_with_a_lone_surrogate_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                    command, outputs):
    # "\ud800" is a valid JSON escape, but no UTF-8 file can hold the id
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data, n_videos=2)
    first, second = data.read_text().splitlines()
    data.write_text(json.dumps({**json.loads(first), "video_id": "bad\ud800id"})
                    + "\n" + second + "\n")
    out = tmp_path / "out"
    assert run_cli([command, "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"data error: {data}:1: video_id 'bad\\ud800id' is not UTF-8 text" in captured.err
    assert not [name for name in outputs if (out / name).exists()]


@pytest.mark.parametrize("command, outputs", [
    ("train", ["checkpoint.bin", "metrics.csv"]),
    ("eval", ["report.json", "early_curve.csv", "timelines.csv"]),
    ("detect", ["instances.json"]),
])
def test_video_shorter_than_one_clip_exits_two_naming_it(tmp_path, capsys, command, outputs):
    # tau - 1 frames: not one clip to score, so no output counts the video
    seqs = synthesize(SynthParams(n_videos=2, frames=120, seed=2, segment_len_min=40,
                                  segment_len_max=60))
    short = dataclasses.replace(seqs[1], video_id="short-one", gt_segments=None,
                                frames=seqs[1].frames[:FAST_CONFIG["tau"] - 1])
    data = tmp_path / "d.jsonl"
    save_sequences(data, [seqs[0], short])
    out = tmp_path / "out"
    if command == "train":
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**FAST_CONFIG, "train_data": str(data),
                                      "out_dir": str(out)}))
        args = ["train", "--config", config, "--quiet"]
    else:
        checkpoint = tmp_path / "ck.bin"
        save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
        args = [command, "--checkpoint", checkpoint, "--data", data, "--out-dir", out]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    # the first video is fine: nothing of it reaches stdout either
    assert captured.out == ""
    assert ("data error: video 'short-one': 19 frames, fewer than the 20 of one clip"
            in captured.err)
    assert not [name for name in outputs if (out / name).exists()]


def test_eval_empty_dataset_exits_two(tmp_path, capsys):
    # no videos to score: no NaN report, as train rejects an empty training set
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    data = tmp_path / "empty.jsonl"
    data.write_text("")
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "out"]) == 2
    assert f"data error: {data}: test set is empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_eval_plot_pipeline(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    write_dataset(data)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**FAST_CONFIG, "train_data": str(data),
                                  "out_dir": str(tmp_path / "run")}))
    assert run_cli(["train", "--config", config, "--quiet"]) == 0
    checkpoint = tmp_path / "run" / "checkpoint.bin"
    assert checkpoint.exists()
    assert (tmp_path / "run" / "metrics.csv").exists()

    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "run", "--fractions", "0.2,1.0"]) == 0
    report_path = tmp_path / "run" / "report.json"
    report = json.loads(report_path.read_text())
    for key in ("accuracy", "f1", "auc", "map_at", "mean_map", "instance_count",
                "early_curve"):
        assert key in report
    assert (tmp_path / "run" / "early_curve.csv").exists()
    assert (tmp_path / "run" / "timelines.csv").exists()
    capsys.readouterr()

    assert run_cli(["detect", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "run"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    assert lines
    first = json.loads(lines[0])
    assert {"clip", "start_frame", "end_frame", "probs", "video_id"} == set(first)
    assert (tmp_path / "run" / "instances.json").exists()

    assert run_cli(["plot", "--report", report_path,
                    "--timelines", tmp_path / "run" / "timelines.csv",
                    "--data", data,
                    "--instances", tmp_path / "run" / "instances.json",
                    "--out-dir", tmp_path / "plots"]) == 0
    curve_svg = tmp_path / "plots" / "auc_vs_fraction.svg"
    assert curve_svg.exists()
    root = ET.fromstring(curve_svg.read_text())
    assert root.tag.endswith("svg")
    assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 2
    timeline_svgs = list((tmp_path / "plots").glob("timeline_*.svg"))
    assert timeline_svgs
    ET.fromstring(timeline_svgs[0].read_text())


def test_early_curve_csv_reads_back_as_the_report_curve(tmp_path, monkeypatch, capsys):
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data)
    reports = []
    evaluate = cli.evaluate

    def keep_report(*args):
        report, results = evaluate(*args)
        reports.append(report)
        return report, results

    monkeypatch.setattr(cli, "evaluate", keep_report)
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data, "--out-dir",
                    tmp_path / "out", "--fractions", "0.1,0.3333333333333333,1.0"]) == 0
    text = (tmp_path / "out" / "early_curve.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert "\r" not in text and rows[0] == ["fraction", "auc"]
    assert [(float(f), float(a)) for f, a in rows[1:]] == reports[0].early_curve
    assert len(reports[0].early_curve) == 3


def test_train_determinism_same_seed(tmp_path):
    data = tmp_path / "train.jsonl"
    write_dataset(data)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(FAST_CONFIG))
    for out in ("run1", "run2"):
        assert run_cli(["train", "--config", config, "--data", data,
                        "--out-dir", tmp_path / out, "--quiet"]) == 0
    assert ((tmp_path / "run1" / "metrics.csv").read_bytes()
            == (tmp_path / "run2" / "metrics.csv").read_bytes())
    assert ((tmp_path / "run1" / "checkpoint.bin").read_bytes()
            == (tmp_path / "run2" / "checkpoint.bin").read_bytes())


def test_env_seed_fallback(tmp_path, monkeypatch):
    data = tmp_path / "train.jsonl"
    write_dataset(data)
    config = tmp_path / "c.json"
    no_seed = {k: v for k, v in FAST_CONFIG.items() if k != "seed"}
    config.write_text(json.dumps(no_seed))
    monkeypatch.setenv("WOGMA_SEED", "11")
    assert run_cli(["train", "--config", config, "--data", data,
                    "--out-dir", tmp_path / "enva", "--quiet"]) == 0
    monkeypatch.delenv("WOGMA_SEED")
    assert run_cli(["train", "--config", config, "--data", data,
                    "--out-dir", tmp_path / "envb", "--seed", "11", "--quiet"]) == 0
    assert ((tmp_path / "enva" / "checkpoint.bin").read_bytes()
            == (tmp_path / "envb" / "checkpoint.bin").read_bytes())


@pytest.mark.parametrize("seed_from, code", [("flag", 0), ("file", 0), ("nowhere", 1)])
def test_env_seed_is_read_only_when_nothing_sets_the_seed(tmp_path, monkeypatch, capsys,
                                                          seed_from, code):
    data = tmp_path / "train.jsonl"
    write_dataset(data)
    config = tmp_path / "c.json"
    settings = {k: v for k, v in FAST_CONFIG.items() if k != "seed" or seed_from == "file"}
    config.write_text(json.dumps(settings))
    monkeypatch.setenv("WOGMA_SEED", "abc")
    flags = ["--seed", "4"] if seed_from == "flag" else []
    assert run_cli(["train", "--config", config, "--data", data, "--out-dir", tmp_path,
                    "--quiet", *flags]) == code
    assert ("WOGMA_SEED must be an integer, got 'abc'" in capsys.readouterr().err) == bool(code)
    assert (tmp_path / "checkpoint.bin").exists() == (not code)


def clip_frames(config, rng):
    """A tau x 18 x 3 clip: random coordinates, confidences in [0, 1)."""
    frames = rng.standard_normal((config.tau, 18, 3))
    frames[:, :, 2] = rng.uniform(0.0, 1.0, size=(config.tau, 18))
    return frames


def test_detect_stdin_streams_clip_by_clip(tmp_path):
    # the streaming contract: clip i's output line appears before clip i+1
    # is written to the process
    config = TrainConfig(**FAST_CONFIG)
    model = ActionDetector(config)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)

    rng = np.random.default_rng(0)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "wogma.cli", "detect", "--checkpoint", str(checkpoint),
         "--stdin", "--out-dir", str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    try:
        for i in range(1, 4):
            clip = clip_frames(config, rng).tolist()
            proc.stdin.write(json.dumps({"clip": i, "frames": clip}) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            record = json.loads(line)
            assert record["clip"] == i
            assert record["start_frame"] == (i - 1) * 20 + 1
            assert len(record["probs"]) == 2
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
    instances = json.loads((tmp_path / "instances.json").read_text())
    assert isinstance(instances, list)


def test_eval_fractions_flag_validation(tmp_path, capsys):
    config = TrainConfig(**FAST_CONFIG)
    model = ActionDetector(config)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data)
    for fractions in ("0.0,1.0", "", ","):
        assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                        "--out-dir", tmp_path, "--fractions", fractions]) == 1
    assert not (tmp_path / "early_curve.csv").exists()


def test_eval_label_count_mismatch_exits_two(tmp_path, capsys):
    # a video has one label: a list of them, one per class, is a data error
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data, n_videos=2)
    first, second = data.read_text().splitlines()
    data.write_text(f"{first}\n{json.dumps({**json.loads(second), 'label': [1, 0]})}\n")
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "out"]) == 2
    assert (f"data error: {data}:2: label must be 0 or 1, got [1, 0]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_detect_stdin_equals_detect_data(tmp_path, monkeypatch, capsys):
    # streaming a video's prepared clips one by one gives the records that
    # the whole-video path gives for that video
    config = TrainConfig(**FAST_CONFIG)
    model = ActionDetector(config)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    data = tmp_path / "d.jsonl"
    seq = write_dataset(data, n_videos=1)[0]
    assert run_cli(["detect", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "data"]) == 0
    from_data = [json.loads(l) for l in capsys.readouterr().out.splitlines()]

    lines = [json.dumps({"frames": clip.tolist()}) + "\n" for clip in model.prepare_clips(seq)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
    assert run_cli(["detect", "--checkpoint", checkpoint, "--stdin",
                    "--out-dir", tmp_path / "stdin"]) == 0
    from_stdin = [json.loads(l) for l in capsys.readouterr().out.splitlines()]

    assert len(from_stdin) == len(from_data) == len(lines)
    for streamed, whole in zip(from_stdin, from_data):
        assert whole.pop("video_id") == seq.video_id
        assert set(streamed) == set(whole)
        for key in ("clip", "start_frame", "end_frame"):
            assert streamed[key] == whole[key]
        np.testing.assert_allclose(streamed["probs"], whole["probs"], rtol=0, atol=1e-12)


def test_plot_missing_inputs_warn_but_succeed(tmp_path, capsys):
    assert run_cli(["plot", "--report", tmp_path / "missing.json",
                    "--out-dir", tmp_path]) == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_plot_max_videos_below_one_exits_one(tmp_path, capsys, value):
    assert run_cli(["plot", "--out-dir", tmp_path / "plots", "--max-videos", value]) == 1
    assert f"argument --max-videos: must be >= 1, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


TIMELINES_CSV = ("video_id,clip,start_frame,end_frame,prob_background,prob_class_1\n"
                 "v0,1,1,20,0.25,0.75\nv0,2,21,40,0.5,0.5\n")


@pytest.mark.parametrize("name, text, message", [
    ("report.json", '{"early_curve": [[0.5, 0.6]', "JSONDecodeError"),
    ("report.json", '[[0.5, 0.6]]', "AttributeError"),
    ("report.json", '{"early_curve": [[0.5]]}', "ValueError"),
    ("instances.json", '[{"video_id": "v0", "end_frame": 20}]', "KeyError('start_frame')"),
    ("instances.json", '[{"video_id": "v0"', "JSONDecodeError"),
    ("timelines.csv", "video_id,clip,start_frame,end_frame,prob_background\nv0,1,1,20,1.0\n",
     "'prob_class_1' is not in list"),
    ("timelines.csv", "", "'prob_class_1' is not in list"),
    ("timelines.csv", TIMELINES_CSV + "v0,3\n", "IndexError"),
], ids=["report-bad-json", "report-not-object", "report-bad-curve", "instances-no-start",
        "instances-bad-json", "timelines-no-class-column", "timelines-empty",
        "timelines-short-row"])
def test_plot_malformed_input_exits_two(tmp_path, capsys, name, text, message):
    inputs = {"report.json": None, "timelines.csv": TIMELINES_CSV, "instances.json": "[]",
              name: text}
    for file, content in inputs.items():
        if content is not None:
            (tmp_path / file).write_text(content)
    flags = ["--timelines", tmp_path / "timelines.csv", "--instances",
             tmp_path / "instances.json"]
    if name == "report.json":
        flags = ["--report", tmp_path / "report.json"]
    assert run_cli(["plot", "--out-dir", tmp_path / "plots", *flags]) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / name}: unreadable plot input: " in err
    assert message in err


def stdin_clip_line(config, rng, **overrides):
    obj = {"frames": clip_frames(config, rng).tolist(), **overrides}
    return json.dumps(obj) + "\n"


def run_detect_stdin(tmp_path, monkeypatch, lines):
    config = TrainConfig(**FAST_CONFIG)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(config), epoch=0)
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
    return run_cli(["detect", "--checkpoint", checkpoint, "--stdin",
                    "--out-dir", tmp_path])


@pytest.mark.parametrize("bad_line", ["[1, 2]\n", "5\n", '"frames"\n'],
                         ids=["list", "number", "string"])
def test_detect_stdin_non_object_line_exits_two(tmp_path, monkeypatch, capsys, bad_line):
    good = stdin_clip_line(TrainConfig(**FAST_CONFIG), np.random.default_rng(0))
    assert run_detect_stdin(tmp_path, monkeypatch, [good, bad_line]) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["clip"] for l in out.splitlines()] == [1]
    assert "data error: bad clip line 2" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_detect_stdin_non_finite_clip_exits_two(tmp_path, monkeypatch, capsys, value):
    config = TrainConfig(**FAST_CONFIG)
    rng = np.random.default_rng(0)
    frames = clip_frames(config, rng)
    frames[5, 3, 0] = value
    lines = [stdin_clip_line(config, rng), json.dumps({"frames": frames.tolist()}) + "\n"]
    assert run_detect_stdin(tmp_path, monkeypatch, lines) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["clip"] for l in out.splitlines()] == [1]
    assert "data error: clip line 2: frames hold a non-finite value" in err


@pytest.mark.parametrize("kind, message", [
    ("confidence 5", "confidences must lie in [0, 1]"),
    ("confidence -0.5", "confidences must lie in [0, 1]"),
    ("17 joints", "expected 18 joints, got 17"),
    ("2 channels", "frames must be T x N x 3, got shape (20, 18, 2)"),
    ("19 frames", "19 frames, expected tau = 20"),
], ids=["confidence-5", "confidence-negative", "17-joints", "2-channels", "19-frames"])
def test_detect_stdin_bad_clip_exits_two(tmp_path, monkeypatch, capsys, kind, message):
    # a streamed clip passes the same frame checks as a dataset line
    config = TrainConfig(**FAST_CONFIG)
    rng = np.random.default_rng(0)
    frames = clip_frames(config, rng)
    if kind.startswith("confidence"):
        frames[5, 3, 2] = float(kind.split()[1])
    else:
        frames = {"17 joints": frames[:, :17], "2 channels": frames[:, :, :2],
                  "19 frames": frames[1:]}[kind]
    lines = [stdin_clip_line(config, rng), json.dumps({"frames": frames.tolist()}) + "\n"]
    assert run_detect_stdin(tmp_path, monkeypatch, lines) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["clip"] for l in out.splitlines()] == [1]
    assert f"data error: clip line 2: {message}" in err


@pytest.mark.parametrize("value", ["0", "1", "-1", "7", "nan"])
@pytest.mark.parametrize("command", [["eval", "--data", "d.jsonl"],
                                     ["detect", "--data", "d.jsonl"],
                                     ["detect", "--stdin"]],
                         ids=["eval", "detect-data", "detect-stdin"])
def test_instance_threshold_outside_unit_interval_exits_one(tmp_path, monkeypatch, capsys,
                                                            command, value):
    # the checkpoint does not exist: the flag is rejected before it is read
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run_cli([command[0], "--checkpoint", tmp_path / "missing.bin", *command[1:],
                    "--out-dir", tmp_path / "out", "--instance-threshold", value]) == 1
    assert "argument --instance-threshold: must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_timelines_csv_quotes_video_id_through_eval_and_plot(tmp_path, capsys):
    video_id = 'infant "A", visit 2'
    seqs = synthesize(SynthParams(n_videos=2, frames=120, seed=2,
                                  segment_len_min=40, segment_len_max=60))
    seqs[0].video_id = video_id
    data = tmp_path / "d.jsonl"
    save_sequences(data, seqs)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "run", "--fractions", "0.5,1.0"]) == 0

    timelines = tmp_path / "run" / "timelines.csv"
    with open(timelines, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len({len(row) for row in rows}) == 1
    assert [row[0] for row in rows[1:]] == [video_id] * 6 + [seqs[1].video_id] * 6
    assert rows[1][:4] == [video_id, "1", "1", "20"]
    capsys.readouterr()

    assert run_cli(["plot", "--timelines", timelines, "--data", data,
                    "--out-dir", tmp_path / "plots"]) == 0
    svg = tmp_path / "plots" / f"timeline_{video_id}.svg"
    root = ET.fromstring(svg.read_text())
    title = root.find("{http://www.w3.org/2000/svg}text").text
    assert title == f"online detection: {video_id}"


def test_train_batch_size_flag_exits_one(tmp_path, capsys):
    # one video per Adam step: the flag is gone
    assert run_cli(["train", "--batch-size", 2, "--out-dir", tmp_path]) == 1
    assert "unrecognized arguments: --batch-size 2" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.bin").exists()


def nan_weight_checkpoint(tmp_path):
    """A checkpoint of the FAST_CONFIG model with nan in oamb.b_a[0]: it loads,
    and every softmax row the online branch emits is nan."""
    model = ActionDetector(TrainConfig(**FAST_CONFIG))
    model.params["oamb.b_a"].values[0] = np.nan
    checkpoint = tmp_path / "nan.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    return checkpoint


@pytest.mark.parametrize("command", [["eval", "--data"], ["detect", "--data"],
                                     ["detect", "--stdin"]],
                         ids=["eval", "detect-data", "detect-stdin"])
def test_non_finite_weight_exits_three_and_writes_no_score(tmp_path, monkeypatch, capsys,
                                                           command):
    data = tmp_path / "d.jsonl"
    write_dataset(data, n_videos=2)
    rng = np.random.default_rng(0)
    config = TrainConfig(**FAST_CONFIG)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_clip_line(config, rng) * 2))
    source = [] if command[1] == "--stdin" else [data]
    assert run_cli([command[0], "--checkpoint", nan_weight_checkpoint(tmp_path), *command[1:],
                    *source, "--out-dir", tmp_path / "out"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure: clip 1: non-finite probabilities [nan, nan]" in err
    assert not any((tmp_path / "out").glob("*.json"))


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict parsers do."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_one_class_test_set_reports_null_auc_and_plots_no_nan(tmp_path, capsys):
    # with one class the AUC is undefined: null in report.json and on stdout,
    # nan in early_curve.csv, and left out of the plot
    data = tmp_path / "d.jsonl"
    save_sequences(data, synthesize(SynthParams(n_videos=3, frames=120, seed=2,
                                                positive_fraction=1.0,
                                                segment_len_min=40, segment_len_max=60)))
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "run", "--fractions", "0.5,1.0"]) == 0
    report_path = tmp_path / "run" / "report.json"
    report = strict_json(report_path.read_text())
    assert report["auc"] is None
    assert report["early_curve"] == [[0.5, None], [1.0, None]]
    assert strict_json(capsys.readouterr().out) == report
    rows = list(csv.reader(io.StringIO((tmp_path / "run" / "early_curve.csv").read_text())))
    assert rows[1:] == [["0.5", "nan"], ["1.0", "nan"]]

    assert run_cli(["plot", "--report", report_path, "--out-dir", tmp_path / "plots"]) == 0
    assert "no early-curve point with a defined AUC" in capsys.readouterr().err
    assert not (tmp_path / "plots" / "auc_vs_fraction.svg").exists()


def test_plot_leaves_out_undefined_curve_points(tmp_path, capsys):
    # null as eval writes it, NaN as a report written before null was
    report = tmp_path / "report.json"
    report.write_text('{"early_curve": [[0.25, null], [0.5, NaN], [1.0, 0.75]]}')
    assert run_cli(["plot", "--report", report, "--out-dir", tmp_path / "plots"]) == 0
    text = (tmp_path / "plots" / "auc_vs_fraction.svg").read_text()
    assert "nan" not in text.lower()
    circles = ET.fromstring(text).findall(".//{http://www.w3.org/2000/svg}circle")
    assert [c.find("{http://www.w3.org/2000/svg}title").text for c in circles] == ["1: 0.7500"]


def one_row_timelines(path, video_id):
    """Write a timelines.csv, as eval writes it, holding one clip of `video_id`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["video_id", "clip", "start_frame", "end_frame", "prob_background",
                         "prob_class_1"])
        writer.writerow([video_id, 1, 1, 20, 0.25, 0.75])
    return path


@pytest.mark.parametrize("video_id, name", [("clinic/0001", "clinic%2F0001"),
                                            ("a%2Fb", "a%252Fb"), ("nul\0id", "nul%00id")],
                         ids=["slash", "percent", "nul"])
def test_plot_timeline_file_name_escapes_slash_percent_and_nul(tmp_path, capsys, video_id,
                                                               name):
    timelines = one_row_timelines(tmp_path / "timelines.csv", video_id)
    assert run_cli(["plot", "--timelines", timelines, "--out-dir", tmp_path / "plots"]) == 0
    assert [p.name for p in (tmp_path / "plots").iterdir()] == [f"timeline_{name}.svg"]


def test_plot_video_id_too_long_for_a_file_name_exits_two(tmp_path, capsys):
    timelines = one_row_timelines(tmp_path / "timelines.csv", "v" * 300)
    assert run_cli(["plot", "--timelines", timelines, "--out-dir", tmp_path / "plots"]) == 2
    err = capsys.readouterr().err
    assert f"data error: video '{'v' * 40}...': timeline file name too long" in err
    assert "Traceback" not in err


def test_plot_title_replaces_code_points_xml_forbids(tmp_path, capsys):
    timelines = one_row_timelines(tmp_path / "timelines.csv", "a\0b")
    assert run_cli(["plot", "--timelines", timelines, "--out-dir", tmp_path / "plots"]) == 0
    root = ET.parse(tmp_path / "plots" / "timeline_a%00b.svg").getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == "online detection: a\ufffdb"


@pytest.mark.parametrize("text, shown", [
    ("\x01\x08\x0b\x0c\x0e\x1f", "\ufffd" * 6), ("\ufffe\uffff", "\ufffd\ufffd"),
    ("x\ud800y\udfffz", "x\ufffdy\ufffdz"), ("tab\tlf\ncr\r\x7f\ufffd", "tab\tlf\ncr\r\x7f\ufffd"),
], ids=["c0", "non-characters", "lone-surrogates", "allowed"])
def test_timeline_svg_title_is_well_formed(text, shown):
    root = ET.fromstring(plots.timeline_svg(text, [0.5], [(1, 20)], None, None))
    title = root.find("{http://www.w3.org/2000/svg}text").text
    # XML parsers normalise CR and CR LF to LF
    assert title == "online detection: " + shown.replace("\r", "\n")


def detect_with_old_config_key(tmp_path, monkeypatch, key, value) -> int:
    """`detect --stdin` on a checkpoint whose config also holds `key`, as a
    file written while TrainConfig had that field."""
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**FAST_CONFIG)), epoch=0)
    blob = checkpoint.read_bytes()
    stop = 12 + int.from_bytes(blob[8:12], "little")
    config = json.dumps({**json.loads(blob[12:stop]), key: value},
                        sort_keys=True).encode("utf-8")
    checkpoint.write_bytes(blob[:8] + len(config).to_bytes(4, "little") + config + blob[stop:])
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    return run_cli(["detect", "--checkpoint", checkpoint, "--stdin",
                    "--out-dir", tmp_path / "out"])


def test_checkpoint_with_batch_size_exits_two(tmp_path, monkeypatch, capsys):
    assert detect_with_old_config_key(tmp_path, monkeypatch, "batch_size", 1) == 2
    assert ("bad config: unknown config keys: ['batch_size']"
            in capsys.readouterr().err)


def test_checkpoint_with_ablate_longrange_exits_two(tmp_path, monkeypatch, capsys):
    assert detect_with_old_config_key(tmp_path, monkeypatch, "ablate_longrange", False) == 2
    assert ("bad config: unknown config keys: ['ablate_longrange']"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value", NETWORK_SHAPE_KEYS,
                         ids=[key for key, _ in NETWORK_SHAPE_KEYS])
def test_checkpoint_with_a_network_shape_key_exits_two(tmp_path, monkeypatch, capsys, key, value):
    assert detect_with_old_config_key(tmp_path, monkeypatch, key, value) == 2
    assert f"bad config: unknown config keys: ['{key}']" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect --stdin: the reader thread
# ---------------------------------------------------------------------------

def reader_threads():
    return [t for t in threading.enumerate() if t.name == cli.READER_THREAD]


def sequential_detect(model, lines, threshold):
    """stdout and instances.json of `detect --stdin` on `lines`, made on
    this thread one clip after another with the online branch's step."""
    branch = model.online_branch
    state = branch.initial_state()
    records, rows = [], []
    for line in lines:
        clip = np.asarray(json.loads(line)["frames"], dtype=np.float64)
        feature = model.features(clip[None]).values[0]
        state, probs = branch.online_step(state, branch.input_half(feature),
                                          branch.recurrent_half(state))
        rows.append(probs)
        records.append(json.dumps(stream_record(state.clips_seen, model.windowing, probs)) + "\n")
    instances = [{"video_id": "stdin", "start_frame": inst.start_frame,
                  "end_frame": inst.end_frame, "score": inst.score, "class": 1}
                 for inst in extract_instances(np.stack(rows), threshold, model.windowing)]
    return "".join(records), json.dumps(instances, indent=2) + "\n"


@pytest.mark.parametrize("transport", ["string-io", "pipe"])
@pytest.mark.parametrize("hidden", [8, 256])
def test_detect_stdin_equals_a_sequential_step_loop_bytewise(tmp_path, monkeypatch, capsys,
                                                            hidden, transport):
    # a backlogged stdin: the reader may run ahead of no record, and the
    # bytes are those of one thread stepping clip after clip
    config = TrainConfig(**{**FAST_CONFIG, "hidden": hidden})
    model = ActionDetector(config)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    rng = np.random.default_rng(hidden)
    lines = [stdin_clip_line(config, rng) for _ in range(24)]
    action = [json.loads(r)["probs"][1]
              for r in sequential_detect(model, lines, 0.5)[0].splitlines()]
    threshold = float(np.median(action))
    expected = sequential_detect(model, lines, threshold)
    argv = ["detect", "--checkpoint", str(checkpoint), "--stdin", "--out-dir", str(tmp_path),
            "--instance-threshold", repr(threshold)]
    if transport == "pipe":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "wogma.cli", *argv], input="".join(lines),
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert not reader_threads()
    assert out == expected[0]
    assert (tmp_path / "instances.json").read_text() == expected[1]
    assert json.loads(expected[1])


def test_detect_stdin_bytes_hold_under_fast_switching(tmp_path, monkeypatch, capsys):
    # the interpreter switches between the reader and the main thread every
    # microsecond; a clip taken twice, out of order or with a stale
    # recurrent half shows in the bytes
    config = TrainConfig(**FAST_CONFIG)
    model = ActionDetector(config)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    rng = np.random.default_rng(9)
    lines = [stdin_clip_line(config, rng) for _ in range(12)]
    expected = sequential_detect(model, lines, 0.5)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        runs = 0
        while runs < 3 or (runs < 20 and time.monotonic() < deadline):
            monkeypatch.setattr(sys, "stdin", io.StringIO("".join(lines)))
            assert run_cli(["detect", "--checkpoint", checkpoint, "--stdin",
                            "--out-dir", tmp_path]) == 0
            assert capsys.readouterr().out == expected
            runs += 1
    finally:
        sys.setswitchinterval(interval)
    assert not reader_threads()


def test_detect_stdin_runs_one_reader_thread(tmp_path, monkeypatch, capsys):
    config = TrainConfig(**FAST_CONFIG)
    rng = np.random.default_rng(1)
    read_clips = cli._read_clips
    readers = []

    def noting_reader(*args):
        readers.append(threading.current_thread())
        read_clips(*args)

    monkeypatch.setattr(cli, "_read_clips", noting_reader)
    assert run_detect_stdin(tmp_path, monkeypatch, [stdin_clip_line(config, rng)] * 5) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(readers) == 1
    assert readers[0].name == cli.READER_THREAD
    assert readers[0] is not threading.current_thread()
    assert not reader_threads()


class SlowStdout(io.StringIO):
    """A stdout whose writes take a while and release the GIL meanwhile, as
    a write to a full pipe does."""

    def write(self, text):
        time.sleep(0.002)
        return super().write(text)


class WatchedStdin:
    """A backlogged stdin that notes, at each readline, how many records
    `stdout` holds."""

    def __init__(self, lines, stdout):
        self.lines = list(lines)
        self.stdout = stdout
        self.records_at_read = []

    def readline(self):
        self.records_at_read.append(self.stdout.getvalue().count("\n"))
        return self.lines.pop(0) if self.lines else ""


def test_detect_stdin_reads_a_line_only_after_the_record_before_it(tmp_path, monkeypatch):
    # the closed-loop contract: even with every line waiting, line i is
    # read once record i-1 is written, so a latency runs from read to write
    config = TrainConfig(**FAST_CONFIG)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(config), epoch=0)
    rng = np.random.default_rng(8)
    stdout = SlowStdout()
    stdin = WatchedStdin([stdin_clip_line(config, rng) for _ in range(6)], stdout)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(["detect", "--checkpoint", checkpoint, "--stdin", "--out-dir", tmp_path]) == 0
    assert stdin.records_at_read == list(range(7))


def test_detect_stdin_malformed_line_writes_the_records_before_it(tmp_path, monkeypatch,
                                                                    capsys):
    config = TrainConfig(**FAST_CONFIG)
    rng = np.random.default_rng(2)
    lines = [stdin_clip_line(config, rng), "\n", stdin_clip_line(config, rng), "{oops\n",
             stdin_clip_line(config, rng)]
    assert run_detect_stdin(tmp_path, monkeypatch, lines) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["clip"] for l in out.splitlines()] == [1, 2]
    assert "data error: bad clip line 4: " in err
    assert not (tmp_path / "instances.json").exists()
    assert not reader_threads()


def test_detect_stdin_non_finite_weight_leaves_no_reader(tmp_path, monkeypatch, capsys):
    config = TrainConfig(**FAST_CONFIG)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(stdin_clip_line(config, np.random.default_rng(3)) * 3))
    assert run_cli(["detect", "--checkpoint", nan_weight_checkpoint(tmp_path), "--stdin",
                    "--out-dir", tmp_path / "out"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure: clip 1: " in err
    assert not reader_threads()


class ClosingStdout(io.StringIO):
    """A stdout whose reader leaves after `kept` writes."""

    def __init__(self, kept):
        super().__init__()
        self.kept = kept

    def write(self, text):
        if self.kept == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.kept -= 1
        return super().write(text)


def test_detect_stdin_closed_stdout_exits_four(tmp_path, monkeypatch, capsys):
    config = TrainConfig(**FAST_CONFIG)
    rng = np.random.default_rng(4)
    stdout = ClosingStdout(kept=2)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_detect_stdin(tmp_path, monkeypatch,
                            [stdin_clip_line(config, rng) for _ in range(5)]) == 4
    assert [json.loads(l)["clip"] for l in stdout.getvalue().splitlines()] == [1, 2]
    assert "error: stdout was closed before the command finished" in capsys.readouterr().err
    assert not (tmp_path / "instances.json").exists()
    assert not reader_threads()


def test_detect_stdin_closed_stdout_pipe_exits_four(tmp_path):
    config = TrainConfig(**FAST_CONFIG)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(config), epoch=0)
    rng = np.random.default_rng(5)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "wogma.cli", "detect", "--checkpoint", str(checkpoint),
         "--stdin", "--out-dir", str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        proc.stdin.write(stdin_clip_line(config, rng))
        proc.stdin.flush()
        assert json.loads(proc.stdout.readline())["clip"] == 1
        proc.stdout.close()
        proc.stdin.write(stdin_clip_line(config, rng))
        proc.stdin.close()
        assert proc.wait(timeout=30) == 4
        assert proc.stderr.read() == "error: stdout was closed before the command finished\n"
    finally:
        proc.kill()
    assert not (tmp_path / "instances.json").exists()


def test_detect_stdin_eof_after_the_first_record(tmp_path, monkeypatch, capsys):
    config = TrainConfig(**FAST_CONFIG)
    assert run_detect_stdin(tmp_path, monkeypatch,
                            [stdin_clip_line(config, np.random.default_rng(6))]) == 0
    assert [json.loads(l)["clip"] for l in capsys.readouterr().out.splitlines()] == [1]
    assert isinstance(json.loads((tmp_path / "instances.json").read_text()), list)
    assert not reader_threads()


def test_detect_stdin_empty_input_writes_no_record(tmp_path, monkeypatch, capsys):
    assert run_detect_stdin(tmp_path, monkeypatch, []) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "instances.json").read_text() == "[]\n"
    assert not reader_threads()


RECORD_KEYS = {"clip", "start_frame", "end_frame", "probs"}


@pytest.mark.parametrize("latency", [False, True], ids=["default", "latency"])
@pytest.mark.parametrize("source", ["stdin", "data"])
def test_detect_latency_flag_adds_latency_us(tmp_path, monkeypatch, capsys, source, latency):
    config = TrainConfig(**FAST_CONFIG)
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(config), epoch=0)
    data = tmp_path / "d.jsonl"
    write_dataset(data, n_videos=2)
    rng = np.random.default_rng(7)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("".join(stdin_clip_line(config, rng) for _ in range(3))))
    flags = ["--stdin"] if source == "stdin" else ["--data", data]
    assert run_cli(["detect", "--checkpoint", checkpoint, *flags, "--out-dir", tmp_path,
                    *(["--latency"] if latency else [])]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    keys = RECORD_KEYS | ({"latency_us"} if latency else set()) | (
        {"video_id"} if source == "data" else set())
    assert len(records) == (3 if source == "stdin" else 12)
    assert all(set(record) == keys for record in records)
    if latency:
        assert all(isinstance(r["latency_us"], float) and r["latency_us"] > 0 for r in records)
