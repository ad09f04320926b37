import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from wogma import cli
from wogma.dataset import SynthParams, save_sequences, synthesize
from wogma.config import TrainConfig
from wogma.model import ActionDetector
from wogma.trainer import save_checkpoint

FAST_CONFIG = {
    "tau": 20, "stride": 20, "max_frames": 120, "hidden": 8, "feature_dim": 8,
    "gcn_channels": 4, "scales": 2, "n_c": 1, "epochs": 2, "lr": 1e-3,
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


def test_unknown_config_key_exits_one(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"definitely_unknown": 1}))
    assert run_cli(["train", "--config", config]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_data_exits_two(tmp_path, capsys):
    assert run_cli(["train", "--data", tmp_path / "nope.jsonl",
                    "--out-dir", tmp_path]) == 2


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
            clip = rng.standard_normal((config.tau, 18, 3)).tolist()
            proc.stdin.write(json.dumps({"clip": i, "frames": clip}) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            record = json.loads(line)
            assert record["clip"] == i
            assert record["start_frame"] == (i - 1) * 20 + 1
            assert len(record["probs"]) == config.n_c + 1
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
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path, "--fractions", "0.0,1.0"]) == 1


def test_eval_label_count_mismatch_exits_two(tmp_path, capsys):
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**{**FAST_CONFIG, "n_c": 2})),
                    epoch=0)
    data = tmp_path / "d.jsonl"
    seqs = write_dataset(data)
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"data error: {seqs[0].video_id}: 1 labels for 2 classes" in err
    assert not (tmp_path / "out").exists()


def test_eval_more_than_one_class_exits_one(tmp_path, capsys):
    checkpoint = tmp_path / "ck.bin"
    save_checkpoint(checkpoint, ActionDetector(TrainConfig(**{**FAST_CONFIG, "n_c": 2})),
                    epoch=0)
    seqs = synthesize(SynthParams(n_videos=2, frames=120, seed=2,
                                  segment_len_min=40, segment_len_max=60))
    for seq in seqs:
        seq.labels = [seq.labels[0], 0]
    data = tmp_path / "d.jsonl"
    save_sequences(data, seqs)
    assert run_cli(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--out-dir", tmp_path / "out"]) == 1
    assert "error: eval scores one action class; the model has n_c = 2" in capsys.readouterr().err
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


def stdin_clip_line(config, rng, **overrides):
    obj = {"frames": rng.standard_normal((config.tau, 18, 3)).tolist(), **overrides}
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
    frames = rng.standard_normal((config.tau, 18, 3))
    frames[5, 3, 0] = value
    lines = [stdin_clip_line(config, rng), json.dumps({"frames": frames.tolist()}) + "\n"]
    assert run_detect_stdin(tmp_path, monkeypatch, lines) == 2
    out, err = capsys.readouterr()
    assert [json.loads(l)["clip"] for l in out.splitlines()] == [1]
    assert "data error: clip line 2: frames hold a non-finite value" in err


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
