import dataclasses

import numpy as np
import pytest

from conftest import micro_clips, micro_config, micro_model
from wogma import trainer as tr
from wogma.autodiff import Parameter
from wogma.config import TrainConfig
from wogma.dataset import SynthParams, synthesize
from wogma.errors import DataFormatError
from wogma.model import ActionDetector


def small_dataset(n_videos=8, frames=120, seed=3):
    return synthesize(SynthParams(n_videos=n_videos, frames=frames, seed=seed,
                                  segment_len_min=40, segment_len_max=60))


def test_adam_zero_grad_zero_decay_keeps_parameters():
    p = Parameter(np.array([1.0, -2.0]), name="w")
    config = micro_config(weight_decay=0.0)
    tr.adam_step([p], config)
    np.testing.assert_array_equal(p.values, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Parameter(np.array([0.5, -0.5]), name="w")
    p.tensor.grad = np.array([0.3, -0.7])
    config = micro_config(lr=1e-3, weight_decay=0.0)
    tr.adam_step([p], config)
    np.testing.assert_allclose(p.values, [0.5 - 1e-3, -0.5 + 1e-3], rtol=1e-6)
    assert p.step_count == 1


def test_adam_weight_decay_pulls_towards_zero():
    p = Parameter(np.array([2.0]), name="w")
    config = micro_config(lr=1e-3, weight_decay=0.1)
    tr.adam_step([p], config)
    assert p.values[0] < 2.0


def test_joint_loss_sum_of_parts():
    model = micro_model()
    clips = micro_clips()
    loss, parts = tr.joint_loss(model, clips, np.array([1]))
    assert np.isfinite(parts.total)
    assert parts.total == pytest.approx(parts.mil_pseudo + parts.frame + parts.mil_online,
                                        abs=1e-12)


def test_joint_loss_ablate_pseudo_drops_frame_term():
    model = micro_model(ablate_pseudo=True)
    clips = micro_clips(model=model)
    loss, parts = tr.joint_loss(model, clips, np.array([1]))
    assert parts.frame == 0.0
    assert parts.total == pytest.approx(parts.mil_pseudo + parts.mil_online, abs=1e-12)


def test_ablate_flags_change_parameter_counts():
    full = micro_model()
    no_local = micro_model(ablate_local=True)
    no_longrange = micro_model(ablate_longrange=True)
    assert set(no_local.params) != set(full.params)
    assert not any(n.startswith("lfem.g3d") for n in no_local.params)
    assert "lfem.proj_w" in no_local.params
    assert not any(n.startswith("cpgb.conv") for n in no_longrange.params)
    assert no_longrange.parameter_count() < full.parameter_count()


def test_train_rejects_empty_dataset():
    with pytest.raises(DataFormatError):
        tr.train([], micro_config())


def test_train_loss_decreases(small_training_config):
    config = dataclasses.replace(small_training_config, epochs=10)
    data = small_dataset()
    _, metrics = tr.train(data, config)
    first = metrics[0].l_mil_p + metrics[0].l_fml + metrics[0].l_mil_o
    last = metrics[-1].l_mil_p + metrics[-1].l_fml + metrics[-1].l_mil_o
    assert last < first


def test_single_video_overfits():
    config = TrainConfig(tau=20, stride=20, max_frames=60, hidden=16,
                         feature_dim=16, gcn_channels=8, scales=3, n_c=1,
                         epochs=200, lr=1e-2, weight_decay=0.0, seed=1)
    video = small_dataset(n_videos=2, frames=60, seed=5)[:1]
    _, metrics = tr.train(video, config)
    totals = [m.l_mil_p + m.l_fml + m.l_mil_o for m in metrics]
    assert min(totals) < 0.05


def test_training_is_bitwise_deterministic(small_training_config):
    data = small_dataset()
    model_a, metrics_a = tr.train(data, small_training_config)
    model_b, metrics_b = tr.train(data, small_training_config)
    for name in model_a.params:
        np.testing.assert_array_equal(model_a.params[name].values,
                                      model_b.params[name].values)
    assert metrics_a == metrics_b


def test_metrics_csv_format(tmp_path):
    rows = [tr.EpochMetrics(epoch=1, l_mil_p=0.5, l_fml=0.25, l_mil_o=0.125,
                            train_acc=0.75)]
    path = tmp_path / "m.csv"
    tr.write_metrics_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,l_mil_p,l_fml,l_mil_o,train_acc"
    assert lines[1] == "1,0.5,0.25,0.125,0.75"


def test_checkpoint_round_trip(tmp_path, small_training_config):
    data = small_dataset(n_videos=4)
    model, _ = tr.train(data, small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=2)
    loaded, epoch = tr.load_checkpoint(path)
    assert epoch == 2
    assert loaded.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].values,
                                      model.params[name].values)
        np.testing.assert_array_equal(loaded.params[name].adam_m,
                                      model.params[name].adam_m)
        np.testing.assert_array_equal(loaded.params[name].adam_v,
                                      model.params[name].adam_v)
        assert loaded.params[name].step_count == model.params[name].step_count


def test_checkpoint_save_load_save_byte_identical(tmp_path, small_training_config):
    data = small_dataset(n_videos=4)
    model, _ = tr.train(data, small_training_config)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    tr.save_checkpoint(first, model, epoch=2)
    loaded, epoch = tr.load_checkpoint(first)
    tr.save_checkpoint(second, loaded, epoch=epoch)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_inference_identical_after_reload(tmp_path, small_training_config):
    data = small_dataset(n_videos=4)
    model, _ = tr.train(data, small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=1)
    loaded, _ = tr.load_checkpoint(path)
    clips = model.prepare_clips(data[0])
    np.testing.assert_array_equal(model.infer_timeline(clips),
                                  loaded.infer_timeline(clips))


def test_checkpoint_truncated_file_errors(tmp_path, small_training_config):
    model = ActionDetector(small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataFormatError, match="truncated"):
        tr.load_checkpoint(path)


def test_checkpoint_trailing_byte_errors(tmp_path, small_training_config):
    model = ActionDetector(small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataFormatError, match="1 unexpected bytes after the last record"):
        tr.load_checkpoint(path)


def test_checkpoint_failed_save_keeps_old_file(tmp_path, small_training_config,
                                               monkeypatch):
    model = ActionDetector(small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(tr, "_write_record", fail)
    with pytest.raises(OSError, match="disk full"):
        tr.save_checkpoint(path, model, epoch=1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]


def test_checkpoint_bad_magic_errors(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        tr.load_checkpoint(path)


def test_checkpoint_version_mismatch_errors(tmp_path, small_training_config):
    model = ActionDetector(small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="version"):
        tr.load_checkpoint(path)
