import csv
import dataclasses
import hashlib
import json
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adam_oracle import PerParameterAdam
from conftest import (checkpoint_field_ranges, corrupt_saved_checkpoint, micro_clips,
                      micro_config, micro_model)
from lstm_oracle import per_step_node, per_step_timeline
from wogma import autodiff as ad
from wogma import trainer as tr
from wogma.autodiff import Parameter
from wogma.config import RunConfig, TrainConfig, train_config_from_dict
from wogma.dataset import SynthParams, synthesize
from wogma.errors import ConfigurationError, DataFormatError
from wogma.model import ActionDetector
from wogma.oamb import OnlineBranch


def small_dataset(n_videos=8, frames=120, seed=3):
    return synthesize(SynthParams(n_videos=n_videos, frames=frames, seed=seed,
                                  segment_len_min=40, segment_len_max=60))


def test_adam_zero_grad_zero_decay_keeps_parameters():
    p = Parameter(np.array([1.0, -2.0]), name="w")
    config = micro_config(weight_decay=0.0)
    tr.adam_step(tr.ParameterArena([p]), config)
    np.testing.assert_array_equal(p.values, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    p = Parameter(np.array([0.5, -0.5]), name="w")
    arena = tr.ParameterArena([p])
    p.tensor.grad[...] = [0.3, -0.7]
    config = micro_config(lr=1e-3, weight_decay=0.0)
    tr.adam_step(arena, config)
    np.testing.assert_allclose(p.values, [0.5 - 1e-3, -0.5 + 1e-3], rtol=1e-6)
    assert arena.step_count == 1


def test_adam_weight_decay_pulls_towards_zero():
    p = Parameter(np.array([2.0]), name="w")
    config = micro_config(lr=1e-3, weight_decay=0.1)
    tr.adam_step(tr.ParameterArena([p]), config)
    assert p.values[0] < 2.0


# 0-d, single-element and small parameters, several in one arena
param_shapes = st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple),
                        min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(shapes=param_shapes, seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4),
       grad_scale=st.sampled_from([1.0, 0.5]), weight_decay=st.sampled_from([0.0, 0.1]),
       block_elements=st.integers(1, 7))
def test_arena_adam_equals_per_parameter_oracle(shapes, seed, steps, grad_scale,
                                                weight_decay, block_elements):
    rng = np.random.default_rng(seed)
    initial = [rng.standard_normal(shape) for shape in shapes]
    oracle = PerParameterAdam(Parameter(np.array(a)) for a in initial)
    params = [Parameter(np.array(a)) for a in initial]
    arena = tr.ParameterArena(params)
    config = micro_config(lr=1e-2, weight_decay=weight_decay)
    # blocks of a few elements straddle the parameters' boundaries
    with mock.patch.object(tr, "ADAM_BLOCK_BYTES", 8 * block_elements):
        for _ in range(steps):
            for expected, p in zip(oracle.params, params):
                if rng.random() < 0.3:  # this parameter received no gradient
                    expected.tensor.grad = None
                else:
                    expected.tensor.grad = rng.standard_normal(p.values.shape)
                    p.tensor.grad[...] = expected.tensor.grad
            oracle.step(config, grad_scale)
            tr.adam_step(arena, config, grad_scale)
            tr.zero_grads(params)
    for want, got in (([p.values for p in oracle.params], [p.values for p in params]),
                      (oracle.adam_m, arena.views(arena.adam_m)),
                      (oracle.adam_v, arena.views(arena.adam_v))):
        for expected, actual in zip(want, got):
            assert expected.shape == actual.shape
            assert expected.tobytes() == actual.tobytes()
    assert oracle.step_count == arena.step_count == steps


def test_arena_moments_zero_initialised():
    p = Parameter(np.ones((2, 2)), name="w")
    assert Parameter.__slots__ == ("name", "tensor")   # no optimiser state
    arena = tr.ParameterArena([p])
    (adam_m,), (adam_v,) = arena.views(arena.adam_m), arena.views(arena.adam_v)
    assert np.array_equal(adam_m, np.zeros((2, 2)))
    assert np.array_equal(adam_v, np.zeros((2, 2)))
    assert arena.step_count == 0


def test_arena_keeps_values_moments_and_step_count():
    rng = np.random.default_rng(4)
    params = [Parameter(rng.standard_normal(shape), name)
              for shape, name in (((2, 3), "a"), ((), "b"), ((4,), "c"))]
    before = [p.values.copy() for p in params]
    arena = tr.ParameterArena(params)
    assert arena.params == params
    for p, values, adam_m, adam_v in zip(params, before, arena.views(arena.adam_m),
                                         arena.views(arena.adam_v)):
        assert p.values.tobytes() == values.tobytes()
        for view, flat in ((p.values, arena.values), (p.tensor.grad, arena.grad),
                           (adam_m, arena.adam_m), (adam_v, arena.adam_v)):
            assert view.shape == values.shape and np.shares_memory(view, flat)
            assert view.ctypes.data % tr.ARENA_ALIGN_BYTES == 0
    assert arena.step_count == 0


def test_adam_step_makes_no_parameter_sized_temporary():
    config = TrainConfig()  # the paper point: 4.5 M parameters
    arena = tr.ParameterArena(ActionDetector(config).parameters())
    tracemalloc.start()
    try:
        tr.adam_step(arena, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = 2 * tr.ADAM_BLOCK_BYTES
    assert peak < 2 * scratch


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


def per_step_branch_timeline(oracle):
    def timeline(branch, features):
        p = branch.params
        return oracle(features, p["oamb.w_ih"], p["oamb.w_hh"], p["oamb.b"],
                      p["oamb.w_a"], p["oamb.b_a"])
    return timeline


def train_digests(tmp_path, name, data, config):
    model, metrics = tr.train(data, config)
    tr.save_checkpoint(tmp_path / f"{name}.bin", model, epoch=config.epochs)
    tr.write_metrics_csv(tmp_path / f"{name}.csv", metrics)
    return [hashlib.sha256((tmp_path / f"{name}.{ext}").read_bytes()).hexdigest()
            for ext in ("bin", "csv")]


@pytest.mark.parametrize("batch_size", [1, 2])
def test_one_node_timeline_keeps_training_trajectory(tmp_path, small_training_config,
                                                      batch_size, monkeypatch):
    # lstm_timeline adds a video's whole weight gradient once: at batch size 1
    # it starts from zero and gives the per-step tape's bits; at 2 the second
    # video's sum is added to the first one's, as per_step_node adds it
    config = dataclasses.replace(small_training_config, batch_size=batch_size)
    data = small_dataset()
    one_node = train_digests(tmp_path, "one-node", data, config)
    oracle = per_step_timeline if batch_size == 1 else per_step_node
    monkeypatch.setattr(OnlineBranch, "timeline", per_step_branch_timeline(oracle))
    assert one_node == train_digests(tmp_path, "per-step", data, config)


def test_follower_keeps_training_bitwise(tmp_path, small_training_config, monkeypatch):
    # every block of one gradient row on the follower, the worker thread of
    # lstm_timeline's weight-gradient sums, against the default blocks and
    # split; no follower outlives its backward pass
    data = small_dataset()
    default = train_digests(tmp_path, "default", data, small_training_config)
    add_outer_sums = ad._add_outer_sums
    monkeypatch.setattr(ad, "OUTER_BLOCK_BYTES", 1)
    monkeypatch.setattr(ad, "_add_outer_sums",
                        lambda worker_jobs, own_jobs: add_outer_sums(worker_jobs + own_jobs, []))
    assert train_digests(tmp_path, "worker", data, small_training_config) == default
    assert not [t for t in threading.enumerate() if t.name == "lstm-outer-sums"]


def test_metrics_csv_reads_back_as_floats(tmp_path, small_training_config):
    config = dataclasses.replace(small_training_config, epochs=1)
    _, metrics = tr.train(small_dataset(n_videos=2), config)
    path = tmp_path / "metrics.csv"
    tr.write_metrics_csv(path, metrics)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    row = metrics[0]
    assert [float(rows[0][k]) for k in ("l_mil_p", "l_fml", "l_mil_o", "train_acc")] == [
        row.l_mil_p, row.l_fml, row.l_mil_o, row.train_acc]


def test_training_keeps_every_gradient_in_the_arena(small_training_config):
    # backward passes accumulate into views of one arena gradient buffer,
    # which zero_grads clears in place, so adam_step reads every gradient
    config = dataclasses.replace(small_training_config, epochs=2)
    model = ActionDetector(config)
    bases = []
    tr.train(small_dataset(n_videos=2), config, model=model,
             progress=lambda row: bases.extend(p.tensor.grad.base for p in model.parameters()))
    assert bases[0] is not None and all(base is bases[0] for base in bases)


def test_trained_model_holds_no_gradient(small_training_config):
    # inference reads no gradient, so train unbinds the arena's gradient
    # views and the buffer goes with the call, also when training stops on
    # an exception
    config = dataclasses.replace(small_training_config, epochs=2)
    model, _ = tr.train(small_dataset(n_videos=2), config)
    assert all(p.tensor.grad is None for p in model.parameters())

    class Stop(Exception):
        pass

    def stop(row):
        raise Stop

    model = ActionDetector(config)
    with pytest.raises(Stop):
        tr.train(small_dataset(n_videos=2), config, model=model, progress=stop)
    assert all(p.tensor.grad is None for p in model.parameters())


def test_weights_only_load_trains_from_adam_step_one(tmp_path, small_training_config):
    # a checkpoint holds the weights only, and every train call starts Adam
    # at step 1, so training what was loaded is training what was saved
    config = dataclasses.replace(small_training_config, epochs=1)
    data = small_dataset(n_videos=4)
    model, _ = tr.train(data, config)
    tr.save_checkpoint(tmp_path / "first.bin", model, epoch=1)
    loaded, _ = tr.load_checkpoint(tmp_path / "first.bin")
    outputs = []
    for start in (loaded, model):
        trained, _ = tr.train(data, config, model=start)
        tr.save_checkpoint(tmp_path / "second.bin", trained, epoch=2)
        outputs.append((tmp_path / "second.bin").read_bytes())
    assert outputs[0] == outputs[1]


def test_checkpoint_at_step_zero_stores_no_moments(tmp_path, small_training_config):
    # the file is the header and the values records, trained or not: no Adam
    # state is stored
    config = dataclasses.replace(small_training_config, epochs=1)
    untrained = ActionDetector(config)
    trained, _ = tr.train(small_dataset(n_videos=2), config)
    config_bytes = len(json.dumps(dataclasses.asdict(config), sort_keys=True))
    records = sum(8 + len(name) + 4 * p.values.ndim + p.values.nbytes
                  for name, p in untrained.params.items())
    for model in (untrained, trained):
        tr.save_checkpoint(tmp_path / "ck.bin", model, epoch=0)
        assert (tmp_path / "ck.bin").stat().st_size == 4 + 4 + 4 + config_bytes + 4 + records


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


def test_checkpoint_save_load_save_byte_identical(tmp_path, small_training_config):
    data = small_dataset(n_videos=4)
    model, _ = tr.train(data, small_training_config)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    tr.save_checkpoint(first, model, epoch=2)
    loaded, epoch = tr.load_checkpoint(first)
    tr.save_checkpoint(second, loaded, epoch=epoch)
    assert first.read_bytes() == second.read_bytes()


def test_model_without_optimizer_saves_zero_moments(tmp_path, small_training_config):
    # a model holds no Adam state, so a loaded model saves its values and
    # nothing else: the file is the header and the values records
    config = dataclasses.replace(small_training_config, epochs=1)
    model, _ = tr.train(small_dataset(n_videos=2), config)
    tr.save_checkpoint(tmp_path / "trained.bin", model, epoch=1)
    loaded, _ = tr.load_checkpoint(tmp_path / "trained.bin")
    tr.save_checkpoint(tmp_path / "weights.bin", loaded, epoch=1)
    again, _ = tr.load_checkpoint(tmp_path / "weights.bin")
    config_bytes = len(json.dumps(dataclasses.asdict(config), sort_keys=True))
    records = sum(8 + len(name) + 4 * p.values.ndim + p.values.nbytes
                  for name, p in model.params.items())
    assert (tmp_path / "weights.bin").stat().st_size == 4 + 4 + 4 + config_bytes + 4 + records
    for name, param in model.params.items():
        assert again.params[name].values.tobytes() == param.values.tobytes()
    # an untrained model's file is unchanged by the round trip
    untrained = ActionDetector(config)
    tr.save_checkpoint(tmp_path / "untrained.bin", untrained, epoch=0)
    tr.save_checkpoint(tmp_path / "again.bin",
                       tr.load_checkpoint(tmp_path / "untrained.bin")[0], epoch=0)
    assert (tmp_path / "untrained.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()


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


@pytest.mark.parametrize("version", [1, 2, 99])
def test_checkpoint_version_mismatch_errors(tmp_path, small_training_config, version):
    # versions 1 and 2 also stored Adam state; neither is read
    model = ActionDetector(small_training_config)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    blob = bytearray(path.read_bytes())
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError,
                       match=f"unsupported checkpoint version {version}, expected 3"):
        tr.load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A trained micro model's checkpoint: its path, its bytes and the
    offset of every byte outside the float payloads."""
    data = synthesize(SynthParams(n_videos=2, frames=12, seed=3, segment_len_min=4,
                                  segment_len_max=8))
    model, _ = tr.train(data, micro_config(epochs=1))
    path = tmp_path_factory.mktemp("tiny") / "ck.bin"
    tr.save_checkpoint(path, model, epoch=3)
    blob = path.read_bytes()
    fields = [i for start, stop in checkpoint_field_ranges(blob, model)
              for i in range(start, stop)]
    return path, blob, fields


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_any_truncation_raises_data_format_error(tiny_checkpoint, data):
    path, blob, _ = tiny_checkpoint
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(DataFormatError):
        tr.load_checkpoint(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=st.integers(0, 255))
def test_checkpoint_any_byte_overwrite_loads_or_raises_a_documented_error(
        tiny_checkpoint, data, value):
    path, blob, fields = tiny_checkpoint
    # half the draws land on a length, name or dim, not on a payload
    position = data.draw(st.one_of(st.sampled_from(fields), st.integers(0, len(blob) - 1)))
    corrupted = bytearray(blob)
    corrupted[position] = value
    path.write_bytes(bytes(corrupted))
    try:
        tr.load_checkpoint(path)
    except (DataFormatError, ConfigurationError):
        pass


def test_checkpoint_missing_file_errors(tmp_path):
    path = tmp_path / "missing.bin"
    with pytest.raises(DataFormatError, match=re.escape(f"cannot read checkpoint {path}: ")):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("kind, message", [
    ("config-not-utf8", "config is not UTF-8"),
    ("config-not-json", "config is not valid JSON"),
    ("config-not-object", "config must be a JSON object"),
    ("name-not-utf8", "record name is not UTF-8"),
    ("name-mismatch", "parameter names do not match the config"),
    ("values-shape", r"shape mismatch for 'lfem\.[^']*'"),
])
def test_checkpoint_malformed_field_errors(tmp_path, kind, message):
    model = ActionDetector(micro_config())
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    path.write_bytes(corrupt_saved_checkpoint(path.read_bytes(), model, kind))
    with pytest.raises(DataFormatError, match=message):
        tr.load_checkpoint(path)


def traced_peak(action) -> int:
    """Peak bytes that tracemalloc sees while `action()` runs."""
    tracemalloc.start()
    try:
        action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


HIDDEN_256 = TrainConfig(hidden=256, seed=1)


def test_load_checkpoint_holds_no_copy_of_the_records(tmp_path):
    # each payload is read into the model's own arrays, so the load peaks at
    # those arrays: no whole-file buffer and no per-record copies. The model
    # is saved as training leaves it, its values in an arena that has taken
    # an Adam step
    model = ActionDetector(HIDDEN_256)
    tr.adam_step(tr.ParameterArena(model.parameters()), HIDDEN_256)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    values_bytes = sum(p.values.nbytes for p in model.parameters())
    del model
    assert traced_peak(lambda: tr.load_checkpoint(path)) <= 1.1 * values_bytes


def test_weights_only_load_holds_only_the_values(tmp_path):
    # an untrained model's weights are read into arrays that were never
    # initialised
    model = ActionDetector(HIDDEN_256)
    path = tmp_path / "ck.bin"
    tr.save_checkpoint(path, model, epoch=0)
    values_bytes = sum(p.values.nbytes for p in model.parameters())
    del model
    assert traced_peak(lambda: tr.load_checkpoint(path)) <= 1.1 * values_bytes


def test_building_the_model_holds_only_its_values():
    # no Adam moments and no initialisation temporaries
    values_bytes = sum(p.values.nbytes for p in ActionDetector(HIDDEN_256).parameters())
    assert traced_peak(lambda: ActionDetector(HIDDEN_256)) <= 1.1 * values_bytes


def test_saving_without_optimizer_makes_no_parameter_sized_buffer(tmp_path):
    model = ActionDetector(HIDDEN_256)
    largest = max(p.values.nbytes for p in model.parameters())
    peak = traced_peak(lambda: tr.save_checkpoint(tmp_path / "ck.bin", model, epoch=0))
    assert peak < 512 * 1024 < largest


def test_config_float_field_takes_an_integer():
    assert train_config_from_dict({"lr": 1, "weight_decay": 0}).lr == 1


@pytest.mark.parametrize("changes, message", [
    ({"hidden": 0}, "hidden must be >= 1, got 0"),
    ({"lr": float("nan")}, "config key 'lr' must be a finite number, got nan"),
    ({"ablate_local": 1}, "config key 'ablate_local' must be true or false, got 1"),
    ({"conv_kernel": 2}, "conv_kernel must be odd, got 2"),
    ({"max_frames": 10}, "max_frames (10) must be >= tau (20)"),
], ids=["hidden-0", "lr-nan", "ablate-int", "kernel-even", "frames-below-tau"])
@pytest.mark.parametrize("build", ["constructor", "replace"])
def test_train_config_checks_itself_when_built(build, changes, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        if build == "constructor":
            TrainConfig(**changes)
        else:
            dataclasses.replace(TrainConfig(), **changes)


@pytest.mark.parametrize("settings, field", [
    (TrainConfig(), "hidden"), (RunConfig(), "out_dir"), (SynthParams(), "noise")],
    ids=["TrainConfig", "RunConfig", "SynthParams"])
def test_settings_are_frozen(settings, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(settings, field, getattr(settings, field))
