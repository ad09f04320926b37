"""Tests of the benchmark's own oracles, tracer and output.

Each oracle is compared with a case worked by hand, and each check must
reject a deliberately corrupted output.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent


def test_clip_interval_follows_tau_and_stride():
    assert checks.clip_interval(1, 20, 20) == (1, 20)
    assert checks.clip_interval(3, 20, 10) == (21, 40)


def test_above_threshold_runs_by_hand():
    runs = checks.above_threshold_runs([0.2, 0.6, 0.7, 0.1, 0.5], 0.5, 20, 20)
    assert runs == [(21, 60, pytest.approx(0.65)), (81, 100, 0.5)]
    assert checks.above_threshold_runs([0.1, 0.2], 0.5, 20, 20) == []


def test_top_k_mean_by_hand():
    assert checks.top_k_mean([0.1, 0.9, 0.5, 0.3], kappa=2) == pytest.approx(0.7)
    assert checks.top_k_mean([0.1, 0.9, 0.5, 0.3], kappa=8) == 0.9


def test_pairwise_auc_counts_ties_half():
    # pairs: .9>.4, .9>.1, .4=.4 (half), .4>.1
    assert checks.pairwise_auc([0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0]) == 3.5 / 4


def test_accuracy_f1_by_hand():
    accuracy, f1 = checks.accuracy_f1([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
    assert accuracy == 0.5
    assert f1 == 0.5     # tp 1, fp 1, fn 1


def test_brute_force_ap_by_hand():
    gt = [("a", 1, 10), ("a", 21, 30), ("b", 1, 10)]
    predictions = [("a", 1, 10, 0.9),     # IoU 1 with segment 0: TP at rank 1
                   ("b", 21, 30, 0.8),    # no overlap: FP
                   ("a", 21, 25, 0.7)]    # IoU 5/10 with segment 1: TP at rank 3 if thr <= .5
    assert checks.brute_force_ap(predictions, gt, 0.5) == pytest.approx((1 + 2 / 3) / 3)
    assert checks.brute_force_ap(predictions, gt, 0.6) == pytest.approx(1 / 3)
    assert checks.brute_force_ap([], [], 0.5) == 1.0


def test_brute_force_ap_agrees_with_program_matcher():
    from wogma.evaluation import ScoredSegment, average_precision

    rng = np.random.default_rng(0)
    for _ in range(20):
        gt = [(f"v{rng.integers(3)}", int(s), int(s + rng.integers(1, 40)))
              for s in rng.integers(1, 200, size=5)]
        predictions = [(f"v{rng.integers(3)}", int(s), int(s + rng.integers(1, 40)),
                        float(rng.random())) for s in rng.integers(1, 200, size=8)]
        for thr in (0.1, 0.3, 0.5):
            program = average_precision(
                [ScoredSegment(v, s, e, score) for v, s, e, score in predictions],
                [ScoredSegment(v, s, e) for v, s, e in gt], thr)
            assert checks.brute_force_ap(predictions, gt, thr) == pytest.approx(program)


def test_directional_derivative_check():
    # f(x) = |x|^2 / 2 has gradient x, so the slope along d is x . d
    rng = np.random.default_rng(1)
    x, d = rng.standard_normal(5), rng.standard_normal(5)

    def along(t):
        return float((x + t * d) @ (x + t * d) / 2)

    assert checks.check_directional_derivative(along, float(x @ d)) == []
    assert checks.check_directional_derivative(along, float(-x @ d))        # wrong sign
    assert checks.check_directional_derivative(along, float("nan"))


def test_directional_derivative_check_skips_a_kink_within_the_step():
    kink = 0.3 * checks.GRAD_STEP
    assert checks.check_directional_derivative(lambda t: abs(t - kink) + t, 0.0) is None


def _stream(probs):
    return [{"clip": i, "start_frame": 20 * i - 19, "end_frame": 20 * i,
             "probs": [1.0 - p, p]} for i, p in enumerate(probs, start=1)]


def test_check_stream_accepts_offline_rows_and_rejects_corruption():
    probs = [0.25, 0.75, 0.5]
    offline = [[1.0 - p, p] for p in probs]
    assert checks.check_stream(_stream(probs), offline, 20, 20) == []

    perturbed = _stream(probs)
    perturbed[1]["probs"] = [0.25, 0.75 + 1e-9]
    assert checks.check_stream(perturbed, offline, 20, 20)
    shifted = _stream(probs)
    shifted[2]["start_frame"] += 1
    assert checks.check_stream(shifted, offline, 20, 20)
    assert checks.check_stream(_stream(probs)[:2], offline, 20, 20)


def test_check_instances_rejects_wrong_score():
    probs = [0.2, 0.6, 0.7]
    instances = [{"video_id": "stdin", "start_frame": 21, "end_frame": 60, "score": 0.65,
                  "class": 1}]
    assert checks.check_instances(instances, "stdin", probs, 0.5, 20, 20) == []
    instances[0]["score"] = 0.66
    assert checks.check_instances(instances, "stdin", probs, 0.5, 20, 20)
    assert checks.check_instances([], "stdin", probs, 0.5, 20, 20)


def _report_case():
    # "p": label 1, segment 1-40, clips .7 .8 .2 -> video prob .8, one run 1-40
    # "n": label 0, no segment, clips .3 .6 .1 -> video prob .6, one run 21-40
    timelines = {"p": [(1, 1, 20, 0.7), (2, 21, 40, 0.8), (3, 41, 60, 0.2)],
                 "n": [(1, 1, 20, 0.3), (2, 21, 40, 0.6), (3, 41, 60, 0.1)]}
    videos = [("p", 1, [(1, 40)]), ("n", 0, [])]
    report = {"accuracy": 0.5, "f1": 2 / 3, "auc": 1.0, "instance_count": 2,
              "map_at": {f"{t:.1f}": 1.0 for t in (0.1, 0.2, 0.3, 0.4, 0.5)},
              "early_curve": [[0.5, 1.0], [1.0, 1.0]]}
    return report, timelines, videos


def test_check_report_by_hand():
    report, timelines, videos = _report_case()
    assert checks.check_report(report, timelines, videos, 0.5, 20, 20, 8) == []


@pytest.mark.parametrize("key, value", [("auc", 0.5), ("f1", 1.0), ("instance_count", 3),
                                        ("map_at", {"0.5": 0.9}),
                                        ("early_curve", [[1.0, 0.5]])])
def test_check_report_rejects_corruption(key, value):
    report, timelines, videos = _report_case()
    report[key] = value
    assert checks.check_report(report, timelines, videos, 0.5, 20, 20, 8)


def test_check_report_agrees_with_program_report():
    from wogma.evaluation import VideoResult, build_report
    from wogma.lfem import ClipWindowing
    from wogma.oamb import extract_instances

    report, timelines, videos = _report_case()
    results = []
    for video_id, label, segments in videos:
        probs = np.array([r[3] for r in timelines[video_id]])
        timeline = np.stack([1.0 - probs, probs], axis=1)
        results.append(VideoResult(
            video_id=video_id, label=label, timeline=timeline,
            video_prob=checks.top_k_mean(list(probs), 8),
            instances=extract_instances(timeline, 0.5, ClipWindowing(20, 20)),
            gt_segments=[(s, e, 1) for s, e in segments]))
    program = json.loads(build_report(results, [0.5, 1.0], 8).to_json())
    assert checks.check_report(program, timelines, videos, 0.5, 20, 20, 8) == []


def test_self_time_subtracts_children_and_same_layer_calls_open_no_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "lfem.inner")
    sibling = tracer.wrap(lambda: inner(), "lfem.sibling")   # same layer: no span
    outer = tracer.wrap(lambda: (inner(), sibling()), "cpgb.outer")
    outer()
    # outer 0..5 holds inner 1..2 and sibling 3..4 (whose inner opened no span)
    assert [s[0] for s in tracer.spans] == ["cpgb.outer", "lfem.inner", "lfem.sibling"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert tracer.self_times() == [3.0, 1.0, 1.0]
    assert tracer.totals()["cpgb.outer"] == (1, 3.0, 0)


def test_install_wraps_every_binding_and_remove_restores_it():
    from wogma import cli, trainer

    original = trainer.load_checkpoint
    tracer = Tracer()
    tracer.install([(trainer, "load_checkpoint", "trainer.load_checkpoint", None)])
    assert cli.load_checkpoint is trainer.load_checkpoint is not original
    tracer.remove()
    assert cli.load_checkpoint is trainer.load_checkpoint is original


def test_benchmark_json_names_the_metrics_a_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = workloads.Run(unit="video", done=1, busy_s=1.0, setup_s=[1.0], unit_s=[1.0],
                        tracer=Tracer())
    end_to_end = dict(run.end_to_end(1.0), peak_rss_mb=(1.0, "MB"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in run.per_layer(1.0).items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_eval_run_passes_its_checks(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval-files", "--seed", "3",
         "--seconds", "0.3", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["metrics"]["dataset.load_sequences_ms"]["value"] > 0
