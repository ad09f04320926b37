"""The benchmark's workloads.

Each workload makes its inputs from the seed, sets the program up several
times, drives it through its public entry points for the run's seconds and
then checks what the program returned or wrote against `checks`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wogma import (ActionDetector, SynthParams, TrainConfig, cli, cpgb, evaluation, lfem,
                   oamb, save_checkpoint, save_sequences, synthesize, trainer)
from wogma import dataset as wogma_dataset
from wogma.autodiff import Tape
from wogma.errors import ConfigurationError, DataFormatError, NumericalError

import checks
from spans import Tracer

clock = time.perf_counter

SETUP_REPEATS = 9
# A run measures whole operations until its seconds have passed, and at least
# this many, so that each run has a median (a train-paper step takes ~9 s).
MIN_OPERATIONS = 3
# train() is stopped from its progress callback once the run's time is up.
EPOCH_CAP = 10**9
# The acceptance point of criteria 6 and 8; the paper point is TrainConfig's defaults.
ACCEPTANCE = dict(hidden=128, max_frames=600)
# workload: (config, videos, Pace kernel)
TRAIN_POINTS = {"train-acceptance": (ACCEPTANCE, 8, "compute"), "train-paper": ({}, 1, "memory")}
DETECT_VIDEOS = 2
EVAL_VIDEOS = 12

# (metric, span, unit, factor, denominator): self time of the named spans per
# call, or per item of work the spans report ("count": videos loaded or scored).
LAYER_TIMES = [
    ("dataset.load_sequences_ms", "dataset.load_sequences", "ms", 1e3, "count"),
    ("dataset.prepare_clips_ms", "dataset.prepare_clips", "ms", 1e3, "call"),
    ("lfem.extract_ms", "lfem.extract", "ms", 1e3, "call"),
    ("cpgb.clip_scores_ms", "cpgb.clip_scores", "ms", 1e3, "call"),
    ("cpgb.mil_loss_ms", "cpgb.mil_loss", "ms", 1e3, "call"),
    ("oamb.timeline_ms", "oamb.timeline", "ms", 1e3, "call"),
    ("oamb.stream_ms", "oamb.stream", "ms", 1e3, "call"),
    ("oamb.online_step_us", "oamb.online_step", "us", 1e6, "call"),
    ("autodiff.backward_ms", "autodiff.backward", "ms", 1e3, "call"),
    ("trainer.joint_loss_ms", "trainer.joint_loss", "ms", 1e3, "call"),
    ("trainer.adam_step_ms", "trainer.adam_step", "ms", 1e3, "call"),
    ("trainer.load_checkpoint_ms", "trainer.load_checkpoint", "ms", 1e3, "call"),
    ("evaluation.score_videos_ms", "evaluation.score_videos", "ms", 1e3, "count"),
    ("evaluation.build_report_ms", "evaluation.build_report", "ms", 1e3, "call"),
]


def trace_targets():
    """(owner, attribute, span name, count) of each traced entry point."""
    return [
        (wogma_dataset, "load_sequences", "dataset.load_sequences", lambda a, r: len(r)),
        (ActionDetector, "prepare_clips", "dataset.prepare_clips", None),
        (lfem.LocalFeatureExtractor, "extract", "lfem.extract", None),
        (cpgb.PseudoLabelBranch, "clip_scores", "cpgb.clip_scores", None),
        (cpgb, "mil_loss", "cpgb.mil_loss", None),
        (oamb.OnlineBranch, "timeline", "oamb.timeline", None),
        (oamb.OnlineBranch, "stream", "oamb.stream", None),
        (oamb.OnlineBranch, "online_step", "oamb.online_step", None),
        (Tape, "backward", "autodiff.backward", lambda a, r: len(a[0])),
        (trainer, "joint_loss", "trainer.joint_loss", None),
        (trainer, "adam_step", "trainer.adam_step", None),
        (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
        (evaluation, "score_videos", "evaluation.score_videos", lambda a, r: len(r)),
        (evaluation, "build_report", "evaluation.build_report", None),
    ]


class Pace:
    """The machine's speed, from fixed kernels timed between operations.

    The host is shared, and its speed drifts by 20% and more within minutes.
    A run's times are multiplied by a kernel's nominal time over its median
    time in that run, so they read as at the speed the kernel had when the
    nominal time was measured: drift between runs cancels, a change in the
    program does not. The compute and the memory speed of the host drift
    apart, so each workload is scaled by the kernel that matches its working
    set:

    - compute: 20 products of 192 x 192 matrices. The acceptance point's
      arrays stay in cache, and its time goes to the interpreter and to small
      matrix products.
    - memory: 3 rank-1 updates of a fresh 1024 x 4096 buffer, the shape of
      the paper point's w_hh, which its workloads stream at every clip. The
      buffer lives only while the kernel runs, between operations, so it
      stays below the program's peak RSS.
    """

    NOMINAL_S = {"compute": 0.007, "memory": 0.055}   # 1 BLAS thread, 2-core Xeon VM

    def __init__(self, kernel: str = "compute"):
        self.kernel = kernel
        rng = np.random.default_rng(0)
        self._matrix = rng.random((192, 192))
        self._u, self._v = rng.random(1024), rng.random(4096)
        self.samples: dict[str, list[float]] = {name: [] for name in {"compute", kernel}}

    def sample(self, repeats: int = 2) -> None:
        for _ in range(repeats):
            start = clock()
            for _ in range(20):
                self._matrix @ self._matrix
            self.samples["compute"].append(clock() - start)
            if self.kernel == "memory":
                start = clock()
                buffer = np.zeros((self._u.size, self._v.size))
                for _ in range(3):
                    buffer += np.outer(self._u, self._v)
                self.samples["memory"].append(clock() - start)

    def scale(self) -> float:
        return self.NOMINAL_S[self.kernel] / statistics.median(self.samples[self.kernel])


@dataclass
class Run:
    """What one run of a workload measured and found."""

    unit: str                                  # the unit of work: a video or a clip
    attempted: int = 0
    failed: int = 0
    done: int = 0
    busy_s: float = 0.0                        # time spent on the measured work
    setup_s: list[float] = field(default_factory=list)
    unit_s: list[float] = field(default_factory=list)   # per operation, per unit
    problems: list[str] = field(default_factory=list)
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    tracer: Tracer | None = None
    io_s: float = 0.0                          # detect-stream: latency outside LFEM and OAMB
    pace: Pace = field(default_factory=Pace)

    def end_to_end(self, scale: float) -> dict[str, tuple[float, str]]:
        """setup_s, throughput_per_s and latency_p50_ms, times multiplied by `scale`."""
        return {
            "setup_s": (statistics.median(self.setup_s) * scale, "s"),
            "throughput_per_s": (self.done / (self.busy_s * scale), "1/s"),
            "latency_p50_ms": (statistics.median(self.unit_s) * 1e3 * scale, "ms"),
        }

    def per_layer(self, scale: float) -> dict[str, tuple[float, str]]:
        """The traced run's layer figures, times multiplied by `scale`."""
        totals = self.tracer.totals()
        out = {}
        for metric, span, unit, factor, per in LAYER_TIMES:
            calls, seconds, count = totals.get(span, (0, 0.0, 0))
            denominator = count if per == "count" else calls
            out[metric] = (seconds * factor * scale / denominator if denominator else 0.0, unit)
        calls, _, nodes = totals.get("autodiff.backward", (0, 0.0, 0))
        out["autodiff.tape_nodes"] = (nodes / calls if calls else 0.0, "count")
        out["cli.detect_io_us"] = (self.io_s * 1e6 * scale / self.done, "us")
        out["trace.spans"] = (len(self.tracer.spans) / self.done, "count")
        out["trace.unit_ms"] = (statistics.median(self.unit_s) * 1e3 * scale, "ms")
        return out


@contextlib.contextmanager
def traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    tracer.install(trace_targets())
    try:
        yield
    finally:
        tracer.remove()


def timed_setups(build) -> tuple[list[float], object]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        built = build()
        times.append(clock() - start)
    return times, built


# ---------------------------------------------------------------------------
# train-acceptance, train-paper
# ---------------------------------------------------------------------------

class _TimeUp(Exception):
    pass


def gradient_problems(model: ActionDetector, video, seed: int, tries: int = 3) -> list[str]:
    """joint_loss + Tape.backward against central differences of the loss along
    a random unit direction; a direction that meets a kink is replaced by a
    fresh one. Leaves the parameters as found and their gradients zero."""
    clips = model.prepare_clips(video)
    labels = np.asarray(video.labels)
    params = model.parameters()
    with Tape() as tape:
        loss, _ = trainer.joint_loss(model, clips, labels)
    tape.backward(loss)
    grads = [np.zeros_like(p.values) if p.tensor.grad is None else p.tensor.grad.copy()
             for p in params]
    trainer.zero_grads(params)
    base = [p.values.copy() for p in params]

    def unit(arrays):
        norm = math.sqrt(sum(float((a * a).sum()) for a in arrays))
        return [a / norm for a in arrays]

    def loss_along(step: float) -> float:
        for p, b, d in zip(params, base, direction):
            p.tensor.values[...] = b + step * d
        return float(trainer.joint_loss(model, clips, labels)[0].values)

    rng = np.random.default_rng(seed)
    try:
        for _ in range(tries):
            direction = unit([rng.standard_normal(g.shape) for g in grads])
            slope = sum(float((g * d).sum()) for g, d in zip(grads, direction))
            problems = checks.check_directional_derivative(loss_along, slope)
            if problems is not None:
                return problems
    finally:
        for p, b in zip(params, base):
            p.tensor.values[...] = b
    return [f"each of {tries} probe directions meets a kink of the loss"]


def run_train(name: str, seed: int, seconds: float, tracer, workdir: Path) -> Run:
    point, count, kernel = TRAIN_POINTS[name]
    config = TrainConfig(seed=seed, epochs=EPOCH_CAP, **point)
    videos = synthesize(SynthParams(n_videos=count, frames=config.max_frames, seed=seed))
    run = Run(unit="video", tracer=tracer, pace=Pace(kernel))
    run.pace.sample()
    run.setup_s, model = timed_setups(lambda: ActionDetector(config))
    run.problems += gradient_problems(model, videos[0], seed)
    run.pace.sample()

    stamps, resumes = [], []

    def progress(row):
        stamps.append(clock())
        losses = (row.l_mil_p, row.l_fml, row.l_mil_o)
        if not all(math.isfinite(v) for v in losses):
            run.problems.append(f"epoch {row.epoch}: non-finite mean losses {losses}")
        if len(stamps) >= MIN_OPERATIONS and stamps[-1] - begin >= seconds:
            raise _TimeUp
        run.pace.sample()
        resumes.append(clock())

    with traced(tracer):
        begin = clock()
        try:
            trainer.train(videos, config, model=model, progress=progress)
        except _TimeUp:
            pass
        except (ConfigurationError, DataFormatError, NumericalError) as exc:
            run.failed += count
            run.attempted += count
            print(f"train failed after {len(stamps)} epochs: {exc}", file=sys.stderr)
    run.pace.sample()
    epochs = [end - start for start, end in zip([begin] + resumes, stamps)]
    run.unit_s = [epoch / count for epoch in epochs]
    run.done = count * len(stamps)
    run.attempted += run.done
    run.busy_s = sum(epochs)
    run.figures["train_videos_per_s"] = (run.done / run.busy_s, "videos/s")
    return run


# ---------------------------------------------------------------------------
# detect-stream
# ---------------------------------------------------------------------------

class ClipFeed:
    """stdin stand-in: hands over one clip line per readline and notes when."""

    def __init__(self, lines: list[str]):
        self.lines = lines
        self.stamps: list[float] = []

    def readline(self) -> str:
        if len(self.stamps) == len(self.lines):
            return ""
        self.stamps.append(clock())
        return self.lines[len(self.stamps) - 1]


class RecordSink:
    """stdout stand-in: keeps each record and notes when it was written."""

    def __init__(self):
        self.records: list[str] = []
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        self.stamps.append(clock())
        self.records.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@contextlib.contextmanager
def stdio(stdin, stdout):
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = stdin, stdout
    try:
        yield
    finally:
        sys.stdin, sys.stdout = saved


def run_detect(name: str, seed: int, seconds: float, tracer, workdir: Path) -> Run:
    """`wogma detect --stdin` on a paper-scale checkpoint: one closed-loop
    client streams the preprocessed clips of one video per session."""
    config = TrainConfig(seed=seed)
    model = ActionDetector(config)
    checkpoint = workdir / "checkpoint.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    sessions = []
    for video in synthesize(SynthParams(n_videos=DETECT_VIDEOS, frames=config.max_frames,
                                        seed=seed)):
        clips = model.prepare_clips(video)
        lines = [json.dumps({"frames": clip.tolist()}) + "\n" for clip in clips]
        sessions.append((lines, model.infer_timeline(clips).tolist()))
    del model   # the benchmark's copy would otherwise count in the program's peak RSS
    # the untrained detector's action probabilities sit in a narrow band, so
    # threshold at their median to make instances appear
    threshold = float(np.median([row[1] for _, offline in sessions for row in offline]))
    argv = ["detect", "--checkpoint", str(checkpoint), "--stdin", "--out-dir", str(workdir),
            "--instance-threshold", repr(threshold)]

    run = Run(unit="clip", tracer=tracer, pace=Pace("memory"))
    run.pace.sample()
    latencies, outputs = [], []
    with traced(tracer):
        begin = clock()
        for session in itertools.count():
            if session >= MIN_OPERATIONS and clock() - begin >= seconds:
                break
            lines, _ = sessions[session % len(sessions)]
            feed, sink = ClipFeed(lines), RecordSink()
            start = clock()
            with stdio(feed, sink):
                code = cli.main(argv)
            end = clock()
            run.pace.sample()
            run.attempted += len(lines)
            if code != 0 or len(sink.records) != len(lines):
                run.failed += len(lines)
                print(f"detect exited {code} after {len(sink.records)} records",
                      file=sys.stderr)
                continue
            outputs.append((session, sink.records, (workdir / "instances.json").read_text()))
            run.setup_s.append(feed.stamps[0] - start)
            latencies += [w - h for w, h in zip(sink.stamps, feed.stamps)]
            run.busy_s += end - feed.stamps[0]
            run.done += len(lines)
    run.unit_s = latencies
    if tracer is not None:
        totals = tracer.totals()
        run.io_s = sum(latencies) - sum(totals.get(span, (0, 0.0, 0))[1]
                                        for span in ("lfem.extract", "oamb.online_step"))

    for session, records, instances in outputs:
        _, offline = sessions[session % len(sessions)]
        parsed = [json.loads(r) for r in records]
        run.problems += checks.check_stream(parsed, offline, config.tau, config.stride)
        run.problems += checks.check_instances(
            json.loads(instances), "stdin", [r["probs"][1] for r in parsed], threshold,
            config.tau, config.stride)
    p99 = float(np.percentile(latencies, 99))
    run.figures["clip_latency_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
    run.figures["clip_latency_p99_ms"] = (p99 * 1e3, "ms")
    run.figures["clips_beyond_p99"] = (sum(1 for v in latencies if v > p99), "count")
    return run


# ---------------------------------------------------------------------------
# eval-files
# ---------------------------------------------------------------------------

def read_timelines(path: Path) -> dict[str, list[tuple[int, int, int, float]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        column = header.index("prob_class_1")
        out: dict[str, list] = {}
        for row in reader:
            out.setdefault(row[0], []).append(
                (int(row[1]), int(row[2]), int(row[3]), float(row[column])))
    return out


def run_eval(name: str, seed: int, seconds: float, tracer, workdir: Path) -> Run:
    """`wogma eval` on a JSONL test set at the acceptance point."""
    config = TrainConfig(seed=seed, **ACCEPTANCE)
    model = ActionDetector(config)
    checkpoint = workdir / "checkpoint.bin"
    save_checkpoint(checkpoint, model, epoch=0)
    videos = synthesize(SynthParams(n_videos=EVAL_VIDEOS, frames=config.max_frames, seed=seed))
    data = workdir / "test.jsonl"
    save_sequences(data, videos)
    # as in detect-stream: a median threshold makes most videos yield instances
    threshold = float(np.median(np.concatenate(
        [model.infer_timeline(model.prepare_clips(v))[:, 1] for v in videos])))
    out_dir = workdir / "eval"
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
            "--out-dir", str(out_dir), "--instance-threshold", repr(threshold)]

    run = Run(unit="video", tracer=tracer)
    run.pace.sample()
    run.setup_s, _ = timed_setups(lambda: trainer.load_checkpoint(checkpoint))
    reports = []
    with traced(tracer):
        begin = clock()
        for call in itertools.count():
            if call >= MIN_OPERATIONS and clock() - begin >= seconds:
                break
            printed = io.StringIO()
            start = clock()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            elapsed = clock() - start
            run.pace.sample()
            run.attempted += len(videos)
            if code != 0:
                run.failed += len(videos)
                print(f"eval exited {code}", file=sys.stderr)
                continue
            run.done += len(videos)
            run.busy_s += elapsed
            run.unit_s.append(elapsed / len(videos))
            reports.append(printed.getvalue())

    if reports:
        report = json.loads(reports[-1])
        if any(text != reports[-1] for text in reports):
            run.problems.append("eval printed different reports for the same input")
        if json.loads((out_dir / "report.json").read_text()) != report:
            run.problems.append("report.json differs from the printed report")
        truth = [(v.video_id, v.labels[0], [(s, e) for s, e, _ in v.gt_segments])
                 for v in videos]
        timelines = read_timelines(out_dir / "timelines.csv")
        run.problems += checks.check_report(
            report, timelines, truth, threshold,
            config.tau, config.stride, config.kappa)
        run.figures["eval_videos_per_s"] = (run.done / run.busy_s, "videos/s")
        run.figures["videos_with_instances"] = (sum(
            1 for rows in timelines.values() if checks.above_threshold_runs(
                [r[3] for r in rows], threshold, config.tau, config.stride)), "count")
    return run


WORKLOADS = {
    "train-acceptance": run_train,
    "train-paper": run_train,
    "detect-stream": run_detect,
    "eval-files": run_eval,
}
