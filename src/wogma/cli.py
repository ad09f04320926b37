"""Command-line surface: data generation, training, evaluation, streaming
detection, and plot emission.

Exit codes: 0 success, 1 configuration error (including bad flags),
2 data error, 3 numeric failure. WOGMA_SEED provides a fallback seed when
neither a flag nor the config file sets one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import plots
from .config import (RunConfig, fallback_seed, load_run_config)
from .dataset import SkeletonSequence, SynthParams, load_sequences, save_sequences, synthesize
from .errors import ConfigurationError, DataFormatError, NumericalError
from .evaluation import evaluate
from .oamb import extract_instances, stream_record
from .trainer import load_checkpoint, save_checkpoint, train, write_metrics_csv


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigurationError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="wogma",
                     description="weakly supervised online action detection "
                                 "for 2D skeleton sequences")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="write a synthetic JSONL dataset")
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument("--videos", type=int, default=200)
    gen.add_argument("--frames", type=int, default=600)
    gen.add_argument("--fps", type=float, default=20.0)
    gen.add_argument("--positive-fraction", type=float, default=0.5)
    gen.add_argument("--segment-len-min", type=int, default=100)
    gen.add_argument("--segment-len-max", type=int, default=200)
    gen.add_argument("--noise", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model and write checkpoint + metrics")
    tr.add_argument("--config", default=None, help="RunConfig JSON file")
    tr.add_argument("--data", default=None, help="training JSONL (overrides config)")
    tr.add_argument("--out-dir", default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--hidden", type=int, default=None)
    tr.add_argument("--max-frames", type=int, default=None)
    tr.add_argument("--batch-size", type=int, default=None)
    tr.add_argument("--ablate-pseudo", action="store_true")
    tr.add_argument("--ablate-local", action="store_true")
    tr.add_argument("--ablate-longrange", action="store_true")
    tr.add_argument("--quiet", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint and write a report")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out-dir", default="out")
    ev.add_argument("--fractions", default=None,
                    help="comma-separated observed fractions for the early curve")
    ev.add_argument("--instance-threshold", type=float, default=0.5)
    ev.set_defaults(func=cmd_eval)

    de = sub.add_parser("detect", help="stream per-clip detections")
    de.add_argument("--checkpoint", required=True)
    source = de.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="JSONL dataset to run through the detector")
    source.add_argument("--stdin", action="store_true",
                        help="read preprocessed clip JSON lines from stdin")
    de.add_argument("--out-dir", default="out")
    de.add_argument("--instance-threshold", type=float, default=0.5)
    de.set_defaults(func=cmd_detect)

    pl = sub.add_parser("plot", help="emit SVG charts from eval/detect outputs")
    pl.add_argument("--report", default=None, help="report.json from eval")
    pl.add_argument("--timelines", default=None, help="timelines.csv from eval")
    pl.add_argument("--data", default=None, help="dataset JSONL for gt bands")
    pl.add_argument("--instances", default=None, help="instances.json from detect")
    pl.add_argument("--out-dir", default="out")
    pl.add_argument("--max-videos", type=int, default=8)
    pl.set_defaults(func=cmd_plot)
    return parser


def _resolve_seed(flag_seed, file_had_seed: bool, config_seed: int) -> int:
    if flag_seed is not None:
        return flag_seed
    if file_had_seed:
        return config_seed
    env = fallback_seed()
    return env if env is not None else config_seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    seed = args.seed
    if seed is None:
        seed = fallback_seed() or 0
    params = SynthParams(n_videos=args.videos, frames=args.frames, fps=args.fps,
                         positive_fraction=args.positive_fraction,
                         segment_len_min=args.segment_len_min,
                         segment_len_max=args.segment_len_max,
                         noise=args.noise, seed=seed)
    sequences = synthesize(params)
    save_sequences(args.out, sequences)
    positives = sum(s.labels[0] for s in sequences)
    print(f"wrote {len(sequences)} videos ({positives} positive) to {args.out}")
    return 0


def _load_run(args) -> RunConfig:
    if args.config is not None:
        run = load_run_config(args.config)
        file_had_seed = "seed" in json.loads(Path(args.config).read_text())
    else:
        run = RunConfig()
        file_had_seed = False
    overrides = {"epochs": args.epochs, "seed": None, "lr": args.lr,
                 "hidden": args.hidden, "max_frames": args.max_frames,
                 "batch_size": args.batch_size}
    train_cfg = run.train
    for name, value in overrides.items():
        if value is not None:
            train_cfg = dataclasses.replace(train_cfg, **{name: value})
    for flag in ("ablate_pseudo", "ablate_local", "ablate_longrange"):
        if getattr(args, flag):
            train_cfg = dataclasses.replace(train_cfg, **{flag: True})
    train_cfg = dataclasses.replace(
        train_cfg, seed=_resolve_seed(args.seed, file_had_seed, train_cfg.seed))
    run.train = train_cfg.validate()
    if args.data is not None:
        run.train_data = args.data
    if args.out_dir is not None:
        run.out_dir = args.out_dir
    return run.validate()


def cmd_train(args) -> int:
    run = _load_run(args)
    dataset = load_sequences(run.train_data)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    progress = None
    if not args.quiet:
        def progress(row):
            print(f"epoch {row.epoch}: l_mil_p={row.l_mil_p:.4f} "
                  f"l_fml={row.l_fml:.4f} l_mil_o={row.l_mil_o:.4f} "
                  f"train_acc={row.train_acc:.3f}", file=sys.stderr)

    model, metrics = train(dataset, run.train, progress=progress)
    save_checkpoint(out_dir / "checkpoint.bin", model, epoch=run.train.epochs)
    write_metrics_csv(out_dir / "metrics.csv", metrics)
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    print(f"metrics: {out_dir / 'metrics.csv'}")
    return 0


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    dataset = load_sequences(args.data)
    run = RunConfig(train=model.config, eval_data=args.data, out_dir=args.out_dir,
                    instance_threshold=args.instance_threshold)
    if args.fractions is not None:
        try:
            run.eval_fractions = [float(v) for v in args.fractions.split(",") if v]
        except ValueError as exc:
            raise ConfigurationError(f"bad --fractions value: {args.fractions!r}") from exc
    run.validate()
    report, results = evaluate(model, dataset, run)

    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    with open(out_dir / "early_curve.csv", "w") as handle:
        handle.write("fraction,auc\n")
        for fraction, auc in report.early_curve:
            handle.write(f"{fraction!r},{auc!r}\n")
    with open(out_dir / "timelines.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        classes = model.config.n_c
        headers = ["video_id", "clip", "start_frame", "end_frame", "prob_background"]
        writer.writerow(headers + [f"prob_class_{c}" for c in range(1, classes + 1)])
        for r in results:
            for i, row in enumerate(r.timeline, start=1):
                start, end = model.windowing.frame_interval(i)
                writer.writerow([r.video_id, i, start, end] + [repr(float(v)) for v in row])
    print(report.to_json())
    return 0


def _instance_records(video_id, timeline, threshold, windowing) -> list[dict]:
    """instances.json entries of one timeline's detections."""
    return [{"video_id": video_id, "start_frame": inst.start_frame,
             "end_frame": inst.end_frame, "score": inst.score, "class": inst.label}
            for inst in extract_instances(timeline, threshold, windowing)]


def cmd_detect(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_instances = []

    if args.stdin:
        state = model.online_branch.initial_state()
        rows = []
        for lineno, line in enumerate(iter(sys.stdin.readline, ""), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"bad clip line {lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(
                    f"bad clip line {lineno}: expected a JSON object, got {type(obj).__name__}")
            try:
                clip = np.asarray(obj["frames"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"bad clip line {lineno}: {exc}") from exc
            expected = (model.config.tau, model.skeleton.joint_count,
                        model.config.input_channels)
            if clip.shape != expected:
                raise DataFormatError(
                    f"clip line {lineno}: shape {clip.shape} does not match {expected}")
            if not np.isfinite(clip).all():
                raise DataFormatError(f"clip line {lineno}: frames hold a non-finite value")
            feats = model.features(clip[None])
            state, probs = model.online_branch.online_step(state, feats.values[0])
            rows.append(probs)
            record = stream_record(state.clips_seen, model.windowing, probs)
            sys.stdout.write(json.dumps(record) + "\n")
            sys.stdout.flush()
        if rows:
            timeline = np.stack(rows)
            all_instances += _instance_records("stdin", timeline, args.instance_threshold,
                                               model.windowing)
    else:
        dataset = load_sequences(args.data)
        for seq in dataset:
            clips = model.prepare_clips(seq)
            timeline = model.infer_timeline(clips)
            for i, probs in enumerate(timeline, start=1):
                record = stream_record(i, model.windowing, probs)
                record["video_id"] = seq.video_id
                sys.stdout.write(json.dumps(record) + "\n")
            sys.stdout.flush()
            all_instances += _instance_records(seq.video_id, timeline,
                                               args.instance_threshold, model.windowing)

    (out_dir / "instances.json").write_text(json.dumps(all_instances, indent=2) + "\n")
    return 0


def _read_timelines_csv(path):
    rows = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        action_col = next(reader).index("prob_class_1")
        for parts in reader:
            rows.setdefault(parts[0], []).append(
                (int(parts[2]), int(parts[3]), float(parts[action_col])))
    return rows


def cmd_plot(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote_any = False

    if args.report is not None:
        if not Path(args.report).exists():
            print(f"warning: report {args.report} missing, skipping curve",
                  file=sys.stderr)
        else:
            report = json.loads(Path(args.report).read_text())
            curve = [(float(f), float(a)) for f, a in report.get("early_curve", [])]
            if curve:
                (out_dir / "auc_vs_fraction.svg").write_text(plots.curve_svg(curve))
                print(f"wrote {out_dir / 'auc_vs_fraction.svg'}")
                wrote_any = True
            else:
                print("warning: report has no early_curve, skipping", file=sys.stderr)

    if args.timelines is not None:
        if not Path(args.timelines).exists():
            print(f"warning: timelines {args.timelines} missing, skipping",
                  file=sys.stderr)
        else:
            gt_by_video = {}
            if args.data is not None and Path(args.data).exists():
                for seq in load_sequences(args.data):
                    gt_by_video[seq.video_id] = [(s, e) for s, e, _ in
                                                 (seq.gt_segments or [])]
            instances_by_video = {}
            if args.instances is not None and Path(args.instances).exists():
                for inst in json.loads(Path(args.instances).read_text()):
                    instances_by_video.setdefault(inst["video_id"], []).append(
                        (inst["start_frame"], inst["end_frame"]))
            timelines = _read_timelines_csv(args.timelines)
            for video_id in list(timelines)[:args.max_videos]:
                spans = [(s, e) for s, e, _ in timelines[video_id]]
                probs = [p for _, _, p in timelines[video_id]]
                svg = plots.timeline_svg(video_id, probs, spans,
                                         gt_by_video.get(video_id),
                                         instances_by_video.get(video_id))
                target = out_dir / f"timeline_{video_id}.svg"
                target.write_text(svg)
                print(f"wrote {target}")
                wrote_any = True

    if not wrote_any:
        print("warning: nothing to plot", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
