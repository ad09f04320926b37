"""Command-line surface: data generation, training, evaluation, streaming
detection, and plot emission.

Exit codes: 0 success, 1 configuration error (including bad flags),
2 data error, 3 numeric failure.

`train` lays its settings in layers: defaults < WOGMA_SEED < --config <
flags, with the file valid on its own, so WOGMA_SEED counts only when neither
a flag nor the file sets the seed; `gen-data` reads it only without --seed.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import plots
from .config import RunConfig, read_config_file, run_config_from_dict, with_env_seed
from .dataset import SynthParams, check_frames, load_sequences, save_sequences, synthesize
from .errors import ConfigurationError, DataFormatError, NumericalError
from .evaluation import evaluate
from .oamb import extract_instances, stream_record
from .trainer import load_checkpoint, save_checkpoint, train, write_metrics_csv


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigurationError (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(message)


def probability(text: str) -> float:
    """An --instance-threshold value: a probability strictly inside (0, 1)."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def positive_int(text: str) -> int:
    """A --max-videos value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def fraction_list(text: str) -> list[float]:
    """A --fractions value: comma-separated observed fractions in (0, 1]."""
    values = [float(v) for v in text.split(",") if v]
    if not values:
        raise argparse.ArgumentTypeError(f"no fractions in {text!r}")
    for value in values:
        if not 0.0 < value <= 1.0:
            raise argparse.ArgumentTypeError(f"fraction {value} outside (0, 1]")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="wogma",
                     description="weakly supervised online action detection "
                                 "for 2D skeleton sequences")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-data", help="write a synthetic JSONL dataset")
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.add_argument("--videos", dest="n_videos", type=int)
    gen.add_argument("--frames", type=int)
    gen.add_argument("--fps", type=float)
    gen.add_argument("--positive-fraction", type=float)
    gen.add_argument("--segment-len-min", type=int)
    gen.add_argument("--segment-len-max", type=int)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train a model and write checkpoint + metrics")
    tr.add_argument("--config", default=None,
                    help="JSON object of TrainConfig fields, train_data and out_dir; "
                         "an unknown key is an error")
    tr.add_argument("--data", dest="train_data", default=None,
                    help="training JSONL (overrides config)")
    tr.add_argument("--out-dir", default=None)
    tr.add_argument("--epochs", type=int, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--hidden", type=int, default=None)
    tr.add_argument("--max-frames", type=int, default=None,
                    help="frames kept per video; later frames are dropped")
    tr.add_argument("--ablate-pseudo", action="store_true", default=None)
    tr.add_argument("--ablate-local", action="store_true", default=None)
    tr.add_argument("--ablate-longrange", dest="conv_layers", action="store_const", const=0,
                    help="no long-range temporal convolution: conv_layers = 0")
    tr.add_argument("--quiet", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint and write a report")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out-dir", default="out")
    ev.add_argument("--fractions", type=fraction_list,
                    default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                    help="comma-separated fractions of each video's clips for the early curve")
    ev.add_argument("--instance-threshold", type=probability, default=0.5)
    ev.set_defaults(func=cmd_eval)

    de = sub.add_parser("detect", help="stream per-clip detections")
    de.add_argument("--checkpoint", required=True)
    source = de.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="JSONL dataset to run through the detector")
    source.add_argument("--stdin", action="store_true",
                        help="read preprocessed clip JSON lines from stdin")
    de.add_argument("--out-dir", default="out")
    de.add_argument("--instance-threshold", type=probability, default=0.5)
    de.set_defaults(func=cmd_detect)

    pl = sub.add_parser("plot", help="emit SVG charts from eval/detect outputs")
    pl.add_argument("--report", default=None, help="report.json from eval")
    pl.add_argument("--timelines", default=None, help="timelines.csv from eval")
    pl.add_argument("--data", default=None, help="dataset JSONL for gt bands")
    pl.add_argument("--instances", default=None, help="instances.json from detect")
    pl.add_argument("--out-dir", default="out")
    pl.add_argument("--max-videos", type=positive_int, default=8)
    pl.set_defaults(func=cmd_plot)
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _flag_settings(args, *others) -> dict:
    """The flags the user set, by dest, but `others`, which set nothing."""
    return {name: value for name, value in vars(args).items()
            if value is not None and name not in ("command", "func", *others)}


def cmd_gen_data(args) -> int:
    sequences = synthesize(SynthParams(**with_env_seed(_flag_settings(args, "out"))))
    save_sequences(args.out, sequences)
    positives = sum(s.labels[0] for s in sequences)
    print(f"wrote {len(sequences)} videos ({positives} positive) to {args.out}")
    return 0


def _load_run(args) -> RunConfig:
    """The run of `train`: defaults < WOGMA_SEED < --config < flags, the
    flags laid over the file by their dests, the field names. The file must
    build a valid run on its own, even where a flag overrides a value."""
    file = {} if args.config is None else read_config_file(args.config)
    run_config_from_dict(file)
    flags = _flag_settings(args, "config", "quiet")
    return run_config_from_dict(with_env_seed({**file, **flags}))


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
    if not dataset:
        raise DataFormatError(f"{args.data}: test set is empty")
    report, results = evaluate(model, dataset, args.fractions, args.instance_threshold)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json() + "\n")
    with open(out_dir / "early_curve.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["fraction", "auc"])
        writer.writerows(report.early_curve)
    with open(out_dir / "timelines.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["video_id", "clip", "start_frame", "end_frame", "prob_background",
                         "prob_class_1"])
        for r in results:
            for i, row in enumerate(r.timeline, start=1):
                start, end = model.windowing.frame_interval(i)
                writer.writerow([r.video_id, i, start, end] + [repr(float(v)) for v in row])
    print(report.to_json())
    return 0


def _instance_records(video_id, timeline, threshold, windowing) -> list[dict]:
    """instances.json entries of one timeline's detections."""
    return [{"video_id": video_id, "start_frame": inst.start_frame,
             "end_frame": inst.end_frame, "score": inst.score, "class": 1}
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
            check_frames(clip, f"clip line {lineno}")
            if clip.shape[0] != model.config.tau:
                raise DataFormatError(f"clip line {lineno}: {clip.shape[0]} frames, "
                                      f"expected tau = {model.config.tau}")
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


def _parsed(path, parse):
    """parse(path); a file it cannot read or parse raises DataFormatError."""
    try:
        return parse(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: unreadable plot input: {exc!r}") from exc


def _read_early_curve(path) -> list[tuple[float, float]]:
    """The report's early-curve points whose AUC is defined: a null (or, in
    an older report, nan) AUC is left out."""
    report = json.loads(Path(path).read_text())
    curve = [(float(f), math.nan if a is None else float(a))
             for f, a in report.get("early_curve", [])]
    return [(f, a) for f, a in curve if math.isfinite(a)]


def _read_instance_spans(path) -> dict:
    spans = {}
    for inst in json.loads(Path(path).read_text()):
        spans.setdefault(inst["video_id"], []).append((inst["start_frame"], inst["end_frame"]))
    return spans


def _read_timelines_csv(path):
    rows = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        action_col = next(reader, []).index("prob_class_1")
        for parts in reader:
            rows.setdefault(parts[0], []).append(
                (int(parts[2]), int(parts[3]), float(parts[action_col])))
    return rows


def _file_name_part(video_id: str) -> str:
    """`video_id` as part of one file name: '%', '/' and NUL are written
    %25, %2F and %00, and every other character stays as it is."""
    return video_id.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")


def cmd_plot(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote_any = False

    if args.report is not None:
        if not Path(args.report).exists():
            print(f"warning: report {args.report} missing, skipping curve",
                  file=sys.stderr)
        else:
            curve = _parsed(args.report, _read_early_curve)
            if curve:
                (out_dir / "auc_vs_fraction.svg").write_text(plots.curve_svg(curve))
                print(f"wrote {out_dir / 'auc_vs_fraction.svg'}")
                wrote_any = True
            else:
                print("warning: report has no early-curve point with a defined AUC, "
                      "skipping", file=sys.stderr)

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
                instances_by_video = _parsed(args.instances, _read_instance_spans)
            timelines = _parsed(args.timelines, _read_timelines_csv)
            for video_id in list(timelines)[:args.max_videos]:
                spans = [(s, e) for s, e, _ in timelines[video_id]]
                probs = [p for _, _, p in timelines[video_id]]
                svg = plots.timeline_svg(video_id, probs, spans,
                                         gt_by_video.get(video_id),
                                         instances_by_video.get(video_id))
                target = out_dir / f"timeline_{_file_name_part(video_id)}.svg"
                try:
                    target.write_text(svg)
                except OSError as exc:
                    if exc.errno != errno.ENAMETOOLONG:
                        raise
                    shown = video_id if len(video_id) <= 40 else f"{video_id[:40]}..."
                    raise DataFormatError(
                        f"video {shown!r}: timeline file name too long") from exc
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
