"""Command-line entry point.

Subcommands: extract-np, build-dataset, train-toy, grad-check,
eval-grounding, eval-dense, ablate-points.  Data goes to stdout or files,
notes and warnings go to stderr.  Exit codes: 0 success, 1 usage error, 2
data or verification error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable

# a handler imports the layer modules it runs, once, so a fresh process
# compiles only those (the eval handlers pass metrics to the per-event
# callbacks); nothing here imports logging or dataclasses, so pipeline's
# skip warnings reach stderr bare, through logging's last-resort handler
from .jsonl import DataError, naming, read_jsonl, read_lines, real, text, unique


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pite", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("extract-np", help="extract lowest-layer noun phrases")
    p.set_defaults(run=cmd_extract_np)
    p.add_argument("--trees", required=True, help="file with one bracketed tree per line")
    p.add_argument("--out", help="output JSONL (default stdout)")

    p = sub.add_parser("build-dataset", help="run the full annotation pipeline")
    p.set_defaults(run=cmd_build_dataset)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trees", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="annotate in N forked worker processes; the output is the same for every N",
    )

    p = sub.add_parser("train-toy", help="train the surrogate model for one stage")
    p.set_defaults(run=cmd_train_toy)
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--data", required=True, help="training samples (.npz from save_samples)")
    p.add_argument("--config", required=True, help="TrainerConfig JSON file")
    p.add_argument("--out", required=True, help="output parameter file (.npz, at exactly this name)")
    p.add_argument("--params-in", help="continue from this parameter file")
    p.add_argument("--curve", help="loss curve CSV (default: <out>.curve.csv)")
    p.add_argument(
        "--no-tile-init",
        action="store_true",
        help="stage 2: skip initializing the trajectory head from the location head",
    )

    p = sub.add_parser("grad-check", help="verify analytic gradients per stage")
    p.set_defaults(run=cmd_grad_check)
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures", type=int, default=5)

    p = sub.add_parser("eval-grounding", help="temporal grounding metrics")
    p.set_defaults(run=cmd_eval_grounding)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("eval-dense", help="dense captioning metrics")
    p.set_defaults(run=cmd_eval_dense)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--scorer", choices=("meteor", "cider"), default="meteor")
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser(
        "ablate-points",
        help=f"pipeline and short stage-2 training for each point count P in {ABLATION_POINTS}",
    )
    p.set_defaults(run=cmd_ablate_points)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trees", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--out", help="write the table as JSON here too")

    return parser


def _write(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _note(message: str) -> None:
    """Write one line to the current ``sys.stderr``."""
    sys.stderr.write(message + "\n")


def cmd_extract_np(args) -> int:
    from . import trees

    records = []
    for location, line in read_lines(args.trees):
        tree = trees.parse_tree(location, line)
        nps = trees.extract_lowest_np(tree)
        records.append(
            {
                "caption": tree.text(),
                "nps": [{"text": p.text, "span": list(p.span)} for p in nps],
            }
        )
    _write("".join(json.dumps(r) + "\n" for r in records), args.out)
    return 0


def cmd_build_dataset(args) -> int:
    from . import pipeline

    config = pipeline.PipelineConfig(
        frames=args.frames,
        points=args.points,
        seed=args.seed,
        jobs=args.jobs,
    )
    summary = pipeline.run_pipeline(
        args.manifest,
        args.trees,
        args.masks,
        args.tracks,
        args.out,
        config,
        strict=args.strict,
    )
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


def cmd_train_toy(args) -> int:
    from . import toymodel, trainer

    with naming(args.config):
        cfg = toymodel.TrainerConfig.from_json(json.loads(Path(args.config).read_text(encoding="utf-8")))
    batch = trainer.load_samples(args.data, cfg, args.stage)
    if args.params_in:
        params = trainer.load_params(args.params_in, cfg)
    else:
        with naming(args.config):  # numpy rejects a dimension too large to allocate
            params = toymodel.init_params(cfg)
    params, curve, grad_norms = trainer.run_stage(
        params, batch, args.stage, cfg, tile=not args.no_tile_init
    )
    trainer.save_params(params, args.out)
    curve_path = args.curve or str(Path(args.out).with_suffix("")) + ".curve.csv"
    trainer.write_loss_curve(curve, grad_norms, curve_path)
    _note(
        f"stage {args.stage}: {len(batch.starts)} samples, {cfg.steps} steps, "
        f"loss {curve[0]:.6f} -> {curve[-1]:.6f}"
    )
    sys.stdout.write(
        json.dumps(
            {"stage": args.stage, "initial_loss": curve[0], "final_loss": curve[-1]}
        )
        + "\n"
    )
    return 0


GRAD_CHECK_TOL = 1e-4


def cmd_grad_check(args) -> int:
    import numpy as np

    from . import toymodel, trainer

    if args.fixtures < 1:
        raise UsageError(f"--fixtures must be >= 1, got {args.fixtures}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    # params and samples are seeded from --seed, so the config's seed is unused
    cfg = toymodel.TrainerConfig(d_v=4, d=6, vocab=10, points=2, frames=3)
    worst = 0.0
    for i in range(args.fixtures):
        params = toymodel.init_params(cfg, seed=args.seed + i)
        samples = trainer.synthetic_dataset(args.stage, 1, cfg, seed=args.seed + 1000 + i)
        batch = toymodel.pack_rows(toymodel.sample_arrays(samples), args.stage, cfg)
        err = toymodel.grad_check(params, batch, args.stage, cfg)
        worst = np.maximum(worst, err)  # unlike max(), keeps a NaN
        sys.stdout.write(f"fixture {i}: max relative error {err:.3e}\n")
    ok = worst < GRAD_CHECK_TOL
    sys.stdout.write(
        f"stage {args.stage}: worst {worst:.3e} ({'OK' if ok else 'FAIL'}, tol {GRAD_CHECK_TOL:g})\n"
    )
    return 0 if ok else 2


def _segment(metrics, event):
    return metrics.TimeSegment(real(event["start"], "start"), real(event["end"], "end"))


def _captioned_event(metrics, event):
    return metrics.CaptionedEvent(_segment(metrics, event), text(event["caption"], "caption"))


def _paired_events(
    pred_path: str, gt_path: str, parse_event: Callable[[dict], object]
) -> list[tuple[str, list, list | None]]:
    """(video id, ground-truth events, predicted events or None) in video id order.

    Each event goes through ``parse_event`` as its line is read, so a bad
    event fails naming its file and line, and so does a repeated video id.
    Writes one stderr line counting the ground-truth videos with no
    prediction, and one counting the predicted videos missing from the ground truth.
    """
    video = lambda record: (
        text(record["video_id"], "video_id"),
        [parse_event(event) for event in record["events"]],
    )
    preds = dict(read_jsonl(pred_path, unique(video, "video_id")))
    gts = dict(read_jsonl(gt_path, unique(video, "video_id")))
    if not gts:
        raise DataError(f"{gt_path}: no ground-truth videos")
    if not any(gts.values()):
        raise DataError(f"{gt_path}: no ground-truth events")
    missing = len(gts.keys() - preds.keys())
    if missing:
        _note(f"{missing} of {len(gts)} videos have no prediction; their events score as misses")
    unknown = len(preds.keys() - gts.keys())
    if unknown:
        _note(
            f"{unknown} of {len(preds)} prediction records name videos not in the ground truth; "
            "they are ignored"
        )
    return [(video_id, gts[video_id], preds.get(video_id)) for video_id in sorted(gts)]


def cmd_eval_grounding(args) -> int:
    from . import metrics

    pred_segments, gt_segments = [], []
    videos = _paired_events(args.pred, args.gt, functools.partial(_segment, metrics))
    for video_id, gt_events, pred_events in videos:
        if pred_events is None:
            pred_events = [None] * len(gt_events)
        elif len(pred_events) != len(gt_events):
            raise DataError(
                f"{video_id}: {len(pred_events)} predicted events for "
                f"{len(gt_events)} ground truth events"
            )
        pred_segments.extend(pred_events)
        gt_segments.extend(gt_events)
    scores = metrics.grounding_scores(pred_segments, gt_segments)
    result = {f"R@{m}": 100.0 * v for m, v in scores["r_at"].items()}
    result["mIoU"] = 100.0 * scores["miou"]
    _write(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def cmd_eval_dense(args) -> int:
    from . import metrics

    videos = _paired_events(args.pred, args.gt, functools.partial(_captioned_event, metrics))
    # ground-truth captions are prepared once, for the IDF and for their
    # video, and popped in video order, so a scored video's are dropped
    refs = [[metrics.Caption(e.caption) for e in gt_events] for _, gt_events, _ in videos]
    idf = metrics.build_idf([caption for video in refs for caption in video])
    refs.reverse()

    soda_vals, cider_vals, meteor_vals = [], [], []
    for video_id, gt_events, pred_events in videos:
        if not gt_events:  # it would score 0 in every per-video mean
            raise DataError(f"{args.gt}: video {video_id!r} has no ground-truth events")
        pred_events = pred_events or []
        gts = refs.pop()
        preds = [metrics.Caption(e.caption, reference=False) for e in pred_events]
        pred_segments = [e.segment for e in pred_events]
        gt_segments = [e.segment for e in gt_events]
        ious = metrics.iou_table(pred_segments, gt_segments)
        # each pair is scored at most once per video, and shared by SODA
        # and every IoU threshold
        vector = functools.cache(lambda caption: metrics.tfidf_vectors(caption, idf))
        cider_metric = functools.cache(lambda i, j: metrics.cider(vector(preds[i]), vector(gts[j])))
        meteor_metric = functools.cache(lambda i, j: metrics.meteor_lite(preds[i], gts[j]))
        if args.scorer == "cider":
            soda_scorer = lambda i, j: cider_metric(i, j) / 10.0
        else:
            soda_scorer = meteor_metric
        soda_vals.append(metrics.soda_c(pred_segments, gt_segments, ious, soda_scorer))
        cider_vals.append(metrics.iou_bucketed_caption_scores(ious, cider_metric))
        meteor_vals.append(metrics.iou_bucketed_caption_scores(ious, meteor_metric))

    mean = lambda vals: sum(vals) / len(vals)
    # everything lands on a 0-100 scale (CIDEr is already x10 internally)
    result = {
        "SODA_c": 100.0 * mean(soda_vals),
        "CIDEr": 10.0 * mean(cider_vals),
        "METEOR": 100.0 * mean(meteor_vals),
    }
    _write(json.dumps(result, indent=2) + "\n", args.out)
    return 0


ABLATION_POINTS = (1, 3, 5)


def cmd_ablate_points(args) -> int:
    import tempfile

    from . import pipeline, toymodel, trainer

    # every config is built, and so range-checked, before the first run
    runs = [
        (
            pipeline.PipelineConfig(frames=args.frames, points=P),
            toymodel.TrainerConfig(
                d_v=8, d=16, vocab=64, points=P, frames=args.frames,
                lam=1.0, smoothing=0.0, lr=2.0, steps=args.steps,
            ),
        )
        for P in ABLATION_POINTS
    ]
    rows = []
    for config, cfg in runs:
        P = config.points
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "dataset.jsonl"
            summary = pipeline.run_pipeline(
                args.manifest, args.trees, args.masks, args.tracks, out_path,
                config, strict=True,
            )
            records = list(read_jsonl(out_path, dict))
        batch = toymodel.pack_rows(toymodel.sample_arrays(trainer.samples_from_records(records, cfg)), 2, cfg)
        _, curve, _ = trainer.run_stage(toymodel.init_params(cfg), batch, 2, cfg)
        rows.append(
            {
                "P": P,
                "videos": summary["videos"],
                "events": summary["events"],
                "objects": summary["trajectories"],
                "matrix_cells": P * args.frames * 2,
                "initial_loss": round(curve[0], 6),
                "final_loss": round(curve[-1], 6),
            }
        )
    header = f"{'P':>3} {'videos':>7} {'events':>7} {'objects':>8} {'cells':>7} {'init_loss':>10} {'final_loss':>11}"
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(
            f"{row['P']:>3} {row['videos']:>7} {row['events']:>7} {row['objects']:>8} "
            f"{row['matrix_cells']:>7} {row['initial_loss']:>10.4f} {row['final_loss']:>11.4f}\n"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.run(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
