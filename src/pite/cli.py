"""Command-line entry point.

Subcommands: extract-np, condense-tracks, build-dataset, train-toy,
grad-check, eval-grounding, eval-dense, ablate-points.  Data goes to stdout
or files, logs go to stderr.  Exit codes: 0 success, 1 usage error, 2 data
or verification error.  PITE_SEED overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

from . import metrics, pipeline, tracks, trainer, trees, toymodel

log = logging.getLogger("pite")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pite", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("extract-np", parents=[], help="extract lowest-layer noun phrases")
    p.add_argument("--trees", required=True, help="file with one bracketed tree per line")
    p.add_argument("--out", help="output JSONL (default stdout)")

    p = sub.add_parser("condense-tracks", help="condense clip tracks to key-point matrices")
    p.add_argument("--tracks", required=True, help="JSONL, one clip per line")
    p.add_argument("--out", required=True)
    p.add_argument("--masks", help="directory with {clip_id}.json masks (optional)")
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("build-dataset", help="run the full annotation pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--trees", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--min-area", type=float, default=0.0005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("train-toy", help="train the surrogate model for one stage")
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--data", required=True, help="training samples (JSONL)")
    p.add_argument("--config", help="TrainerConfig JSON file")
    p.add_argument("--out", required=True, help="output parameter file (JSON)")
    p.add_argument("--params-in", help="continue from this parameter file")
    p.add_argument("--curve", help="loss curve CSV (default: <out>.curve.csv)")
    p.add_argument(
        "--no-tile-init",
        action="store_true",
        help="stage 2: skip initializing the trajectory head from the location head",
    )
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("grad-check", help="verify analytic gradients per stage")
    p.add_argument("--stage", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures", type=int, default=5)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--config", help="TrainerConfig JSON file")

    p = sub.add_parser("eval-grounding", help="temporal grounding metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("eval-dense", help="dense captioning metrics")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--scorer", choices=("meteor", "cider"), default="meteor")
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("ablate-points", help="vary the tracking-point count end to end")
    p.add_argument("--manifest", required=True)
    p.add_argument("--trees", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--tracks", required=True)
    p.add_argument("--points", default="1,3,5", help="comma-separated P values")
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--out", help="write the table as JSON here too")

    return parser


def _write(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def cmd_extract_np(args) -> int:
    lines = Path(args.trees).read_text(encoding="utf-8").splitlines()
    records = []
    for tree in trees.iter_trees(lines):
        nps = trees.extract_lowest_np(tree)
        records.append(
            {
                "caption": tree.text(),
                "nps": [{"text": p.text, "span": list(p.span)} for p in nps],
            }
        )
    _write("".join(json.dumps(r) + "\n" for r in records), args.out)
    return 0


def cmd_condense_tracks(args) -> int:
    out_lines = []
    for clip in tracks.iter_clip_tracks(args.tracks):
        selected = clip.tracks
        if args.masks:
            mask_path = Path(args.masks) / f"{clip.clip_id}.json"
            if mask_path.is_file():
                selected = tracks.filter_tracks_by_mask(
                    clip.tracks, tracks.load_mask(mask_path)
                )
        if selected:
            keypoints = tracks.condense(
                selected,
                args.points,
                seed=pipeline.derive_seed(args.seed, clip.clip_id),
            )
        else:
            keypoints = []
        matrix = tracks.to_matrix(
            keypoints, args.points, args.frames, clip.width, clip.height, clip.frames
        )
        out_lines.append(
            json.dumps({"clip_id": clip.clip_id, "trajectory": matrix.to_json()})
        )
    Path(args.out).write_text("".join(line + "\n" for line in out_lines), encoding="utf-8")
    log.info("condensed %d clips", len(out_lines))
    return 0


def cmd_build_dataset(args) -> int:
    config = pipeline.PipelineConfig(
        frames=args.frames,
        points=args.points,
        min_area_fraction=args.min_area,
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


def _load_trainer_config(path: str | None, seed: int | None) -> toymodel.TrainerConfig:
    if path:
        cfg = toymodel.TrainerConfig.from_json(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
    else:
        cfg = toymodel.TrainerConfig()
    if seed is not None:
        cfg.seed = seed
    return cfg


def cmd_train_toy(args) -> int:
    cfg = _load_trainer_config(args.config, args.seed)
    data = trainer.load_samples(args.data)
    if args.params_in:
        params = trainer.load_params(args.params_in)
    else:
        params = toymodel.init_params(cfg)
    params.check_shapes(cfg)
    params, curve, grad_norms = trainer.run_stage(
        params, data, args.stage, cfg, tile=not args.no_tile_init
    )
    trainer.save_params(params, args.out)
    curve_path = args.curve or str(Path(args.out).with_suffix("")) + ".curve.csv"
    trainer.write_loss_curve(curve, grad_norms, curve_path)
    log.info(
        "stage %d: %d samples, %d steps, loss %.6f -> %.6f",
        args.stage,
        len(data),
        cfg.steps,
        curve[0],
        curve[-1],
    )
    sys.stdout.write(
        json.dumps(
            {"stage": args.stage, "initial_loss": curve[0], "final_loss": curve[-1]}
        )
        + "\n"
    )
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_trainer_config(args.config, None)
    small = toymodel.TrainerConfig(
        d_v=4, d=6, vocab=10, points=2, frames=3,
        lam=cfg.lam, smoothing=cfg.smoothing, seed=args.seed,
    ) if args.config is None else cfg
    worst = 0.0
    for i in range(args.fixtures):
        params = toymodel.init_params(small, seed=args.seed + i)
        samples = trainer.synthetic_dataset(
            args.stage, 1, small, seed=args.seed + 1000 + i
        )
        err = toymodel.grad_check(
            params, samples, args.stage, eps=args.eps,
            lam=small.lam, smoothing=small.smoothing,
        )
        worst = max(worst, err)
        sys.stdout.write(f"fixture {i}: max relative error {err:.3e}\n")
    ok = worst < args.tol
    sys.stdout.write(
        f"stage {args.stage}: worst {worst:.3e} ({'OK' if ok else 'FAIL'}, tol {args.tol:g})\n"
    )
    return 0 if ok else 2


def _load_eval_events(path: str) -> dict[str, list[dict]]:
    videos: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            videos[str(record["video_id"])] = record["events"]
    return videos


def cmd_eval_grounding(args) -> int:
    preds = _load_eval_events(args.pred)
    gts = _load_eval_events(args.gt)
    pred_segments, gt_segments = [], []
    for video_id, gt_events in sorted(gts.items()):
        pred_events = preds.get(video_id)
        if pred_events is None or len(pred_events) != len(gt_events):
            raise pipeline.DataError(
                f"{video_id}: predictions do not align with ground truth events"
            )
        for p, g in zip(pred_events, gt_events):
            pred_segments.append(metrics.TimeSegment(float(p["start"]), float(p["end"])))
            gt_segments.append(metrics.TimeSegment(float(g["start"]), float(g["end"])))
    scores = metrics.grounding_scores(pred_segments, gt_segments)
    result = {f"R@{m}": 100.0 * v for m, v in scores["r_at"].items()}
    result["mIoU"] = 100.0 * scores["miou"]
    _write(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def _captioned(events: list[dict]) -> list[metrics.CaptionedEvent]:
    return [
        metrics.CaptionedEvent(
            segment=metrics.TimeSegment(float(e["start"]), float(e["end"])),
            caption=str(e["caption"]),
        )
        for e in events
    ]


def cmd_eval_dense(args) -> int:
    preds = _load_eval_events(args.pred)
    gts = _load_eval_events(args.gt)
    corpus = [[str(e["caption"])] for events in gts.values() for e in events]
    idf = metrics.build_idf(corpus)

    def cider_metric(cand: str, ref: str) -> float:
        return metrics.cider(cand, [ref], corpus, idf=idf)

    if args.scorer == "cider":
        soda_scorer = lambda cand, ref: cider_metric(cand, ref) / 10.0
    else:
        soda_scorer = metrics.meteor_lite

    soda_vals, cider_vals, meteor_vals = [], [], []
    for video_id, gt_events in sorted(gts.items()):
        gt_cap = _captioned(gt_events)
        pred_cap = _captioned(preds.get(video_id, []))
        soda_vals.append(metrics.soda_c(pred_cap, gt_cap, scorer=soda_scorer))
        cider_vals.append(
            metrics.iou_bucketed_caption_scores(pred_cap, gt_cap, metric=cider_metric)
        )
        meteor_vals.append(
            metrics.iou_bucketed_caption_scores(
                pred_cap, gt_cap, metric=metrics.meteor_lite
            )
        )

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    # everything lands on a 0-100 scale (CIDEr is already x10 internally)
    result = {
        "SODA_c": 100.0 * mean(soda_vals),
        "CIDEr": 10.0 * mean(cider_vals),
        "METEOR": 100.0 * mean(meteor_vals),
    }
    _write(json.dumps(result, indent=2) + "\n", args.out)
    return 0


def cmd_ablate_points(args) -> int:
    try:
        point_values = [int(p) for p in args.points.split(",") if p]
    except ValueError as exc:
        raise UsageError(f"bad --points value: {args.points}") from exc
    rows = []
    for P in point_values:
        config = pipeline.PipelineConfig(frames=args.frames, points=P, seed=args.seed)
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "dataset.jsonl"
            summary = pipeline.run_pipeline(
                args.manifest, args.trees, args.masks, args.tracks, out_path,
                config, strict=True,
            )
            records = [
                json.loads(line)
                for line in out_path.read_text(encoding="utf-8").splitlines()
            ]
        cfg = toymodel.TrainerConfig(
            d_v=8, d=16, vocab=64, points=P, frames=args.frames,
            lam=1.0, smoothing=0.0, lr=2.0, steps=args.steps, seed=args.seed,
        )
        samples = trainer.samples_from_records(records, cfg)
        params = toymodel.init_params(cfg)
        _, curve, _ = trainer.run_stage(params, samples, 2, cfg)
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


COMMANDS = {
    "extract-np": cmd_extract_np,
    "condense-tracks": cmd_condense_tracks,
    "build-dataset": cmd_build_dataset,
    "train-toy": cmd_train_toy,
    "grad-check": cmd_grad_check,
    "eval-grounding": cmd_eval_grounding,
    "eval-dense": cmd_eval_dense,
    "ablate-points": cmd_ablate_points,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if "PITE_SEED" in os.environ and hasattr(args, "seed"):
            args.seed = int(os.environ["PITE_SEED"])
        return COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    except (
        pipeline.DataError,
        trees.ParseError,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
