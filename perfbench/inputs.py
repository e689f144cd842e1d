"""Seeded input generators for the three benchmark workloads.

Each generator writes files into an empty directory and returns a summary
dict (sizes and what the checks expect).  Structural sizes (track counts,
mask sizes, sample lengths, events per video, caption lengths) are fixed
multisets that the seed only shuffles, so the work varies little from seed
to seed; k-means iterations still depend on the drawn points.  The same seed
gives byte-identical files.

Run as a script to generate one workload's inputs:

    python3 perfbench/inputs.py --workload annotate --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pite import toymodel, trainer  # noqa: E402

# --- annotate -----------------------------------------------------------------

WIDTH, HEIGHT = 640, 360
CLIP_FRAMES = 150
TRACKS_PER_CLIP = 400
# tracks starting inside each of the four object masks of an event; the
# empty mask makes the "no track inside the mask" drop fire every event
OBJECT_TRACKS = (0, 4, 96, 200)
OBJECT_SIZES = ((80, 60), (60, 50), (110, 90), (160, 120))  # (w, h) px, same order
SMALL_MASK_SIDE = 6  # 36 px, below the default 0.0005 * 640 * 360 = 115 px
NOUNS = (
    "dog cat boy girl man woman car ball kite tree chair table cup hat bike "
    "door lamp book bag box horse bird fish phone clock"
).split()


def _rect_runs(x0: int, y0: int, w: int, h: int) -> list[int]:
    """Row-major RLE (bg first) of a w x h rectangle at (x0, y0)."""
    runs = [y0 * WIDTH + x0]
    for row in range(h):
        runs.append(w)
        runs.append(WIDTH - w)
    runs[-1] = WIDTH * HEIGHT - ((y0 + h - 1) * WIDTH + x0 + w)
    return runs


def _event_tree(nouns: list[str]) -> str:
    n = [f"(NP the {noun})" for noun in nouns]
    return (
        f"(TOP (S {n[0]} (VP chases {n[1]} (PP near {n[2]})) (CC and) "
        f"{n[3]} (VP holds {n[4]} (PP beside {n[5]}))))"
    )


def _caption(nouns: list[str]) -> str:
    return (
        f"the {nouns[0]} chases the {nouns[1]} near the {nouns[2]} and "
        f"the {nouns[3]} holds the {nouns[4]} beside the {nouns[5]}"
    )


def _clip(rng: np.random.Generator, rects: list[tuple[int, int, int, int]]) -> list[dict]:
    """Tracks for one clip: OBJECT_TRACKS start in rects[0..3], the rest outside.

    Object tracks start on a jittered grid over the object, as a tracker
    queried with a grid inside a segmentation mask would place them.
    """
    starts = []
    for (x0, y0, w, h), count in zip(rects, OBJECT_TRACKS):
        cols = max(1, round(np.sqrt(count * w / h)))
        cell = np.arange(count)
        rows = max(1, -(-count // cols))
        xs = x0 + (cell % cols + rng.uniform(0.25, 0.75, size=count)) * (w / cols)
        ys = y0 + (cell // cols + rng.uniform(0.25, 0.75, size=count)) * (h / rows)
        starts.extend(zip(xs.tolist(), ys.tolist()))
    background = TRACKS_PER_CLIP - len(starts)
    while background:
        # rounded before the test, as the file stores it
        x = round(rng.uniform(0.1, WIDTH - 0.1), 2)
        y = round(rng.uniform(0.1, HEIGHT - 0.1), 2)
        if any(x0 <= x < x0 + w and y0 <= y < y0 + h for x0, y0, w, h in rects):
            continue
        starts.append((x, y))
        background -= 1
    starts = np.asarray(starts)[rng.permutation(TRACKS_PER_CLIP)]
    steps = rng.normal(0.0, 1.5, size=(TRACKS_PER_CLIP, CLIP_FRAMES - 1, 2))
    xy = np.concatenate([starts[:, None, :], starts[:, None, :] + np.cumsum(steps, axis=1)], axis=1)
    xy[..., 0] = np.clip(xy[..., 0], 0.0, WIDTH - 0.01)
    xy[..., 1] = np.clip(xy[..., 1], 0.0, HEIGHT - 0.01)
    xy[:, 0, :] = starts
    xy = np.round(xy, 2)
    visible = [True] * CLIP_FRAMES
    half_hidden = [True] * (CLIP_FRAMES // 2) + [False] * (CLIP_FRAMES - CLIP_FRAMES // 2)
    return [
        # every 5th track loses visibility mid-clip
        {"xy": xy[i].tolist(), "vis": half_hidden if i % 5 == 4 else visible}
        for i in range(TRACKS_PER_CLIP)
    ]


def make_annotate(out: Path, seed: int, videos: int = 2, events: int = 2) -> dict:
    rng = np.random.default_rng([seed, 1])
    (out / "tracks").mkdir(parents=True)
    cell_w, cell_h = WIDTH // 3, HEIGHT // 2
    manifest, tree_lines, expected = [], [], {}
    for v in range(videos):
        video_id = f"vid{v:03d}"
        clips, ev_records = [], []
        for k in range(events):
            nouns = [str(n) for n in rng.choice(NOUNS, size=6, replace=False)]
            cells = rng.permutation(6)[:5]
            rects = []
            for cell, (w, h) in zip(cells[:4], OBJECT_SIZES):
                x0 = int((cell % 3) * cell_w + rng.integers(0, cell_w - w))
                y0 = int((cell // 3) * cell_h + rng.integers(0, cell_h - h))
                rects.append((x0, y0, w, h))
            small = (
                int((cells[4] % 3) * cell_w + rng.integers(0, cell_w - SMALL_MASK_SIDE)),
                int((cells[4] // 3) * cell_h + rng.integers(0, cell_h - SMALL_MASK_SIDE)),
                SMALL_MASK_SIDE,
                SMALL_MASK_SIDE,
            )
            # phrase roles: 4 object masks, 1 small mask, 1 phrase without a mask
            roles = rng.permutation(6)
            mask_dir = out / "masks" / video_id / f"ev{k}"
            mask_dir.mkdir(parents=True)
            for role, rect in zip(roles[:5], rects + [small]):
                slug = f"the_{nouns[role]}"
                (mask_dir / f"{slug}.json").write_text(
                    json.dumps({"width": WIDTH, "height": HEIGHT, "rle": _rect_runs(*rect)}),
                    encoding="utf-8",
                )
            start = 2.0 + 12.0 * k + float(np.round(rng.uniform(0.0, 2.0), 3))
            end = start + 6.0 + float(np.round(rng.uniform(0.0, 3.0), 3))
            ev_records.append({"caption": _caption(nouns), "start": start, "end": end})
            tree_lines.append(_event_tree(nouns))
            clips.append(
                {
                    "clip_id": f"{video_id}:{k}",
                    "width": WIDTH,
                    "height": HEIGHT,
                    "frames": CLIP_FRAMES,
                    "tracks": _clip(rng, rects),
                }
            )
        manifest.append(
            {
                "video_id": video_id,
                "duration": 30.0,
                "width": WIDTH,
                "height": HEIGHT,
                "src_frames": CLIP_FRAMES,
                "events": ev_records,
            }
        )
        expected[video_id] = [sum(1 for c in OBJECT_TRACKS if c > 0)] * events
        with open(out / "tracks" / f"{video_id}.jsonl", "w", encoding="utf-8") as handle:
            for clip in clips:
                handle.write(json.dumps(clip) + "\n")
    (out / "manifest.jsonl").write_text(
        "".join(json.dumps(m) + "\n" for m in manifest), encoding="utf-8"
    )
    (out / "trees.txt").write_text("".join(t + "\n" for t in tree_lines), encoding="utf-8")
    return {
        "videos": videos,
        "events": videos * events,
        "tracks": videos * events * TRACKS_PER_CLIP,
        "bytes": _tree_bytes(out),
        "expected_objects": expected,
    }


# --- train --------------------------------------------------------------------

TRAIN_CONFIG = {
    "d_v": 16, "d": 32, "vocab": 64, "points": 3, "frames": 100,
    "lam": 1.0, "smoothing": 0.1, "lr": 0.5,
}
SAMPLE_LENGTHS = tuple(range(8, 24))  # 16 lengths; samples cycle through them


def _stage_samples(
    rng: np.random.Generator, stage: int, lengths: list[int], cfg: toymodel.TrainerConfig
) -> list[toymodel.TrainingSample]:
    """Targets come from a shared linear teacher so the stage loss is learnable."""
    P, N = cfg.points, cfg.frames
    teacher = rng.normal(size=(2, cfg.d_v))
    drift = rng.uniform(-0.15, 0.15, size=(P, N, 2))
    sentinel = rng.random((P, N)) < 0.25
    samples = []
    for length in lengths:
        frames = rng.normal(size=(4, cfg.d_v))
        tokens = rng.integers(0, cfg.vocab, size=length)
        supervised = rng.random(length) < 0.8
        supervised[int(rng.integers(length))] = True
        base = 1.0 / (1.0 + np.exp(-teacher @ frames.mean(axis=0)))
        loc_targets = traj_targets = None
        if stage == 1:
            loc_targets = np.clip(0.2 + 0.6 * base + rng.uniform(-0.1, 0.1, size=(length, 2)), 0, 1)
            loc_targets[~supervised] = 0.0
        elif stage == 2:
            matrix = np.clip(0.2 + 0.6 * base + drift, 0.0, 1.0)
            matrix[sentinel] = -1.0
            traj_targets = np.zeros((length, P, N, 2))
            traj_targets[supervised] = matrix
        else:
            supervised[:] = False
        samples.append(
            toymodel.TrainingSample(
                frames=frames, tokens=tokens, supervised=supervised,
                loc_targets=loc_targets, traj_targets=traj_targets,
            )
        )
    return samples


def make_train(out: Path, seed: int, samples: int = 16, steps: int = 20) -> dict:
    rng = np.random.default_rng([seed, 2])
    config = dict(TRAIN_CONFIG, steps=steps, seed=seed)
    (out / "config.json").write_text(json.dumps(config), encoding="utf-8")
    cfg = toymodel.TrainerConfig.from_json(config)
    lengths = [SAMPLE_LENGTHS[i % len(SAMPLE_LENGTHS)] for i in range(samples)]
    for stage in (1, 2, 3):
        order = rng.permutation(samples)
        stage_lengths = [lengths[i] for i in order]
        trainer.save_samples(
            _stage_samples(rng, stage, stage_lengths, cfg), out / f"stage{stage}.jsonl"
        )
    return {
        "samples": samples,
        "steps": steps,
        "tokens": sum(lengths),
        "bytes": _tree_bytes(out),
    }


# --- evaluate -----------------------------------------------------------------

WORDS = (
    "a the man woman dog runs walks jumps over under ball red blue big small "
    "table holds picks up down near car opens door slowly"
).split()
EVENTS_PER_VIDEO = tuple(range(4, 12))
CAPTION_LENGTHS = tuple(range(8, 20))
PRED_COUNT_DELTA = (-2, -1, 0, 1, 2)
SUBSTITUTION_RATE = 0.3
NO_PREDICTION_EVERY = 20  # every 20th video has no prediction record
DURATION = 120.0


def _segment(rng: np.random.Generator) -> tuple[float, float]:
    start = float(np.round(rng.uniform(0.0, DURATION - 20.0), 2))
    return start, float(np.round(start + rng.uniform(3.0, 20.0), 2))


def _jitter(rng: np.random.Generator, start: float, end: float) -> tuple[float, float]:
    s = max(0.0, start + float(rng.normal(0.0, 1.5)))
    e = max(s + 0.5, end + float(rng.normal(0.0, 1.5)))
    return round(s, 2), round(e, 2)


def _words(rng: np.random.Generator, length: int) -> list[str]:
    return [str(w) for w in rng.choice(WORDS, size=length)]


def make_evaluate(out: Path, seed: int, videos: int = 40) -> dict:
    rng = np.random.default_rng([seed, 3])
    n_events = [EVENTS_PER_VIDEO[i % len(EVENTS_PER_VIDEO)] for i in range(videos)]
    n_events = [n_events[i] for i in rng.permutation(videos)]
    deltas = [PRED_COUNT_DELTA[i % len(PRED_COUNT_DELTA)] for i in range(videos)]
    deltas = [deltas[i] for i in rng.permutation(videos)]
    total = sum(n_events)
    cap_lengths = [CAPTION_LENGTHS[i % len(CAPTION_LENGTHS)] for i in range(total)]
    cap_lengths = [cap_lengths[i] for i in rng.permutation(total)]
    gt_lines, dense_lines, grounding_lines = [], [], []
    cursor = 0
    for v in range(videos):
        video_id = f"v{v:04d}"
        gt = []
        for _ in range(n_events[v]):
            start, end = _segment(rng)
            gt.append({"start": start, "end": end, "caption": " ".join(_words(rng, cap_lengths[cursor]))})
            cursor += 1
        gt_lines.append({"video_id": video_id, "events": gt})
        grounding_lines.append(
            {
                "video_id": video_id,
                "events": [dict(zip(("start", "end"), _jitter(rng, e["start"], e["end"]))) for e in gt],
            }
        )
        pred = []
        for i in range(max(1, n_events[v] + deltas[v])):
            if i < len(gt):
                start, end = _jitter(rng, gt[i]["start"], gt[i]["end"])
                words = gt[i]["caption"].split()
            else:
                start, end = _segment(rng)
                words = _words(rng, int(rng.choice(CAPTION_LENGTHS)))
            swap = rng.random(len(words)) < SUBSTITUTION_RATE
            words = [str(rng.choice(WORDS)) if s else w for w, s in zip(words, swap)]
            pred.append({"start": start, "end": end, "caption": " ".join(words)})
        if v % NO_PREDICTION_EVERY != NO_PREDICTION_EVERY - 1:
            dense_lines.append({"video_id": video_id, "events": pred})
    for name, lines in (("gt", gt_lines), ("pred", dense_lines), ("pred_grounding", grounding_lines)):
        (out / f"{name}.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
    return {"videos": videos, "events": total, "bytes": _tree_bytes(out)}


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


GENERATORS = {"annotate": make_annotate, "train": make_train, "evaluate": make_evaluate}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to create")
    parser.add_argument("--sizes", default="{}", help="JSON keyword overrides for the generator")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True)
    summary = GENERATORS[args.workload](out, args.seed, **json.loads(args.sizes))
    (out / "inputs.json").write_text(json.dumps(summary, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
