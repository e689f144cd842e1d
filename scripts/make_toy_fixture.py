#!/usr/bin/env python3
"""Generate the bundled toy dataset fixture (2 videos, 3 events).

Deterministic: rerunning produces byte-identical files.  The layout matches
what `pite build-dataset` consumes:

    manifest.jsonl
    trees.txt
    masks/{video_id}/ev{k}/{np_slug}.json
    tracks/{video_id}.jsonl

Hand audit built into this script: event 0 keeps {woman, money, a white
table} (the pen mask is a single pixel, below the area threshold), event 1
keeps {two people, hands, a desk} (no mask for "front"), event 2 keeps
{a dog} -> 7 object trajectories over 3 events.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from pite.pipeline import np_slug
from pite.tracks import save_mask

FIG3A = "(TOP (S (NP woman) (VP is (VP counting (NP money) (PP with (NP (NP a pen) (PP on (NP a white table))))))))"
FIG3B = "(TOP (NP (NP two people) (VP shaking (NP hands) (PP in (NP (NP front) (PP of (NP a desk)))))))"
DOG = "(TOP (S (NP a dog) (VP runs)))"

VIDEOS = [
    {
        "video_id": "vid_money",
        "duration": 10.0,
        "width": 64,
        "height": 48,
        "events": [
            {
                "caption": "woman is counting money with a pen on a white table",
                "start": 0.5,
                "end": 6.0,
            },
            {"caption": "two people shaking hands in front of a desk", "start": 6.0, "end": 9.5},
        ],
    },
    {
        "video_id": "vid_dog",
        "duration": 8.0,
        "width": 32,
        "height": 32,
        "events": [{"caption": "a dog runs", "start": 1.0, "end": 7.0}],
    },
]

TREES = {
    ("vid_money", 0): FIG3A,
    ("vid_money", 1): FIG3B,
    ("vid_dog", 0): DOG,
}

# np text -> (x0, x1, y0, y1) rectangle, or None for "no mask" (rejected phrase)
MASK_RECTS = {
    ("vid_money", 0): {
        "woman": (2, 20, 4, 44),
        "money": (24, 34, 20, 30),
        "a pen": (50, 51, 25, 26),  # 1 px, below the small-object threshold
        "a white table": (0, 64, 32, 48),
    },
    ("vid_money", 1): {
        "two people": (5, 30, 5, 40),
        "hands": (30, 40, 18, 28),
        # "front" deliberately has no mask: invalid referring expression
        "a desk": (10, 60, 36, 48),
    },
    ("vid_dog", 0): {"a dog": (8, 24, 10, 26)},
}

CLIP_FRAMES = {("vid_money", 0): 55, ("vid_money", 1): 35, ("vid_dog", 0): 40}
TRACKS_PER_MASK = 6
BACKGROUND_TRACKS = 5
SEED = 7  # the committed fixture's tracks are drawn from this seed


def rect_mask(width, height, rect) -> np.ndarray:
    arr = np.zeros((height, width), dtype=bool)
    x0, x1, y0, y1 = rect
    arr[y0:y1, x0:x1] = True
    return arr


def walk_track(rng, start, n_frames, width, height, lose_visibility):
    xs, vis = [], []
    x, y = start
    visible = True
    cutoff = int(rng.integers(n_frames // 2, n_frames)) if lose_visibility else n_frames
    for frame in range(n_frames):
        if frame >= cutoff:
            visible = False
        xs.append([round(float(x), 3), round(float(y), 3)])
        vis.append(visible)
        x = min(max(x + rng.normal(0, 0.8), 0.0), width - 0.01)
        y = min(max(y + rng.normal(0, 0.8), 0.0), height - 0.01)
    return {"xy": xs, "vis": vis}


def clip_tracks(rng, video, event_idx):
    width, height = video["width"], video["height"]
    n_frames = CLIP_FRAMES[(video["video_id"], event_idx)]
    tracks = []
    for rect in MASK_RECTS[(video["video_id"], event_idx)].values():
        x0, x1, y0, y1 = rect
        if (x1 - x0) * (y1 - y0) < 4:
            continue  # the pen-sized mask gets no dedicated tracks
        for i in range(TRACKS_PER_MASK):
            start = (
                float(rng.uniform(x0 + 0.2, x1 - 0.2)),
                float(rng.uniform(y0 + 0.2, y1 - 0.2)),
            )
            tracks.append(
                walk_track(rng, start, n_frames, width, height, lose_visibility=(i % 3 == 2))
            )
    for i in range(BACKGROUND_TRACKS):
        start = (float(rng.uniform(0, width - 1)), float(rng.uniform(0, height - 1)))
        track = walk_track(rng, start, n_frames, width, height, lose_visibility=False)
        if i % 2 == 1:
            track["vis"][0] = False  # invisible at frame 0: always filtered out
        tracks.append(track)
    return {
        "clip_id": f"{video['video_id']}:{event_idx}",
        "width": width,
        "height": height,
        "frames": n_frames,
        "tracks": tracks,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "toy"),
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)

    with open(out / "manifest.jsonl", "w", encoding="utf-8") as handle:
        for video in VIDEOS:
            handle.write(json.dumps(video) + "\n")

    with open(out / "trees.txt", "w", encoding="utf-8") as handle:
        for video in VIDEOS:
            for idx in range(len(video["events"])):
                handle.write(TREES[(video["video_id"], idx)] + "\n")

    for (video_id, event_idx), rects in MASK_RECTS.items():
        video = next(v for v in VIDEOS if v["video_id"] == video_id)
        event_dir = out / "masks" / video_id / f"ev{event_idx}"
        event_dir.mkdir(parents=True, exist_ok=True)
        for text, rect in rects.items():
            save_mask(
                rect_mask(video["width"], video["height"], rect),
                event_dir / f"{np_slug(text)}.json",
            )

    tracks_dir = out / "tracks"
    tracks_dir.mkdir(exist_ok=True)
    for video in VIDEOS:
        with open(tracks_dir / f"{video['video_id']}.jsonl", "w", encoding="utf-8") as handle:
            for idx in range(len(video["events"])):
                handle.write(json.dumps(clip_tracks(rng, video, idx)) + "\n")

    print(f"fixture written to {out}")


if __name__ == "__main__":
    main()
