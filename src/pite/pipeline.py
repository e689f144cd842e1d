"""End-to-end annotation pipeline: manifest + trees + masks + tracks -> records.

Per event the flow is: extract lowest-layer noun phrases from the event's
parse tree; drop phrases the mask provider rejected (no mask file) or whose
mask is too small; keep the tracks starting inside the mask; condense them
to P key points; resample onto the P x N trajectory matrix.  Output is one
JSON record per video with the temporal text "caption, from s to e".

File layout consumed by run_pipeline:
    manifest.jsonl   one video per line (see VideoManifest)
    trees file       one bracketed tree per event line, in manifest order
    masks_dir/{video_id}/ev{k}/{np_slug}.json   missing file = rejected NP
    tracks_dir/{video_id}.jsonl                 one event clip per line,
                                                clip_id "{video_id}:{k}"
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .tracks import (
    Mask,
    PointTrack,
    TrajectoryMatrix,
    cell_is_valid,
    condense,
    filter_tracks_by_mask,
    iter_clip_tracks,
    load_mask,
    to_matrix,
)
from .trees import ParseTree, extract_lowest_np, parse_bracketed

log = logging.getLogger("pite.pipeline")


class DataError(ValueError):
    """Unusable input data (missing files, mismatched dimensions, bad schema)."""


@dataclass(frozen=True)
class ManifestEvent:
    caption: str
    start: float
    end: float


@dataclass(frozen=True)
class VideoManifest:
    video_id: str
    duration: float
    width: int
    height: int
    src_frames: int
    events: tuple[ManifestEvent, ...]

    def __post_init__(self):
        if self.duration <= 0:
            raise DataError(f"{self.video_id}: duration must be positive")
        for event in self.events:
            if not event.caption:
                raise DataError(f"{self.video_id}: empty caption")
            if not (0 <= event.start < event.end <= self.duration):
                raise DataError(
                    f"{self.video_id}: event [{event.start}, {event.end}] "
                    f"outside (0, {self.duration}]"
                )

    @classmethod
    def from_json(cls, obj: dict) -> "VideoManifest":
        return cls(
            video_id=str(obj["video_id"]),
            duration=float(obj["duration"]),
            width=int(obj["width"]),
            height=int(obj["height"]),
            src_frames=int(obj["src_frames"]),
            events=tuple(
                ManifestEvent(caption=str(e["caption"]), start=float(e["start"]), end=float(e["end"]))
                for e in obj["events"]
            ),
        )


@dataclass(frozen=True)
class SmallObjectPolicy:
    """Objects whose mask covers less than this fraction of the frame are dropped."""

    min_area_fraction: float = 0.0005

    def __post_init__(self):
        if not 0 <= self.min_area_fraction < 1:
            raise ValueError("min_area_fraction must be in [0, 1)")

    def keep(self, mask: Mask) -> bool:
        return mask.area() >= self.min_area_fraction * mask.width * mask.height


@dataclass
class PipelineConfig:
    frames: int = 100  # N
    points: int = 3  # P
    min_area_fraction: float = 0.0005
    seed: int = 0
    jobs: int = 1

    @property
    def policy(self) -> SmallObjectPolicy:
        return SmallObjectPolicy(self.min_area_fraction)


@dataclass
class EventAnnotation:
    caption: str
    start_frame: int
    end_frame: int
    formatted_text: str
    objects: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "caption": self.caption,
            "start_frame": self.start_frame,
            "end_frame": self.end_frame,
            "formatted_text": self.formatted_text,
            "objects": self.objects,
        }


def timestamp_to_frame(t: float, duration: float, N: int) -> int:
    """Map a timestamp to its 0-based index among N uniformly sampled frames."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return min(max(int(math.floor(t / duration * N)), 0), N - 1)


def format_temporal(caption: str, s: int, e: int) -> str:
    """Append the temporal template "caption, from s to e" to a caption.

    The caption's words keep their indices, so noun-phrase spans over the
    caption also index the formatted text.
    """
    if s > e:
        raise ValueError(f"start frame {s} > end frame {e}")
    return f"{caption}, from {s} to {e}"


def np_slug(text: str) -> str:
    return re.sub(r"\s+", "_", text.strip())


def derive_seed(seed: int, *salt: object) -> int:
    """Stable per-item seed; independent of processing order and platform."""
    digest = hashlib.sha256(":".join(str(s) for s in [seed, *salt]).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def annotate_event(
    event: ManifestEvent,
    tree: ParseTree,
    masks: Mapping[str, Mask],
    tracks: Sequence[PointTrack],
    config: PipelineConfig,
    duration: float,
    src_frames: int,
    width: int,
    height: int,
    clip_id: str = "",
) -> EventAnnotation:
    """Annotate one event: NP extraction, mask gating, condensation, matrices.

    ``masks`` maps NP surface text to its first-frame mask; a missing entry
    means the phrase was rejected as an invalid referring expression.
    Phrases whose mask fails the small-object policy, or with no track
    starting inside the mask, carry no trajectory and are dropped.
    """
    policy = config.policy
    start_frame = timestamp_to_frame(event.start, duration, config.frames)
    end_frame = timestamp_to_frame(event.end, duration, config.frames)
    annotation = EventAnnotation(
        caption=event.caption,
        start_frame=start_frame,
        end_frame=end_frame,
        formatted_text=format_temporal(event.caption, start_frame, end_frame),
    )
    for np_idx, phrase in enumerate(extract_lowest_np(tree)):
        mask = masks.get(phrase.text)
        if mask is None:
            log.debug("%s: no mask for %r, skipping", clip_id, phrase.text)
            continue
        if (mask.width, mask.height) != (width, height):
            raise DataError(
                f"{clip_id}: mask for {phrase.text!r} is {mask.width}x{mask.height}, "
                f"clip is {width}x{height}"
            )
        if not policy.keep(mask):
            log.debug("%s: mask for %r below area threshold", clip_id, phrase.text)
            continue
        selected = filter_tracks_by_mask(tracks, mask)
        if not selected:
            log.debug("%s: no tracks inside mask for %r", clip_id, phrase.text)
            continue
        keypoints = condense(
            selected, config.points, seed=derive_seed(config.seed, clip_id, np_idx)
        )
        matrix = to_matrix(
            keypoints, config.points, config.frames, width, height, src_frames
        )
        annotation.objects.append(
            {
                "np": {"text": phrase.text, "span": list(phrase.span)},
                "trajectory": matrix.to_json(),
            }
        )
    return annotation


def load_manifest(path: str | Path) -> list[VideoManifest]:
    videos = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                videos.append(VideoManifest.from_json(json.loads(line)))
    return videos


def load_event_masks(masks_dir: Path, video_id: str, event_idx: int) -> dict[str, Mask]:
    event_dir = masks_dir / video_id / f"ev{event_idx}"
    masks = {}
    if event_dir.is_dir():
        for mask_path in sorted(event_dir.glob("*.json")):
            masks[mask_path.stem.replace("_", " ")] = load_mask(mask_path)
    return masks


def annotate_video(
    video: VideoManifest,
    trees: Sequence[ParseTree],
    masks_dir: Path,
    tracks_dir: Path,
    config: PipelineConfig,
) -> dict:
    """Produce one output record for a video. ``trees`` align with its events."""
    if len(trees) != len(video.events):
        raise DataError(
            f"{video.video_id}: {len(trees)} trees for {len(video.events)} events"
        )
    tracks_path = tracks_dir / f"{video.video_id}.jsonl"
    if not tracks_path.is_file():
        raise DataError(f"{video.video_id}: missing track file {tracks_path}")
    clips = {clip.clip_id: clip for clip in iter_clip_tracks(tracks_path)}
    events = []
    for idx, (event, tree) in enumerate(zip(video.events, trees)):
        clip_id = f"{video.video_id}:{idx}"
        clip = clips.get(clip_id)
        if clip is None:
            raise DataError(f"missing tracks for clip {clip_id}")
        if (clip.width, clip.height) != (video.width, video.height):
            raise DataError(
                f"{clip_id}: clip is {clip.width}x{clip.height}, "
                f"video is {video.width}x{video.height}"
            )
        tree_caption = tree.text()
        if tree_caption != event.caption:
            raise DataError(
                f"{clip_id}: tree leaves {tree_caption!r} do not spell the "
                f"caption {event.caption!r}"
            )
        masks = load_event_masks(masks_dir, video.video_id, idx)
        events.append(
            annotate_event(
                event,
                tree,
                masks,
                clip.tracks,
                config,
                duration=video.duration,
                src_frames=clip.frames,
                width=video.width,
                height=video.height,
                clip_id=clip_id,
            ).to_json()
        )
    return {"video_id": video.video_id, "events": events}


def run_pipeline(
    manifest_path: str | Path,
    trees_path: str | Path,
    masks_dir: str | Path,
    tracks_dir: str | Path,
    out_path: str | Path,
    config: PipelineConfig | None = None,
    strict: bool = False,
) -> dict:
    """Annotate every video in the manifest; returns summary counts.

    Writes one JSON record per video (JSONL, manifest order).  Per-video
    failures are logged and the video skipped, unless ``strict``.
    """
    config = config or PipelineConfig()
    videos = load_manifest(manifest_path)
    tree_lines = [
        line.strip()
        for line in Path(trees_path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    total_events = sum(len(v.events) for v in videos)
    if len(tree_lines) != total_events:
        raise DataError(
            f"{len(tree_lines)} trees for {total_events} manifest events"
        )
    trees_per_video = []
    cursor = 0
    for video in videos:
        chunk = tree_lines[cursor : cursor + len(video.events)]
        trees_per_video.append([parse_bracketed(line) for line in chunk])
        cursor += len(video.events)

    masks_dir = Path(masks_dir)
    tracks_dir = Path(tracks_dir)

    def work(item):
        video, trees = item
        return annotate_video(video, trees, masks_dir, tracks_dir, config)

    jobs = max(1, config.jobs)
    records: list[dict | None] = [None] * len(videos)
    items = list(zip(videos, trees_per_video))
    if jobs == 1:
        outcomes = []
        for item in items:
            try:
                outcomes.append(work(item))
            except Exception as exc:  # noqa: BLE001 - per-video isolation
                outcomes.append(exc)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(work, item) for item in items]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception as exc:  # noqa: BLE001
                    outcomes.append(exc)
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            if strict:
                raise outcome
            log.error("skipping video %s: %s", videos[i].video_id, outcome)
        else:
            records[i] = outcome

    summary = {"videos": 0, "events": 0, "trajectories": 0}
    with open(out_path, "w", encoding="utf-8") as handle:
        for record in records:
            if record is None:
                continue
            handle.write(json.dumps(record) + "\n")
            summary["videos"] += 1
            summary["events"] += len(record["events"])
            summary["trajectories"] += sum(len(e["objects"]) for e in record["events"])
    return summary


def validate_record(record: dict) -> None:
    """Schema and invariant check for one output record; raises DataError."""
    if not isinstance(record.get("video_id"), str):
        raise DataError("record missing video_id")
    events = record.get("events")
    if not isinstance(events, list):
        raise DataError("record missing events list")
    for event in events:
        for key in ("caption", "start_frame", "end_frame", "formatted_text", "objects"):
            if key not in event:
                raise DataError(f"event missing {key}")
        if event["start_frame"] > event["end_frame"]:
            raise DataError("start_frame > end_frame")
        text = event["formatted_text"]
        if event["caption"] not in text:
            raise DataError("formatted_text does not embed the caption")
        if f"from {event['start_frame']} to {event['end_frame']}" not in text.lower():
            raise DataError("formatted_text does not embed the frame indices")
        for obj in event["objects"]:
            np_field = obj.get("np", {})
            if not np_field.get("text") or "span" not in np_field:
                raise DataError("object missing np text/span")
            traj = obj.get("trajectory", {})
            matrix = TrajectoryMatrix.from_json(traj)  # re-validates cells
            for row in matrix.coords:
                for cell in row:
                    if not cell_is_valid(cell):
                        raise DataError(f"invalid trajectory cell {cell}")
