"""End-to-end annotation pipeline: manifest + trees + masks + tracks -> records.

Per event the flow is: extract lowest-layer noun phrases from the event's
parse tree; drop phrases the mask provider rejected (no mask file) or whose
mask is too small; keep the tracks starting inside the mask; condense them
to P key points; resample onto the P x N trajectory matrix.  Output is one
JSON record per video with the temporal text "caption, from s to e".

File layout consumed by run_pipeline:
    manifest.jsonl   one video per line (see VideoManifest)
    trees file       one bracketed tree per event line, in manifest order
                     (read in step with the manifest, one video at a time)
    masks_dir/{video_id}/ev{k}/{np_slug}.json   the phrase's mask; no file =
                                                rejected NP, other files unread
                                                (np_slug escapes %, _ and /
                                                and writes spaces as _)
    tracks_dir/{video_id}.jsonl                 one event clip per line,
                                                clip_id "{video_id}:{k}"
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .jsonl import DataError, integer, naming, read_jsonl, read_lines, real, text, unique
from .tracks import (
    Tracks,
    condense,
    filter_tracks_by_mask,
    iter_clip_tracks,
    load_mask,
    matrix_from_json,
    matrix_to_json,
    to_matrix,
)
from .trees import ParseTree, extract_lowest_np, parse_bracketed

log = logging.getLogger("pite.pipeline")


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
    events: tuple[ManifestEvent, ...]

    def __post_init__(self):
        if not self.duration > 0:
            raise DataError(f"{self.video_id}: duration must be > 0, got {self.duration}")
        for event in self.events:
            if not (0 <= event.start < event.end <= self.duration):
                raise DataError(
                    f"{self.video_id}: event [{event.start}, {event.end}] "
                    f"outside (0, {self.duration}]"
                )

    @classmethod
    def from_json(cls, obj: dict) -> "VideoManifest":
        return cls(
            video_id=text(obj["video_id"], "video_id"),
            duration=real(obj["duration"], "duration"),
            width=integer(obj["width"], "width"),
            height=integer(obj["height"], "height"),
            events=tuple(
                ManifestEvent(text(e["caption"], "caption"), real(e["start"], "start"), real(e["end"], "end"))
                for e in obj["events"]
            ),
        )


# a phrase whose mask covers a smaller share of the frame is dropped
MIN_AREA_FRACTION = 0.0005


@dataclass
class PipelineConfig:
    """Pipeline options; an out-of-range value raises ValueError at construction."""

    frames: int = 100  # N
    points: int = 3  # P
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


class EventAnnotation(NamedTuple):
    """One annotated event; ``_asdict()`` is its event record."""

    caption: str
    start_frame: int
    end_frame: int
    formatted_text: str
    objects: list[dict]


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


_SLUG_ESCAPES = {"%": "%25", "_": "%5F", "/": "%2F"}


def np_slug(text: str) -> str:
    """Mask file stem for a phrase: the one statement of the mask-naming rule.

    ``%``, ``_`` and ``/`` are percent-escaped first, then each whitespace
    run becomes ``_``, so the stem never names a subdirectory.
    """
    for char, escape in _SLUG_ESCAPES.items():
        text = text.replace(char, escape)
    return re.sub(r"\s+", "_", text.strip())


def derive_seed(seed: int, *salt: object) -> int:
    """Stable per-item seed; independent of processing order and platform."""
    digest = hashlib.sha256(":".join(str(s) for s in [seed, *salt]).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# the reasons phrase_trajectory gives for a phrase that carries no trajectory
NO_MASK = "no mask"
SMALL_MASK = "mask below area threshold"
NO_TRACKS = "no tracks inside mask"


def phrase_trajectory(
    tracks: Tracks, mask: np.ndarray | None, width: int, height: int, config: PipelineConfig, seed: int
) -> np.ndarray | str:
    """One phrase's (P, N, 2) trajectory matrix, or the reason it has none.

    The reasons: no mask (``NO_MASK``), a mask covering less than
    ``MIN_AREA_FRACTION`` of the frame (``SMALL_MASK``), no track starting
    inside the mask (``NO_TRACKS``).  A mask of another size than the clip
    raises DataError; a fault in the tracks raises ValueError.
    """
    if mask is None:
        return NO_MASK
    if mask.shape != (height, width):
        raise DataError(f"mask is {mask.shape[1]}x{mask.shape[0]}, clip is {width}x{height}")
    if np.count_nonzero(mask) < MIN_AREA_FRACTION * width * height:
        return SMALL_MASK
    selected = filter_tracks_by_mask(tracks, mask)
    if not selected:
        return NO_TRACKS
    keypoints = condense(selected, config.points, seed=seed)
    return to_matrix(keypoints, config.points, config.frames, width, height)


def annotate_event(
    event: ManifestEvent,
    tree: ParseTree,
    masks: Callable[[str], np.ndarray | None],
    tracks: Tracks,
    config: PipelineConfig,
    duration: float,
    width: int,
    height: int,
    clip_id: str = "",
) -> EventAnnotation:
    """Annotate one event: NP extraction, then ``phrase_trajectory`` per phrase.

    ``masks(text)`` is the (height, width) bool first-frame mask of the NP
    with surface text ``text``, or None if the mask provider rejected it.  Phrase ``i``
    seeds k-means with ``derive_seed(config.seed, clip_id, i)``; a phrase
    that gets a drop reason is left out of the objects, and one whose
    ``phrase_trajectory`` fails raises DataError naming ``clip_id`` and it.
    """
    start_frame = timestamp_to_frame(event.start, duration, config.frames)
    end_frame = timestamp_to_frame(event.end, duration, config.frames)
    annotation = EventAnnotation(
        caption=event.caption,
        start_frame=start_frame,
        end_frame=end_frame,
        formatted_text=format_temporal(event.caption, start_frame, end_frame),
        objects=[],
    )
    for np_idx, phrase in enumerate(extract_lowest_np(tree)):
        mask = masks(phrase.text)
        seed = derive_seed(config.seed, clip_id, np_idx)
        with naming(f"{clip_id}: {phrase.text!r}"):
            matrix = phrase_trajectory(tracks, mask, width, height, config, seed)
        if isinstance(matrix, str):
            log.debug("%s: %r dropped: %s", clip_id, phrase.text, matrix)
            continue
        annotation.objects.append(
            {
                "np": {"text": phrase.text, "span": list(phrase.span)},
                "trajectory": matrix_to_json(matrix),
            }
        )
    return annotation


def _phrase_mask(event_dir: Path, phrase: str) -> np.ndarray | None:
    """The mask ``np_slug`` names for ``phrase`` in ``event_dir``, or None if it is no regular file.

    ``os.path.isfile``, unlike ``Path.is_file``, reads a name too long for
    the file system as no file instead of raising.
    """
    path = event_dir / f"{np_slug(phrase)}.json"
    return load_mask(path) if os.path.isfile(path) else None


def annotate_video(
    video: VideoManifest,
    tree_lines: Sequence[tuple[str, str]],
    masks_dir: Path,
    tracks_dir: Path,
    config: PipelineConfig,
) -> dict:
    """Produce one output record for a video from one ``read_lines`` pair per event."""
    trees = []
    for location, line in tree_lines:  # trees.parse_tree, through this module's parse_bracketed
        with naming(location):
            trees.append(parse_bracketed(line))
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
        events.append(
            annotate_event(
                event,
                tree,
                functools.partial(_phrase_mask, masks_dir / video.video_id / f"ev{idx}"),
                clip.tracks,
                config,
                duration=video.duration,
                width=video.width,
                height=video.height,
                clip_id=clip_id,
            )._asdict()
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

    The manifest and the trees are read in step, one video at a time.  Trees
    that run out, or lines left after the last video, raise DataError naming
    the trees file and the video, or the first extra line, when reached.
    Writes one JSON record per video (JSONL, manifest order) as each video
    finishes; each record passes ``validate_record`` before it is written.
    Per-video failures, invalid records included, are logged and the video
    skipped, unless ``strict``.  ``config.jobs > 1`` annotates in forked
    worker processes; the output is the same for every ``jobs``.  Records go
    to a temporary file next to ``out_path`` that replaces it only when the
    run succeeds, so a failed run leaves an existing ``out_path`` as it was.
    """
    config = config or PipelineConfig()
    masks_dir, tracks_dir = Path(masks_dir), Path(tracks_dir)

    def work() -> Iterator[tuple]:
        tree_lines = read_lines(trees_path)
        for video in read_jsonl(manifest_path, unique(VideoManifest.from_json, "video_id")):
            chunk = list(itertools.islice(tree_lines, len(video.events)))
            if len(chunk) < len(video.events):
                raise DataError(
                    f"{trees_path}: {len(chunk)} trees for the "
                    f"{len(video.events)} events of {video.video_id}"
                )
            yield video, chunk, masks_dir, tracks_dir, config
        extra = next(tree_lines, None)
        if extra is not None:
            raise DataError(f"{extra[0]}: trees for more events than {manifest_path} lists")

    items = work()
    # read ahead at most config.jobs videos, so that no worker starts without one
    ahead = list(itertools.islice(items, config.jobs))
    summary = {"videos": 0, "events": 0, "trajectories": 0}
    with _replaced_on_success(out_path) as handle, contextlib.closing(
        _annotated(itertools.chain(ahead, items), len(ahead))
    ) as outcomes:
        for video, outcome in outcomes:
            try:
                record = outcome()
                validate_record(record)
            except Exception as exc:  # noqa: BLE001 - per-video isolation
                if strict:
                    raise
                log.error("skipping video %s: %s", video.video_id, exc)
                continue
            handle.write(json.dumps(record) + "\n")
            summary["videos"] += 1
            summary["events"] += len(record["events"])
            summary["trajectories"] += sum(len(e["objects"]) for e in record["events"])
    return summary


@contextlib.contextmanager
def _replaced_on_success(path: str | Path) -> Iterator[TextIO]:
    """Open a text file that becomes ``path`` only if the ``with`` block completes.

    A regular file (after following symlinks) is written as a temporary
    file beside it that replaces it at the end, so a failed run leaves it as
    it was.  A device or pipe, such as ``/dev/null``, is written in place:
    replacing it would put a regular file where the device was.  A failure
    to create the temporary file names ``path`` as given.
    """
    given, path = path, Path(path).resolve()
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        handle = open(partial, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(given)) from None
    try:
        with handle:
            yield handle
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _annotated(
    work: Iterator[tuple], workers: int
) -> Iterator[tuple[VideoManifest, Callable[[], dict]]]:
    """Yield ``(video, outcome)`` for each ``annotate_video`` argument tuple, in order.

    ``outcome()`` returns the video's record or raises its failure.  With one
    worker the video is annotated in this process when ``outcome`` is called.
    Otherwise ``workers`` forked processes annotate ahead of the caller, with
    at most ``2 * workers`` videos submitted and not yet yielded back.
    """
    if workers <= 1:
        for args in work:
            yield args[0], functools.partial(annotate_video, *args)
        return
    import multiprocessing  # imported here so that importing pite does not pay for it

    # fork, not spawn: a spawned worker imports numpy and pite afresh (about 0.15 s)
    pool = concurrent.futures.ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")
    )
    try:
        pending = collections.deque()
        for args in work:
            if len(pending) == 2 * workers:
                yield pending.popleft()
            pending.append((args[0], pool.submit(_annotate_job, *args).result))
        while pending:
            yield pending.popleft()
    finally:
        pool.shutdown(cancel_futures=True)


def _annotate_job(*args) -> dict:
    """Run ``annotate_video`` as this module binds it when the job runs.

    A forked worker sees the binding its parent had at the fork, so a
    replacement installed before ``run_pipeline`` (a test double) reaches
    the workers too.
    """
    return annotate_video(*args)


def validate_record(record: dict) -> None:
    """Schema and invariant check for one output record; raises only DataError.

    Each field is read through the ``pite.jsonl`` readers.  A fault inside an
    event is reported with the video id and event index.
    """
    with naming("record video_id"):
        video_id = text(record["video_id"], "video_id")
    events = record.get("events")
    if not isinstance(events, list):
        raise DataError("record missing events list")
    for event_idx, event in enumerate(events):
        with naming(f"{video_id} event {event_idx}"):
            _check_event(event)


def _check_event(event: dict) -> None:
    caption, formatted = text(event["caption"], "caption"), text(event["formatted_text"], "formatted_text")
    start, end = integer(event["start_frame"], "start_frame"), integer(event["end_frame"], "end_frame")
    expected = format_temporal(caption, start, end)
    if formatted != expected:
        raise DataError(f"formatted_text {formatted!r} is not {expected!r}")
    words = len(caption.split())
    for obj in event["objects"]:
        np_field = obj.get("np", {})
        text(np_field.get("text"), "np text")
        lo, hi = np_field["span"]
        lo, hi = integer(lo, "span start"), integer(hi, "span end")
        if not 0 <= lo < hi <= words:
            raise DataError(f"span [{lo}, {hi}] is not a word range of the {words}-word caption")
        matrix_from_json(obj["trajectory"])
