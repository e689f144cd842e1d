import concurrent.futures
import json
import logging
import os
import shutil
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pite import pipeline
from pite.cli import main
from pite.pipeline import (
    NO_MASK,
    NO_TRACKS,
    SMALL_MASK,
    DataError,
    ManifestEvent,
    PipelineConfig,
    VideoManifest,
    annotate_event,
    derive_seed,
    format_temporal,
    np_slug,
    phrase_trajectory,
    run_pipeline,
    timestamp_to_frame,
    validate_record,
)
from pite.tracks import Tracks, load_mask, matrix_to_json
from pite.trees import parse_bracketed


def test_timestamp_to_frame_basics():
    assert timestamp_to_frame(0.0, 10.0, 100) == 0
    assert timestamp_to_frame(10.0, 10.0, 100) == 99  # clamp at the end
    assert timestamp_to_frame(5.0, 10.0, 100) == 50


def test_timestamp_to_frame_bad_duration():
    with pytest.raises(ValueError):
        timestamp_to_frame(1.0, 0.0, 100)


def test_format_temporal():
    assert format_temporal("a dog runs", 3, 40) == "a dog runs, from 3 to 40"
    assert format_temporal("x", 7, 7) == "x, from 7 to 7"
    with pytest.raises(ValueError):
        format_temporal("x", 8, 7)


def test_manifest_validation():
    with pytest.raises(DataError, match="duration"):
        VideoManifest("v", 0.0, 8, 8, ())
    with pytest.raises(DataError, match="outside"):
        VideoManifest("v", 5.0, 8, 8, (ManifestEvent("c", 2.0, 7.0),))


def test_small_object_policy():
    # in a 50x50 frame one pixel is 0.0004 of the area, below MIN_AREA_FRACTION
    assert pipeline.MIN_AREA_FRACTION == 0.0005
    config = PipelineConfig(frames=10, points=2)
    small = np.pad(np.ones((1, 1), dtype=bool), ((0, 49), (0, 49)))
    big = np.pad(np.ones((5, 5), dtype=bool), ((0, 45), (0, 45)))

    def keep(mask):
        annotation = annotate_event(
            ManifestEvent(caption="a dog", start=0.0, end=1.0),
            parse_bracketed("(TOP (NP a dog))"),
            {"a dog": mask}.get,
            tracks_at([(0.5, 0.5)]),
            config,
            duration=10.0,
            width=50,
            height=50,
        )
        return bool(annotation.objects)

    assert not keep(small)
    assert keep(big)


@pytest.mark.parametrize(
    "field, value",
    [
        ("frames", 0),
        ("points", 0),
        ("jobs", 0),
        ("jobs", -3),
    ],
)
def test_pipeline_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_np_slug():
    assert np_slug("a white table") == "a_white_table"
    assert np_slug(" two  people ") == "two_people"


def dog_video_inputs(toy_fixture_dir, dest, phrases, masked):
    """Inputs for vid_dog alone, its caption the NPs ``phrases`` joined by "and".

    Each phrase in ``masked`` gets the dog's mask, saved under its ``np_slug``.
    Returns the four ``run_pipeline`` input paths.
    """
    video = json.loads((toy_fixture_dir / "manifest.jsonl").read_text().splitlines()[1])
    video["events"][0]["caption"] = " and ".join(phrases)
    (dest / "manifest.jsonl").write_text(json.dumps(video) + "\n")
    (dest / "trees.txt").write_text("(TOP (S " + " (CC and) ".join(f"(NP {p})" for p in phrases) + "))\n")
    event_dir = dest / "masks" / "vid_dog" / "ev0"
    event_dir.mkdir(parents=True)
    dog_mask = toy_fixture_dir / "masks" / "vid_dog" / "ev0" / "a_dog.json"
    for phrase in masked:
        shutil.copy(dog_mask, event_dir / f"{np_slug(phrase)}.json")
    return dest / "manifest.jsonl", dest / "trees.txt", dest / "masks", toy_fixture_dir / "tracks"


def test_phrases_find_the_masks_named_by_np_slug(toy_fixture_dir, tmp_path):
    phrases = ["t_shirt", "a/b", "50%", "a white table", "%5F_%2F/", "the 100 %_x/ y"]
    assert np_slug("t_shirt") == "t%5Fshirt" and np_slug("a/b") == "a%2Fb"
    assert not any("/" in np_slug(phrase) for phrase in phrases)
    out = tmp_path / "out.jsonl"
    run_pipeline(*dog_video_inputs(toy_fixture_dir, tmp_path, phrases, phrases), out, strict=True)
    (event,) = json.loads(out.read_text())["events"]
    assert [o["np"]["text"] for o in event["objects"]] == phrases


@pytest.mark.parametrize("phrase", ["x" * 300, "a\0b"], ids=["too-long-for-a-file-name", "nul"])
def test_phrase_without_a_possible_mask_file_drops_as_no_mask(toy_fixture_dir, tmp_path, capsys, caplog, phrase):
    inputs = dog_video_inputs(toy_fixture_dir, tmp_path, ["a dog", phrase], ["a dog"])
    args = ["build-dataset", "--strict", "--out", str(tmp_path / "out.jsonl")]
    for flag, path in zip(["--manifest", "--trees", "--masks", "--tracks"], inputs):
        args += [flag, str(path)]
    with caplog.at_level(logging.DEBUG, logger="pite.pipeline"):
        assert main(args) == 0
    assert json.loads(capsys.readouterr().out) == {"videos": 1, "events": 1, "trajectories": 1}
    assert f"vid_dog:0: {phrase!r} dropped: {NO_MASK}" in caplog.text
    (event,) = json.loads((tmp_path / "out.jsonl").read_text())["events"]
    assert [o["np"]["text"] for o in event["objects"]] == ["a dog"]


def test_pipeline_loads_masks_through_the_module_name(toy_fixture_dir, tmp_path, monkeypatch):
    loaded = []

    def counting_load_mask(path):
        loaded.append(Path(path))
        return load_mask(path)

    # the bench's tracks.load_mask span wraps this binding
    monkeypatch.setattr(pipeline, "load_mask", counting_load_mask)
    run_pipeline(*fixture_args(toy_fixture_dir, tmp_path / "out.jsonl"), strict=True)
    assert len(loaded) == 8
    assert sorted(loaded) == sorted((toy_fixture_dir / "masks").rglob("*.json"))


# --- annotate_event -----------------------------------------------------------


def full_mask(width, height):
    return np.ones((height, width), dtype=bool)


def tracks_at(points, n_frames=10):
    xy = np.repeat(np.asarray(points, dtype=float)[:, None, :], n_frames, axis=1)
    return Tracks(xy=xy, vis=np.ones(xy.shape[:2], dtype=bool))


EVENT_CONFIG = PipelineConfig(frames=10, points=2)


def test_annotate_event_drops_unmasked_phrase(fig3_trees):
    tree = parse_bracketed(fig3_trees[1])
    event = ManifestEvent(caption=tree.text(), start=0.0, end=5.0)
    masks = {
        "two people": full_mask(16, 16),
        "hands": full_mask(16, 16),
        "a desk": full_mask(16, 16),
        # "front" has no mask
    }
    # two partitions of the square's corners tie, so the matrix depends on the seed
    tracks = tracks_at([(2.0, 2.0), (2.0, 12.0), (12.0, 2.0), (12.0, 12.0)])
    annotation = annotate_event(
        event,
        tree,
        masks.get,
        tracks,
        EVENT_CONFIG,
        duration=10.0,
        width=16,
        height=16,
        clip_id="v:0",
    )
    assert [o["np"]["text"] for o in annotation.objects] == [
        "two people",
        "hands",
        "a desk",
    ]
    assert phrase_trajectory(tracks, None, 16, 16, EVENT_CONFIG, 0) == NO_MASK
    # "a desk" is phrase 3, after the unmasked "front"
    seed = derive_seed(EVENT_CONFIG.seed, "v:0", 3)
    matrix = phrase_trajectory(tracks, masks["a desk"], 16, 16, EVENT_CONFIG, seed)
    assert matrix_to_json(matrix) == annotation.objects[2]["trajectory"]


def test_annotate_event_drops_small_mask(fig3_trees):
    tree = parse_bracketed(fig3_trees[0])
    event = ManifestEvent(caption=tree.text(), start=0.0, end=5.0)
    # one pixel of a 64x64 frame is below MIN_AREA_FRACTION
    tiny = np.zeros((64, 64), dtype=bool)
    tiny[3, 3] = True
    masks = {
        "woman": full_mask(64, 64),
        "money": full_mask(64, 64),
        "a pen": tiny,
        "a white table": full_mask(64, 64),
    }
    tracks = tracks_at([(2.0, 2.0), (9.0, 9.0)])
    assert phrase_trajectory(tracks, masks["a pen"], 64, 64, EVENT_CONFIG, 0) == SMALL_MASK
    annotation = annotate_event(
        event,
        tree,
        masks.get,
        tracks,
        EVENT_CONFIG,
        duration=10.0,
        width=64,
        height=64,
    )
    assert [o["np"]["text"] for o in annotation.objects] == [
        "woman",
        "money",
        "a white table",
    ]


def test_annotate_event_zero_surviving_nps():
    tree = parse_bracketed("(TOP (NP a ghost))")
    event = ManifestEvent(caption="a ghost", start=1.0, end=2.0)
    annotation = annotate_event(
        event,
        tree,
        {}.get,
        tracks_at([(2.0, 2.0)]),
        EVENT_CONFIG,
        duration=10.0,
        width=16,
        height=16,
    )
    assert annotation.objects == []
    assert annotation.formatted_text == "a ghost, from 1 to 2"


def test_annotate_event_mask_dimension_mismatch():
    tree = parse_bracketed("(TOP (NP a dog))")
    event = ManifestEvent(caption="a dog", start=0.0, end=1.0)
    tracks = tracks_at([(2.0, 2.0)])
    with pytest.raises(DataError, match=r"^mask is 8x8, clip is 16x16$"):
        phrase_trajectory(tracks, full_mask(8, 8), 16, 16, EVENT_CONFIG, 0)
    with pytest.raises(DataError, match=r"^v:0: 'a dog': DataError: mask is 8x8, clip is 16x16$"):
        annotate_event(
            event,
            tree,
            {"a dog": full_mask(8, 8)}.get,
            tracks,
            EVENT_CONFIG,
            duration=10.0,
            width=16,
            height=16,
            clip_id="v:0",
        )


def test_annotate_event_names_clip_and_phrase_of_point_outside_frame():
    tracks = tracks_at([(2.0, 2.0)])
    tracks.xy[0, 5:] = (20.0, 4.0)  # visible, but past the right edge
    with pytest.raises(DataError, match=r"^v:0: 'a dog': ValueError: invalid cell \(1.25, 0.25\)"):
        annotate_event(
            ManifestEvent(caption="a dog", start=0.0, end=1.0),
            parse_bracketed("(TOP (NP a dog))"),
            {"a dog": full_mask(16, 16)}.get,
            tracks,
            EVENT_CONFIG,
            duration=10.0,
            width=16,
            height=16,
            clip_id="v:0",
        )


def test_annotate_event_drops_trackless_object():
    tree = parse_bracketed("(TOP (NP a dog))")
    event = ManifestEvent(caption="a dog", start=0.0, end=1.0)
    left = np.zeros((16, 16), dtype=bool)
    left[:, :4] = True
    tracks = tracks_at([(12.0, 2.0)])  # starts outside the mask
    assert phrase_trajectory(tracks, left, 16, 16, EVENT_CONFIG, 0) == NO_TRACKS
    annotation = annotate_event(
        event,
        tree,
        {"a dog": left}.get,
        tracks,
        EVENT_CONFIG,
        duration=10.0,
        width=16,
        height=16,
    )
    assert annotation.objects == []


# --- run_pipeline ----------------------------------------------------------------


def fixture_args(toy_fixture_dir, out):
    return (
        toy_fixture_dir / "manifest.jsonl",
        toy_fixture_dir / "trees.txt",
        toy_fixture_dir / "masks",
        toy_fixture_dir / "tracks",
        out,
    )


def test_pipeline_toy_fixture_summary(toy_fixture_dir, tmp_path):
    out = tmp_path / "out.jsonl"
    summary = run_pipeline(*fixture_args(toy_fixture_dir, out), strict=True)
    assert summary == {"videos": 2, "events": 3, "trajectories": 7}
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["video_id"] for r in records] == ["vid_money", "vid_dog"]
    for record in records:
        validate_record(record)
    by_event = {
        ev["caption"]: [o["np"]["text"] for o in ev["objects"]]
        for r in records
        for ev in r["events"]
    }
    assert by_event["woman is counting money with a pen on a white table"] == [
        "woman",
        "money",
        "a white table",
    ]
    assert by_event["two people shaking hands in front of a desk"] == [
        "two people",
        "hands",
        "a desk",
    ]
    assert by_event["a dog runs"] == ["a dog"]


def test_pipeline_event_counts_match_manifest(toy_fixture_dir, tmp_path):
    out = tmp_path / "out.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, out), strict=True)
    records = {  # video_id -> n events
        (r := json.loads(line))["video_id"]: len(r["events"])
        for line in out.read_text().splitlines()
    }
    manifest = [
        json.loads(line)
        for line in (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    ]
    for video in manifest:
        assert records[video["video_id"]] == len(video["events"])


def test_pipeline_byte_identical_reruns(toy_fixture_dir, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, out1), PipelineConfig(seed=5), strict=True)
    run_pipeline(*fixture_args(toy_fixture_dir, out2), PipelineConfig(seed=5), strict=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_pipeline_parallel_matches_serial(toy_fixture_dir, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, out1), PipelineConfig(jobs=1), strict=True)
    run_pipeline(*fixture_args(toy_fixture_dir, out2), PipelineConfig(jobs=4), strict=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_pipeline_jobs_match_with_failing_video(toy_fixture_dir, tmp_path, monkeypatch, caplog):
    # forked workers see the patched annotate_video; skips are logged in this process
    monkeypatch.setattr(pipeline, "annotate_video", bad_dog)
    outputs, strict_errors = set(), set()
    for jobs in (1, 2, 4):
        out = tmp_path / f"jobs{jobs}.jsonl"
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="pite.pipeline"):
            summary = run_pipeline(*fixture_args(toy_fixture_dir, out), PipelineConfig(jobs=jobs))
        assert summary == {"videos": 1, "events": 2, "trajectories": 6}
        assert "skipping video vid_dog: vid_dog event 0: " in caplog.text
        outputs.add(out.read_bytes())
        with pytest.raises(DataError, match="vid_dog event 0") as failure:
            run_pipeline(
                *fixture_args(toy_fixture_dir, tmp_path / "strict.jsonl"),
                PipelineConfig(jobs=jobs),
                strict=True,
            )
        strict_errors.add((type(failure.value), str(failure.value)))
    assert len(outputs) == 1 and len(strict_errors) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_pipeline_strict_failure_keeps_existing_output(toy_fixture_dir, tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(pipeline, "annotate_video", bad_dog)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "dataset.jsonl"
    out.write_bytes(b"an earlier run\n")
    with pytest.raises(DataError, match="vid_dog event 0"):
        run_pipeline(*fixture_args(toy_fixture_dir, out), PipelineConfig(jobs=jobs), strict=True)
    assert out.read_bytes() == b"an earlier run\n"
    assert list(out_dir.iterdir()) == [out]


def test_pipeline_writes_through_symlink_and_into_pipe(toy_fixture_dir, tmp_path):
    expected = tmp_path / "expected.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, expected), strict=True)

    target = tmp_path / "target.jsonl"
    target.write_text("an earlier run\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    run_pipeline(*fixture_args(toy_fixture_dir, link), strict=True)
    assert link.is_symlink() and target.read_bytes() == expected.read_bytes()

    # a pipe (or a device such as /dev/null) is written in place, never replaced
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    run_pipeline(*fixture_args(toy_fixture_dir, fifo), strict=True)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [expected.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "expected.jsonl", "fifo", "link.jsonl", "target.jsonl"
    ]


def replicated_fixture(toy_fixture_dir, dest, copies):
    """The toy fixture with every video repeated ``copies`` times under new ids."""
    videos = [
        json.loads(line) for line in (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    ]
    tree_lines = iter((toy_fixture_dir / "trees.txt").read_text().splitlines())
    chunks = [[next(tree_lines) for _ in video["events"]] for video in videos]
    manifest, trees = [], []
    (dest / "tracks").mkdir(parents=True)
    for copy in range(copies):
        for video, chunk in zip(videos, chunks):
            video_id = f"{video['video_id']}_{copy}"
            manifest.append(json.dumps({**video, "video_id": video_id}))
            trees += chunk
            clips = (toy_fixture_dir / "tracks" / f"{video['video_id']}.jsonl").read_text()
            (dest / "tracks" / f"{video_id}.jsonl").write_text(
                clips.replace(f'"{video["video_id"]}:', f'"{video_id}:')
            )
            shutil.copytree(toy_fixture_dir / "masks" / video["video_id"], dest / "masks" / video_id)
    (dest / "manifest.jsonl").write_text("\n".join(manifest) + "\n")
    (dest / "trees.txt").write_text("\n".join(trees) + "\n")
    return (dest / "manifest.jsonl", dest / "trees.txt", dest / "masks", dest / "tracks")


def test_pipeline_bounds_videos_in_flight(toy_fixture_dir, tmp_path, monkeypatch):
    inputs = replicated_fixture(toy_fixture_dir, tmp_path / "in", copies=5)
    executors = []

    class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
        """Stands in for the process pool; counts futures submitted and not yet read."""

        def __init__(self, max_workers, mp_context):
            super().__init__(max_workers)
            self.workers, self.start_method = max_workers, mp_context.get_start_method()
            self.unread = self.peak_unread = 0
            executors.append(self)

        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            self.unread += 1
            self.peak_unread = max(self.peak_unread, self.unread)
            result = future.result

            def read(timeout=None):
                self.unread -= 1
                return result(timeout)

            future.result = read
            return future

    serial = tmp_path / "serial.jsonl"
    assert run_pipeline(*inputs, serial, strict=True)["videos"] == 10
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    out = tmp_path / "jobs2.jsonl"
    run_pipeline(*inputs, out, PipelineConfig(jobs=2), strict=True)
    [executor] = executors
    assert (executor.workers, executor.start_method) == (2, "fork")
    assert executor.peak_unread == 2 * 2
    assert executor.unread == 0
    assert out.read_bytes() == serial.read_bytes()


def test_pipeline_order_independent(toy_fixture_dir, tmp_path):
    # reverse the manifest (and the tree lines with it): same records, permuted
    manifest_lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    tree_lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    counts = [len(json.loads(line)["events"]) for line in manifest_lines]
    chunks, cursor = [], 0
    for count in counts:
        chunks.append(tree_lines[cursor : cursor + count])
        cursor += count
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join(reversed(manifest_lines)) + "\n"
    )
    (tmp_path / "trees.txt").write_text(
        "\n".join(line for chunk in reversed(chunks) for line in chunk) + "\n"
    )
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, out1), strict=True)
    run_pipeline(
        tmp_path / "manifest.jsonl",
        tmp_path / "trees.txt",
        toy_fixture_dir / "masks",
        toy_fixture_dir / "tracks",
        out2,
        strict=True,
    )
    assert sorted(out1.read_text().splitlines()) == sorted(out2.read_text().splitlines())


def test_pipeline_ignores_manifest_src_frames(toy_fixture_dir, tmp_path):
    # the source frame count of each clip comes from its track file, so a
    # manifest key that disagrees with it (240 and 192 there) changes nothing
    lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    videos = [{**json.loads(line), "src_frames": 1000} for line in lines]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(video) + "\n" for video in videos))
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_pipeline(*fixture_args(toy_fixture_dir, out1), strict=True)
    run_pipeline(manifest, *fixture_args(toy_fixture_dir, out2)[1:], strict=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_pipeline_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    trees = tmp_path / "trees.txt"
    trees.write_text("")
    out = tmp_path / "out.jsonl"
    summary = run_pipeline(manifest, trees, tmp_path, tmp_path, out)
    assert summary == {"videos": 0, "events": 0, "trajectories": 0}
    assert out.read_text() == ""


def test_pipeline_skips_broken_video_unless_strict(toy_fixture_dir, tmp_path, caplog):
    manifest_lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    broken = json.loads(manifest_lines[0])
    broken["video_id"] = "vid_missing_tracks"
    (tmp_path / "manifest.jsonl").write_text(
        "\n".join(manifest_lines + [json.dumps(broken)]) + "\n"
    )
    tree_lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    (tmp_path / "trees.txt").write_text("\n".join(tree_lines + tree_lines[:2]) + "\n")
    args = (
        tmp_path / "manifest.jsonl",
        tmp_path / "trees.txt",
        toy_fixture_dir / "masks",
        toy_fixture_dir / "tracks",
        tmp_path / "out.jsonl",
    )
    summary = run_pipeline(*args)
    assert summary["videos"] == 2  # broken video skipped
    with pytest.raises(DataError, match="missing track file"):
        run_pipeline(*args, strict=True)


ANNOTATE_VIDEO = pipeline.annotate_video


def bad_dog(video, *args):
    """``annotate_video``, but vid_dog's record has a cell outside the frame."""
    record = ANNOTATE_VIDEO(video, *args)
    if video.video_id == "vid_dog":
        record["events"][0]["objects"][0]["trajectory"]["coords"][0][0] = [1.5, 0.5]
    return record


def test_pipeline_validates_records_before_writing(
    toy_fixture_dir, tmp_path, monkeypatch, caplog, capsys
):
    monkeypatch.setattr(pipeline, "annotate_video", bad_dog)
    out = tmp_path / "out.jsonl"
    with caplog.at_level(logging.ERROR, logger="pite.pipeline"):
        summary = run_pipeline(*fixture_args(toy_fixture_dir, out))
    assert summary == {"videos": 1, "events": 2, "trajectories": 6}
    assert [json.loads(line)["video_id"] for line in out.read_text().splitlines()] == [
        "vid_money"
    ]
    assert "skipping video vid_dog" in caplog.text
    assert "invalid cell (1.5, 0.5)" in caplog.text

    with pytest.raises(DataError, match=r"vid_dog event 0: .*invalid cell"):
        run_pipeline(*fixture_args(toy_fixture_dir, out), strict=True)
    code = main(
        [
            "build-dataset",
            "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
            "--trees", str(toy_fixture_dir / "trees.txt"),
            "--masks", str(toy_fixture_dir / "masks"),
            "--tracks", str(toy_fixture_dir / "tracks"),
            "--out", str(out),
            "--strict",
        ]
    )
    assert code == 2
    assert "vid_dog event 0" in capsys.readouterr().err


def test_pipeline_tree_count_mismatch(toy_fixture_dir, tmp_path):
    trees = tmp_path / "trees.txt"
    trees.write_text((toy_fixture_dir / "trees.txt").read_text().splitlines()[0] + "\n")
    with pytest.raises(DataError, match="trees for"):
        run_pipeline(
            toy_fixture_dir / "manifest.jsonl",
            trees,
            toy_fixture_dir / "masks",
            toy_fixture_dir / "tracks",
            tmp_path / "out.jsonl",
        )


@pytest.mark.parametrize("videos", [1_000, 10_000])
def test_pipeline_memory_does_not_grow_with_the_manifest(tmp_path, monkeypatch, videos):
    # one-event videos whose annotation is stubbed out, so what is left to grow
    # is what run_pipeline keeps of the manifest and the trees
    event = {"caption": "a dog", "start": 0.0, "end": 1.0}
    manifest, trees = tmp_path / "manifest.jsonl", tmp_path / "trees.txt"
    manifest.write_text("".join(
        json.dumps({"video_id": f"v{i:05d}", "duration": 2.0, "width": 32, "height": 32,
                    "events": [event]}) + "\n"
        for i in range(videos)
    ))
    trees.write_text("(TOP (NP a dog))\n" * videos)
    monkeypatch.setattr(
        pipeline, "annotate_video", lambda video, *args: {"video_id": video.video_id, "events": []}
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = run_pipeline(manifest, trees, tmp_path, tmp_path, tmp_path / "out.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["videos"] == videos
    assert (peak - before) / videos < 300  # bytes per video; the seen-id set is about 120


def test_pipeline_tree_caption_mismatch(toy_fixture_dir, tmp_path):
    tree_lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    tree_lines[0], tree_lines[2] = tree_lines[2], tree_lines[0]
    trees = tmp_path / "trees.txt"
    trees.write_text("\n".join(tree_lines) + "\n")
    with pytest.raises(DataError, match="caption"):
        run_pipeline(
            toy_fixture_dir / "manifest.jsonl",
            trees,
            toy_fixture_dir / "masks",
            toy_fixture_dir / "tracks",
            tmp_path / "out.jsonl",
            strict=True,
        )


def record_with_object(obj):
    return {
        "video_id": "v",
        "events": [
            {
                "caption": "c",
                "start_frame": 0,
                "end_frame": 1,
                "formatted_text": "c, from 0 to 1",
                "objects": [],
            },
            {
                "caption": "c",
                "start_frame": 0,
                "end_frame": 1,
                "formatted_text": "c, from 0 to 1",
                "objects": [{"np": {"text": "c", "span": [0, 1]}, **obj}],
            },
        ],
    }


def matrix_json(coords):
    return {"trajectory": {"points": len(coords), "frames": len(coords[0]), "coords": coords}}


def test_validate_record_rejects_bad_matrix():
    with pytest.raises(DataError, match="v event 1: ValueError: invalid cell"):
        validate_record(record_with_object(matrix_json([[[-1.0, 0.5]]])))


def test_validate_record_rejects_missing_trajectory():
    with pytest.raises(DataError, match="v event 1: KeyError: 'trajectory'"):
        validate_record(record_with_object({}))


def test_validate_record_rejects_out_of_range_cell():
    with pytest.raises(DataError, match=r"v event 1: .*invalid cell \(2.0, 0.5\)"):
        validate_record(record_with_object(matrix_json([[[0.5, 0.5], [2.0, 0.5]]])))


def test_validate_record_rejects_malformed_fields():
    record = record_with_object(matrix_json([[[0.5, 0.5]]]))
    record["events"][1]["objects"].append("not an object")
    with pytest.raises(DataError, match="v event 1: AttributeError"):
        validate_record(record)
    record["events"][0]["start_frame"] = "0"
    with pytest.raises(DataError, match="v event 0: TypeError"):
        validate_record(record)
    with pytest.raises(DataError, match="video_id"):
        validate_record([])


def test_validate_record_rejects_misdeclared_shape():
    obj = matrix_json([[[0.5, 0.5], [0.25, 0.5]]])
    obj["trajectory"]["frames"] = 3
    with pytest.raises(DataError, match="coords shape"):
        validate_record(record_with_object(obj))
    validate_record(record_with_object(matrix_json([[[0.5, 0.5], [-1.0, -1.0]]])))


def dog_record():
    return {
        "video_id": "v",
        "events": [
            {
                "caption": "a dog",
                "start_frame": 0,
                "end_frame": 1,
                "formatted_text": "a dog, from 0 to 1",
                "objects": [
                    {
                        "np": {"text": "a dog", "span": [0, 2]},
                        "trajectory": {"points": 1, "frames": 1, "coords": [[[0.5, 0.5]]]},
                    }
                ],
            }
        ],
    }


@pytest.mark.parametrize(
    "where, change, message",
    [
        ("np", {"span": [-2, 1]}, "DataError: span [-2, 1] is not a word range of the 2-word caption"),
        ("np", {"span": [2, 1]}, "DataError: span [2, 1] is not a word range of the 2-word caption"),
        ("np", {"span": [0, 1.5]}, "TypeError: span end must be an integer, got 1.5"),
        ("np", {"span": [1, 3]}, "DataError: span [1, 3] is not a word range of the 2-word caption"),
        ("trajectory", {"points": "1", "frames": True}, "TypeError: points must be an integer, got '1'"),
        ("trajectory", {"frames": True}, "TypeError: frames must be an integer, got True"),
        ("trajectory", {"points": 1.9}, "TypeError: points must be an integer, got 1.9"),
        ("event", {"start_frame": "0"}, "TypeError: start_frame must be an integer, got '0'"),
        ("event", {"caption": ["a", "dog"]}, "TypeError: caption must be a nonempty string, got ['a', 'dog']"),
        ("trajectory", {"coords": [[["0.5", True]]]}, "TypeError: coords entries must be JSON numbers"),
        ("trajectory", {"coords": [[[None, 0.5]]]}, "TypeError: coords entries must be JSON numbers"),
        ("trajectory", {"coords": [[[10**400, 0.5]]]}, "OverflowError: int too large to convert to float"),
        ("trajectory", {"coords": [[[0.5, 0.5, 0.5]]]}, "ValueError: coords shape is not (1, 1, 2)"),
    ],
    ids=[
        "span-negative", "span-reversed", "span-fraction", "span-past-end", "points-string",
        "frames-bool", "points-fraction", "start-frame-string", "caption-list",
        "coords-string-bool", "coords-null", "coords-huge-int", "coords-triple",
    ],
)
def test_validate_record_reads_each_field_with_its_type(where, change, message):
    record = dog_record()
    event = record["events"][0]
    obj = event["objects"][0]
    {"event": event, "np": obj["np"], "trajectory": obj["trajectory"]}[where].update(change)
    with pytest.raises(DataError) as failure:
        validate_record(record)
    assert str(failure.value) == f"v event 0: {message}"


def test_validate_record_requires_template():
    record = {
        "video_id": "v",
        "events": [
            {
                "caption": "c",
                "start_frame": 0,
                "end_frame": 1,
                "formatted_text": "c happens early",
                "objects": [],
            }
        ],
    }
    with pytest.raises(DataError) as failure:
        validate_record(record)
    assert str(failure.value) == "v event 0: DataError: formatted_text 'c happens early' is not 'c, from 0 to 1'"


def test_toy_fixture_script_reproduces_bundled_fixture(toy_fixture_dir, tmp_path):
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_toy_fixture.py"), "--out", str(tmp_path)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )

    def files(base):
        return {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}

    assert files(tmp_path) == files(toy_fixture_dir)
