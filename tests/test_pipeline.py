import json

import numpy as np
import pytest

from pite.pipeline import (
    DataError,
    ManifestEvent,
    PipelineConfig,
    SmallObjectPolicy,
    VideoManifest,
    annotate_event,
    format_temporal,
    np_slug,
    run_pipeline,
    timestamp_to_frame,
    validate_record,
)
from pite.tracks import Mask, PointTrack
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
        VideoManifest("v", 0.0, 8, 8, 10, ())
    with pytest.raises(DataError, match="outside"):
        VideoManifest("v", 5.0, 8, 8, 10, (ManifestEvent("c", 2.0, 7.0),))
    with pytest.raises(DataError, match="caption"):
        VideoManifest("v", 5.0, 8, 8, 10, (ManifestEvent("", 1.0, 2.0),))


def test_small_object_policy():
    policy = SmallObjectPolicy(min_area_fraction=0.05)
    small = Mask.from_array(np.pad(np.ones((1, 1), dtype=bool), ((0, 9), (0, 9))))
    big = Mask.from_array(np.pad(np.ones((5, 5), dtype=bool), ((0, 5), (0, 5))))
    assert not policy.keep(small)
    assert policy.keep(big)
    with pytest.raises(ValueError):
        SmallObjectPolicy(min_area_fraction=1.0)


def test_np_slug():
    assert np_slug("a white table") == "a_white_table"
    assert np_slug(" two  people ") == "two_people"


# --- annotate_event -----------------------------------------------------------


def full_mask(width, height):
    return Mask.from_array(np.ones((height, width), dtype=bool))


def tracks_at(points, n_frames=10):
    out = []
    for x, y in points:
        out.append(
            PointTrack(positions=((x, y),) * n_frames, visible=(True,) * n_frames)
        )
    return out


def event_config(**kw):
    defaults = dict(frames=10, points=2, min_area_fraction=0.0005, seed=0)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_annotate_event_drops_unmasked_phrase(fig3_trees):
    tree = parse_bracketed(fig3_trees[1])
    event = ManifestEvent(caption=tree.text(), start=0.0, end=5.0)
    masks = {
        "two people": full_mask(16, 16),
        "hands": full_mask(16, 16),
        "a desk": full_mask(16, 16),
        # "front" has no mask
    }
    annotation = annotate_event(
        event,
        tree,
        masks,
        tracks_at([(2.0, 2.0), (9.0, 9.0), (14.0, 5.0)]),
        event_config(),
        duration=10.0,
        src_frames=10,
        width=16,
        height=16,
    )
    assert [o["np"]["text"] for o in annotation.objects] == [
        "two people",
        "hands",
        "a desk",
    ]


def test_annotate_event_drops_small_mask(fig3_trees):
    tree = parse_bracketed(fig3_trees[0])
    event = ManifestEvent(caption=tree.text(), start=0.0, end=5.0)
    tiny = np.zeros((16, 16), dtype=bool)
    tiny[3, 3] = True
    masks = {
        "woman": full_mask(16, 16),
        "money": full_mask(16, 16),
        "a pen": Mask.from_array(tiny),
        "a white table": full_mask(16, 16),
    }
    annotation = annotate_event(
        event,
        tree,
        masks,
        tracks_at([(2.0, 2.0), (9.0, 9.0)]),
        event_config(min_area_fraction=0.01),
        duration=10.0,
        src_frames=10,
        width=16,
        height=16,
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
        {},
        tracks_at([(2.0, 2.0)]),
        event_config(),
        duration=10.0,
        src_frames=10,
        width=16,
        height=16,
    )
    assert annotation.objects == []
    assert annotation.formatted_text == "a ghost, from 1 to 2"


def test_annotate_event_mask_dimension_mismatch():
    tree = parse_bracketed("(TOP (NP a dog))")
    event = ManifestEvent(caption="a dog", start=0.0, end=1.0)
    with pytest.raises(DataError, match="mask"):
        annotate_event(
            event,
            tree,
            {"a dog": full_mask(8, 8)},
            tracks_at([(2.0, 2.0)]),
            event_config(),
            duration=10.0,
            src_frames=10,
            width=16,
            height=16,
        )


def test_annotate_event_drops_trackless_object():
    tree = parse_bracketed("(TOP (NP a dog))")
    event = ManifestEvent(caption="a dog", start=0.0, end=1.0)
    left = np.zeros((16, 16), dtype=bool)
    left[:, :4] = True
    annotation = annotate_event(
        event,
        tree,
        {"a dog": Mask.from_array(left)},
        tracks_at([(12.0, 2.0)]),  # starts outside the mask
        event_config(),
        duration=10.0,
        src_frames=10,
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


def test_validate_record_rejects_bad_matrix():
    record = {
        "video_id": "v",
        "events": [
            {
                "caption": "c",
                "start_frame": 0,
                "end_frame": 1,
                "formatted_text": "c, from 0 to 1",
                "objects": [
                    {
                        "np": {"text": "c", "span": [0, 1]},
                        "trajectory": {
                            "points": 1,
                            "frames": 1,
                            "coords": [[[-1.0, 0.5]]],
                        },
                    }
                ],
            }
        ],
    }
    with pytest.raises((DataError, ValueError)):
        validate_record(record)


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
    with pytest.raises(DataError, match="frame indices"):
        validate_record(record)
