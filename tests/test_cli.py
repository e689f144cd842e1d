import argparse
import ast
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import brute_force_soda
from test_metrics import reference_cider, reference_idf, reference_meteor

from pite import cli, metrics, pipeline, toymodel
from pite.cli import build_parser, main
from pite.toymodel import ARRAY_NAMES, TrainerConfig, init_params, tile_init
from pite.trainer import (
    load_params,
    samples_from_records,
    save_params,
    save_samples,
    synthetic_dataset,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args):
    """``python *args`` in a fresh interpreter that imports pite from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "COMMAND" in capsys.readouterr().out


def test_each_subcommand_binds_its_handler():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for name, parser in subcommands.items():
        assert parser.get_default("run") is getattr(cli, "cmd_" + name.replace("-", "_"))
    listed = re.search(r"Subcommands: (.*?)\.  ", cli.__doc__, re.S).group(1)
    assert sorted(re.split(r",\s*", listed)) == sorted(subcommands)


WATCHED = (
    "dataclasses", "inspect", "logging", "numpy", "numpy.ma",
    "pite.metrics", "pite.pipeline", "pite.tracks", "pite.trees",
)
CLOSURE_PROBE = f"""
import sys
from pite import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, sorted(m for m in {WATCHED!r} if m in sys.modules))
"""
# what each command loads of WATCHED beside numpy and the dataclasses and
# inspect that numpy-backed modules bring; pipeline brings logging too
LOADS = {
    None: [],
    "extract-np": ["pite.trees"],
    "eval-grounding": ["pite.metrics"],
    "eval-dense": ["pite.metrics"],
    "build-dataset": ["logging", "pite.pipeline", "pite.tracks", "pite.trees"],
    "train-toy": [],
    "grad-check": [],
}


@pytest.mark.parametrize(
    "command, loads_numpy",
    [
        (None, False),
        ("extract-np", False),
        ("eval-grounding", False),
        ("eval-dense", False),
        ("build-dataset", True),
        ("train-toy", True),
        ("grad-check", True),
    ],
)
def test_numpy_is_imported_only_by_the_commands_that_use_it(
    fixtures_dir, toy_fixture_dir, tmp_path, command, loads_numpy
):
    """Each command loads numpy and the layer modules it runs, and no other layer.

    A fresh interpreter each time, since this one has them all loaded
    already; build-dataset's logging shows that the probe sees stdlib
    modules, and no command loads numpy.ma.
    """
    events = [{"start": 0.0, "end": 10.0, "caption": "a big dog runs"}]
    pred, gt = write_eval_files(tmp_path, events, events)
    samples, config = tmp_path / "stage2.npz", tmp_path / "config.json"
    if command == "train-toy":
        save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
        config.write_text(json.dumps(asdict(STAGE2_CFG)))
    out = str(tmp_path / "out")
    eval_args = ["--pred", str(pred), "--gt", str(gt), "--out", out]
    argv = {
        None: [],
        "extract-np": ["extract-np", "--trees", str(fixtures_dir / "fig3.trees"), "--out", out],
        "eval-grounding": ["eval-grounding", *eval_args],
        "eval-dense": ["eval-dense", *eval_args],
        "build-dataset": toy_build_args(toy_fixture_dir, out),
        "train-toy": ["train-toy", "--stage", "2", "--data", str(samples), "--config", str(config), "--out", out],
        "grad-check": ["grad-check", "--stage", "3", "--fixtures", "1"],
    }[command]
    done = run_fresh("-c", CLOSURE_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    loaded = LOADS[command] + (["dataclasses", "inspect", "numpy"] if loads_numpy else [])
    assert done.stdout.splitlines()[-1] == f"0 {sorted(loaded)}"


def import_offenders(source: str) -> list[str]:
    """Imports in ``source`` that break cli.py's import rules, as ``<line>: <rule>``.

    At module level only stdlib modules and ``.jsonl``; inside a function
    only in a ``cmd_*`` handler, which runs once per process, so no
    per-event callback imports.
    """

    def stdlib_or_jsonl(node):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                return (node.level, node.module) == (1, "jsonl")
            modules = [node.module]
        else:
            modules = [alias.name for alias in node.names]
        return all(module.partition(".")[0] in sys.stdlib_module_names for module in modules)

    offenders = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if function is None and not stdlib_or_jsonl(child):
                    offenders.append(f"{child.lineno}: module level, not stdlib or .jsonl")
                elif function is not None and not function.startswith("cmd_"):
                    offenders.append(f"{child.lineno}: in {function}, not a cmd_* handler")
            else:
                visit(child, function)

    visit(ast.parse(source), None)
    return offenders


def test_cli_imports_layer_modules_only_in_cmd_handlers():
    probe = "\n".join([
        "import json",
        "from . import metrics",
        "import numpy as np",
        "from .jsonl import text",
        "def cmd_eval(args):",
        "    from . import metrics",
        "def _segment(event):",
        "    def parse():",
        "        from . import metrics",
        "    import re",
    ])
    assert import_offenders(probe) == [
        "2: module level, not stdlib or .jsonl",
        "3: module level, not stdlib or .jsonl",
        "9: in parse, not a cmd_* handler",
        "10: in _segment, not a cmd_* handler",
    ]
    assert import_offenders(Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_each_main_call_writes_notes_to_its_own_stderr(monkeypatch, tmp_path):
    pred, gt = write_eval_files(tmp_path, [], [{"start": 0.0, "end": 1.0, "caption": "a"}])
    pred.write_text("")
    streams = [io.StringIO(), io.StringIO()]
    for stream in streams:
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", stream)
        assert main(["eval-grounding", "--pred", str(pred), "--gt", str(gt)]) == 0
    monkeypatch.undo()
    line = "1 of 1 videos have no prediction; their events score as misses\n"
    assert [stream.getvalue() for stream in streams] == [line, line]


def test_extract_np_fig3(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "extract-np", "--trees", str(fixtures_dir / "fig3.trees"))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [p["text"] for p in records[0]["nps"]] == [
        "woman",
        "money",
        "a pen",
        "a white table",
    ]
    assert [p["text"] for p in records[1]["nps"]] == [
        "two people",
        "hands",
        "front",
        "a desk",
    ]


def test_extract_np_missing_file(capsys):
    code, _, err = run_cli(capsys, "extract-np", "--trees", "/nonexistent.trees")
    assert code == 2
    assert "error" in err


def test_extract_np_malformed_tree(capsys, tmp_path):
    bad = tmp_path / "bad.trees"
    bad.write_text("(TOP (NP cat))\n\n(TOP (NP dog)\n")
    code, _, err = run_cli(capsys, "extract-np", "--trees", str(bad))
    assert code == 2
    assert err == f"error: {bad}:3: ParseError: unbalanced brackets (offset 13)\n"


def test_deeply_nested_tree_parses(capsys, toy_fixture_dir, tmp_path):
    # 1,200 levels is past Python's default recursion limit
    deep = tmp_path / "deep.trees"
    deep.write_text("(TOP " + "(S " * 1200 + "(NP a dog) (VP runs)" + ")" * 1201 + "\n")
    code, out, _ = run_cli(capsys, "extract-np", "--trees", str(deep))
    assert code == 0
    assert json.loads(out) == {"caption": "a dog runs", "nps": [{"text": "a dog", "span": [0, 2]}]}

    # the same tree for vid_dog's event: the build is the one of the flat tree
    lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    trees = tmp_path / "trees.txt"
    trees.write_text("\n".join(lines[:2] + deep.read_text().splitlines()) + "\n")
    args = toy_build_args(toy_fixture_dir, tmp_path / "deep.jsonl") + ["--strict"]
    args[args.index("--trees") + 1] = str(trees)
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    code, _, _ = run_cli(capsys, *toy_build_args(toy_fixture_dir, tmp_path / "flat.jsonl"))
    assert code == 0
    assert (tmp_path / "deep.jsonl").read_bytes() == (tmp_path / "flat.jsonl").read_bytes()


def test_build_dataset_and_determinism(capsys, toy_fixture_dir, tmp_path):
    args = [
        "build-dataset",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--seed", "3",
        "--strict",
    ]
    code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.jsonl"))
    assert code == 0
    assert json.loads(out) == {"videos": 2, "events": 3, "trajectories": 7}
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.jsonl"))
    assert code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def dog_track_outside_mask(toy_fixture_dir, tracks_dir):
    """Copy the toy track files with vid_dog's first track starting visible at (40.5, 3.0)."""
    shutil.copytree(toy_fixture_dir / "tracks", tracks_dir)
    clip_path = tracks_dir / "vid_dog.jsonl"
    clip = json.loads(clip_path.read_text())
    clip["tracks"][0]["xy"][0] = [40.5, 3.0]
    clip["tracks"][0]["vis"][0] = True
    clip_path.write_text(json.dumps(clip) + "\n")


def test_build_dataset_names_clip_and_phrase_of_track_outside_mask(capsys, toy_fixture_dir, tmp_path):
    dog_track_outside_mask(toy_fixture_dir, tmp_path / "tracks")
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl") + ["--strict"]
    args[args.index("--tracks") + 1] = str(tmp_path / "tracks")
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert err == "error: vid_dog:0: 'a dog': ValueError: visible track position (40.5, 3.0) outside 32x32 mask\n"


def test_build_dataset_names_out_path_in_a_missing_directory(capsys, toy_fixture_dir, tmp_path):
    # --out as given, not the temporary file written beside it
    out = tmp_path / "missing" / "out.jsonl"
    code, stdout, err = run_cli(capsys, *toy_build_args(toy_fixture_dir, out))
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


def toy_build_args(toy_fixture_dir, out, manifest=None):
    return [
        "build-dataset",
        "--manifest", str(manifest or toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--out", str(out),
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_build_dataset_names_file_and_line_of_malformed_tree(capsys, caplog, toy_fixture_dir, tmp_path, jobs):
    # a blank first line, so vid_dog's tree (the third) is on line 4
    lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    trees = tmp_path / "trees.txt"
    trees.write_text("\n".join(["", *lines[:2], lines[2][:-1]]) + "\n")
    message = f"{trees}:4: ParseError: unbalanced brackets (offset {len(lines[2]) - 1})"
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl") + ["--jobs", jobs]
    args[args.index("--trees") + 1] = str(trees)

    with caplog.at_level(logging.ERROR, logger="pite.pipeline"):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out) == {"videos": 1, "events": 2, "trajectories": 6}
    assert f"skipping video vid_dog: {message}" in caplog.text
    code, _, err = run_cli(capsys, *args, "--strict")
    assert code == 2
    assert err == f"error: {message}\n"
    # caplog reads records before any handler: a fresh process shows what a
    # user sees, the line through logging's last-resort handler
    done = run_fresh("-m", "pite.cli", *args)
    assert (done.returncode, done.stdout) == (0, out)
    assert done.stderr == f"skipping video vid_dog: {message}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        ("{not json", "JSONDecodeError: Expecting property name"),
        ('{"width": 32, "height": 32}', "KeyError: 'rle'"),
        ('{"width": 32, "height": 32, "rle": [-1, 1025]}', "ValueError: negative run length"),
        ('{"width": 32, "height": 32, "rle": [10]}', "ValueError: runs cover 10 cells, expected 1024"),
        ('{"width": 0, "height": 32, "rle": []}', "ValueError: mask dimensions must be positive"),
        ("[" * 200_000, "RecursionError: maximum recursion depth exceeded"),
    ],
    ids=["json", "key", "negative", "short", "dimensions", "deep"],
)
def test_bad_mask_file_is_named(capsys, caplog, toy_fixture_dir, tmp_path, content, message):
    masks = tmp_path / "masks"
    shutil.copytree(toy_fixture_dir / "masks", masks)
    mask = masks / "vid_dog" / "ev0" / "a_dog.json"
    mask.write_text(content)
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl")
    args[args.index("--masks") + 1] = str(masks)
    with caplog.at_level(logging.ERROR, logger="pite.pipeline"):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["videos"] == 1
    assert f"skipping video vid_dog: {mask}: {message}" in caplog.text
    code, _, err = run_cli(capsys, *args, "--strict")
    assert code == 2
    assert err.startswith(f"error: {mask}: {message}")


def test_mask_file_no_phrase_names_is_not_read(capsys, toy_fixture_dir, tmp_path):
    masks = tmp_path / "masks"
    shutil.copytree(toy_fixture_dir / "masks", masks)
    (masks / "vid_dog" / "ev0" / "stray.json").write_text("{not json")
    args = toy_build_args(toy_fixture_dir, tmp_path / "stray.jsonl") + ["--strict"]
    args[args.index("--masks") + 1] = str(masks)
    stray = run_cli(capsys, *args)
    clean = run_cli(capsys, *toy_build_args(toy_fixture_dir, tmp_path / "clean.jsonl"), "--strict")
    assert stray == clean and stray[0] == 0
    assert (tmp_path / "stray.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--points", "0", "points"),
        ("--frames", "0", "frames"),
        ("--jobs", "0", "jobs"),
        ("--jobs", "-3", "jobs"),
    ],
)
def test_build_dataset_rejects_out_of_range_option(capsys, toy_fixture_dir, tmp_path, flag, value, field):
    out = tmp_path / "out.jsonl"
    code, _, err = run_cli(capsys, *toy_build_args(toy_fixture_dir, out), flag, value)
    assert code == 2
    assert field in err
    assert not out.exists()


def ablate_args(toy_fixture_dir, out):
    return [
        "ablate-points",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--out", str(out),
    ]


@pytest.mark.parametrize(
    "flag, value, message",
    [("--frames", "0", "frames must be >= 1, got 0"), ("--steps", "-1", "steps must be >= 0, got -1")],
    ids=["frames", "steps"],
)
def test_ablate_points_rejects_out_of_range_option(
    capsys, monkeypatch, toy_fixture_dir, tmp_path, flag, value, message
):
    def no_run(*_args, **_kw):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(pipeline, "run_pipeline", no_run)
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(capsys, *ablate_args(toy_fixture_dir, out), flag, value)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_train_toy_on_sample_without_supervised_token(capsys, tmp_path):
    cfg = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, lr=1.0, steps=3, seed=2)
    trajectory = {
        "points": cfg.points, "frames": cfg.frames, "coords": [[[0.5, 0.5]] * cfg.frames] * cfg.points
    }
    records = [
        {
            "video_id": "v",
            "events": [
                {
                    "formatted_text": "a dog runs, from 0 to 2",
                    "objects": [
                        {"np": {"text": "a dog", "span": [0, 2]}, "trajectory": trajectory}
                    ],
                },
                # no kept object: no traj_targets row is stored
                {"formatted_text": "a ghost, from 1 to 2", "objects": []},
            ],
        }
    ]
    data_path = tmp_path / "stage2.npz"
    save_samples(samples_from_records(records, cfg), data_path)
    with np.load(data_path) as archive:
        assert list(archive["lengths"]) == [7, 6]
        assert len(archive["traj_targets"]) == 2  # "a dog" only
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(asdict(cfg)))
    code, out, err = run_cli(
        capsys,
        "train-toy", "--stage", "2", "--data", str(data_path),
        "--config", str(config_path), "--out", str(tmp_path / "params.json"),
    )
    assert code == 0, err
    assert json.loads(out)["stage"] == 2


def with_bad_line(src, dst, lineno, line):
    lines = src.read_text().splitlines()
    lines[lineno - 1] = line
    dst.write_text("\n".join(lines) + "\n")


def test_bad_jsonl_line_names_file_and_line(capsys, toy_fixture_dir, tmp_path):
    # manifest: a blank line first, so the record without "duration" is on line 3
    manifest = tmp_path / "manifest.jsonl"
    lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    del record["duration"]
    manifest.write_text("\n".join(["", lines[0], json.dumps(record)]) + "\n")
    code, _, err = run_cli(
        capsys, *toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl", manifest)
    )
    assert code == 2
    assert f"{manifest}:3: KeyError: 'duration'" in err

    tracks_dir = tmp_path / "tracks"
    shutil.copytree(toy_fixture_dir / "tracks", tracks_dir)
    tracks = tracks_dir / "vid_money.jsonl"
    with_bad_line(toy_fixture_dir / "tracks" / "vid_money.jsonl", tracks, 2, "{not json")
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl") + ["--strict"]
    args[args.index("--tracks") + 1] = str(tracks_dir)
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert f"{tracks}:2: JSONDecodeError" in err

    pred, gt = write_eval_files(tmp_path, [{"start": 0, "end": 1, "caption": "a"}] * 2, [])
    gt.write_text(json.dumps({"video_id": "v", "events": []}) + "\n" + json.dumps({"events": []}) + "\n")
    for command in ("eval-dense", "eval-grounding"):
        code, _, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
        assert code == 2
        assert f"{gt}:2: KeyError: 'video_id'" in err


def line_2_inputs(toy_fixture_dir, work):
    """Copies under ``work`` of each line-oriented input and the config, with the commands that read each.

    Line 2 of each file holds a record: a tree and a clip of vid_money, vid_dog
    in the manifest, video "v" in the eval files, and ``d_v`` in the config,
    which is written one field per line.
    """
    toy = work / "toy"
    shutil.copytree(toy_fixture_dir, toy)
    build = toy_build_args(toy, work / "out.jsonl") + ["--strict"]
    event = {"start": 0, "end": 1, "caption": "a dog"}
    for name in ("pred", "gt"):
        (work / f"{name}.jsonl").write_text(
            "".join(json.dumps({"video_id": v, "events": [event]}) + "\n" for v in "uv")
        )
    evals = [[c, "--pred", str(work / "pred.jsonl"), "--gt", str(work / "gt.jsonl")] for c in EVAL_COMMANDS]
    samples, config = work / "stage2.npz", work / "config.json"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    config.write_text(json.dumps(asdict(STAGE2_CFG), indent=1))
    train = ["train-toy", "--stage", "2", "--data", str(samples), "--config", str(config), "--out", str(work / "out.npz")]
    return {
        "trees": (toy / "trees.txt", [build, ["extract-np", "--trees", str(toy / "trees.txt")]]),
        "manifest": (toy / "manifest.jsonl", [build]),
        "tracks": (toy / "tracks" / "vid_money.jsonl", [build]),
        "pred": (work / "pred.jsonl", evals),
        "gt": (work / "gt.jsonl", evals),
        "config": (config, [train]),
    }


def assert_line_2_rejected(capsys, toy_fixture_dir, work, source, change, message):
    """Replace line 2 of ``source`` by ``change(line)``; each reader exits 2 with ``error: <location>: <message>``.

    The location is ``<path>:2``, or the bare path for the config.
    """
    work.mkdir()
    path, runs = line_2_inputs(toy_fixture_dir, work)[source]
    lines = path.read_bytes().split(b"\n")
    lines[1] = change(lines[1])
    path.write_bytes(b"\n".join(lines))
    location = path if source == "config" else f"{path}:2"
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {location}: {message}") and err.count("\n") == 1
    assert not (work / "out.jsonl").exists() and not (work / "out.npz").exists()


@pytest.mark.parametrize("source", ["manifest", "tracks", "pred", "gt", "config"])
def test_deep_json_names_file_and_line(capsys, toy_fixture_dir, tmp_path, source):
    # the line's first value nested 200,000 deep, past the decoder's recursion limit
    deep = lambda line: line.split(b":")[0] + b": " + b"[" * 200_000
    message = "RecursionError: maximum recursion depth exceeded"
    assert_line_2_rejected(capsys, toy_fixture_dir, tmp_path / "work", source, deep, message)


@pytest.mark.parametrize("source", ["trees", "manifest", "tracks", "pred", "config"])
def test_undecodable_byte_names_file_and_line(capsys, toy_fixture_dir, tmp_path, source):
    position = 4 if source == "config" else 2  # the config is decoded whole, after its "{" line
    message = f"UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n"
    flip = lambda line: line[:2] + b"\xff" + line[2:]
    assert_line_2_rejected(capsys, toy_fixture_dir, tmp_path / "work", source, flip, message)


def test_eval_dense_scores_non_ascii_caption(capsys, tmp_path):
    scores = {}
    pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    for caption in ("a dog", "a dög"):
        record = {"video_id": "v", "events": [{"start": 0, "end": 4, "caption": caption}]}
        for path in (pred, gt):
            path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt))
        assert (code, err) == (0, "")
        scores[caption] = json.loads(out)
    assert not gt.read_bytes().isascii()
    assert scores["a dög"] == scores["a dog"] and scores["a dog"]["METEOR"] > 0


def set_at(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value


def rewrite_json_line(path, index, keys, value):
    lines = path.read_text().splitlines()
    record = json.loads(lines[index])
    set_at(record, keys, value)
    lines[index] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


UNTYPED_TRACKS = (
    "DataError: clip vid_dog:0: TypeError: xy entries must be JSON numbers and vis entries JSON booleans"
)

# each reader's exact error for each kind of bad value; "{}" is the field's name
BAD_VALUES = {
    "integer": [
        (True, "TypeError: {} must be an integer, got True"),
        ("32", "TypeError: {} must be an integer, got '32'"),
        (32.9, "TypeError: {} must be an integer, got 32.9"),
        (40.0, "TypeError: {} must be an integer, got 40.0"),
        (float("inf"), "TypeError: {} must be an integer, got inf"),
        ([32], "TypeError: {} must be an integer, got [32]"),
        (None, "TypeError: {} must be an integer, got None"),
    ],
    "real": [
        (True, "TypeError: {} must be a number, got True"),
        ("4", "ValueError: {} must be a number, got '4'"),
        (float("inf"), "ValueError: {} must be finite, got inf"),
        (float("nan"), "ValueError: {} must be finite, got nan"),
        ([4], "TypeError: {} must be a number, got [4]"),
        (None, "TypeError: {} must be a number, got None"),
    ],
    "text": [
        (True, "TypeError: {} must be a nonempty string, got True"),
        (7, "TypeError: {} must be a nonempty string, got 7"),
        ("", "ValueError: {} must be a nonempty string, got ''"),
        (["a", "dog"], "TypeError: {} must be a nonempty string, got ['a', 'dog']"),
        (None, "TypeError: {} must be a nonempty string, got None"),
    ],
    "xy": [("2.5", UNTYPED_TRACKS), (True, UNTYPED_TRACKS), (None, UNTYPED_TRACKS)],
    "vis": [("false", UNTYPED_TRACKS), (0, UNTYPED_TRACKS), (None, UNTYPED_TRACKS)],
}

EVAL_FIELDS = [
    (("video_id",), "text", "video_id"),
    (("events", 0, "start"), "real", "start"),
    (("events", 0, "end"), "real", "end"),
    (("events", 0, "caption"), "text", "caption"),
]

# (input, keys to the field, its reader in BAD_VALUES, name in the error); xy
# and vis entries go through the clip's typed flat pass instead of a reader.
# The manifest's field is in vid_dog (line 2), the track file's in
# vid_dog.jsonl (line 1), the mask's in vid_dog/ev0/a_dog.json and the eval
# file's on line 2
TYPED_FIELDS = [
    ("manifest", ("video_id",), "text", "video_id"),
    ("manifest", ("duration",), "real", "duration"),
    ("manifest", ("width",), "integer", "width"),
    ("manifest", ("height",), "integer", "height"),
    ("manifest", ("events", 0, "caption"), "text", "caption"),
    ("manifest", ("events", 0, "start"), "real", "start"),
    ("manifest", ("events", 0, "end"), "real", "end"),
    ("tracks", ("clip_id",), "text", "clip_id"),
    ("tracks", ("width",), "integer", "width"),
    ("tracks", ("height",), "integer", "height"),
    ("tracks", ("frames",), "integer", "frames"),
    ("tracks", ("tracks", 0, "xy", 0, 0), "xy", "xy"),
    ("tracks", ("tracks", 0, "vis", 0), "vis", "vis"),
    ("mask", ("width",), "integer", "width"),
    ("mask", ("height",), "integer", "height"),
    ("mask", ("rle", 0), "integer", "rle run"),
    *(("pred", *field) for field in EVAL_FIELDS),
    *(("gt", *field) for field in EVAL_FIELDS),
    *(("config", (name,), "integer", name) for name in ("d_v", "d", "vocab", "points", "frames", "steps", "seed")),
    *(("config", (name,), "real", name) for name in ("lam", "smoothing", "lr")),
]


def typed_field_cases():
    for source, keys, reader, name in TYPED_FIELDS:
        for value, message in BAD_VALUES[reader]:
            yield pytest.param(
                source, keys, value, message.format(name), id=f"{source}-{name}-{value!r}"
            )


def assert_bad_field_rejected(capsys, toy_fixture_dir, work, source, keys, value, message):
    """Set the field at ``keys`` of ``source`` to ``value`` in copies made under ``work``.

    Each command that reads the field must exit 2 with stdout empty, the
    error ``error: <location>: <message>`` and no output file.
    """
    work.mkdir()
    if source in ("manifest", "tracks", "mask"):
        toy = work / "toy"
        shutil.copytree(toy_fixture_dir, toy)
        path, index, line = {
            "manifest": (toy / "manifest.jsonl", 1, ":2"),
            "tracks": (toy / "tracks" / "vid_dog.jsonl", 0, ":1"),
            "mask": (toy / "masks" / "vid_dog" / "ev0" / "a_dog.json", 0, ""),
        }[source]
        location = f"{path}{line}"
        runs = [toy_build_args(toy, work / "out.jsonl") + ["--strict"]]
    elif source == "config":
        samples = work / "stage2.npz"
        save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
        path, index = work / "config.json", 0
        location = path
        path.write_text(json.dumps(asdict(STAGE2_CFG)))
        runs = [[
            "train-toy", "--stage", "2", "--data", str(samples), "--config", str(path),
            "--out", str(work / "out.npz"),
        ]]
    else:
        good = {"start": 0, "end": 1, "caption": "a dog"}
        for name in ("pred", "gt"):
            (work / f"{name}.jsonl").write_text(
                json.dumps({"video_id": "u", "events": [good]}) + "\n"
                + json.dumps({"video_id": "v", "events": [good]}) + "\n"
            )
        path, index = work / f"{source}.jsonl", 1
        location = f"{path}:2"
        commands = ("eval-dense",) if keys[-1] == "caption" else EVAL_COMMANDS
        runs = [[c, "--pred", str(work / "pred.jsonl"), "--gt", str(work / "gt.jsonl")] for c in commands]
    rewrite_json_line(path, index, keys, value)
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {location}: {message}\n"
    assert not (work / "out.jsonl").exists() and not (work / "out.npz").exists()


@pytest.mark.parametrize("source, keys, value, message", typed_field_cases())
def test_each_input_field_has_one_typed_reader(capsys, toy_fixture_dir, tmp_path, source, keys, value, message):
    assert_bad_field_rejected(capsys, toy_fixture_dir, tmp_path / "work", source, keys, value, message)


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_build_dataset_rejects_non_finite_duration(capsys, toy_fixture_dir, tmp_path, duration):
    lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    assert record["video_id"] == "vid_dog"
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join([lines[0], json.dumps({**record, "duration": duration})]) + "\n")
    code, out, err = run_cli(
        capsys, *toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl", manifest)
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {manifest}:2: ValueError: duration must be finite, got {duration}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.jsonl"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("direction", ["too-few", "too-many"])
def test_build_dataset_tree_count_mismatch(capsys, toy_fixture_dir, tmp_path, jobs, direction):
    # the manifest lists vid_money (2 events), then vid_dog (1 event)
    lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    trees = tmp_path / "trees.txt"
    if direction == "too-few":
        trees.write_text("\n".join(lines[:2]) + "\n")
        message = f"{trees}: 0 trees for the 1 events of vid_dog"
    else:
        trees.write_text("\n".join(lines + lines[:1]) + "\n")
        message = (
            f"{trees}:4: trees for more events than "
            f"{toy_fixture_dir / 'manifest.jsonl'} lists"
        )
    out = tmp_path / "out.jsonl"
    out.write_text("previous run\n")
    args = toy_build_args(toy_fixture_dir, out) + ["--jobs", jobs]
    args[args.index("--trees") + 1] = str(trees)
    code, stdout, err = run_cli(capsys, *args)
    assert code == 2
    assert stdout == ""
    assert err == f"error: {message}\n"
    assert out.read_text() == "previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl", "trees.txt"]


STAGE2_CFG = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, steps=2)


def train_toy(capsys, tmp_path, stage, samples, *extra, config=asdict(STAGE2_CFG)):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return run_cli(
        capsys, "train-toy", "--stage", str(stage), "--data", str(samples),
        "--config", str(config_path), "--out", str(tmp_path / "params.json"), *extra,
    )


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda a: {"tokens": np.where(np.arange(18) == 8, 12, a["tokens"])},
         r"sample 1: token 12 is not an integer in \[0, 12\)"),
        (lambda a: {"frames": a["frames"][:, :3]},
         r"'frames' is a \(12, 3\) float64 array, expected \(n, 4\)"),
        (lambda a: {"supervised": a["supervised"] & (np.arange(18) < 6)},
         r"supervised flags mark \d+ traj_targets rows, the file holds \d+"),
    ],
    ids=["token-vocab", "frame-width", "supervision"],
)
def test_bad_samples_file_names_file_and_sample(capsys, tmp_path, rewrite_npz, change, message):
    samples = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    with np.load(samples) as archive:
        assert list(archive["lengths"]) == [6, 6, 6]
        arrays = dict(archive)
    rewrite_npz(samples, **change(arrays))
    code, out, err = train_toy(capsys, tmp_path, 2, samples)
    assert code == 2
    assert out == ""
    assert re.fullmatch(f"error: {re.escape(str(samples))}: {message}\n", err)


def old_json_params(path, cfg):
    params = init_params(cfg)
    arrays = {
        name: {"shape": list(getattr(params, name).shape), "data": getattr(params, name).ravel().tolist()}
        for name in ARRAY_NAMES
    }
    path.write_text(json.dumps({"points": cfg.points, "traj_frames": cfg.frames, "arrays": arrays}))


@pytest.mark.parametrize("flag", ["--data", "--params-in"])
@pytest.mark.parametrize("damage", ["old-json", "truncated", "missing-array"])
def test_unreadable_trainer_file_exits_2_naming_it(capsys, tmp_path, rewrite_npz, flag, damage):
    samples, params = tmp_path / "stage2.npz", tmp_path / "params1.json"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    save_params(init_params(STAGE2_CFG), params)
    bad = samples if flag == "--data" else params
    if damage == "old-json":
        old_json_params(bad, STAGE2_CFG)
        message = "not an .npz archive"
    elif damage == "truncated":
        bad.write_bytes(bad.read_bytes()[:-100])
        message = r"damaged .npz archive \(BadZipFile\)"
    else:
        key = "frames" if flag == "--data" else "traj_w"
        rewrite_npz(bad, **{key: None})
        message = f"no '{key}' array"
    code, out, err = train_toy(capsys, tmp_path, 2, samples, "--params-in", str(params))
    assert code == 2
    assert out == ""
    assert re.fullmatch(f"error: {re.escape(str(bad))}: {message}\n", err)
    assert "pickle" not in err


def test_params_of_another_geometry_exit_2_naming_the_file(capsys, tmp_path):
    samples, params = tmp_path / "stage2.npz", tmp_path / "params1.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    save_params(init_params(replace(STAGE2_CFG, frames=4)), params)
    code, out, err = train_toy(capsys, tmp_path, 2, samples, "--params-in", str(params))
    assert code == 2
    assert out == ""
    assert err == f"error: {params}: 'traj_w' is a (16, 8) float64 array, expected (12, 8)\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "stage, name",
    [(2, "frames"), (1, "loc_targets"), (2, "traj_targets")] + [(2, name) for name in ARRAY_NAMES],
    ids=["samples-frames", "samples-loc_targets", "samples-traj_targets"] + [f"params-{n}" for n in ARRAY_NAMES],
)
def test_non_finite_trainer_file_exits_2_naming_file_and_array(capsys, tmp_path, rewrite_npz, stage, name, value):
    samples, params = tmp_path / "samples.npz", tmp_path / "params.npz"
    save_samples(synthetic_dataset(stage, 3, STAGE2_CFG, seed=8), samples)
    save_params(init_params(STAGE2_CFG), params)
    bad = params if name in ARRAY_NAMES else samples
    with np.load(bad) as archive:
        array = archive[name].copy()
    array.flat[-1] = value
    rewrite_npz(bad, **{name: array})
    code, out, err = train_toy(capsys, tmp_path, stage, samples, "--params-in", str(params))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: {name!r} holds a non-finite value\n"
    assert not (tmp_path / "params.json").exists()


@pytest.mark.parametrize(
    "written, stage, target",
    [(2, 1, "loc_targets"), (3, 1, "loc_targets"), (3, 2, "traj_targets"), (1, 2, "traj_targets")],
)
def test_samples_without_the_stage_target_exit_2_naming_file_and_array(capsys, tmp_path, written, stage, target):
    samples = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(written, 3, STAGE2_CFG, seed=8), samples)
    code, out, err = train_toy(capsys, tmp_path, stage, samples)
    assert code == 2
    assert out == ""
    assert err == f"error: {samples}: no {target!r} array\n"


@pytest.mark.parametrize("written", [1, 2, 3])
def test_stage3_trains_on_samples_of_every_stage(capsys, tmp_path, written):
    samples = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(written, 3, STAGE2_CFG, seed=8), samples)
    code, out, err = train_toy(capsys, tmp_path, 3, samples)
    assert code == 0, err
    assert json.loads(out)["stage"] == 3


def test_config_dimension_numpy_rejects_names_the_config(capsys, tmp_path):
    samples = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    config = {**asdict(STAGE2_CFG), "d": 10**30}  # numpy rejects the size before allocating
    code, out, err = train_toy(capsys, tmp_path, 2, samples, config=config)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path / 'config.json'}: ValueError: ")


def test_build_dataset_rejects_repeated_manifest_video(capsys, toy_fixture_dir, tmp_path):
    lines = (toy_fixture_dir / "manifest.jsonl").read_text().splitlines()
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("\n".join([lines[0], lines[1], lines[0]]) + "\n")
    tree_lines = (toy_fixture_dir / "trees.txt").read_text().splitlines()
    trees = tmp_path / "trees.txt"
    money_events = len(json.loads(lines[0])["events"])
    trees.write_text("\n".join(tree_lines + tree_lines[:money_events]) + "\n")
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl", manifest)
    args[args.index("--trees") + 1] = str(trees)
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert f"{manifest}:3: ValueError: repeated video_id 'vid_money'" in err


def test_repeated_clip_id_names_file_and_line(capsys, caplog, toy_fixture_dir, tmp_path):
    tracks_dir = tmp_path / "tracks"
    shutil.copytree(toy_fixture_dir / "tracks", tracks_dir)
    clips = tracks_dir / "vid_money.jsonl"
    lines = clips.read_text().splitlines()
    clips.write_text("\n".join(lines + lines[:1]) + "\n")
    message = f"{clips}:3: ValueError: repeated clip_id 'vid_money:0'"
    args = toy_build_args(toy_fixture_dir, tmp_path / "out.jsonl")
    args[args.index("--tracks") + 1] = str(tracks_dir)

    code, _, err = run_cli(capsys, *args, "--strict")
    assert code == 2
    assert message in err
    with caplog.at_level(logging.ERROR, logger="pite.pipeline"):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["videos"] == 1
    assert f"skipping video vid_money: {message}" in caplog.text


def test_train_toy_and_grad_check(capsys, tmp_path):
    cfg = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, lr=1.0, steps=4, seed=2)
    data_path = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 4, cfg, seed=8), data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(asdict(cfg)))
    out_path = tmp_path / "params.json"
    code, out, _ = run_cli(
        capsys,
        "train-toy",
        "--stage", "2",
        "--data", str(data_path),
        "--config", str(config_path),
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["final_loss"] < report["initial_loss"]
    params = load_params(out_path, cfg)
    assert params.points == 2
    curve_lines = (tmp_path / "params.curve.csv").read_text().splitlines()
    assert curve_lines[0] == "step,loss,grad_norm"
    assert len(curve_lines) == cfg.steps + 2

    code, out, _ = run_cli(capsys, "grad-check", "--stage", "2", "--seed", "4")
    assert code == 0
    assert "OK" in out


def test_grad_check_all_stages(capsys):
    for stage in (1, 2, 3):
        code, out, _ = run_cli(
            capsys, "grad-check", "--stage", str(stage), "--fixtures", "2"
        )
        assert code == 0, out


@pytest.mark.parametrize("fixtures", ["0", "-2"])
def test_grad_check_needs_a_fixture(capsys, fixtures):
    code, out, err = run_cli(capsys, "grad-check", "--stage", "1", "--fixtures", fixtures)
    assert code == 1
    assert out == ""
    assert f"--fixtures must be >= 1, got {fixtures}" in err


def test_grad_check_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "grad-check", "--stage", "1", "--seed", "-5")
    assert code == 1
    assert out == ""
    assert "--seed must be >= 0, got -5" in err


def test_grad_check_fails_on_nan(capsys, monkeypatch):
    def poisoned(cfg, seed=None):
        params = init_params(cfg, seed)
        params.loc_w[0, 0] = np.nan
        return params

    monkeypatch.setattr(toymodel, "init_params", poisoned)
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "grad-check", "--stage", "1", "--fixtures", "2")
    assert code == 2
    assert out.endswith("stage 1: worst nan (FAIL, tol 0.0001)\n")


def test_train_toy_config_is_required_and_named_in_errors(capsys, tmp_path):
    samples = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    argv = ["train-toy", "--stage", "2", "--data", str(samples), "--out", str(tmp_path / "p.npz")]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "--config" in err

    config = tmp_path / "config.json"
    config.write_text(json.dumps({**asdict(STAGE2_CFG), "bogus": 1}))
    code, out, err = run_cli(capsys, *argv, "--config", str(config))
    assert code == 2
    assert out == ""
    assert err == f"error: {config}: ValueError: unknown config fields: ['bogus']\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("steps", 2.5, "TypeError: steps must be an integer, got 2.5"),
        ("d", 8.0, "TypeError: d must be an integer, got 8.0"),
        ("points", 2.0, "TypeError: points must be an integer, got 2.0"),
        ("seed", True, "TypeError: seed must be an integer, got True"),
        ("lr", float("nan"), "ValueError: lr must be finite, got nan"),
        ("lam", float("inf"), "ValueError: lam must be finite, got inf"),
        ("steps", -3, "ValueError: steps must be >= 0, got -3"),
        ("seed", -1, "ValueError: seed must be >= 0, got -1"),
        ("lr", -1.0, "ValueError: lr must be >= 0, got -1.0"),
    ],
    ids=[
        "steps-float", "d-float", "points-float", "seed-bool", "lr-nan", "lam-inf",
        "steps-negative", "seed-negative", "lr-negative",
    ],
)
def test_train_toy_rejects_config_value(capsys, tmp_path, field, value, message):
    samples = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**asdict(STAGE2_CFG), field: value}))
    out = tmp_path / "p.npz"
    code, stdout, err = run_cli(
        capsys, "train-toy", "--stage", "2", "--data", str(samples),
        "--config", str(config), "--out", str(out),
    )
    assert code == 2
    assert stdout == ""
    assert err == f"error: {config}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, shown",
    [('"abc"', "'abc'"), ("[]", "[]"), ("5", "5"), ("null", "None")],
    ids=["string", "array", "number", "null"],
)
def test_train_toy_rejects_config_that_is_not_an_object(capsys, tmp_path, text, shown):
    samples = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "p.npz"
    code, stdout, err = run_cli(
        capsys, "train-toy", "--stage", "2", "--data", str(samples),
        "--config", str(config), "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: {config}: TypeError: config must be a JSON object, got {shown}\n"
    assert not out.exists()


def test_train_toy_no_tile_init_keeps_trained_trajectory_head(capsys, tmp_path):
    samples = tmp_path / "stage2.npz"
    save_samples(synthetic_dataset(2, 3, STAGE2_CFG, seed=8), samples)
    code, _, _ = train_toy(capsys, tmp_path, 2, samples)
    assert code == 0
    trained = load_params(tmp_path / "params.json", STAGE2_CFG)
    retiled = tile_init(trained)
    assert not np.array_equal(trained.traj_w, retiled.traj_w)

    # resume at lr 0, so the output head is the head the run started from
    frozen = tmp_path / "frozen.json"
    frozen.write_text(json.dumps(asdict(replace(STAGE2_CFG, lr=0.0))))
    for flags, want in (([], retiled), (["--no-tile-init"], trained)):
        out = tmp_path / "resumed.npz"
        code, _, err = run_cli(
            capsys, "train-toy", "--stage", "2", "--data", str(samples),
            "--config", str(frozen), "--params-in", str(tmp_path / "params.json"),
            "--out", str(out), *flags,
        )
        assert code == 0, err
        resumed = load_params(out, STAGE2_CFG)
        assert np.array_equal(resumed.traj_w, want.traj_w)
        assert np.array_equal(resumed.traj_b, want.traj_b)


def write_eval_files(tmp_path, pred_events, gt_events):
    pred = tmp_path / "pred.jsonl"
    gt = tmp_path / "gt.jsonl"
    pred.write_text(json.dumps({"video_id": "v", "events": pred_events}) + "\n")
    gt.write_text(json.dumps({"video_id": "v", "events": gt_events}) + "\n")
    return pred, gt


def test_eval_grounding_cli(capsys, tmp_path):
    events = [
        {"start": 0.0, "end": 10.0, "caption": "a"},
        {"start": 20.0, "end": 30.0, "caption": "b"},
    ]
    pred, gt = write_eval_files(tmp_path, events, events)
    code, out, _ = run_cli(capsys, "eval-grounding", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    scores = json.loads(out)
    assert scores["mIoU"] == 100.0
    assert scores["R@0.3"] == scores["R@0.5"] == scores["R@0.7"] == 100.0


def test_eval_grounding_misaligned(capsys, tmp_path):
    pred, gt = write_eval_files(
        tmp_path,
        [{"start": 0, "end": 1, "caption": "a"}],
        [
            {"start": 0, "end": 1, "caption": "a"},
            {"start": 2, "end": 3, "caption": "b"},
        ],
    )
    code, _, err = run_cli(capsys, "eval-grounding", "--pred", str(pred), "--gt", str(gt))
    assert code == 2


def test_eval_dense_cli_perfect(capsys, tmp_path):
    events = [
        {"start": 0.0, "end": 10.0, "caption": "a big dog runs fast"},
        {"start": 20.0, "end": 30.0, "caption": "two people shake hands firmly"},
    ]
    pred, gt = write_eval_files(tmp_path, events, events)
    code, out, _ = run_cli(capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    scores = json.loads(out)
    assert scores["CIDEr"] == pytest.approx(100.0, abs=1e-6)
    assert 0 < scores["SODA_c"] <= 100.0
    assert 0 < scores["METEOR"] <= 100.0

    code, out, _ = run_cli(
        capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt), "--scorer", "cider"
    )
    assert code == 0
    assert json.loads(out)["SODA_c"] == pytest.approx(100.0, abs=1e-6)


EVAL_COMMANDS = ("eval-grounding", "eval-dense")


@pytest.mark.parametrize("command", EVAL_COMMANDS)
@pytest.mark.parametrize(
    "content, missing",
    [("\n", "videos"), ('{"video_id": "u", "events": []}\n{"video_id": "v", "events": []}\n', "events")],
    ids=["no-videos", "no-events"],
)
def test_eval_rejects_ground_truth_without_events(capsys, tmp_path, command, content, missing):
    pred, gt = write_eval_files(tmp_path, [{"start": 0, "end": 1, "caption": "a dog"}], [])
    gt.write_text(content)
    code, out, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
    assert code == 2
    assert out == ""
    assert err == f"error: {gt}: no ground-truth {missing}\n"


def test_eval_dense_rejects_a_ground_truth_video_without_events(capsys, tmp_path):
    # an eventless video would score 0 in each per-video mean, halving all three scores
    event = {"start": 0, "end": 4, "caption": "a dog runs"}
    gt = tmp_path / "gt.jsonl"
    gt.write_text(
        json.dumps({"video_id": "a", "events": [event]}) + "\n"
        + json.dumps({"video_id": "b", "events": []}) + "\n"
    )
    code, out, err = run_cli(capsys, "eval-dense", "--pred", str(gt), "--gt", str(gt))
    assert (code, out) == (2, "")
    assert err == f"error: {gt}: video 'b' has no ground-truth events\n"
    # eval-grounding pools the events, so an empty video adds nothing
    code, out, _ = run_cli(capsys, "eval-grounding", "--pred", str(gt), "--gt", str(gt))
    assert code == 0
    assert json.loads(out)["mIoU"] == 100.0


@pytest.mark.parametrize(
    "event, commands, message",
    [
        ({"end": 1, "caption": "a"}, EVAL_COMMANDS, "KeyError: 'start'"),
        ({"start": "soon", "end": 1, "caption": "a"}, EVAL_COMMANDS, "ValueError"),
        ({"start": None, "end": 1, "caption": "a"}, EVAL_COMMANDS, "TypeError"),
        ({"start": 2, "end": 1, "caption": "a"}, EVAL_COMMANDS, "segment start 2.0 > end 1.0"),
        ({"start": float("nan"), "end": 1, "caption": "a"}, EVAL_COMMANDS, "must be finite"),
        ({"start": 0, "end": 1, "caption": ""}, ("eval-dense",), "nonempty string"),
        ({"start": 0, "end": 1, "caption": None}, ("eval-dense",), "nonempty string"),
        ({"start": 0, "end": 1}, ("eval-dense",), "KeyError: 'caption'"),
    ],
)
def test_eval_bad_event_names_file_and_line(capsys, tmp_path, event, commands, message):
    good = {"start": 0, "end": 1, "caption": "a dog"}
    pred, gt = write_eval_files(tmp_path, [good], [good])
    gt.write_text(
        json.dumps({"video_id": "u", "events": [good]}) + "\n"
        + json.dumps({"video_id": "v", "events": [good, event]}) + "\n"
    )
    for command in commands:
        code, out, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
        assert code == 2
        assert out == ""
        assert f"{gt}:2: " in err and message in err


@pytest.mark.parametrize("repeated", ["gt", "pred"])
def test_eval_rejects_repeated_video_id(capsys, tmp_path, repeated):
    first = {"start": 0, "end": 1, "caption": "a dog"}
    second = {"start": 5, "end": 9, "caption": "a cat"}
    pred, gt = write_eval_files(tmp_path, [first], [first])
    path = {"gt": gt, "pred": pred}[repeated]
    path.write_text(
        json.dumps({"video_id": "v", "events": [first]}) + "\n"
        + json.dumps({"video_id": "v", "events": [second]}) + "\n"
    )
    for command in EVAL_COMMANDS:
        code, out, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
        assert code == 2
        assert out == ""
        assert f"{path}:2: ValueError: repeated video_id 'v'" in err


@pytest.mark.parametrize("command", EVAL_COMMANDS)
def test_eval_video_id_is_not_coerced_to_text(capsys, tmp_path, command):
    # an int id used to be read as its str(): it matched the ground truth's
    # "1" and scored 100, and 1 and "1" in one file were a repeated id
    event = {"start": 0, "end": 4, "caption": "a dog"}
    pred, gt = write_eval_files(tmp_path, [event], [event])
    pred.write_text(json.dumps({"video_id": 1, "events": [event]}) + "\n")
    gt.write_text(json.dumps({"video_id": "1", "events": [event]}) + "\n")
    code, out, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
    assert (code, out) == (2, "")
    assert err == f"error: {pred}:1: TypeError: video_id must be a nonempty string, got 1\n"

    gt.write_text(
        json.dumps({"video_id": "1", "events": [event]}) + "\n"
        + json.dumps({"video_id": 1, "events": [event]}) + "\n"
    )
    code, out, err = run_cli(capsys, command, "--pred", str(gt), "--gt", str(gt))
    assert (code, out) == (2, "")
    assert err == f"error: {gt}:2: TypeError: video_id must be a nonempty string, got 1\n"


def test_eval_grounding_ignores_caption(capsys, tmp_path):
    events = [{"start": 0, "end": 4}, {"start": 5, "end": 9, "caption": ""}]
    pred, gt = write_eval_files(tmp_path, events, events)
    code, out, _ = run_cli(capsys, "eval-grounding", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    assert json.loads(out)["mIoU"] == 100.0


def random_dense_inputs(tmp_path):
    """Six videos of one to five events drawn from ten words; v3 has no prediction."""
    rng = np.random.default_rng(3)
    words = ["a", "dog", "man", "runs", "jumps", "over", "the", "red", "fence", "ball"]

    def events(k):
        out = []
        for _ in range(k):
            a = float(rng.uniform(0, 30))
            caption = " ".join(rng.choice(words, size=int(rng.integers(2, 7))))
            out.append({"start": a, "end": a + float(rng.uniform(1, 10)), "caption": caption})
        return out

    gts = {f"v{i}": events(int(rng.integers(1, 6))) for i in range(6)}
    preds = {v: events(int(rng.integers(1, 6))) for v in gts if v != "v3"}
    pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    for path, videos in ((pred, preds), (gt, gts)):
        path.write_text(
            "".join(json.dumps({"video_id": v, "events": e}) + "\n" for v, e in videos.items())
        )
    return pred, gt


def perfbench_dense_inputs(tmp_path):
    """The benchmark's evaluate inputs for seed 7: 40 videos, predicted event
    counts off by up to two, two videos without a prediction."""
    out = tmp_path / "evaluate"
    root = Path(__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "inputs.py"), "--workload", "evaluate",
         "--seed", "7", "--out", str(out)],
        check=True,
    )
    return out / "pred.jsonl", out / "gt.jsonl"


@pytest.mark.parametrize("make_inputs", [random_dense_inputs, perfbench_dense_inputs])
def test_eval_dense_matches_oracles(capsys, tmp_path, make_inputs):
    # every caption score comes from a string-level oracle that tokenizes on
    # each call, and SODA from the brute-force matching; CIDEr and METEOR
    # must agree bit for bit, SODA up to its different order of summation
    pred, gt = make_inputs(tmp_path)

    def videos(path):
        records = map(json.loads, path.read_text().splitlines())
        return {
            r["video_id"]: [
                metrics.CaptionedEvent(metrics.TimeSegment(e["start"], e["end"]), e["caption"])
                for e in r["events"]
            ]
            for r in records
        }

    gts, preds = videos(gt), videos(pred)
    idf = reference_idf([e.caption for v in sorted(gts) for e in gts[v]])
    cider_oracle = lambda cand, ref: reference_cider(cand, ref, idf)

    for scorer, soda_scorer in (
        ("meteor", reference_meteor),
        ("cider", lambda cand, ref: cider_oracle(cand, ref) / 10.0),
    ):
        soda, cider, meteor = [], [], []
        for v in sorted(gts):
            p, g = preds.get(v, []), gts[v]
            soda.append(brute_force_soda(p, g, soda_scorer))
            ious = metrics.iou_table([e.segment for e in p], [e.segment for e in g])
            for vals, oracle in ((cider, cider_oracle), (meteor, reference_meteor)):
                by_index = lambda i, j: oracle(p[i].caption, g[j].caption)
                vals.append(metrics.iou_bucketed_caption_scores(ious, by_index))
        code, out, _ = run_cli(
            capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt), "--scorer", scorer
        )
        assert code == 0
        scores = json.loads(out)
        assert scores["CIDEr"] == 10.0 * (sum(cider) / len(cider))
        assert scores["METEOR"] == 100.0 * (sum(meteor) / len(meteor))
        assert scores["SODA_c"] == pytest.approx(100.0 * (sum(soda) / len(soda)), rel=1e-12)


@pytest.mark.parametrize("scorer", ["meteor", "cider"])
def test_eval_dense_tokenizes_each_caption_once(capsys, tmp_path, monkeypatch, scorer):
    pred, gt = random_dense_inputs(tmp_path)
    captions = sum(
        len(json.loads(line)["events"])
        for path in (pred, gt)
        for line in path.read_text().splitlines()
    )
    calls = []
    tokenize = metrics.tokenize
    monkeypatch.setattr(metrics, "tokenize", lambda text: calls.append(text) or tokenize(text))
    code, _, _ = run_cli(
        capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt), "--scorer", scorer
    )
    assert code == 0
    assert 0 < len(calls) <= captions


def test_eval_dense_missing_pred_video_scores_zero(capsys, tmp_path):
    gt = tmp_path / "gt.jsonl"
    gt.write_text(
        json.dumps(
            {
                "video_id": "v",
                "events": [{"start": 0, "end": 1, "caption": "a dog runs here"}],
            }
        )
        + "\n"
    )
    pred = tmp_path / "pred.jsonl"
    pred.write_text("")
    code, out, _ = run_cli(capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    scores = json.loads(out)
    assert scores == {"SODA_c": 0.0, "CIDEr": 0.0, "METEOR": 0.0}


def test_eval_scores_video_without_prediction_as_miss(capsys, tmp_path):
    first = [
        {"start": 0.0, "end": 10.0, "caption": "a big dog runs fast"},
        {"start": 20.0, "end": 30.0, "caption": "two people shake hands firmly"},
    ]
    second = [{"start": 5.0, "end": 15.0, "caption": "a red car opens its door"}]
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"video_id": "a", "events": first}) + "\n")
    gt = tmp_path / "gt.jsonl"
    gt.write_text(
        json.dumps({"video_id": "a", "events": first}) + "\n"
        + json.dumps({"video_id": "b", "events": second}) + "\n"
    )
    gt_a = tmp_path / "gt_a.jsonl"
    gt_a.write_text(pred.read_text())

    note = "1 of 2 videos have no prediction; their events score as misses\n"
    code, out, err = run_cli(capsys, "eval-grounding", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    scores = json.loads(out)
    # events of "a" have IoU 1, the one event of "b" IoU 0
    assert scores["mIoU"] == pytest.approx(200.0 / 3)
    assert scores["R@0.3"] == scores["R@0.5"] == scores["R@0.7"] == pytest.approx(200.0 / 3)
    assert err == note

    code, out, err = run_cli(capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    assert err == note
    # "b" scores 0, so each video-averaged score is half that of "a" alone;
    # CIDEr's document frequencies come from every ground-truth video
    code, out_a, _ = run_cli(capsys, "eval-dense", "--pred", str(pred), "--gt", str(gt_a))
    assert code == 0
    both, alone = json.loads(out), json.loads(out_a)
    assert both["SODA_c"] == pytest.approx(alone["SODA_c"] / 2)
    assert both["METEOR"] == pytest.approx(alone["METEOR"] / 2)
    assert 0 < both["CIDEr"] < alone["CIDEr"]


@pytest.mark.parametrize("command", EVAL_COMMANDS)
def test_eval_counts_predictions_for_unknown_videos(capsys, tmp_path, command):
    events = [{"start": 0.0, "end": 10.0, "caption": "a big dog runs fast"}]
    pred = tmp_path / "pred.jsonl"
    pred.write_text(
        "".join(json.dumps({"video_id": v, "events": events}) + "\n" for v in ("a", "x", "y"))
    )
    gt = tmp_path / "gt.jsonl"
    gt.write_text(json.dumps({"video_id": "a", "events": events}) + "\n")
    code, _, err = run_cli(capsys, command, "--pred", str(pred), "--gt", str(gt))
    assert code == 0
    assert err == "2 of 3 prediction records name videos not in the ground truth; they are ignored\n"


def test_ablate_points_cli(capsys, toy_fixture_dir, tmp_path):
    out = tmp_path / "table.json"
    code, stdout, _ = run_cli(
        capsys,
        "ablate-points",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--frames", "8",
        "--steps", "6",
        "--out", str(out),
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert [row["P"] for row in rows] == [1, 3, 5]
    cells = [row["matrix_cells"] for row in rows]
    assert cells[0] < cells[1] < cells[2]
    assert all(row["objects"] == 7 for row in rows)
    assert len(stdout.splitlines()) == 4  # header + one line per P


def test_readme_cli_block_uses_only_parser_options():
    # every `pite <command>` line of README's CLI block (with its \ continuations)
    # names only options that the parser gives that subcommand
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```bash\n(.*?)```", readme, re.S)
    block = next(b for b in blocks if re.search("^pite ", b, re.M))
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split() for line in lines if line.startswith("pite ")]
    assert {words[1] for words in commands} == set(subcommands)
    for words in commands:
        options = subcommands[words[1]]._option_string_actions
        for flag in re.findall(r"--[\w-]+", " ".join(words[2:])):
            assert flag in options, f"README: pite {words[1]} has no {flag}"
