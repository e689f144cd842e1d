import json

import pytest

from pite.cli import main
from pite.toymodel import TrainerConfig
from pite.tracks import Mask, save_mask
from pite.trainer import load_params, synthetic_dataset, save_samples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    bad.write_text("(TOP (NP dog)\n")
    code, _, err = run_cli(capsys, "extract-np", "--trees", str(bad))
    assert code == 2
    assert "offset" in err


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


def test_pite_seed_env_overrides(capsys, toy_fixture_dir, tmp_path, monkeypatch):
    args = [
        "build-dataset",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
    ]
    run_cli(capsys, *args, "--seed", "11", "--out", str(tmp_path / "a.jsonl"))
    monkeypatch.setenv("PITE_SEED", "11")
    run_cli(capsys, *args, "--seed", "99", "--out", str(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_condense_tracks_cli(capsys, toy_fixture_dir, tmp_path):
    out = tmp_path / "condensed.jsonl"
    code, _, _ = run_cli(
        capsys,
        "condense-tracks",
        "--tracks", str(toy_fixture_dir / "tracks" / "vid_dog.jsonl"),
        "--out", str(out),
        "--points", "3",
        "--frames", "10",
    )
    assert code == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["clip_id"] == "vid_dog:0"
    matrix = record["trajectory"]
    assert matrix["points"] == 3 and matrix["frames"] == 10
    assert len(matrix["coords"]) == 3


def test_condense_tracks_rejects_bad_clip(capsys, tmp_path):
    clip = {"clip_id": "vid_bad:0", "width": 8, "height": 8, "frames": 3,
            "tracks": [{"xy": [[1.0, 1.0]] * 3, "vis": [True] * 3},
                       {"xy": [[1.0, 1.0]] * 4, "vis": [True] * 4}]}
    tracks_path = tmp_path / "clips.jsonl"
    tracks_path.write_text(json.dumps(clip) + "\n")
    code, _, err = run_cli(
        capsys,
        "condense-tracks",
        "--tracks", str(tracks_path),
        "--out", str(tmp_path / "out.jsonl"),
    )
    assert code == 2
    assert "vid_bad:0" in err


def test_condense_tracks_rejects_mask_of_another_size(capsys, toy_fixture_dir, tmp_path):
    masks = tmp_path / "masks"
    masks.mkdir()
    save_mask(Mask(width=100, height=100, runs=(0, 100 * 100)), masks / "vid_dog:0.json")
    code, _, err = run_cli(
        capsys,
        "condense-tracks",
        "--tracks", str(toy_fixture_dir / "tracks" / "vid_dog.jsonl"),
        "--masks", str(masks),
        "--out", str(tmp_path / "out.jsonl"),
    )
    assert code == 2
    assert "vid_dog:0" in err
    assert "is 100x100, clip is 32x32" in err
    assert not (tmp_path / "out.jsonl").exists()


def test_train_toy_and_grad_check(capsys, tmp_path):
    cfg = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, lr=1.0, steps=4, seed=2)
    data_path = tmp_path / "stage2.jsonl"
    save_samples(synthetic_dataset(2, 4, cfg, seed=8), data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg.to_json()))
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
    params = load_params(out_path)
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


def test_ablate_points_cli(capsys, toy_fixture_dir, tmp_path):
    out = tmp_path / "table.json"
    code, stdout, _ = run_cli(
        capsys,
        "ablate-points",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--points", "1,3,5",
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


def test_ablate_points_bad_value(capsys, toy_fixture_dir):
    code, _, err = run_cli(
        capsys,
        "ablate-points",
        "--manifest", str(toy_fixture_dir / "manifest.jsonl"),
        "--trees", str(toy_fixture_dir / "trees.txt"),
        "--masks", str(toy_fixture_dir / "masks"),
        "--tracks", str(toy_fixture_dir / "tracks"),
        "--points", "1,x",
    )
    assert code == 1
