import numpy as np
import pytest

from pite.toymodel import (
    ARRAY_NAMES,
    TrainerConfig,
    greedy_decode,
    init_params,
    pack_batch,
    stage_loss,
)
from pite.trainer import (
    load_params,
    load_samples,
    params_from_json,
    params_to_json,
    run_stage,
    sample_from_json,
    sample_to_json,
    samples_from_records,
    save_params,
    save_samples,
    stable_token_id,
    synthetic_dataset,
    train,
    write_loss_curve,
)

CFG = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, lr=0.5, steps=5, seed=1)


def test_zero_lr_keeps_params_and_curve_flat():
    cfg = TrainerConfig(**{**CFG.to_json(), "lr": 0.0, "steps": 4})
    params = init_params(cfg)
    data = synthetic_dataset(1, 3, cfg, seed=5)
    trained, curve, grad_norms = train(params, data, stage=1, cfg=cfg)
    for name in ARRAY_NAMES:
        assert np.array_equal(getattr(trained, name), getattr(params, name))
    assert len(curve) == 5
    assert len(set(curve)) == 1
    assert len(grad_norms) == 4 and len(set(grad_norms)) == 1 and grad_norms[0] > 0


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_training_reduces_loss(stage):
    cfg = TrainerConfig(**{**CFG.to_json(), "steps": 40, "lr": 1.0, "smoothing": 0.0})
    data = synthetic_dataset(stage, 6, cfg, seed=9)
    trained, curve, _ = train(init_params(cfg), data, stage=stage, cfg=cfg)
    assert curve[-1] < curve[0]
    assert curve[-1] == pytest.approx(
        stage_loss(trained, pack_batch(data, stage), stage, cfg.lam, cfg.smoothing)
    )


def test_frozen_groups_bitwise_unchanged():
    cfg = TrainerConfig(**{**CFG.to_json(), "steps": 10})
    params = init_params(cfg)
    data2 = synthetic_dataset(2, 4, cfg, seed=2)
    trained, _, _ = train(params, data2, stage=2, cfg=cfg)
    assert np.array_equal(trained.backbone_w, params.backbone_w)
    assert np.array_equal(trained.backbone_b, params.backbone_b)
    assert np.array_equal(trained.adapter, params.adapter)  # frozen in stage 2
    assert not np.array_equal(trained.embeddings, params.embeddings)

    data3 = synthetic_dataset(3, 4, cfg, seed=3)
    trained3, _, _ = train(params, data3, stage=3, cfg=cfg)
    assert np.array_equal(trained3.adapter, params.adapter)
    assert np.array_equal(trained3.loc_w, params.loc_w)
    assert np.array_equal(trained3.traj_w, params.traj_w)


def test_same_seed_identical_curves():
    cfg = TrainerConfig(**{**CFG.to_json(), "steps": 15})
    data = synthetic_dataset(1, 5, cfg, seed=11)
    _, curve_a, norms_a = train(init_params(cfg), data, stage=1, cfg=cfg)
    _, curve_b, norms_b = train(init_params(cfg), data, stage=1, cfg=cfg)
    assert curve_a == curve_b
    assert norms_a == norms_b


def test_stage_schema_mismatch():
    data = synthetic_dataset(3, 2, CFG, seed=0)
    with pytest.raises(ValueError, match="traj_targets"):
        train(init_params(CFG), data, stage=2, cfg=CFG)


def test_run_stage_tiles_before_stage2():
    cfg = TrainerConfig(**{**CFG.to_json(), "steps": 0})
    params = init_params(cfg)
    tiled, _, _ = run_stage(params, synthetic_dataset(2, 2, cfg, seed=1), 2, cfg)
    reps = cfg.points * cfg.frames
    assert np.array_equal(tiled.traj_w, np.tile(params.loc_w, (reps, 1)))
    plain, _, _ = run_stage(
        params, synthetic_dataset(2, 2, cfg, seed=1), 2, cfg, tile=False
    )
    assert np.array_equal(plain.traj_w, params.traj_w)


def test_three_stage_chain_carries_params():
    cfg = TrainerConfig(**{**CFG.to_json(), "steps": 8})
    params = init_params(cfg)
    p1, _, _ = run_stage(params, synthetic_dataset(1, 3, cfg, seed=4), 1, cfg)
    p2, _, _ = run_stage(p1, synthetic_dataset(2, 3, cfg, seed=5), 2, cfg)
    p3, _, _ = run_stage(p2, synthetic_dataset(3, 3, cfg, seed=6), 3, cfg)
    # the adapter trained in stage 1 survives stages 2 and 3 untouched
    assert np.array_equal(p3.adapter, p1.adapter)
    assert np.array_equal(p3.backbone_w, params.backbone_w)


def test_stage3_overfit_decodes_target_sequences():
    cfg = TrainerConfig(
        d_v=8, d=24, vocab=12, points=1, frames=2, smoothing=0.1, lr=4.0, steps=1200, seed=3
    )
    data = synthetic_dataset(3, 6, cfg, seed=21, length=4, n_frames=3, distinct_tokens=True)
    trained, _, _ = train(init_params(cfg), data, stage=3, cfg=cfg)
    for sample in data:
        decoded = greedy_decode(trained, sample.frames, len(sample.tokens))
        assert np.array_equal(decoded, sample.tokens)


# --- serialization -------------------------------------------------------------


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_sample_json_round_trip(stage):
    for sample in synthetic_dataset(stage, 3, CFG, seed=13):
        back = sample_from_json(sample_to_json(sample))
        assert np.array_equal(back.tokens, sample.tokens)
        assert np.array_equal(back.supervised, sample.supervised)
        np.testing.assert_allclose(back.frames, sample.frames)
        if stage == 1:
            np.testing.assert_allclose(
                back.loc_targets[sample.supervised],
                sample.loc_targets[sample.supervised],
            )
        if stage == 2:
            np.testing.assert_allclose(
                back.traj_targets[sample.supervised],
                sample.traj_targets[sample.supervised],
            )


def test_sample_json_rejects_inconsistent_supervision():
    sample = synthetic_dataset(1, 1, CFG, seed=1)[0]
    obj = sample_to_json(sample)
    obj["supervised"] = [False] * len(obj["supervised"])
    with pytest.raises(ValueError, match="unsupervised"):
        sample_from_json(obj)
    obj2 = sample_to_json(sample)
    obj2["loc_targets"] = [None] * len(obj2["loc_targets"])
    obj2["supervised"] = [True] * len(obj2["supervised"])
    with pytest.raises(ValueError, match="missing"):
        sample_from_json(obj2)


def test_samples_file_round_trip(tmp_path):
    data = synthetic_dataset(2, 4, CFG, seed=3)
    path = tmp_path / "samples.jsonl"
    save_samples(data, path)
    back = load_samples(path)
    assert len(back) == 4
    for a, b in zip(back, data):
        np.testing.assert_allclose(a.traj_targets, b.traj_targets)


def test_params_file_round_trip(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "params.json"
    save_params(params, path)
    back = load_params(path)
    for name in ARRAY_NAMES:
        assert np.array_equal(getattr(back, name), getattr(params, name))
    assert (back.points, back.traj_frames) == (CFG.points, CFG.frames)
    obj = params_to_json(params)
    assert obj["arrays"]["traj_w"]["shape"] == [2 * CFG.points * CFG.frames, CFG.d]
    assert params_from_json(obj).check_shapes(CFG) is None


def test_loss_curve_csv(tmp_path):
    path = tmp_path / "curve.csv"
    write_loss_curve([2.0, 1.0, 0.5], [3.0, 1.5], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,loss,grad_norm"
    assert lines[1] == "0,2.0,3.0"
    assert lines[3] == "2,0.5,"
    assert len(lines) == 4


# --- records -> samples -----------------------------------------------------------


def make_record(points, frames):
    coords = [[[0.5, 0.5] for _ in range(frames)] for _ in range(points)]
    return {
        "video_id": "vid",
        "events": [
            {
                "caption": "a dog runs",
                "start_frame": 0,
                "end_frame": 9,
                "formatted_text": "a dog runs, from 0 to 9",
                "objects": [
                    {
                        "np": {"text": "a dog", "span": [0, 2]},
                        "trajectory": {
                            "points": points,
                            "frames": frames,
                            "coords": coords,
                        },
                    }
                ],
            }
        ],
    }


def test_samples_from_records_supervision_alignment():
    cfg = TrainerConfig(d_v=4, d=8, vocab=16, points=2, frames=3, seed=0)
    samples = samples_from_records([make_record(2, 3)], cfg)
    assert len(samples) == 1
    sample = samples[0]
    words = "a dog runs, from 0 to 9".split()
    assert len(sample.tokens) == len(words)
    assert sample.tokens[0] == stable_token_id("a", cfg.vocab)
    assert sample.supervised.tolist() == [True, True, False, False, False, False, False]
    np.testing.assert_allclose(sample.traj_targets[0], 0.5)
    np.testing.assert_allclose(sample.traj_targets[2], 0.0)


def test_samples_from_records_shape_mismatch():
    cfg = TrainerConfig(d_v=4, d=8, vocab=16, points=3, frames=5, seed=0)
    with pytest.raises(ValueError, match="does not match config"):
        samples_from_records([make_record(2, 3)], cfg)


def test_samples_from_records_deterministic():
    cfg = TrainerConfig(d_v=4, d=8, vocab=16, points=2, frames=3, seed=0)
    a = samples_from_records([make_record(2, 3)], cfg)[0]
    b = samples_from_records([make_record(2, 3)], cfg)[0]
    assert np.array_equal(a.frames, b.frames)
