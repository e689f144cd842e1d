import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import packed
from pite.toymodel import (
    ARRAY_NAMES,
    STAGE_TARGETS,
    PackedBatch,
    TrainerConfig,
    TrainingSample,
    init_params,
    pack_rows,
    sample_arrays,
    stage_loss,
    tile_init,
)
from pite.jsonl import DataError
from pite.trainer import (
    load_params,
    load_samples,
    run_stage,
    samples_from_records,
    save_params,
    save_samples,
    stable_token_id,
    synthetic_dataset,
    write_loss_curve,
)

CFG = TrainerConfig(d_v=4, d=8, vocab=12, points=2, frames=3, lr=0.5, steps=5, seed=1)


def test_zero_lr_keeps_params_and_curve_flat():
    cfg = replace(CFG, lr=0.0, steps=4)
    params = init_params(cfg)
    data = synthetic_dataset(1, 3, cfg, seed=5)
    trained, curve, grad_norms = run_stage(params, packed(data, 1, cfg), 1, cfg)
    for name in ARRAY_NAMES:
        assert np.array_equal(getattr(trained, name), getattr(params, name))
    assert len(curve) == 5
    assert len(set(curve)) == 1
    assert len(grad_norms) == 4 and len(set(grad_norms)) == 1 and grad_norms[0] > 0


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_training_reduces_loss(stage):
    cfg = replace(CFG, steps=40, lr=1.0, smoothing=0.0)
    data = synthetic_dataset(stage, 6, cfg, seed=9)
    batch = packed(data, stage, cfg)
    trained, curve, _ = run_stage(init_params(cfg), batch, stage, cfg, tile=False)
    assert curve[-1] < curve[0]
    assert curve[-1] == pytest.approx(stage_loss(trained, batch, stage, cfg.lam, cfg.smoothing))


def test_frozen_groups_bitwise_unchanged():
    cfg = replace(CFG, steps=10)
    params = init_params(cfg)
    data2 = synthetic_dataset(2, 4, cfg, seed=2)
    trained, _, _ = run_stage(params, packed(data2, 2, cfg), 2, cfg, tile=False)
    assert np.array_equal(trained.backbone_w, params.backbone_w)
    assert np.array_equal(trained.backbone_b, params.backbone_b)
    assert np.array_equal(trained.adapter, params.adapter)  # frozen in stage 2
    assert not np.array_equal(trained.embeddings, params.embeddings)

    data3 = synthetic_dataset(3, 4, cfg, seed=3)
    trained3, _, _ = run_stage(params, packed(data3, 3, cfg), 3, cfg)
    assert np.array_equal(trained3.adapter, params.adapter)
    assert np.array_equal(trained3.loc_w, params.loc_w)
    assert np.array_equal(trained3.traj_w, params.traj_w)


def test_same_seed_identical_curves():
    cfg = replace(CFG, steps=15)
    data = synthetic_dataset(1, 5, cfg, seed=11)
    _, curve_a, norms_a = run_stage(init_params(cfg), packed(data, 1, cfg), 1, cfg)
    _, curve_b, norms_b = run_stage(init_params(cfg), packed(data, 1, cfg), 1, cfg)
    assert curve_a == curve_b
    assert norms_a == norms_b


def test_stage_schema_mismatch():
    data = synthetic_dataset(3, 2, CFG, seed=0)
    with pytest.raises(ValueError, match="traj_targets"):
        run_stage(init_params(CFG), packed(data, 2, CFG), 2, CFG)
    with pytest.raises(ValueError, match=r"^target rows of shape None, expected \(2, 3, 2\)$"):
        run_stage(init_params(CFG), packed(data, 3, CFG), 2, CFG)


def test_run_stage_tiles_before_stage2():
    cfg = replace(CFG, steps=0)
    params = init_params(cfg)
    batch = packed(synthetic_dataset(2, 2, cfg, seed=1), 2, cfg)
    tiled, _, _ = run_stage(params, batch, 2, cfg)
    reps = cfg.points * cfg.frames
    assert np.array_equal(tiled.traj_w, np.tile(params.loc_w, (reps, 1)))
    plain, _, _ = run_stage(params, batch, 2, cfg, tile=False)
    assert np.array_equal(plain.traj_w, params.traj_w)


def test_three_stage_chain_carries_params():
    cfg = replace(CFG, steps=8)
    params = init_params(cfg)
    p1, _, _ = run_stage(params, packed(synthetic_dataset(1, 3, cfg, seed=4), 1, cfg), 1, cfg)
    p2, _, _ = run_stage(p1, packed(synthetic_dataset(2, 3, cfg, seed=5), 2, cfg), 2, cfg)
    p3, _, _ = run_stage(p2, packed(synthetic_dataset(3, 3, cfg, seed=6), 3, cfg), 3, cfg)
    # the adapter trained in stage 1 survives stages 2 and 3 untouched
    assert np.array_equal(p3.adapter, p1.adapter)
    assert np.array_equal(p3.backbone_w, params.backbone_w)


def test_stage3_overfit_decodes_target_sequences(greedy_decode):
    cfg = TrainerConfig(
        d_v=8, d=24, vocab=12, points=1, frames=2, smoothing=0.1, lr=4.0, steps=1200, seed=3
    )
    # distinct tokens per sequence: mean-pooled prefixes cannot tell repeated tokens apart
    rng = np.random.default_rng(21)
    data = [
        TrainingSample(rng.normal(size=(3, cfg.d_v)), rng.permutation(cfg.vocab)[:4], np.zeros(4, bool))
        for _ in range(6)
    ]
    trained, _, _ = run_stage(init_params(cfg), packed(data, 3, cfg), 3, cfg)
    for sample in data:
        decoded = greedy_decode(trained, sample.frames, len(sample.tokens))
        assert np.array_equal(decoded, sample.tokens)


# --- serialization -------------------------------------------------------------


def ragged_samples(stage, seed):
    """16 samples of 8 to 23 tokens and 1 to 5 frames, as the train benchmark packs them."""
    rng = np.random.default_rng(seed)
    samples = []
    for length in rng.permutation(np.arange(8, 24)):
        supervised = rng.random(length) < 0.5
        targets = {}
        if stage in STAGE_TARGETS:
            shape = (length, 2) if stage == 1 else (length, CFG.points, CFG.frames, 2)
            targets[STAGE_TARGETS[stage]] = rng.random(shape)
        frames = rng.normal(size=(rng.integers(1, 6), CFG.d_v))
        samples.append(TrainingSample(frames, rng.integers(0, CFG.vocab, length), supervised, **targets))
    return samples


def assert_same_batch(got, want):
    """Every ``PackedBatch`` field equal in values and dtype, or None in both."""
    for name, a, b in zip(PackedBatch._fields, got, want, strict=True):
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_sample_file_round_trip_is_bit_exact(stage, tmp_path):
    """The file holds exactly ``sample_arrays``' arrays and loads as the batch ``pack_rows`` makes of them."""
    samples = ragged_samples(stage, seed=13)
    path = tmp_path / "samples.npz"
    save_samples(samples, path)
    arrays = sample_arrays(samples)
    with np.load(path) as archive:
        stored = dict(archive)
    assert sorted(stored) == sorted(arrays)
    for name, want in arrays.items():
        assert stored[name].dtype == want.dtype and np.array_equal(stored[name], want), name
    assert_same_batch(load_samples(path, CFG, stage), pack_rows(arrays, stage, CFG))


def test_samples_file_round_trip(tmp_path):
    data = synthetic_dataset(2, 4, CFG, seed=3)
    path = tmp_path / "samples.npz"
    save_samples(data, path)
    back = load_samples(path, CFG, 2)
    assert len(back.starts) == 4
    assert np.array_equal(back.targets, np.concatenate([b.traj_targets[b.supervised] for b in data]))
    assert np.array_equal(back.rows, np.flatnonzero(np.concatenate([b.supervised for b in data])))


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_sample_file_round_trip_casts_stored_dtypes(stage, tmp_path, rewrite_npz):
    """float32 frames and integral float64 tokens load as the batch of the samples they round to."""
    samples = ragged_samples(stage, seed=14)
    path = tmp_path / "samples.npz"
    save_samples(samples, path)
    with np.load(path) as archive:
        frames, tokens = archive["frames"].astype(np.float32), archive["tokens"].astype(float)
    rewrite_npz(path, frames=frames, tokens=tokens)
    rounded = [replace(s, frames=s.frames.astype(np.float32)) for s in samples]
    assert_same_batch(load_samples(path, CFG, stage), packed(rounded, stage, CFG))


def test_load_samples_rejects_target_row_count(tmp_path, rewrite_npz):
    path = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(1, 2, CFG, seed=1), path)
    with np.load(path) as archive:
        supervised, lengths = archive["supervised"], archive["lengths"]
    # rows stored for tokens that are not supervised
    rewrite_npz(path, supervised=np.zeros_like(supervised))
    with pytest.raises(DataError, match=rf"^{path}: supervised flags mark 0 loc_targets rows, the file holds \d+$"):
        load_samples(path, CFG, 1)
    # supervised tokens without their stored row
    rewrite_npz(path, supervised=np.ones_like(supervised))
    with pytest.raises(DataError, match=rf"^{path}: supervised flags mark {lengths.sum()} loc_targets rows, the file"):
        load_samples(path, CFG, 1)


def test_load_samples_rejects_rows_that_do_not_fit_config(tmp_path, rewrite_npz):
    path = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(2, 1, CFG, seed=1), path)
    with np.load(path) as archive:
        rows = archive["traj_targets"]
    swapped = replace(CFG, points=CFG.frames, frames=CFG.points)
    with pytest.raises(
        DataError,
        match=rf"^{path}: 'traj_targets' is a \({len(rows)}, 2, 3, 2\) float64 array, expected \(n, 3, 2, 2\)$",
    ):
        load_samples(path, swapped, 2)
    rewrite_npz(path, traj_targets=rows[:-1])
    with pytest.raises(DataError, match=f"^{path}: supervised flags mark {len(rows)} traj_targets rows, the file holds {len(rows) - 1}$"):
        load_samples(path, CFG, 2)
    save_samples(synthetic_dataset(1, 1, CFG, seed=1), path)
    with np.load(path) as archive:
        rows = archive["loc_targets"]
    rewrite_npz(path, loc_targets=np.full((len(rows), 3), 0.5))
    with pytest.raises(DataError, match=rf"^{path}: 'loc_targets' is a \({len(rows)}, 3\) float64 array, expected \(n, 2\)$"):
        load_samples(path, CFG, 1)


def test_load_samples_fills_null_rows_from_config(tmp_path):
    """A file with no supervised token loads no target row, and training leaves the head as tiled."""
    sample = synthetic_dataset(2, 1, CFG, seed=1)[0]
    sample.supervised[:] = False  # no traj_targets row is written
    sample.traj_targets[:] = 0.5
    path = tmp_path / "samples.npz"
    save_samples([sample], path)
    back = load_samples(path, CFG, 2)
    assert back.targets.shape == (0, CFG.points, CFG.frames, 2)
    assert back.rows.size == 0
    params = init_params(CFG)
    trained, _, _ = run_stage(params, back, 2, CFG)
    tiled = tile_init(params)
    assert np.array_equal(trained.traj_w, tiled.traj_w)
    assert np.array_equal(trained.traj_b, tiled.traj_b)


def token_at_6(value):
    """Set the first token of the second sample (samples of 6 tokens)."""

    def change(arrays):
        tokens = arrays["tokens"].astype(type(value))
        tokens[6] = value
        return {"tokens": tokens}

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (token_at_6(-1), r"sample 1: token -1 is not an integer in \[0, 12\)"),
        (token_at_6(2.7), r"sample 1: token 2.7 is not an integer in \[0, 12\)"),
        (token_at_6(12), r"sample 1: token 12 is not an integer in \[0, 12\)"),
        (
            lambda a: {"frames": a["frames"][:8], "frame_counts": np.array([4, 0, 4])},
            r"sample 1: 0 frames, expected at least 1",
        ),
        (
            lambda a: {"frames": np.zeros((12, CFG.d_v + 1))},
            r"'frames' is a \(12, 5\) float64 array, expected \(n, 4\)",
        ),
        (
            lambda a: {"frames": np.where(np.arange(12)[:, None] == 5, np.nan, a["frames"])},
            r"'frames' holds a non-finite value",
        ),
        (
            lambda a: {"lengths": a["lengths"] + [0, 0, 1]},
            r"lengths add up to 19 tokens, the file holds 18",
        ),
        (
            lambda a: {"lengths": a["lengths"] - [0, 0, 1]},
            r"lengths add up to 17 tokens, the file holds 18",
        ),
        (lambda a: {"tokens": a["tokens"].astype(str)}, r"'tokens' is a \(18,\) <U21 array, expected \(n,\)"),
        (lambda a: {"frame_counts": a["frame_counts"][:2]}, r"3 lengths and 2 frame_counts"),
    ],
    ids=[
        "token-1", "token2.7", "token-vocab", "no-frames", "frame-width", "frame-nan", "long", "short",
        "token-dtype", "frame-counts",
    ],
)
def test_load_samples_checks_samples_against_config(tmp_path, rewrite_npz, change, message):
    """The same arrays fail the same way read from a file and packed straight from memory.

    Only a count that does not add up reads differently: in memory it names the arrays, not a file.
    """
    path = tmp_path / "samples.npz"
    save_samples(synthetic_dataset(3, 3, CFG, seed=1), path)  # 3 samples, 6 tokens, 4 frames
    with np.load(path) as archive:
        arrays = dict(archive)
    rewrite_npz(path, **change(arrays))
    with pytest.raises(DataError, match=f"^{path}: {message}$"):
        load_samples(path, CFG, 3)
    with pytest.raises(DataError, match=f"^{message.replace('the file holds', 'the arrays hold')}$"):
        pack_rows({**arrays, **change(arrays)}, 3, CFG)


def vocab_token(samples):
    samples[1].tokens[0] = CFG.vocab


def nan_frame(samples):
    samples[1].frames[0, 0] = np.nan


def wide_frames(samples):
    for sample in samples:  # frames of two widths fail in sample_arrays, before the pack check
        sample.frames = np.zeros((len(sample.frames), CFG.d_v + 1))


@pytest.mark.parametrize(
    "spoil, message",
    [
        (vocab_token, r"sample 1: token 12 is not an integer in \[0, 12\)"),
        (nan_frame, r"'frames' holds a non-finite value"),
        (wide_frames, r"'frames' is a \(12, 5\) float64 array, expected \(n, 4\)"),
    ],
    ids=["token-vocab", "frame-nan", "frame-width"],
)
def test_pack_rows_checks_in_memory_samples_against_config(spoil, message):
    """A bad in-memory sample fails when packed, with the text a samples file gets."""
    samples = synthetic_dataset(3, 3, CFG, seed=1)  # 3 samples, 6 tokens, 4 frames
    spoil(samples)
    with pytest.raises(DataError, match=f"^{message}$"):
        packed(samples, 3, CFG)


def test_sample_arrays_names_the_sample_whose_frames_differ_in_width():
    samples = synthetic_dataset(3, 3, CFG, seed=1)  # 3 samples, 6 tokens, 4 frames
    samples[2].frames = np.zeros((4, CFG.d_v + 1))
    with pytest.raises(ValueError, match=r"^sample 2: frames rows have shape \(5,\), sample 0's \(4,\)$"):
        sample_arrays(samples)


def test_save_samples_rejects_targets_on_some_samples_only(tmp_path):
    data = synthetic_dataset(1, 2, CFG, seed=0)
    data[1].loc_targets = None
    with pytest.raises(ValueError, match="loc_targets on some samples only"):
        save_samples(data, tmp_path / "samples.npz")


def test_save_samples_rejects_empty_dataset(tmp_path):
    with pytest.raises(ValueError, match="^dataset is empty$"):
        save_samples([], tmp_path / "samples.npz")
    assert not (tmp_path / "samples.npz").exists()


def test_params_file_round_trip(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "params.npz"
    save_params(params, path)
    back = load_params(path, CFG)
    for name in ARRAY_NAMES:
        assert np.array_equal(getattr(back, name), getattr(params, name))
    assert (back.points, back.traj_frames) == (CFG.points, CFG.frames)
    with np.load(path) as archive:
        assert archive["traj_w"].shape == (2 * CFG.points * CFG.frames, CFG.d)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"d": 7}, r"'adapter' is a \(8, 4\) float64 array, expected \(7, 4\)"),
        ({"vocab": 13}, r"'embeddings' is a \(12, 8\) float64 array, expected \(13, 8\)"),
        ({"frames": 4}, r"'traj_w' is a \(12, 8\) float64 array, expected \(16, 8\)"),
        # same head size, other (points, frames) split: every array shape fits
        (
            {"points": CFG.frames, "frames": CFG.points},
            r"\(points, traj_frames\) is \(2, 3\), the config's \(points, frames\) is \(3, 2\)",
        ),
    ],
    ids=["d", "vocab", "frames", "points-frames-swap"],
)
def test_load_params_rejects_params_that_do_not_fit_config(tmp_path, change, message):
    path = tmp_path / "params.npz"
    save_params(init_params(CFG), path)
    with pytest.raises(DataError, match=rf"^{path}: {message}$"):
        load_params(path, replace(CFG, **change))


def test_trainer_files_repeat_byte_for_byte(tmp_path, monkeypatch):
    params = init_params(CFG)
    samples = synthetic_dataset(2, 3, CFG, seed=4)
    for save, obj in ((save_params, params), (save_samples, samples)):
        save(obj, tmp_path / "a")
        with monkeypatch.context() as m:  # zip members carry a date; a day later must not matter
            later = time.time() + 86400
            m.setattr(time, "time", lambda: later)
            save(obj, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_save_params_writes_exactly_the_given_name(tmp_path):
    save_params(init_params(CFG), str(tmp_path / "x.json"))
    save_samples(synthetic_dataset(1, 1, CFG, seed=0), str(tmp_path / "s.jsonl"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.jsonl", "x.json"]
    assert load_params(tmp_path / "x.json", CFG).points == CFG.points


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


def test_samples_from_records_reads_coords_as_json_numbers():
    cfg = TrainerConfig(d_v=4, d=8, vocab=16, points=1, frames=1, seed=0)
    record = make_record(1, 1)
    record["events"][0]["objects"][0]["trajectory"]["coords"] = [[["0.5", True]]]
    with pytest.raises(TypeError, match="coords entries must be JSON numbers"):
        samples_from_records([record], cfg)


def test_samples_from_records_deterministic():
    cfg = TrainerConfig(d_v=4, d=8, vocab=16, points=2, frames=3, seed=0)
    a = samples_from_records([make_record(2, 3)], cfg)[0]
    b = samples_from_records([make_record(2, 3)], cfg)[0]
    assert np.array_equal(a.frames, b.frames)
