import math
import re
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from conftest import config_of, packed
from pite import toymodel
from pite.jsonl import DataError
from pite.toymodel import (
    ARRAY_NAMES,
    GRAD_CHECK_EPS,
    TRAINABLE_BY_STAGE,
    TrainerConfig,
    TrainingSample,
    _hidden,
    stage_loss,
    grad_check,
    gradients,
    init_params,
    label_smoothed_ce,
    log_softmax,
    pack_rows,
    sample_arrays,
    tile_init,
)

SMALL = TrainerConfig(d_v=4, d=6, vocab=10, points=2, frames=3, seed=0)


def make_sample(cfg: TrainerConfig, seed: int, stage: int, length: int = 5) -> TrainingSample:
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(3, cfg.d_v))
    tokens = rng.integers(0, cfg.vocab, size=length)
    supervised = rng.random(length) < 0.7
    if not supervised.any():
        supervised[0] = True
    loc_targets = rng.uniform(0, 1, size=(length, 2)) if stage == 1 else None
    traj_targets = None
    if stage == 2:
        traj_targets = rng.uniform(0, 1, size=(length, cfg.points, cfg.frames, 2))
        vanish = rng.random((length, cfg.points, cfg.frames)) < 0.3
        traj_targets[vanish] = -1.0
    return TrainingSample(
        frames=frames,
        tokens=tokens,
        supervised=supervised,
        loc_targets=loc_targets,
        traj_targets=traj_targets,
    )


def sample_loss(params, sample, stage, lam=1.0, smoothing=0.1):
    return stage_loss(params, packed([sample], stage, config_of(params)), stage, lam, smoothing)


def sample_grads(params, sample, stage, lam, smoothing):
    return gradients(params, packed([sample], stage, config_of(params)), stage, lam, smoothing)[1]


class Outputs(NamedTuple):
    hidden: np.ndarray  # (L, d)
    logits: np.ndarray  # (L, V)
    locs: np.ndarray  # (L, 2)
    trajs: np.ndarray  # (L, P, N, 2)


def heads(params, frames, tokens) -> Outputs:
    """Every head applied to the packed pass's hidden states of one sample."""
    sample = TrainingSample(frames=frames, tokens=tokens, supervised=np.zeros(len(tokens), bool))
    H = _hidden(params, packed([sample], 3, config_of(params)))
    flat = H @ params.traj_w.T + params.traj_b
    trajs = flat.reshape(len(H), params.points, params.traj_frames, 2)
    return Outputs(H, H @ params.vocab_map.T, H @ params.loc_w.T + params.loc_b, trajs)


# --- independent straight-line oracle ----------------------------------------


def oracle_forward(params, frames, tokens):
    L = len(tokens)
    d = params.adapter.shape[0]
    z = [params.adapter @ f for f in frames]
    zbar = sum(z) / len(z)
    hidden, logits, locs, trajs = [], [], [], []
    for i in range(L):
        if i == 0:
            ctx = np.zeros(d)
        else:
            ctx = sum(params.embeddings[tokens[s]] for s in range(i)) / i
        x = np.concatenate([zbar, ctx, [(i + 1) / L]])
        h = np.tanh(params.backbone_w @ x + params.backbone_b)
        hidden.append(h)
        logits.append(params.vocab_map @ h)
        locs.append(params.loc_w @ h + params.loc_b)
        flat = params.traj_w @ h + params.traj_b
        trajs.append(flat.reshape(params.points, params.traj_frames, 2))
    return Outputs(
        hidden=np.array(hidden),
        logits=np.array(logits),
        locs=np.array(locs),
        trajs=np.array(trajs),
    )


def oracle_ce(logit_row, target, eps):
    V = len(logit_row)
    probs = np.exp(logit_row - logit_row.max())
    probs /= probs.sum()
    q = np.full(V, eps / V)
    q[target] += 1 - eps
    return float(-(q * np.log(probs)).sum())


def oracle_loss(params, sample, stage, lam, eps):
    out = oracle_forward(params, sample.frames, sample.tokens)
    L = len(sample.tokens)
    total = 0.0
    for i in range(L):
        total += oracle_ce(out.logits[i], sample.tokens[i], eps)
        if stage == 1 and sample.supervised[i]:
            total += lam * float(np.abs(out.locs[i] - sample.loc_targets[i]).sum())
        if stage == 2 and sample.supervised[i]:
            P, N = params.points, params.traj_frames
            diff = np.abs(out.trajs[i] - sample.traj_targets[i]).sum()
            total += lam / (P * N) * float(diff)
    return total / L


# --- hidden states and heads -----------------------------------------------------


def test_forward_shapes():
    params = init_params(SMALL)
    out = heads(params, np.zeros((1, SMALL.d_v)), [3])
    assert out.hidden.shape == (1, SMALL.d)
    assert out.logits.shape == (1, SMALL.vocab)
    assert out.locs.shape == (1, 2)
    assert out.trajs.shape == (1, SMALL.points, SMALL.frames, 2)


def test_forward_matches_oracle():
    params = init_params(SMALL, seed=3)
    sample = make_sample(SMALL, seed=4, stage=2)
    got = heads(params, sample.frames, sample.tokens)
    want = oracle_forward(params, sample.frames, sample.tokens)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-12)


def test_forward_deterministic():
    params = init_params(SMALL, seed=8)
    sample = make_sample(SMALL, seed=9, stage=1)
    a = heads(params, sample.frames, sample.tokens)
    b = heads(params, sample.frames, sample.tokens)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_forward_token_content_symmetry():
    # zero adapter and embeddings: hidden states cannot depend on the tokens
    params = init_params(SMALL, seed=1)
    params.adapter[...] = 0.0
    params.embeddings[...] = 0.0
    frames = np.random.default_rng(0).normal(size=(2, SMALL.d_v))
    a = heads(params, frames, [1, 2, 3, 4])
    b = heads(params, frames, [9, 0, 5, 5])
    np.testing.assert_array_equal(a.hidden, b.hidden)
    np.testing.assert_array_equal(a.logits, b.logits)
    # additionally zeroing the position column makes all rows identical
    params.backbone_w[:, -1] = 0.0
    c = heads(params, frames, [1, 2, 3, 4])
    assert np.all(c.hidden == c.hidden[0])
    assert np.all(c.logits == c.logits[0])


def test_training_sample_rejects_bad_tokens():
    """Empty and 2-D tokens fail when packed, as in a samples file; misaligned flags in ``sample_arrays``."""
    frames = np.zeros((2, SMALL.d_v))
    with pytest.raises(DataError, match="^sample 0: 0 tokens, expected at least 1$"):
        packed([TrainingSample(frames, np.zeros(0, int), np.zeros(0, bool))], 3, SMALL)
    with pytest.raises(DataError, match=r"^'tokens' is a \(1, 2\) int64 array, expected \(n,\)$"):
        packed([TrainingSample(frames, [[0, 1]], [[False, False]])], 3, SMALL)
    with pytest.raises(ValueError, match=r"^supervised has shape \(1,\), not one row per token \(2\)$"):
        sample_arrays([TrainingSample(frames, [0, 1], [False])])
    # a flag too many and one too few still add up to the batch's tokens
    with pytest.raises(ValueError, match=r"^supervised has shape \(3,\), not one row per token \(2\)$"):
        sample_arrays([TrainingSample(frames, [0, 1], [False] * 3), TrainingSample(frames, [0, 1], [False])])


@pytest.mark.parametrize(
    "name, rows",
    [("loc_targets", np.zeros((2, 2))), ("traj_targets", np.zeros((4, 2, 3, 2))), ("loc_targets", np.float64(0.5))],
    ids=["loc-short", "traj-long", "loc-scalar"],
)
def test_training_sample_rejects_targets_of_another_length(name, rows):
    """``sample_arrays`` keeps a target's supervised rows, so it needs one row per token."""
    frames = np.zeros((2, SMALL.d_v))
    message = f"{name} has shape {rows.shape}, not one row per token (3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_arrays([TrainingSample(frames, [0, 1, 2], [True, False, True], **{name: rows})])
    # one row per token passes, and the supervised rows are kept
    full = np.zeros((3, *rows.shape[1:]))
    arrays = sample_arrays([TrainingSample(frames, [0, 1, 2], [True, False, True], **{name: full})])
    assert arrays[name].shape == (2, *rows.shape[1:])


# --- losses ---------------------------------------------------------------------


def constant_output_params(cfg, hidden_fill=0.5, target_token=0, loc=(0.0, 0.0)):
    """Params whose forward output is constant: logits one-hot-ish at
    target_token with a huge margin, locations equal to ``loc``."""
    params = init_params(cfg, seed=0)
    params.adapter[...] = 0.0
    params.embeddings[...] = 0.0
    params.backbone_w[...] = 0.0
    params.backbone_b[...] = np.arctanh(hidden_fill)
    h = np.full(cfg.d, hidden_fill)
    params.vocab_map[...] = 0.0
    params.vocab_map[target_token] = 1000.0 * h / float(h @ h)
    params.loc_w[...] = 0.0
    params.loc_b[...] = np.asarray(loc, dtype=float)
    params.traj_w[...] = 0.0
    params.traj_b[...] = 0.0
    return params


def test_stage1_perfect_zero():
    cfg = SMALL
    params = constant_output_params(cfg, target_token=2, loc=(0.25, 0.75))
    sample = TrainingSample(
        frames=np.zeros((1, cfg.d_v)),
        tokens=[2, 2, 2],
        supervised=[True, True, True],
        loc_targets=[[0.25, 0.75]] * 3,
    )
    assert sample_loss(params, sample, 1, lam=1.0, smoothing=0.0) == 0.0


def test_stage1_l1_arithmetic():
    cfg = SMALL
    params = constant_output_params(cfg, target_token=2, loc=(0.6, 0.2))
    sample = TrainingSample(
        frames=np.zeros((1, cfg.d_v)),
        tokens=[2, 2, 2],
        supervised=[True, True, True],
        loc_targets=[[0.5, 0.1]] * 3,  # off by (0.1, 0.1)
    )
    assert sample_loss(params, sample, 1, lam=1.0, smoothing=0.0) == pytest.approx(0.2)


def test_stage2_perfect_zero():
    cfg = SMALL
    params = constant_output_params(cfg, target_token=1)
    sample = TrainingSample(
        frames=np.zeros((1, cfg.d_v)),
        tokens=[1, 1],
        supervised=[True, True],
        traj_targets=np.zeros((2, cfg.points, cfg.frames, 2)),
    )
    assert sample_loss(params, sample, 2, lam=1.0, smoothing=0.0) == 0.0


def test_stage2_all_sentinel_target():
    cfg = SMALL
    params = constant_output_params(cfg, target_token=1)
    params.traj_b[...] = -1.0  # prediction constant (-1, -1) everywhere
    sample = TrainingSample(
        frames=np.zeros((1, cfg.d_v)),
        tokens=[1],
        supervised=[True],
        traj_targets=np.full((1, cfg.points, cfg.frames, 2), -1.0),
    )
    assert sample_loss(params, sample, 2, lam=1.0, smoothing=0.0) == 0.0


def test_stage3_uniform_logits():
    logits = np.zeros((4, 8))
    ce = label_smoothed_ce(log_softmax(logits), np.array([0, 1, 2, 3]), eps=0.1)
    np.testing.assert_allclose(ce, np.log(8))


def test_stage3_perfect():
    cfg = SMALL
    params = constant_output_params(cfg, target_token=5)
    sample = TrainingSample(
        frames=np.zeros((1, cfg.d_v)), tokens=[5, 5], supervised=[False, False]
    )
    assert sample_loss(params, sample, 3, smoothing=0.0) == 0.0


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_losses_match_oracle(stage):
    cfg = SMALL
    for seed in range(4):
        params = init_params(cfg, seed=seed + 50)
        sample = make_sample(cfg, seed=seed + 60, stage=stage)
        lam, eps = 0.7, 0.13
        got = sample_loss(params, sample, stage, lam, eps)
        assert got == pytest.approx(oracle_loss(params, sample, stage, lam, eps), rel=1e-12)


def smoothed_ce_floor(vocab: int, eps: float) -> float:
    """Entropy of the smoothed target: the analytic minimum of label_smoothed_ce."""
    q_target = 1.0 - eps + eps / vocab
    q_other = eps / vocab
    floor = -q_target * np.log(q_target)
    if vocab > 1 and q_other > 0:
        floor -= (vocab - 1) * q_other * np.log(q_other)
    return float(floor)


def test_ce_floor_property():
    rng = np.random.default_rng(17)
    for _ in range(30):
        vocab = int(rng.integers(2, 20))
        eps = float(rng.uniform(0, 0.9))
        logits = rng.normal(size=(6, vocab)) * rng.uniform(0.1, 5)
        targets = rng.integers(0, vocab, size=6)
        ce = label_smoothed_ce(log_softmax(logits), targets, eps)
        assert np.all(ce >= smoothed_ce_floor(vocab, eps) - 1e-12)


def test_pack_rows_requires_the_stage_targets():
    sample = make_sample(SMALL, seed=0, stage=3)
    with pytest.raises(ValueError, match="^loc_targets on some samples only$"):
        sample_arrays([make_sample(SMALL, seed=1, stage=1), sample])
    arrays = sample_arrays([sample])
    with pytest.raises(DataError, match="^no 'traj_targets' array$"):
        pack_rows(arrays, 2, SMALL)
    with pytest.raises(DataError, match="^no 'loc_targets' array$"):
        pack_rows(sample_arrays([make_sample(SMALL, seed=1, stage=2)]), 1, SMALL)
    assert pack_rows(arrays, 3, SMALL).targets is None


# --- tiling ----------------------------------------------------------------------


def test_tile_init_exact_copies():
    cfg = TrainerConfig(d_v=4, d=5, vocab=8, points=3, frames=4, seed=0)
    params = init_params(cfg, seed=2)
    tiled = tile_init(params)
    for m in range(cfg.points * cfg.frames):
        assert np.array_equal(tiled.traj_w[2 * m : 2 * m + 2], params.loc_w)
        assert np.array_equal(tiled.traj_b[2 * m : 2 * m + 2], params.loc_b)


def test_tile_init_identity_case():
    cfg = TrainerConfig(d_v=4, d=5, vocab=8, points=1, frames=1, seed=0)
    params = init_params(cfg, seed=3)
    tiled = tile_init(params)
    assert np.array_equal(tiled.traj_w, params.loc_w)
    assert np.array_equal(tiled.traj_b, params.loc_b)


def test_tile_init_forces_trajectory_equal_location():
    for seed in range(5):
        cfg = TrainerConfig(d_v=4, d=6, vocab=9, points=2, frames=3, seed=seed)
        params = tile_init(init_params(cfg, seed=seed))
        sample = make_sample(cfg, seed=seed + 100, stage=2)
        out = heads(params, sample.frames, sample.tokens)
        want = np.broadcast_to(
            out.locs[:, None, None, :], (len(sample.tokens), cfg.points, cfg.frames, 2)
        )
        assert np.array_equal(out.trajs, want)


# --- gradients ---------------------------------------------------------------------


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_grad_check_below_tolerance(stage):
    for seed in range(5):
        params = init_params(SMALL, seed=seed)
        sample = make_sample(SMALL, seed=seed + 10, stage=stage)
        err = grad_check(params, packed([sample], stage, SMALL), stage, SMALL)
        assert err < 1e-4


@pytest.mark.parametrize("poison", ["loc_w-nan", "vocab_map-inf"])
def test_grad_check_is_nan_when_loss_is_not_finite(poison):
    params = init_params(SMALL, seed=0)
    if poison == "loc_w-nan":
        params.loc_w[0, 0] = np.nan
    else:
        params.vocab_map[:] = np.inf
    sample = make_sample(SMALL, seed=10, stage=1)
    with np.errstate(all="ignore"):
        assert math.isnan(grad_check(params, packed([sample], 1, SMALL), 1, SMALL))


def test_frozen_groups_have_zero_gradient():
    params = init_params(SMALL, seed=4)
    sample = make_sample(SMALL, seed=5, stage=2)
    grads = sample_grads(params, sample, stage=2, lam=1.0, smoothing=0.1)
    assert np.all(grads["backbone_w"] == 0.0)
    assert np.all(grads["backbone_b"] == 0.0)
    assert np.all(grads["adapter"] == 0.0)  # frozen in stage 2
    assert np.any(grads["embeddings"] != 0.0)


def test_lambda_zero_stage1_reduces_to_stage3():
    params = init_params(SMALL, seed=6)
    sample = make_sample(SMALL, seed=7, stage=1)
    assert sample_loss(params, sample, 1, lam=0.0, smoothing=0.1) == pytest.approx(
        sample_loss(params, sample, 3, smoothing=0.1)
    )
    g1 = sample_grads(params, sample, stage=1, lam=0.0, smoothing=0.1)
    g3 = sample_grads(params, sample, stage=3, lam=0.0, smoothing=0.1)
    for name in TRAINABLE_BY_STAGE[3]:
        np.testing.assert_allclose(g1[name], g3[name], atol=1e-15)
    assert np.all(g1["loc_w"] == 0.0)


# --- packed batches -----------------------------------------------------------------


def ragged_batch(cfg, stage, seed, lengths=(1, 5, 9)):
    return [make_sample(cfg, seed=seed + i, stage=stage, length=n) for i, n in enumerate(lengths)]


def unsupervised(sample):
    """``sample`` supervising no token."""
    return replace(sample, supervised=np.zeros(len(sample.tokens), bool))


def partly_unsupervised(cfg, stage, seed):
    """``ragged_batch`` whose middle sample supervises no token."""
    samples = ragged_batch(cfg, stage, seed)
    samples[1] = unsupervised(samples[1])
    return samples


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_packed_loss_is_mean_of_oracle_sample_losses(stage):
    lam, eps = 0.7, 0.13
    for seed in range(3):
        params = init_params(SMALL, seed=seed + 20)
        for make in (ragged_batch, partly_unsupervised):
            samples = make(SMALL, stage, seed=10 * seed + 30)
            got = stage_loss(params, packed(samples, stage, SMALL), stage, lam, eps)
            want = np.mean([oracle_loss(params, s, stage, lam, eps) for s in samples])
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_packed_pass_ignores_sample_order(stage):
    params = init_params(SMALL, seed=40)
    samples = ragged_batch(SMALL, stage, seed=41)
    order = [2, 0, 1]
    loss, grads = gradients(params, packed(samples, stage, SMALL), stage, 1.0, 0.1)
    loss_p, grads_p = gradients(
        params, packed([samples[i] for i in order], stage, SMALL), stage, 1.0, 0.1
    )
    assert abs(loss - loss_p) <= 1e-12
    assert stage_loss(params, packed(samples, stage, SMALL), stage, 1.0, 0.1) == loss
    for name, grad in grads.items():
        np.testing.assert_allclose(grads_p[name], grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_grad_check_on_multi_sample_batch(stage):
    for seed in range(3):
        params = init_params(SMALL, seed=seed + 60)
        samples = ragged_batch(SMALL, stage, seed=10 * seed + 70)
        assert grad_check(params, packed(samples, stage, SMALL), stage, SMALL) < 1e-4


def grad_check_fixtures(stage):
    yield init_params(SMALL, seed=80), [make_sample(SMALL, seed=81, stage=stage)]
    yield init_params(SMALL, seed=82), [make_sample(SMALL, seed=83, stage=stage, length=9)]
    yield init_params(SMALL, seed=84), ragged_batch(SMALL, stage, seed=85)
    yield init_params(SMALL, seed=86), partly_unsupervised(SMALL, stage, seed=87)
    if stage in toymodel.STAGE_TARGETS:  # a batch without a single target row
        yield init_params(SMALL, seed=88), [unsupervised(s) for s in ragged_batch(SMALL, stage, seed=89)]


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_stacked_probes_match_sequential_losses(stage, monkeypatch):
    calls = []

    def recording(params, batch, *args):
        losses = stage_loss(params, batch, *args)
        calls.append((params, batch, args, losses))
        return losses

    monkeypatch.setattr(toymodel, "stage_loss", recording)
    for params, samples in grad_check_fixtures(stage):
        before = {n: getattr(params, n).tobytes() for n in ARRAY_NAMES}
        calls.clear()
        grad_check(params, packed(samples, stage, SMALL), stage, SMALL)
        assert {n: getattr(params, n).tobytes() for n in ARRAY_NAMES} == before
        assert len(calls) == len(TRAINABLE_BY_STAGE[stage])
        for name, (probe, batch, args, losses) in zip(TRAINABLE_BY_STAGE[stage], calls):
            arr = getattr(params, name)
            k = arr.size
            stack = getattr(probe, name)
            assert stack.shape == (2 * k, *arr.shape)
            assert losses.shape == (2 * k,)
            for row in range(2 * k):
                # the sequential probe: one scalar moved by +eps (rows < k) or -eps
                moved = params.copy()
                flat = getattr(moved, name).reshape(-1)
                flat[row % k] += GRAD_CHECK_EPS if row < k else -GRAD_CHECK_EPS
                assert np.array_equal(stack[row], getattr(moved, name))
                assert abs(losses[row] - stage_loss(moved, batch, *args)) <= 1e-14


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_grad_check_catches_error_in_last_scalar_of_each_array(stage, monkeypatch):
    for name in TRAINABLE_BY_STAGE[stage]:

        def skewed(*args, name=name):
            loss, grads = gradients(*args)
            grads[name].reshape(-1)[-1] += 1e-3
            return loss, grads

        monkeypatch.setattr(toymodel, "gradients", skewed)
        for params, samples in grad_check_fixtures(stage):
            assert grad_check(params, packed(samples, stage, SMALL), stage, SMALL) >= 5e-4, name


def test_stage2_rejects_targets_of_another_head_geometry():
    swapped = TrainerConfig(d_v=4, d=6, vocab=10, points=SMALL.frames, frames=SMALL.points)
    params = init_params(SMALL, seed=0)
    batch = packed([make_sample(swapped, seed=1, stage=2)], 2, swapped)
    with pytest.raises(ValueError, match="expected"):
        stage_loss(params, batch, 2, 1.0, 0.1)
    with pytest.raises(ValueError, match="expected"):
        gradients(params, batch, 2, 1.0, 0.1)


def test_sample_arrays_rejects_empty_and_pack_rows_unknown_stage():
    with pytest.raises(ValueError, match="^dataset is empty$"):
        sample_arrays([])
    with pytest.raises(ValueError, match="^unknown stage 4$"):
        pack_rows(sample_arrays([make_sample(SMALL, seed=0, stage=3)]), 4, SMALL)


@pytest.mark.parametrize(
    "shape, message",
    [
        ((0, 4), "sample 0: 0 frames, expected at least 1"),
        ((4,), r"'frames' is a \(4,\) float64 array, expected \(n, 4\)"),
        ((1, 3, 4), r"'frames' is a \(1, 3, 4\) float64 array, expected \(n, 4\)"),
    ],
    ids=["no-rows", "1-D", "3-D"],
)
def test_training_sample_rejects_frames_a_samples_file_cannot_hold(shape, message):
    """Frames must be one (n >= 1, d_v) block, as in a samples file; no rows would pack to a NaN mean."""
    with pytest.raises(DataError, match=f"^{message}$"):
        packed([TrainingSample(np.zeros(shape), [1, 2], [True, False])], 3, SMALL)


def test_training_sample_rejects_a_negative_token():
    """Token -1 would silently train embedding row V-1; packing refuses it, in memory as in a file."""
    with pytest.raises(DataError, match=r"^sample 0: token -1 is not an integer in \[0, 10\)$"):
        packed([TrainingSample(np.zeros((2, 4)), [3, -1], [True, False])], 3, SMALL)


@pytest.mark.parametrize(
    "tokens, message",
    [
        ([2.0, 1.7], r"sample 0: token 1\.7 is not an integer in \[0, 10\)"),
        ([True, False], r"'tokens' is a \(2,\) bool array, expected \(n,\)"),
    ],
    ids=["fraction", "boolean"],
)
def test_training_sample_rejects_tokens_a_samples_file_cannot_hold(tokens, message):
    """An int cast would make 1.7 token 1 and ``[True, False]`` tokens 1 and 0; packing refuses both."""
    with pytest.raises(DataError, match=f"^{message}$"):
        packed([TrainingSample(np.zeros((2, 4)), tokens, [False, False])], 3, SMALL)


def test_decode_uses_prefix_only(greedy_decode):
    params = init_params(SMALL, seed=11)
    frames = np.random.default_rng(1).normal(size=(2, SMALL.d_v))
    tokens = greedy_decode(params, frames, length=4)
    # teacher forcing on the decoded sequence reproduces it
    out = heads(params, frames, tokens)
    assert np.array_equal(np.argmax(out.logits, axis=1), tokens)
