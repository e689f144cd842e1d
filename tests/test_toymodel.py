import numpy as np
import pytest

from pite.toymodel import (
    TRAINABLE_BY_STAGE,
    ForwardOutput,
    TrainerConfig,
    TrainingSample,
    stage_loss,
    forward,
    grad_check,
    gradients,
    greedy_decode,
    init_params,
    label_smoothed_ce,
    log_softmax,
    pack_batch,
    smoothed_ce_floor,
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
    return stage_loss(params, pack_batch([sample], stage), stage, lam, smoothing)


def sample_grads(params, sample, stage, lam, smoothing):
    return gradients(params, pack_batch([sample], stage), stage, lam, smoothing)[1]


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
    return ForwardOutput(
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


# --- forward ------------------------------------------------------------------


def test_forward_shapes():
    params = init_params(SMALL)
    out = forward(params, np.zeros((1, SMALL.d_v)), [3])
    assert out.hidden.shape == (1, SMALL.d)
    assert out.logits.shape == (1, SMALL.vocab)
    assert out.locs.shape == (1, 2)
    assert out.trajs.shape == (1, SMALL.points, SMALL.frames, 2)


def test_forward_matches_oracle():
    params = init_params(SMALL, seed=3)
    sample = make_sample(SMALL, seed=4, stage=2)
    got = forward(params, sample.frames, sample.tokens)
    want = oracle_forward(params, sample.frames, sample.tokens)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-12)


def test_forward_deterministic():
    params = init_params(SMALL, seed=8)
    sample = make_sample(SMALL, seed=9, stage=1)
    a = forward(params, sample.frames, sample.tokens)
    b = forward(params, sample.frames, sample.tokens)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_forward_token_content_symmetry():
    # zero adapter and embeddings: hidden states cannot depend on the tokens
    params = init_params(SMALL, seed=1)
    params.adapter[...] = 0.0
    params.embeddings[...] = 0.0
    frames = np.random.default_rng(0).normal(size=(2, SMALL.d_v))
    a = forward(params, frames, [1, 2, 3, 4])
    b = forward(params, frames, [9, 0, 5, 5])
    np.testing.assert_array_equal(a.hidden, b.hidden)
    np.testing.assert_array_equal(a.logits, b.logits)
    # additionally zeroing the position column makes all rows identical
    params.backbone_w[:, -1] = 0.0
    c = forward(params, frames, [1, 2, 3, 4])
    assert np.all(c.hidden == c.hidden[0])
    assert np.all(c.logits == c.logits[0])


def test_forward_rejects_bad_shapes():
    params = init_params(SMALL)
    with pytest.raises(ValueError):
        forward(params, np.zeros((2, SMALL.d_v + 1)), [0])
    with pytest.raises(ValueError):
        forward(params, np.zeros((2, SMALL.d_v)), [])


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


def test_ce_floor_property():
    rng = np.random.default_rng(17)
    for _ in range(30):
        vocab = int(rng.integers(2, 20))
        eps = float(rng.uniform(0, 0.9))
        logits = rng.normal(size=(6, vocab)) * rng.uniform(0.1, 5)
        targets = rng.integers(0, vocab, size=6)
        ce = label_smoothed_ce(log_softmax(logits), targets, eps)
        assert np.all(ce >= smoothed_ce_floor(vocab, eps) - 1e-12)


def test_sample_schema_check():
    sample = make_sample(SMALL, seed=0, stage=3)
    with pytest.raises(ValueError, match="loc_targets"):
        sample.require(1)
    with pytest.raises(ValueError, match="traj_targets"):
        sample.require(2)


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
        out = forward(params, sample.frames, sample.tokens)
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
        err = grad_check(params, [sample], stage, eps=1e-5, lam=1.0, smoothing=0.1)
        assert err < 1e-4


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


def test_grad_check_rejects_bad_eps():
    params = init_params(SMALL, seed=0)
    sample = make_sample(SMALL, seed=0, stage=3)
    with pytest.raises(ValueError):
        grad_check(params, [sample], stage=3, eps=0.0)


def test_check_shapes():
    params = init_params(SMALL)
    params.check_shapes(SMALL)
    with pytest.raises(ValueError, match="shape"):
        params.check_shapes(TrainerConfig(d_v=4, d=7, vocab=10, points=2, frames=3))


# --- packed batches -----------------------------------------------------------------


def ragged_batch(cfg, stage, seed, lengths=(1, 5, 9)):
    return [make_sample(cfg, seed=seed + i, stage=stage, length=n) for i, n in enumerate(lengths)]


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_packed_loss_is_mean_of_oracle_sample_losses(stage):
    lam, eps = 0.7, 0.13
    for seed in range(3):
        params = init_params(SMALL, seed=seed + 20)
        samples = ragged_batch(SMALL, stage, seed=10 * seed + 30)
        got = stage_loss(params, pack_batch(samples, stage), stage, lam, eps)
        want = np.mean([oracle_loss(params, s, stage, lam, eps) for s in samples])
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_packed_pass_ignores_sample_order(stage):
    params = init_params(SMALL, seed=40)
    samples = ragged_batch(SMALL, stage, seed=41)
    order = [2, 0, 1]
    loss, grads = gradients(params, pack_batch(samples, stage), stage, 1.0, 0.1)
    loss_p, grads_p = gradients(
        params, pack_batch([samples[i] for i in order], stage), stage, 1.0, 0.1
    )
    assert abs(loss - loss_p) <= 1e-12
    assert stage_loss(params, pack_batch(samples, stage), stage, 1.0, 0.1) == loss
    for name, grad in grads.items():
        np.testing.assert_allclose(grads_p[name], grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_grad_check_on_multi_sample_batch(stage):
    for seed in range(3):
        params = init_params(SMALL, seed=seed + 60)
        samples = ragged_batch(SMALL, stage, seed=10 * seed + 70)
        assert grad_check(params, samples, stage, eps=1e-5, lam=1.0, smoothing=0.1) < 1e-4


def test_stage2_rejects_targets_of_another_head_geometry():
    swapped = TrainerConfig(d_v=4, d=6, vocab=10, points=SMALL.frames, frames=SMALL.points)
    params = init_params(SMALL, seed=0)
    batch = pack_batch([make_sample(swapped, seed=1, stage=2)], 2)
    with pytest.raises(ValueError, match="expected"):
        stage_loss(params, batch, 2, 1.0, 0.1)
    with pytest.raises(ValueError, match="expected"):
        gradients(params, batch, 2, 1.0, 0.1)


def test_pack_batch_rejects_empty_and_unknown_stage():
    with pytest.raises(ValueError, match="empty"):
        pack_batch([], 3)
    with pytest.raises(ValueError, match="stage"):
        pack_batch([make_sample(SMALL, seed=0, stage=3)], 4)


def test_decode_uses_prefix_only():
    params = init_params(SMALL, seed=11)
    frames = np.random.default_rng(1).normal(size=(2, SMALL.d_v))
    tokens = greedy_decode(params, frames, length=4)
    # teacher forcing on the decoded sequence reproduces it
    out = forward(params, frames, tokens)
    assert np.array_equal(np.argmax(out.logits, axis=1), tokens)
