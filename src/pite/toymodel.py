"""Desk-scale surrogate of the three-stage alignment model.

The trainable surface mirrors the full system: a linear visual adapter,
token embeddings, a vocabulary mapping layer, a 2-D localization head, and
a (2*P*N)-D trajectory head, all hanging off a frozen random affine+tanh
backbone that pools the visual tokens, the token prefix, and the sequence
position.  Losses and their analytic gradients run over one packed batch:
the samples' tokens concatenated into T rows, each weighted 1/(B * L_b).
The gradients are checked against central finite differences.

Shapes (config d_v, d, vocab V, points P, frames N, sequence length L):
    adapter      (d, d_v)
    embeddings   (V, d)
    backbone_w   (d, 2d+1)   frozen
    backbone_b   (d,)        frozen
    vocab_map    (V, d)
    loc_w, loc_b (2, d), (2,)
    traj_w/b     (2PN, d), (2PN,)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

ARRAY_NAMES = (
    "adapter",
    "embeddings",
    "backbone_w",
    "backbone_b",
    "vocab_map",
    "loc_w",
    "loc_b",
    "traj_w",
    "traj_b",
)

FROZEN_ALWAYS = ("backbone_w", "backbone_b")

TRAINABLE_BY_STAGE = {
    1: ("adapter", "embeddings", "vocab_map", "loc_w", "loc_b"),
    2: ("embeddings", "vocab_map", "traj_w", "traj_b"),
    3: ("embeddings", "vocab_map"),
}


@dataclass
class TrainerConfig:
    d_v: int = 8
    d: int = 16
    vocab: int = 32
    points: int = 3
    frames: int = 100
    lam: float = 1.0
    smoothing: float = 0.1
    lr: float = 0.5
    steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if min(self.d_v, self.d, self.vocab, self.points, self.frames) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not 0 <= self.smoothing < 1:
            raise ValueError("smoothing must be in [0, 1)")

    @classmethod
    def from_json(cls, obj: dict) -> "TrainerConfig":
        known = {k: v for k, v in obj.items() if k in cls.__dataclass_fields__}
        unknown = set(obj) - set(known)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**known)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class ToyModelParams:
    """All surrogate weights plus the (P, N) geometry of the trajectory head."""

    adapter: np.ndarray
    embeddings: np.ndarray
    backbone_w: np.ndarray
    backbone_b: np.ndarray
    vocab_map: np.ndarray
    loc_w: np.ndarray
    loc_b: np.ndarray
    traj_w: np.ndarray
    traj_b: np.ndarray
    points: int = 1
    traj_frames: int = 1

    def copy(self) -> "ToyModelParams":
        return ToyModelParams(
            **{n: getattr(self, n).copy() for n in ARRAY_NAMES},
            points=self.points,
            traj_frames=self.traj_frames,
        )

    def check_shapes(self, cfg: TrainerConfig) -> None:
        d, d_v, V = cfg.d, cfg.d_v, cfg.vocab
        out = 2 * cfg.points * cfg.frames
        expected = {
            "adapter": (d, d_v),
            "embeddings": (V, d),
            "backbone_w": (d, 2 * d + 1),
            "backbone_b": (d,),
            "vocab_map": (V, d),
            "loc_w": (2, d),
            "loc_b": (2,),
            "traj_w": (out, d),
            "traj_b": (out,),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        if (self.points, self.traj_frames) != (cfg.points, cfg.frames):
            raise ValueError("trajectory head geometry does not match config")


@dataclass
class TrainingSample:
    """One training example; target rows are meaningful only where supervised."""

    frames: np.ndarray  # (n_frames, d_v)
    tokens: np.ndarray  # (L,) int
    supervised: np.ndarray  # (L,) bool
    loc_targets: np.ndarray | None = None  # (L, 2)
    traj_targets: np.ndarray | None = None  # (L, P, N, 2)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        self.tokens = np.asarray(self.tokens, dtype=int)
        self.supervised = np.asarray(self.supervised, dtype=bool)
        if self.tokens.ndim != 1 or len(self.tokens) == 0:
            raise ValueError("tokens must be a nonempty 1-D sequence")
        if self.supervised.shape != self.tokens.shape:
            raise ValueError("supervised mask must align with tokens")
        if self.loc_targets is not None:
            self.loc_targets = np.asarray(self.loc_targets, dtype=float)
        if self.traj_targets is not None:
            self.traj_targets = np.asarray(self.traj_targets, dtype=float)

    def require(self, stage: int) -> None:
        if stage == 1 and self.loc_targets is None:
            raise ValueError("stage 1 sample requires loc_targets")
        if stage == 2 and self.traj_targets is None:
            raise ValueError("stage 2 sample requires traj_targets")


class ForwardOutput(NamedTuple):
    hidden: np.ndarray  # (L, d)
    logits: np.ndarray  # (L, V)
    locs: np.ndarray  # (L, 2)
    trajs: np.ndarray  # (L, P, N, 2)


class PackedBatch(NamedTuple):
    """B samples concatenated into T = sum of their lengths L_b token rows."""

    tokens: np.ndarray  # (T,) int
    sample: np.ndarray  # (T,) index of the sample that owns the row
    starts: np.ndarray  # (B,) first row of each sample
    inv_prefix: np.ndarray  # (T,) 1 / (tokens before the row in its sample), 0 for none
    position: np.ndarray  # (T,) (i + 1) / L_b for the i-th token of sample b
    weight: np.ndarray  # (T,) 1 / (B * L_b): per-sample mean, then mean over samples
    supervised: np.ndarray  # (T,) bool
    targets: np.ndarray | None  # (T, 2) in stage 1, (T, P, N, 2) in stage 2, else None
    frame_means: np.ndarray  # (B, d_v) mean visual feature of each sample


# trainable head of the stage's regression term
_HEADS = {1: ("loc_w", "loc_b"), 2: ("traj_w", "traj_b")}


def init_params(cfg: TrainerConfig, seed: int | None = None) -> ToyModelParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in); head biases start at zero."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    d, d_v, V = cfg.d, cfg.d_v, cfg.vocab
    out = 2 * cfg.points * cfg.frames

    def dense(rows, cols):
        return rng.normal(0.0, 1.0 / np.sqrt(cols), size=(rows, cols))

    return ToyModelParams(
        adapter=dense(d, d_v),
        embeddings=dense(V, d),
        backbone_w=dense(d, 2 * d + 1),
        backbone_b=rng.normal(0.0, 0.1, size=d),
        vocab_map=dense(V, d),
        loc_w=dense(2, d),
        loc_b=np.zeros(2),
        traj_w=dense(out, d),
        traj_b=np.zeros(out),
        points=cfg.points,
        traj_frames=cfg.frames,
    )


def pack_batch(samples: Sequence[TrainingSample], stage: int) -> PackedBatch:
    """Concatenate the samples' tokens and stage targets into one batch."""
    if stage not in TRAINABLE_BY_STAGE:
        raise ValueError(f"unknown stage {stage}")
    if not samples:
        raise ValueError("dataset is empty")
    for s in samples:
        s.require(stage)
    lengths = np.array([len(s.tokens) for s in samples])
    sample = np.repeat(np.arange(len(samples)), lengths)
    starts = np.cumsum(lengths) - lengths
    prefix = np.arange(len(sample)) - starts[sample]
    targets = None
    if stage == 1:
        targets = np.concatenate([s.loc_targets for s in samples])
    elif stage == 2:
        targets = np.concatenate([s.traj_targets for s in samples])
    return PackedBatch(
        tokens=np.concatenate([s.tokens for s in samples]),
        sample=sample,
        starts=starts,
        inv_prefix=np.divide(1.0, prefix, out=np.zeros(len(prefix)), where=prefix > 0),
        position=(prefix + 1.0) / lengths[sample],
        weight=1.0 / (len(samples) * lengths[sample]),
        supervised=np.concatenate([s.supervised for s in samples]),
        targets=targets,
        frame_means=np.array([s.frames.mean(axis=0) for s in samples]),
    )


def _hidden(params: ToyModelParams, batch: PackedBatch) -> np.ndarray:
    """Backbone states tanh(W [mean frame token; mean prefix embedding; position] + b)."""
    d = params.adapter.shape[0]
    w = params.backbone_w
    # exclusive running sum of embeddings, restarted at each sample's first row
    emb = params.embeddings[batch.tokens]
    prefix_sum = np.zeros_like(emb)
    np.cumsum(emb[:-1], axis=0, out=prefix_sum[1:])
    prefix_sum -= prefix_sum[batch.starts][batch.sample]
    prefix_sum *= batch.inv_prefix[:, None]
    act = prefix_sum @ w[:, d : 2 * d].T
    act += ((batch.frame_means @ params.adapter.T) @ w[:, :d].T)[batch.sample]
    act += batch.position[:, None] * w[:, 2 * d]
    act += params.backbone_b
    return np.tanh(act, out=act)


def forward(params: ToyModelParams, frames, tokens) -> ForwardOutput:
    """Run the surrogate model over one sample; deterministic."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2 or frames.shape[1] != params.adapter.shape[1]:
        raise ValueError(
            f"frames shape {frames.shape} incompatible with adapter {params.adapter.shape}"
        )
    sample = TrainingSample(frames=frames, tokens=tokens, supervised=np.zeros(np.shape(tokens)))
    H = _hidden(params, pack_batch([sample], stage=3))
    logits = H @ params.vocab_map.T
    locs = H @ params.loc_w.T + params.loc_b
    flat = H @ params.traj_w.T + params.traj_b
    trajs = flat.reshape(len(H), params.points, params.traj_frames, 2)
    return ForwardOutput(hidden=H, logits=logits, locs=locs, trajs=trajs)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities, shifted by the row maximum for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def label_smoothed_ce(logp: np.ndarray, targets: np.ndarray, eps: float) -> np.ndarray:
    """Per-token label-smoothed cross-entropy of log-probs (see ``log_softmax``)."""
    nll = -logp[np.arange(len(targets)), targets]
    uniform = -logp.mean(axis=1)
    return (1.0 - eps) * nll + eps * uniform


def smoothed_ce_floor(vocab: int, eps: float) -> float:
    """Entropy of the smoothed target: the analytic minimum of label_smoothed_ce."""
    q_target = 1.0 - eps + eps / vocab
    q_other = eps / vocab
    floor = -q_target * np.log(q_target)
    if vocab > 1 and q_other > 0:
        floor -= (vocab - 1) * q_other * np.log(q_other)
    return float(floor)


def _head_scale(params: ToyModelParams, stage: int, lam: float) -> float:
    return lam / (params.points * params.traj_frames) if stage == 2 else lam


def _forward_loss(params, batch, stage, lam, smoothing):
    """Shared forward pass: hidden states, log-probs, head residual signs, loss."""
    H = _hidden(params, batch)
    logp = log_softmax(H @ params.vocab_map.T)
    terms = label_smoothed_ce(logp, batch.tokens, smoothing)
    sign = None
    if stage in _HEADS:
        w_name, b_name = _HEADS[stage]
        dist = H @ getattr(params, w_name).T
        dist += getattr(params, b_name)
        shape = (2,) if stage == 1 else (params.points, params.traj_frames, 2)
        if batch.targets.shape[1:] != shape:
            raise ValueError(f"target rows of shape {batch.targets.shape[1:]}, expected {shape}")
        dist -= batch.targets.reshape(dist.shape)
        # int8 residual signs are all the backward pass needs of the residuals
        sign = np.sign(dist, out=np.empty(dist.shape, np.int8), casting="unsafe")
        l1 = np.where(batch.supervised, np.abs(dist, out=dist).sum(axis=1), 0.0)
        terms += _head_scale(params, stage, lam) * l1
    return H, logp, sign, float(batch.weight @ terms)


def stage_loss(
    params: ToyModelParams, batch: PackedBatch, stage: int, lam: float, smoothing: float
) -> float:
    """Stage loss of the batch: the mean over samples of each sample's token mean.

    Every token pays label-smoothed cross-entropy; supervised tokens also pay
    lam * L1 location error (stage 1) or lam/(P*N) * summed L1 trajectory
    error (stage 2), where sentinel (-1, -1) target cells count like real
    coordinates.  Stage 3 is cross-entropy only.
    """
    return _forward_loss(params, batch, stage, lam, smoothing)[3]


def gradients(
    params: ToyModelParams, batch: PackedBatch, stage: int, lam: float, smoothing: float
) -> tuple[float, dict[str, np.ndarray]]:
    """``stage_loss`` and its analytic gradient from the same forward pass.

    Returns one array per parameter group; groups frozen for the stage come
    back as exact zeros.
    """
    H, logp, sign, loss = _forward_loss(params, batch, stage, lam, smoothing)
    V, d = params.vocab_map.shape
    trainable = TRAINABLE_BY_STAGE[stage]
    grads = {n: np.zeros_like(getattr(params, n)) for n in ARRAY_NAMES if n not in trainable}

    # cross-entropy head: softmax minus the smoothed target, per-token weighted
    g_logits = np.exp(logp, out=logp)
    g_logits -= smoothing / V
    g_logits[np.arange(len(batch.tokens)), batch.tokens] -= 1.0 - smoothing
    g_logits *= batch.weight[:, None]
    grads["vocab_map"] = g_logits.T @ H
    g_h = g_logits @ params.vocab_map

    if sign is not None:
        w_name, b_name = _HEADS[stage]
        coef = _head_scale(params, stage, lam) * batch.weight * batch.supervised
        g_head = np.multiply(sign, coef[:, None])  # L1 subgradient, per-token weighted
        grads[w_name] = g_head.T @ H
        grads[b_name] = g_head.sum(axis=0)
        g_h += g_head @ getattr(params, w_name)

    g_h *= 1.0 - H**2  # through tanh; the backbone itself stays frozen
    w = params.backbone_w
    if "adapter" in trainable:
        # each sample's frame token is the adapter applied to its mean frame
        g_zbar = np.add.reduceat(g_h, batch.starts, axis=0) @ w[:, :d]
        grads["adapter"] = g_zbar.T @ batch.frame_means

    # token s feeds the prefix mean of every later row t of its sample
    g_ctx = g_h @ w[:, d : 2 * d]
    g_ctx *= batch.inv_prefix[:, None]
    later = np.zeros_like(g_ctx)
    later[:-1] = np.cumsum(g_ctx[:0:-1], axis=0)[::-1]
    last = np.append(batch.starts[1:], len(later)) - 1
    later -= later[last][batch.sample]
    grads["embeddings"] = np.zeros_like(params.embeddings)
    np.add.at(grads["embeddings"], batch.tokens, later)
    return loss, grads


def tile_init(params: ToyModelParams) -> ToyModelParams:
    """Initialize the trajectory head with P*N stacked copies of the location head.

    Immediately afterwards every (point, frame) slice of the trajectory
    output equals the localization output exactly.
    """
    reps = params.points * params.traj_frames
    new = params.copy()
    new.traj_w = np.tile(params.loc_w, (reps, 1))
    new.traj_b = np.tile(params.loc_b, reps)
    return new


def grad_check(
    params: ToyModelParams,
    samples: Sequence[TrainingSample],
    stage: int,
    eps: float = 1e-5,
    lam: float = 1.0,
    smoothing: float = 0.1,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Sweeps every trainable scalar of the stage over the packed samples; the
    error for one scalar is |analytic - numeric| / max(1, |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    batch = pack_batch(samples, stage)
    _, analytic = gradients(params, batch, stage, lam, smoothing)
    worst = 0.0
    work = params.copy()
    for name in TRAINABLE_BY_STAGE[stage]:
        arr = getattr(work, name)
        grad = analytic[name]
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + eps
            hi = stage_loss(work, batch, stage, lam, smoothing)
            arr[idx] = keep - eps
            lo = stage_loss(work, batch, stage, lam, smoothing)
            arr[idx] = keep
            numeric = (hi - lo) / (2 * eps)
            err = abs(grad[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def greedy_decode(params: ToyModelParams, frames, length: int) -> np.ndarray:
    """Free-running argmax decode of ``length`` tokens from the visual input.

    Row i of the forward pass depends only on tokens before i (and on the
    fixed length), so the undecided suffix can stay zero-padded.
    """
    tokens = np.zeros(length, dtype=int)
    for i in range(length):
        out = forward(params, frames, tokens)
        tokens[i] = int(np.argmax(out.logits[i]))
    return tokens
