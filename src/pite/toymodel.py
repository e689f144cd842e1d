"""Desk-scale surrogate of the three-stage alignment model.

The trainable surface mirrors the full system: a linear visual adapter,
token embeddings, a vocabulary mapping layer, a 2-D localization head, and
a (2*P*N)-D trajectory head, all hanging off a frozen random affine+tanh
backbone that pools the visual tokens, the token prefix, and the sequence
position.  Losses and their analytic gradients run over one packed batch:
the samples' tokens concatenated into T rows, each weighted 1/(B * L_b).
``sample_arrays`` lays samples end to end as the arrays of a samples file,
and ``pack_rows`` checks such arrays, in memory or read back, against the
config and turns them into a batch.
The gradients are checked against central finite differences; all +-eps
probes of one trainable array run as one stacked loss pass.

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

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .jsonl import DataError, integer, real

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

TRAINABLE_BY_STAGE = {
    1: ("adapter", "embeddings", "vocab_map", "loc_w", "loc_b"),
    2: ("embeddings", "vocab_map", "traj_w", "traj_b"),
    3: ("embeddings", "vocab_map"),
}

# the target each stage regresses, a TrainingSample field and a samples-file array; stage 3 has none
STAGE_TARGETS = {1: "loc_targets", 2: "traj_targets"}


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
        for name in ("steps", "seed", "lr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not 0 <= self.smoothing < 1:
            raise ValueError("smoothing must be in [0, 1)")

    @classmethod
    def from_json(cls, obj: dict) -> "TrainerConfig":
        """A config from a JSON object: ``float`` fields read through ``real``, the rest ``integer``."""
        if not isinstance(obj, dict):
            raise TypeError(f"config must be a JSON object, got {obj!r}")
        fields = cls.__dataclass_fields__
        unknown = set(obj) - set(fields)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**{k: (real if fields[k].type == "float" else integer)(v, k) for k, v in obj.items()})


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


@dataclass
class TrainingSample:
    """One training example, checked only when packed; targets have a row per token, read where supervised."""

    frames: np.ndarray  # (n_frames, d_v) float
    tokens: np.ndarray  # (L,) int
    supervised: np.ndarray  # (L,) bool
    loc_targets: np.ndarray | None = None  # (L, 2)
    traj_targets: np.ndarray | None = None  # (L, P, N, 2)


def sample_arrays(samples: Sequence[TrainingSample]) -> dict[str, np.ndarray]:
    """The arrays of a samples file, the samples laid end to end.

    ``tokens``, ``supervised`` and ``frames`` concatenated, the per-sample
    ``lengths`` and ``frame_counts``, and the supervised rows of each
    ``STAGE_TARGETS`` kind, which must be on every sample or none.  Only
    here can a sample's flags and target rows be matched to its tokens, one
    per token, and its frame rows to sample 0's; ``pack_rows`` checks the
    arrays laid end to end.
    """
    if not samples:
        raise ValueError("dataset is empty")
    targets = [n for n in STAGE_TARGETS.values() if any(getattr(s, n) is not None for s in samples)]
    row = np.shape(samples[0].frames)[1:]
    for i, s in enumerate(samples):
        for name in ("supervised", *targets):
            if getattr(s, name) is None:
                raise ValueError(f"{name} on some samples only")
            shape = np.shape(getattr(s, name))
            if shape[:1] != np.shape(s.tokens)[:1]:
                raise ValueError(f"{name} has shape {shape}, not one row per token ({len(s.tokens)})")
        if np.shape(s.frames)[1:] != row:
            raise ValueError(f"sample {i}: frames rows have shape {np.shape(s.frames)[1:]}, sample 0's {row}")
    arrays = {
        name: np.concatenate([getattr(s, name) for s in samples])
        for name in ("tokens", "supervised", "frames")
    }
    arrays["lengths"] = np.array([len(s.tokens) for s in samples])
    arrays["frame_counts"] = np.array([len(s.frames) for s in samples])
    for name in targets:  # cast so that flags of another dtype fail in pack_rows, not as an IndexError
        rows = [np.asarray(getattr(s, name))[np.asarray(s.supervised, bool)] for s in samples]
        arrays[name] = np.concatenate(rows)
    return arrays


class PackedBatch(NamedTuple):
    """B samples concatenated into T = sum of their lengths L_b token rows."""

    tokens: np.ndarray  # (T,) int
    sample: np.ndarray  # (T,) index of the sample that owns the row
    starts: np.ndarray  # (B,) first row of each sample
    inv_prefix: np.ndarray  # (T,) 1 / (tokens before the row in its sample), 0 for none
    position: np.ndarray  # (T,) (i + 1) / L_b for the i-th token of sample b
    weight: np.ndarray  # (T,) 1 / (B * L_b): per-sample mean, then mean over samples
    rows: np.ndarray  # (S,) ascending indices of the supervised rows
    targets: np.ndarray | None  # (S, 2) in stage 1, (S, P, N, 2) in stage 2, else None
    frame_means: np.ndarray  # (B, d_v) mean visual feature of each sample


# trainable head of the stage's regression term
_HEADS = {1: ("loc_w", "loc_b"), 2: ("traj_w", "traj_b")}


def param_shapes(cfg: TrainerConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each ``ARRAY_NAMES`` array under ``cfg``, in that order."""
    d, d_v, V = cfg.d, cfg.d_v, cfg.vocab
    out = 2 * cfg.points * cfg.frames
    return {
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


def init_params(cfg: TrainerConfig, seed: int | None = None) -> ToyModelParams:
    """Seeded Gaussian init, scaled by 1/sqrt(fan_in); head biases start at zero."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        if name == "backbone_b":
            arrays[name] = rng.normal(0.0, 0.1, size=shape)
        elif len(shape) == 1:
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[1]), size=shape)
    return ToyModelParams(**arrays, points=cfg.points, traj_frames=cfg.frames)


def check_arrays(arrays: dict, spec: dict[str, tuple], at: str = "") -> None:
    """Raise DataError ``<at>...`` unless every array ``spec`` names is in ``arrays`` and fits it.

    ``spec`` maps each name to its accepted dtype kinds and its shape, with
    None for an axis of any length.  A float array must also be finite.
    ``at`` is ``"<path>: "`` for arrays read from a file.
    """
    for name, (kinds, shape) in spec.items():
        arr = arrays.get(name)
        if arr is None:
            raise DataError(f"{at}no {name!r} array")
        if arr.dtype.kind not in kinds or len(arr.shape) != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape)
        ):
            axes = ", ".join("n" if n is None else str(n) for n in shape)
            expected = f"({axes},)" if len(shape) == 1 else f"({axes})"
            raise DataError(f"{at}{name!r} is a {arr.shape} {arr.dtype} array, expected {expected}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise DataError(f"{at}{name!r} holds a non-finite value")


def sample_spec(stage: int, cfg: TrainerConfig) -> dict[str, tuple]:
    """The ``check_arrays`` spec of the arrays a ``stage`` batch packs under ``cfg``."""
    spec = {
        "tokens": ("iuf", (None,)), "supervised": ("b", (None,)),
        "lengths": ("iu", (None,)), "frame_counts": ("iu", (None,)),
        "frames": ("f", (None, cfg.d_v)),
    }
    target = STAGE_TARGETS.get(stage)
    if target:
        spec[target] = ("f", (None, 2) if stage == 1 else (None, cfg.points, cfg.frames, 2))
    return spec


def _check_samples(arrays: dict, stage: int, cfg: TrainerConfig, at: str) -> None:
    """Raise DataError ``<at>...`` unless ``arrays`` fit ``sample_spec`` and their counts and tokens fit.

    The counts must add up to the rows they count, and every token must be
    an integer in ``[0, vocab)``; a bad count or token is named as
    ``sample <i>: ...``, the first sample that holds one.  A total that does
    not match says what "the file holds" when ``at`` names a file.
    """
    check_arrays(arrays, sample_spec(stage, cfg), at)
    lengths, frame_counts = arrays["lengths"], arrays["frame_counts"]
    tokens, supervised = arrays["tokens"], arrays["supervised"]
    if not len(lengths) or len(frame_counts) != len(lengths):
        raise DataError(f"{at}{len(lengths)} lengths and {len(frame_counts)} frame_counts")
    for name, counts in (("tokens", lengths), ("frames", frame_counts)):
        for i in np.flatnonzero(counts < 1)[:1]:
            raise DataError(f"{at}sample {i}: {counts[i]} {name}, expected at least 1")
    totals = [
        (lengths.sum(), "lengths add up to", tokens, "tokens"),
        (lengths.sum(), "lengths add up to", supervised, "supervised flags"),
        (frame_counts.sum(), "frame_counts add up to", arrays["frames"], "frames"),
    ]
    target = STAGE_TARGETS.get(stage)
    if target:
        totals.append((supervised.sum(), "supervised flags mark", arrays[target], f"{target} rows"))
    holder = "the file holds" if at else "the arrays hold"
    for total, counted, rows, noun in totals:
        if total != len(rows):
            raise DataError(f"{at}{counted} {total} {noun}, {holder} {len(rows)}")
    bad = ~((tokens >= 0) & (tokens < cfg.vocab) & (tokens == np.floor(tokens)))
    for j in np.flatnonzero(bad)[:1]:
        i = np.searchsorted(np.cumsum(lengths), j, side="right")
        raise DataError(f"{at}sample {i}: token {tokens[j]} is not an integer in [0, {cfg.vocab})")


def pack_rows(arrays: dict, stage: int, cfg: TrainerConfig, location: object = None) -> PackedBatch:
    """The ``stage`` batch of samples-file arrays (``sample_arrays``), with the stage's target rows.

    Arrays that do not fit ``cfg`` raise DataError (``_check_samples``),
    naming ``location``, the file they were read from, if given.
    """
    if stage not in TRAINABLE_BY_STAGE:
        raise ValueError(f"unknown stage {stage}")
    _check_samples(arrays, stage, cfg, "" if location is None else f"{location}: ")
    target = STAGE_TARGETS.get(stage)
    lengths = arrays["lengths"].astype(int)
    sample = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.cumsum(lengths) - lengths
    prefix = np.arange(len(sample)) - starts[sample]
    inv_prefix = np.divide(1.0, prefix, out=np.zeros(len(prefix)), where=prefix > 0)
    position = (prefix + 1.0) / lengths[sample]
    weight = 1.0 / (len(lengths) * lengths[sample])
    rows = np.flatnonzero(arrays["supervised"])
    targets = arrays[target].astype(float) if target else None
    # float64 before the means: a float32 file's mean rounds differently
    frames = np.split(arrays["frames"].astype(float), np.cumsum(arrays["frame_counts"])[:-1])
    frame_means = np.array([f.mean(axis=0) for f in frames])
    tokens = arrays["tokens"].astype(int)
    return PackedBatch(tokens, sample, starts, inv_prefix, position, weight, rows, targets, frame_means)


def _hidden(params: ToyModelParams, batch: PackedBatch) -> np.ndarray:
    """Backbone states tanh(W [mean frame token; mean prefix embedding; position] + b)."""
    w = params.backbone_w
    d = w.shape[0]
    # exclusive running sum of embeddings, restarted at each sample's first row
    emb = params.embeddings[..., batch.tokens, :]
    prefix_sum = np.zeros_like(emb)
    np.cumsum(emb[..., :-1, :], axis=-2, out=prefix_sum[..., 1:, :])
    prefix_sum -= prefix_sum[..., batch.starts, :][..., batch.sample, :]
    prefix_sum *= batch.inv_prefix[:, None]
    act = prefix_sum @ w[:, d : 2 * d].T
    frame = (batch.frame_means @ np.swapaxes(params.adapter, -1, -2)) @ w[:, :d].T
    act = act + frame[..., batch.sample, :]
    act += batch.position[:, None] * w[:, 2 * d]
    act += params.backbone_b
    return np.tanh(act, out=act)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities, shifted by the row maximum for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def label_smoothed_ce(logp: np.ndarray, targets: np.ndarray, eps: float) -> np.ndarray:
    """Per-token label-smoothed cross-entropy of log-probs (see ``log_softmax``)."""
    nll = -logp[..., np.arange(len(targets)), targets]
    uniform = -logp.mean(axis=-1)
    return (1.0 - eps) * nll + eps * uniform


def _head_scale(params: ToyModelParams, stage: int, lam: float) -> float:
    return lam / (params.points * params.traj_frames) if stage == 2 else lam


def _forward_loss(params, batch, stage, lam, smoothing, signs=False):
    """Shared forward pass: hidden states, log-probs, head residual signs if ``signs``, loss."""
    H = _hidden(params, batch)
    logp = log_softmax(H @ np.swapaxes(params.vocab_map, -1, -2))
    terms = label_smoothed_ce(logp, batch.tokens, smoothing)
    sign = None
    if stage in _HEADS:
        w_name, b_name = _HEADS[stage]
        dist = H[..., batch.rows, :] @ np.swapaxes(getattr(params, w_name), -1, -2)
        bias = getattr(params, b_name)[..., None, :]
        # in place unless only the bias is stacked: a fresh (S, 2PN) array per step is slow
        dist = np.add(dist, bias, out=dist if dist.ndim >= bias.ndim else None)
        shape = (2,) if stage == 1 else (params.points, params.traj_frames, 2)
        got = None if batch.targets is None else batch.targets.shape[1:]
        if got != shape:  # also a batch packed for another stage
            raise ValueError(f"target rows of shape {got}, expected {shape}")
        dist -= batch.targets.reshape(dist.shape[-2:])
        if signs:  # int8 residual signs are all the backward pass needs of the residuals
            sign = np.sign(dist, out=np.empty(dist.shape, np.int8), casting="unsafe")
        # stacked like dist, which a bias-only probe stacks although H is not
        l1 = np.zeros(dist.shape[:-2] + (len(batch.tokens),))
        l1[..., batch.rows] = np.abs(dist, out=dist).sum(axis=-1)
        terms = terms + _head_scale(params, stage, lam) * l1
    loss = terms @ batch.weight
    return H, logp, sign, float(loss) if loss.ndim == 0 else loss


def stage_loss(
    params: ToyModelParams, batch: PackedBatch, stage: int, lam: float, smoothing: float
) -> float | np.ndarray:
    """Stage loss of the batch: the mean over samples of each sample's token mean.

    Every token pays label-smoothed cross-entropy; supervised tokens also pay
    lam * L1 location error (stage 1) or lam/(P*N) * summed L1 trajectory
    error (stage 2), where sentinel (-1, -1) target cells count like real
    coordinates.  Stage 3 is cross-entropy only.  Trainable arrays stacked on
    leading probe axes broadcast through the pass and give one loss per probe.
    """
    return _forward_loss(params, batch, stage, lam, smoothing)[3]


def gradients(
    params: ToyModelParams, batch: PackedBatch, stage: int, lam: float, smoothing: float
) -> tuple[float, dict[str, np.ndarray]]:
    """``stage_loss`` and its analytic gradient from the same forward pass.

    Returns one array per parameter group; groups frozen for the stage come
    back as exact zeros.
    """
    H, logp, sign, loss = _forward_loss(params, batch, stage, lam, smoothing, signs=True)
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
        coef = _head_scale(params, stage, lam) * batch.weight[batch.rows]
        g_head = np.multiply(sign, coef[:, None])  # L1 subgradient, per-token weighted
        grads[w_name] = g_head.T @ H[batch.rows]
        grads[b_name] = g_head.sum(axis=0)
        g_h[batch.rows] += g_head @ getattr(params, w_name)  # rows are unique: one add each

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


GRAD_CHECK_EPS = 1e-5  # central-difference step


def grad_check(params: ToyModelParams, batch: PackedBatch, stage: int, cfg: TrainerConfig) -> float:
    """Max relative error of analytic vs central-difference gradients.

    Sweeps every trainable scalar of the stage over ``batch``, with
    the loss weights of ``cfg``; the error for one scalar is
    |analytic - numeric| / max(1, |numeric|), and a NaN error makes the result NaN.
    All probes of an array of K scalars go through one ``stage_loss`` call as
    a (2K, *shape) stack, rows j and K+j holding scalar j shifted by +eps and
    -eps, so the memory of a check grows with K**2.
    """
    lam, smoothing, eps = cfg.lam, cfg.smoothing, GRAD_CHECK_EPS
    _, analytic = gradients(params, batch, stage, lam, smoothing)
    worst = 0.0
    for name in TRAINABLE_BY_STAGE[stage]:
        arr = getattr(params, name)
        k = arr.size
        stack = np.tile(arr.reshape(1, k), (2 * k, 1))
        rows = np.arange(2 * k)
        stack[rows, rows % k] += np.repeat([eps, -eps], k)
        probe = replace(params, **{name: stack.reshape(2 * k, *arr.shape)})
        losses = stage_loss(probe, batch, stage, lam, smoothing)
        numeric = (losses[:k] - losses[k:]) / (2 * eps)
        err = np.abs(analytic[name].reshape(k) - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = np.maximum(worst, np.max(err))  # unlike max(), both keep a NaN
    return worst
