"""Three-stage training loop over the surrogate model, plus data plumbing.

Training is plain full-batch gradient descent: each stage packs its samples
into one batch once, and every step takes the loss and analytic gradients
from one fused pass over it.  The stage decides which parameter groups move
(the backbone never does, the adapter only in stage 1).  Stage transitions
keep training the same parameter object.  Everything is deterministic for a
given seed.
"""

from __future__ import annotations

import csv
import json
import zlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .toymodel import (
    ARRAY_NAMES,
    TRAINABLE_BY_STAGE,
    ToyModelParams,
    TrainerConfig,
    TrainingSample,
    gradients,
    init_params,
    pack_batch,
    stage_loss,
    tile_init,
)


def train(
    params: ToyModelParams,
    dataset: Sequence[TrainingSample],
    stage: int,
    cfg: TrainerConfig,
) -> tuple[ToyModelParams, list[float], list[float]]:
    """Gradient-descend the stage loss; returns new params, losses and gradient norms.

    The losses have cfg.steps + 1 entries: the loss before each update and
    one final entry after the last update.  The gradient norms are the L2
    norms over the stage's trainable groups of the cfg.steps updates.  The
    input params are not mutated.
    """
    batch = pack_batch(dataset, stage)
    params = params.copy()
    trainable = TRAINABLE_BY_STAGE[stage]
    losses, grad_norms = [], []
    for _ in range(cfg.steps):
        loss, grads = gradients(params, batch, stage, cfg.lam, cfg.smoothing)
        losses.append(loss)
        grad_norms.append(float(np.sqrt(sum(np.vdot(grads[n], grads[n]) for n in trainable))))
        for name in trainable:
            getattr(params, name)[...] -= cfg.lr * grads[name]
    losses.append(stage_loss(params, batch, stage, cfg.lam, cfg.smoothing))
    return params, losses, grad_norms


def run_stage(
    params: ToyModelParams,
    dataset: Sequence[TrainingSample],
    stage: int,
    cfg: TrainerConfig,
    tile: bool = True,
) -> tuple[ToyModelParams, list[float], list[float]]:
    """Stage protocol wrapper: stage 2 starts from the tiled localization head."""
    if stage == 2 and tile:
        params = tile_init(params)
    return train(params, dataset, stage, cfg)


# --- synthetic data ----------------------------------------------------------


def synthetic_dataset(
    stage: int,
    n_samples: int,
    cfg: TrainerConfig,
    seed: int,
    length: int = 6,
    n_frames: int = 4,
    sentinel_rate: float = 0.25,
    supervised_rate: float = 0.8,
    distinct_tokens: bool = False,
) -> list[TrainingSample]:
    """Seeded samples matching the stage's target schema.

    Regression targets mimic real annotations instead of per-cell noise: a
    dataset-level teacher maps each sample's mean visual feature to a base
    coordinate, all supervised tokens of a sample share the resulting
    matrix, and a dataset-level pattern of cells is absent (-1, -1).
    ``distinct_tokens`` draws each token sequence without replacement
    (mean-pooled prefixes cannot tell repeated tokens apart, which matters
    for decode-style overfit fixtures).
    """
    rng = np.random.default_rng(seed)
    P, N = cfg.points, cfg.frames
    teacher = rng.normal(size=(2, cfg.d_v))
    loc_drift = rng.uniform(-0.1, 0.1, size=(length, 2))
    traj_drift = rng.uniform(-0.15, 0.15, size=(P, N, 2))
    sentinel_mask = rng.random((P, N)) < sentinel_rate
    out = []
    for _ in range(n_samples):
        frames = rng.normal(size=(n_frames, cfg.d_v))
        if distinct_tokens:
            tokens = rng.permutation(cfg.vocab)[:length]
        else:
            tokens = rng.integers(0, cfg.vocab, size=length)
        supervised = rng.random(length) < supervised_rate
        if stage in (1, 2) and not supervised.any():
            supervised[int(rng.integers(length))] = True
        base = 1.0 / (1.0 + np.exp(-teacher @ frames.mean(axis=0)))
        loc_targets = None
        traj_targets = None
        if stage == 1:
            loc_targets = np.clip(0.2 + 0.6 * base[None, :] + loc_drift, 0.0, 1.0)
            loc_targets[~supervised] = 0.0
        elif stage == 2:
            matrix = np.clip(0.2 + 0.6 * base[None, None, :] + traj_drift, 0.0, 1.0)
            matrix[sentinel_mask] = -1.0
            traj_targets = np.zeros((length, P, N, 2))
            traj_targets[supervised] = matrix
        else:
            supervised = np.zeros(length, dtype=bool)
        out.append(
            TrainingSample(
                frames=frames,
                tokens=tokens,
                supervised=supervised,
                loc_targets=loc_targets,
                traj_targets=traj_targets,
            )
        )
    return out


# --- dataset records -> stage-2 samples ---------------------------------------


def stable_token_id(word: str, vocab: int) -> int:
    return zlib.crc32(word.encode("utf-8")) % vocab


def samples_from_records(
    records: Iterable[dict], cfg: TrainerConfig, n_frames: int = 4
) -> list[TrainingSample]:
    """Build stage-2 samples from annotation pipeline output records.

    Tokens hash the formatted text; tokens inside a noun phrase span carry
    that object's trajectory matrix, every other token is unsupervised.
    Visual features are synthesized deterministically per video id.
    """
    samples = []
    for record in records:
        video_seed = zlib.crc32(str(record["video_id"]).encode("utf-8"))
        rng = np.random.default_rng((cfg.seed, video_seed))
        for event in record["events"]:
            words = event["formatted_text"].split()
            if not words:
                continue
            tokens = np.array([stable_token_id(w, cfg.vocab) for w in words])
            supervised = np.zeros(len(words), dtype=bool)
            traj_targets = np.zeros((len(words), cfg.points, cfg.frames, 2))
            for obj in event["objects"]:
                lo, hi = obj["np"]["span"]
                matrix = np.asarray(obj["trajectory"]["coords"], dtype=float)
                if matrix.shape != (cfg.points, cfg.frames, 2):
                    raise ValueError(
                        f"trajectory shape {matrix.shape} does not match config "
                        f"({cfg.points}, {cfg.frames}, 2)"
                    )
                for t in range(lo, min(hi, len(words))):
                    supervised[t] = True
                    traj_targets[t] = matrix
            samples.append(
                TrainingSample(
                    frames=rng.normal(size=(n_frames, cfg.d_v)),
                    tokens=tokens,
                    supervised=supervised,
                    traj_targets=traj_targets,
                )
            )
    return samples


# --- serialization -------------------------------------------------------------


def sample_to_json(sample: TrainingSample) -> dict:
    obj = {
        "frames": sample.frames.tolist(),
        "tokens": sample.tokens.tolist(),
        "supervised": [bool(b) for b in sample.supervised],
    }
    if sample.loc_targets is not None:
        obj["loc_targets"] = [
            row.tolist() if sup else None
            for row, sup in zip(sample.loc_targets, sample.supervised)
        ]
    if sample.traj_targets is not None:
        obj["traj_targets"] = [
            row.tolist() if sup else None
            for row, sup in zip(sample.traj_targets, sample.supervised)
        ]
    return obj


def sample_from_json(obj: dict) -> TrainingSample:
    tokens = obj["tokens"]
    supervised = [bool(b) for b in obj["supervised"]]
    loc_targets = None
    traj_targets = None
    if "loc_targets" in obj:
        rows = obj["loc_targets"]
        _check_target_presence(rows, supervised, "loc_targets")
        loc_targets = np.array([r if r is not None else [0.0, 0.0] for r in rows])
    if "traj_targets" in obj:
        rows = obj["traj_targets"]
        _check_target_presence(rows, supervised, "traj_targets")
        shaped = [np.asarray(r, dtype=float) for r in rows if r is not None]
        shape = shaped[0].shape
        traj_targets = np.array(
            [np.asarray(r, dtype=float) if r is not None else np.zeros(shape) for r in rows]
        )
    return TrainingSample(
        frames=obj["frames"],
        tokens=tokens,
        supervised=supervised,
        loc_targets=loc_targets,
        traj_targets=traj_targets,
    )


def _check_target_presence(rows, supervised, what):
    for row, sup in zip(rows, supervised):
        if row is not None and not sup:
            raise ValueError(f"{what} present for an unsupervised token")
        if row is None and sup:
            raise ValueError(f"supervised token missing its {what} entry")


def load_samples(path: str | Path) -> list[TrainingSample]:
    samples = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                samples.append(sample_from_json(json.loads(line)))
    return samples


def save_samples(samples: Sequence[TrainingSample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample_to_json(sample)) + "\n")


def params_to_json(params: ToyModelParams) -> dict:
    arrays = {}
    for name in ARRAY_NAMES:
        arr = getattr(params, name)
        arrays[name] = {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
    return {"points": params.points, "traj_frames": params.traj_frames, "arrays": arrays}


def params_from_json(obj: dict) -> ToyModelParams:
    kwargs = {}
    for name in ARRAY_NAMES:
        entry = obj["arrays"][name]
        kwargs[name] = np.array(entry["data"], dtype=float).reshape(entry["shape"])
    return ToyModelParams(
        **kwargs, points=int(obj["points"]), traj_frames=int(obj["traj_frames"])
    )


def save_params(params: ToyModelParams, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(params_to_json(params), handle)


def load_params(path: str | Path) -> ToyModelParams:
    with open(path, encoding="utf-8") as handle:
        return params_from_json(json.load(handle))


def write_loss_curve(
    losses: Sequence[float], grad_norms: Sequence[float], path: str | Path
) -> None:
    """CSV ``step,loss,grad_norm``; steps past the last norm leave grad_norm empty."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "loss", "grad_norm"])
        for step, loss in enumerate(losses):
            norm = repr(grad_norms[step]) if step < len(grad_norms) else ""
            writer.writerow([step, repr(loss), norm])


__all__ = [
    "TrainerConfig",
    "ToyModelParams",
    "TrainingSample",
    "train",
    "run_stage",
    "synthetic_dataset",
    "samples_from_records",
    "stable_token_id",
    "sample_to_json",
    "sample_from_json",
    "load_samples",
    "save_samples",
    "params_to_json",
    "params_from_json",
    "save_params",
    "load_params",
    "write_loss_curve",
    "init_params",
]
