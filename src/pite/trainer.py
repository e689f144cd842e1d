"""Three-stage training loop over the surrogate model, plus data plumbing.

Training is plain full-batch gradient descent on one packed batch, and
every step takes the loss and analytic gradients from one fused pass over
it.  A samples file holds the arrays of ``toymodel.sample_arrays``;
``load_samples`` reads them, and ``toymodel.pack_rows`` checks them against
the config and turns them into the batch, as it does arrays made in memory.
The stage decides which parameter groups move (the backbone never does,
the adapter only in stage 1).  A stage trains a copy of the parameters it
is given and returns it, so the next stage starts from that copy.
Everything is deterministic for a given seed.
"""

from __future__ import annotations

import csv
import zipfile
import zlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .toymodel import (
    ARRAY_NAMES,
    TRAINABLE_BY_STAGE,
    PackedBatch,
    ToyModelParams,
    TrainerConfig,
    TrainingSample,
    check_arrays,
    gradients,
    pack_rows,
    param_shapes,
    sample_arrays,
    sample_spec,
    stage_loss,
    tile_init,
)
from .jsonl import DataError

# synthetic_dataset: share of absent trajectory cells and of supervised tokens
SENTINEL_RATE = 0.25
SUPERVISED_RATE = 0.8
SYNTHETIC_TOKENS = 6  # tokens per synthetic_dataset sample
SAMPLE_FRAMES = 4  # visual feature rows per synthesized sample, here and in samples_from_records


def run_stage(
    params: ToyModelParams,
    batch: PackedBatch,
    stage: int,
    cfg: TrainerConfig,
    tile: bool = True,
) -> tuple[ToyModelParams, list[float], list[float]]:
    """Gradient-descend the stage loss on ``batch``; returns new params, losses and gradient norms.

    Stage 2 starts from the tiled localization head (``tile_init``) unless
    ``tile`` is False.  The losses have cfg.steps + 1 entries: the loss
    before each update and one final entry after the last update.  The
    gradient norms are the L2 norms over the stage's trainable groups of the
    cfg.steps updates.  The input params are not mutated.
    """
    params = tile_init(params) if stage == 2 and tile else params.copy()
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


# --- synthetic data ----------------------------------------------------------


def synthetic_dataset(
    stage: int, n_samples: int, cfg: TrainerConfig, seed: int
) -> list[TrainingSample]:
    """Seeded samples matching the stage's target schema.

    Regression targets mimic real annotations instead of per-cell noise: a
    dataset-level teacher maps each sample's mean visual feature to a base
    coordinate, all supervised tokens of a sample share the resulting
    matrix, and a dataset-level pattern of cells is absent (-1, -1).
    """
    rng = np.random.default_rng(seed)
    P, N = cfg.points, cfg.frames
    length = SYNTHETIC_TOKENS
    teacher = rng.normal(size=(2, cfg.d_v))
    loc_drift = rng.uniform(-0.1, 0.1, size=(length, 2))
    traj_drift = rng.uniform(-0.15, 0.15, size=(P, N, 2))
    sentinel_mask = rng.random((P, N)) < SENTINEL_RATE
    out = []
    for _ in range(n_samples):
        frames = rng.normal(size=(SAMPLE_FRAMES, cfg.d_v))
        tokens = rng.integers(0, cfg.vocab, size=length)
        supervised = rng.random(length) < SUPERVISED_RATE
        if stage in (1, 2) and not supervised.any():
            supervised[int(rng.integers(length))] = True
        base = 1.0 / (1.0 + np.exp(-teacher @ frames.mean(axis=0)))
        loc_targets = None
        traj_targets = None
        if stage == 1:
            loc_targets = np.clip(0.2 + 0.6 * base[None, :] + loc_drift, 0.0, 1.0)
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


def samples_from_records(records: Iterable[dict], cfg: TrainerConfig) -> list[TrainingSample]:
    """Build stage-2 samples from pipeline records that pass ``validate_record``.

    Tokens hash the formatted text; tokens inside a noun phrase span carry
    that object's trajectory matrix, every other token is unsupervised.
    Visual features are synthesized deterministically per video id.
    """
    from .tracks import matrix_from_json  # here, so train-toy and grad-check start without tracks

    samples = []
    for record in records:
        video_seed = zlib.crc32(record["video_id"].encode("utf-8"))
        rng = np.random.default_rng((cfg.seed, video_seed))
        for event in record["events"]:
            words = event["formatted_text"].split()
            tokens = np.array([stable_token_id(w, cfg.vocab) for w in words])
            supervised = np.zeros(len(words), dtype=bool)
            traj_targets = np.zeros((len(words), cfg.points, cfg.frames, 2))
            for obj in event["objects"]:
                lo, hi = obj["np"]["span"]
                matrix = matrix_from_json(obj["trajectory"])
                if matrix.shape != (cfg.points, cfg.frames, 2):
                    raise ValueError(
                        f"trajectory shape {matrix.shape} does not match config "
                        f"({cfg.points}, {cfg.frames}, 2)"
                    )
                supervised[lo:hi] = True
                traj_targets[lo:hi] = matrix
            samples.append(
                TrainingSample(
                    frames=rng.normal(size=(SAMPLE_FRAMES, cfg.d_v)),
                    tokens=tokens,
                    supervised=supervised,
                    traj_targets=traj_targets,
                )
            )
    return samples


# --- serialization -------------------------------------------------------------
#
# Both trainer files are uncompressed .npz archives; a samples file holds the
# arrays of ``toymodel.sample_arrays``.


def _save_npz(path: str | Path, arrays: dict) -> None:
    # np.savez appends ".npz" to a path that lacks it; a handle writes exactly ``path``
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _load_npz(path: str | Path, names: Iterable[str]) -> dict:
    """The arrays among ``names`` of the .npz archive at ``path``, unchecked (see ``check_arrays``).

    A file that is not such an archive, or a damaged one, raises DataError naming ``path``.
    """
    with open(path, "rb") as handle:
        if handle.read(4) != b"PK\x03\x04":
            raise DataError(f"{path}: not an .npz archive")
        handle.seek(0)
        try:
            with np.load(handle, allow_pickle=False) as archive:
                return {name: archive[name] for name in names if name in archive.files}
        except (EOFError, OSError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: damaged .npz archive ({type(exc).__name__})") from None


def save_samples(samples: Sequence[TrainingSample], path: str | Path) -> None:
    """Write ``sample_arrays(samples)`` to one .npz file."""
    _save_npz(path, sample_arrays(samples))


def load_samples(path: str | Path, cfg: TrainerConfig, stage: int) -> PackedBatch:
    """The ``stage`` batch of a file written by ``save_samples``: ``pack_rows`` of its arrays.

    Only the arrays of ``sample_spec`` are read, so no other stage's target
    array; arrays that do not fit ``cfg`` raise DataError ``<path>: ...``.
    """
    return pack_rows(_load_npz(path, sample_spec(stage, cfg)), stage, cfg, path)


def save_params(params: ToyModelParams, path: str | Path) -> None:
    """Write one array per ``ARRAY_NAMES`` entry plus ``points`` and ``traj_frames``."""
    arrays = {name: getattr(params, name) for name in ARRAY_NAMES}
    _save_npz(path, dict(arrays, points=params.points, traj_frames=params.traj_frames))


def load_params(path: str | Path, cfg: TrainerConfig) -> ToyModelParams:
    """Parameters saved by ``save_params``; a file that does not fit ``cfg`` raises DataError.

    Besides the array shapes, the stored ``(points, traj_frames)`` must equal
    the config's ``(points, frames)``: swapping the two keeps every shape.
    """
    spec = {name: ("f", shape) for name, shape in param_shapes(cfg).items()}
    spec.update(points=("iu", ()), traj_frames=("iu", ()))
    a = _load_npz(path, spec)
    check_arrays(a, spec, f"{path}: ")
    geometry = (int(a["points"]), int(a["traj_frames"]))
    if geometry != (cfg.points, cfg.frames):
        raise DataError(
            f"{path}: (points, traj_frames) is {geometry}, the config's (points, frames) "
            f"is {(cfg.points, cfg.frames)}"
        )
    return ToyModelParams(
        **{name: a[name] for name in ARRAY_NAMES}, points=geometry[0], traj_frames=geometry[1]
    )


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

