"""Three-stage training loop over the surrogate model, plus data plumbing.

Training is plain full-batch gradient descent on one packed batch, and
every step takes the loss and analytic gradients from one fused pass over
it.  A samples file holds the arrays of ``toymodel.sample_arrays``;
``load_samples`` checks them before ``toymodel.pack_rows`` turns them into
the batch, as it turns arrays made in memory.  The stage
decides which parameter groups move (the backbone never does, the adapter
only in stage 1).  A stage trains a copy of the parameters it is given and
returns it, so the next stage starts from that copy.  Everything is
deterministic for a given seed.
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
    STAGE_TARGETS,
    TRAINABLE_BY_STAGE,
    PackedBatch,
    ToyModelParams,
    TrainerConfig,
    TrainingSample,
    gradients,
    pack_rows,
    param_shapes,
    sample_arrays,
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
    from .tracks import TrajectoryMatrix  # here, so train-toy and grad-check start without tracks

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
                matrix = TrajectoryMatrix.from_json(obj["trajectory"]).coords
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


def _load_npz(path: str | Path, spec: dict[str, tuple]) -> dict:
    """The arrays named in ``spec``; a file that does not fit it raises DataError naming ``path``.

    ``spec`` maps each name to its accepted dtype kinds and its shape, with
    None for an axis of any length.  A float array must also be finite.
    """
    with open(path, "rb") as handle:
        if handle.read(4) != b"PK\x03\x04":
            raise DataError(f"{path}: not an .npz archive")
        handle.seek(0)
        try:
            with np.load(handle, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in spec if name in archive.files}
        except (EOFError, OSError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: damaged .npz archive ({type(exc).__name__})") from None
    for name, (kinds, shape) in spec.items():
        arr = arrays.get(name)
        if arr is None:
            raise DataError(f"{path}: no {name!r} array")
        if arr.dtype.kind not in kinds or len(arr.shape) != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, arr.shape)
        ):
            axes = ", ".join("n" if n is None else str(n) for n in shape)
            expected = f"({axes},)" if len(shape) == 1 else f"({axes})"
            raise DataError(f"{path}: {name!r} is a {arr.shape} {arr.dtype} array, expected {expected}")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise DataError(f"{path}: {name!r} holds a non-finite value")
    return arrays


def save_samples(samples: Sequence[TrainingSample], path: str | Path) -> None:
    """Write ``sample_arrays(samples)`` to one .npz file."""
    _save_npz(path, sample_arrays(samples))


def load_samples(path: str | Path, cfg: TrainerConfig, stage: int) -> PackedBatch:
    """The ``stage`` batch of a file written by ``save_samples``: ``pack_rows`` of its arrays.

    Every array read must fit ``cfg`` (see ``_load_npz``), and the file must
    hold the stage's target array (``STAGE_TARGETS``); no other target array
    is read; the batch holds the stored supervised rows.  Stored counts that do
    not add up to the stored rows raise DataError ``<path>: ...``; a bad
    token raises DataError ``<path>: sample <i>: ...`` naming the first such
    sample.
    """
    spec = {
        "tokens": ("iuf", (None,)), "supervised": ("b", (None,)),
        "lengths": ("iu", (None,)), "frame_counts": ("iu", (None,)),
        "frames": ("f", (None, cfg.d_v)),
    }
    target = STAGE_TARGETS.get(stage)
    if target:
        spec[target] = ("f", (None, 2) if stage == 1 else (None, cfg.points, cfg.frames, 2))
    a = _load_npz(path, spec)
    lengths, frame_counts = a["lengths"], a["frame_counts"]
    tokens, supervised, frames = a["tokens"], a["supervised"], a["frames"]
    if not len(lengths) or len(frame_counts) != len(lengths):
        raise DataError(f"{path}: {len(lengths)} lengths and {len(frame_counts)} frame_counts")

    def fail(i, message):
        raise DataError(f"{path}: sample {i}: {message}")

    for name, counts in (("tokens", lengths), ("frames", frame_counts)):
        for i in np.flatnonzero(counts < 1)[:1]:
            fail(i, f"{counts[i]} {name}, expected at least 1")
    totals = [
        (lengths.sum(), "lengths add up to", tokens, "tokens"),
        (lengths.sum(), "lengths add up to", supervised, "supervised flags"),
        (frame_counts.sum(), "frame_counts add up to", frames, "frames"),
    ]
    if target:
        totals.append((supervised.sum(), "supervised flags mark", a[target], f"{target} rows"))
    for total, counted, rows, noun in totals:
        if total != len(rows):
            raise DataError(f"{path}: {counted} {total} {noun}, the file holds {len(rows)}")
    bad = ~((tokens >= 0) & (tokens < cfg.vocab) & (tokens == np.floor(tokens)))
    for j in np.flatnonzero(bad)[:1]:
        i = np.searchsorted(np.cumsum(lengths), j, side="right")
        fail(i, f"token {tokens[j]} is not an integer in [0, {cfg.vocab})")
    return pack_rows(a, stage)


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
    a = _load_npz(path, dict(spec, points=("iu", ()), traj_frames=("iu", ())))
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

