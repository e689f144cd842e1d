import functools
from pathlib import Path

import numpy as np
import pytest

from pite.metrics import temporal_iou
from pite.toymodel import TrainerConfig, TrainingSample, _hidden, pack_rows, sample_arrays

FIXTURES = Path(__file__).parent / "fixtures"


def packed(samples, stage, cfg):
    """The ``stage`` batch of in-memory samples under ``cfg``, as the CLI builds it."""
    return pack_rows(sample_arrays(samples), stage, cfg)


def config_of(params):
    """A config with the dimensions of ``params``, to pack samples for them."""
    (d, d_v), vocab = params.adapter.shape, len(params.embeddings)
    return TrainerConfig(d_v=d_v, d=d, vocab=vocab, points=params.points, frames=params.traj_frames)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def fig3_trees() -> list[str]:
    return (FIXTURES / "fig3.trees").read_text().splitlines()


@pytest.fixture
def toy_fixture_dir() -> Path:
    return FIXTURES / "toy"


@pytest.fixture
def rewrite_npz():
    """Replace (or, given None, drop) arrays of an .npz file in place."""

    def rewrite(path, **arrays):
        with np.load(path) as archive:
            merged = {**dict(archive), **arrays}
        with open(path, "wb") as handle:
            np.savez(handle, **{k: v for k, v in merged.items() if v is not None})

    return rewrite


@pytest.fixture
def greedy_decode():
    """Free-running argmax decode: ``decode(params, frames, length)`` -> tokens.

    Row i of the packed pass depends only on the tokens before it (and on
    the fixed length), so the undecided suffix can stay zero-padded.
    """

    def decode(params, frames, length):
        tokens = np.zeros(length, dtype=int)
        for i in range(length):
            sample = TrainingSample(frames, tokens.copy(), np.zeros(length, dtype=bool))
            logits = _hidden(params, packed([sample], 3, config_of(params))) @ params.vocab_map.T
            tokens[i] = int(np.argmax(logits[i]))
        return tokens

    return decode


def brute_force_soda(preds, gts, scorer):
    """Oracle: the best order-preserving one-to-one matching, recursing over
    matching, or skipping, the first prediction and ground truth left."""
    preds = sorted(preds, key=lambda e: (e.segment.start, e.segment.end))
    gts = sorted(gts, key=lambda e: (e.segment.start, e.segment.end))
    if not preds or not gts:
        return 0.0
    score = [
        [temporal_iou(p.segment, g.segment) * scorer(p.caption, g.caption) for g in gts]
        for p in preds
    ]

    @functools.cache  # the recursion reaches each (i, j) along many paths
    def best_from(i, j):
        if i >= len(preds) or j >= len(gts):
            return 0.0
        return max(
            best_from(i + 1, j),
            best_from(i, j + 1),
            score[i][j] + best_from(i + 1, j + 1),
        )

    total = best_from(0, 0)
    p = total / len(preds)
    r = total / len(gts)
    return 2 * p * r / (p + r) if p + r else 0.0
