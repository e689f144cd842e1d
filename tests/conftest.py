from pathlib import Path

import numpy as np
import pytest

from pite.toymodel import TrainingSample, _hidden, pack_batch

FIXTURES = Path(__file__).parent / "fixtures"


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
            logits = _hidden(params, pack_batch([sample], 3)) @ params.vocab_map.T
            tokens[i] = int(np.argmax(logits[i]))
        return tokens

    return decode
