from pathlib import Path

import numpy as np
import pytest

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
