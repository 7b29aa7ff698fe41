"""Shared fixtures: the bundled fuel-economy file and small datasets."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

from shooting import Dataset, load_auto_mpg


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance scorecard after the test lines."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "SCORECARD", None) if mod else None
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
MPG_PATH = REPO_ROOT / "data" / "auto-mpg.data"


@pytest.fixture(scope="session")
def mpg_path() -> pathlib.Path:
    assert MPG_PATH.exists(), "bundled dataset missing"
    return MPG_PATH


@pytest.fixture(scope="session")
def mpg(mpg_path) -> Dataset:
    return load_auto_mpg(mpg_path)


@pytest.fixture
def tiny() -> Dataset:
    """Four rows, one feature; small enough to check against hand arithmetic."""
    return Dataset(
        np.array([[0.0], [1.0], [2.0], [3.0]]),
        np.array([0.0, 1.0, 2.0, 4.0]),
    )


def random_instance(rng: np.random.Generator, m: int, n: int):
    """Generic continuous features and target for randomized checks."""
    return rng.standard_normal((m, n)), rng.standard_normal(m)
