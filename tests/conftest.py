"""Shared fixtures: the worked-example pairs and a random-pair generator."""

from __future__ import annotations

import contextlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from demandeval import EvaluationPair

REPO_ROOT = Path(__file__).resolve().parents[1]

# Hypothesis's pytest plugin imports this module when it reports a failing
# example. Through libcst it imports mypy_extensions, which warns
# DeprecationWarning; under the suite's "error" filter that aborts the whole
# run inside a report hook. Importing it once here, with only that warning
# ignored, lets a failing example be reported as one failure.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

#: Worked example: one demand history and two competing forecasts.
#: Model A predicts the 8-unit demand one step early; model B predicts only
#: half of it one step early.
ACTUAL = [0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 6, 0, 0]
MODEL_A_FORECAST = [0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 6, 0, 0]
MODEL_B_FORECAST = [0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0]


@pytest.fixture
def model_a_pair() -> EvaluationPair:
    return EvaluationPair.from_values(ACTUAL, MODEL_A_FORECAST)


@pytest.fixture
def model_b_pair() -> EvaluationPair:
    return EvaluationPair.from_values(ACTUAL, MODEL_B_FORECAST)


@pytest.fixture
def fixtures_dir() -> Path:
    return REPO_ROOT / "fixtures"


@pytest.fixture
def configs_dir() -> Path:
    return REPO_ROOT / "configs"


def random_pair(rng: np.random.Generator, max_n: int = 50) -> EvaluationPair:
    """Random intermittent pair mixing sparse, dense and degenerate shapes."""
    n = int(rng.integers(1, max_n + 1))
    kind = rng.integers(0, 5)
    if kind == 0:  # all zero on both sides
        actual = np.zeros(n)
        forecast = np.zeros(n)
    elif kind == 1:  # single spike each, random positions
        actual = np.zeros(n)
        forecast = np.zeros(n)
        actual[rng.integers(0, n)] = rng.uniform(0.5, 50)
        forecast[rng.integers(0, n)] = rng.uniform(0.5, 50)
    elif kind == 2:  # saturated: every step nonzero
        actual = rng.uniform(0.1, 20, size=n)
        forecast = rng.uniform(0.1, 20, size=n)
    else:  # sparse lumpy
        actual = rng.uniform(0, 20, size=n) * (rng.random(n) < 0.4)
        forecast = rng.uniform(0, 20, size=n) * (rng.random(n) < 0.4)
    return EvaluationPair.from_values(actual, forecast)
