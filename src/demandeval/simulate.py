"""Synthetic lumpy/intermittent demand and controlled forecast perturbation.

Randomness comes from numpy's PCG64 generator (``numpy.random.default_rng``);
normal variates use numpy's ziggurat sampler. Given the same config and seed
the output is always identical within one installation, which is what the
experiment runners rely on. Bit-identical streams across numpy versions or
other implementations are not a goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, WindowTooLarge
from .series import DemandSeries, ForecastSeries

#: Smallest nonzero demand a generated spike may carry (one SKU). Magnitudes
#: sampled at or below zero are clamped here rather than redrawn, so the
#: number of nonzero steps stays exactly as sampled.
MAGNITUDE_FLOOR = 1.0


def _check_finite(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidConfig(f"{name} must be a finite number, got {value!r}")


def _check_int(name: str, value: int, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidConfig(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_sigma(name: str, value: float) -> None:
    _check_finite(name, value)
    if value < 0:
        raise InvalidConfig(f"{name} must be >= 0, got {value!r}")


def _check_seed(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise InvalidConfig(f"{name} must be an unsigned 64-bit integer, got {value!r}")


@dataclass(frozen=True)
class DemandGenConfig:
    """How to draw one demand series.

    The number of nonzero steps is drawn from N(count_mu, count_sigma) and
    rounded/clamped to [0, n]; their positions are uniform without
    replacement; their magnitudes are drawn from
    N(magnitude_mu, magnitude_sigma) and floored at :data:`MAGNITUDE_FLOOR`.
    With ``round_magnitudes`` the magnitudes are additionally rounded to whole
    SKUs.
    """

    n: int
    count_mu: float
    count_sigma: float
    magnitude_mu: float
    magnitude_sigma: float
    seed: int
    round_magnitudes: bool = False

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        _check_finite("count_mu", self.count_mu)
        _check_sigma("count_sigma", self.count_sigma)
        _check_finite("magnitude_mu", self.magnitude_mu)
        _check_sigma("magnitude_sigma", self.magnitude_sigma)
        _check_seed("seed", self.seed)
        if not isinstance(self.round_magnitudes, bool):
            raise InvalidConfig(
                f"round_magnitudes must be true or false, got {self.round_magnitudes!r}"
            )


@dataclass(frozen=True)
class ErrorInjectionConfig:
    """Additive normal error applied to each demand spike.

    Vertical error perturbs the spike magnitude (SKU units, floored at 0);
    horizontal error moves the spike in time by a rounded normal offset,
    clamped at the series boundaries. Spikes pushed onto the same step
    accumulate, so pure horizontal error preserves total forecast volume away
    from the boundaries.
    """

    vertical_mu: float = 0.0
    vertical_sigma: float = 0.0
    horizontal_mu: float = 0.0
    horizontal_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_finite("vertical_mu", self.vertical_mu)
        _check_sigma("vertical_sigma", self.vertical_sigma)
        _check_finite("horizontal_mu", self.horizontal_mu)
        _check_sigma("horizontal_sigma", self.horizontal_sigma)
        _check_seed("seed", self.seed)


def generate_demand(config: DemandGenConfig) -> DemandSeries:
    """Draw one demand series; identical (config, seed) gives identical output.

    Draw order is pinned: nonzero count, then positions, then magnitudes.
    """
    rng = np.random.default_rng(config.seed)
    raw_count = rng.normal(config.count_mu, config.count_sigma)
    count = int(np.clip(np.rint(raw_count), 0, config.n))
    values = np.zeros(config.n)
    if count > 0:
        positions = rng.choice(config.n, size=count, replace=False)
        magnitudes = rng.normal(config.magnitude_mu, config.magnitude_sigma, size=count)
        magnitudes = np.maximum(MAGNITUDE_FLOOR, magnitudes)
        if config.round_magnitudes:
            magnitudes = np.maximum(MAGNITUDE_FLOOR, np.rint(magnitudes))
        values[positions] = magnitudes
    return DemandSeries(values)


def perturb_forecast(actual: DemandSeries, config: ErrorInjectionConfig) -> ForecastSeries:
    """Build a forecast by displacing and rescaling each spike of ``actual``.

    Spikes are processed in time order; per spike the horizontal offset is
    drawn before the vertical one. Offsets are rounded to the nearest step
    (ties to even) and clamped to the horizon; magnitudes are floored at 0.
    """
    rng = np.random.default_rng(config.seed)
    y = actual.values
    n = actual.n
    out = np.zeros(n)
    for pos in np.flatnonzero(y).tolist():
        shift = rng.normal(config.horizontal_mu, config.horizontal_sigma)
        if not -n < shift < n:  # clamp before rounding: a draw may exceed any int64
            shift = math.copysign(n, shift)
        target = min(max(pos + round(shift), 0), n - 1)
        magnitude = y[pos] + rng.normal(config.vertical_mu, config.vertical_sigma)
        if magnitude > 0:
            out[target] += magnitude
    return ForecastSeries(out)


def naive_forecast(actual: DemandSeries) -> ForecastSeries:
    """One-step naive forecast: f_1 = 0, f_t = y_{t-1}."""
    values = np.zeros(actual.n)
    values[1:] = actual.values[:-1]
    return ForecastSeries(values)


def segment_extracts(
    series: DemandSeries, window: int, count: int, seed: int
) -> list[DemandSeries]:
    """Draw ``count`` contiguous extracts of length ``window``.

    Start offsets are uniform over the valid range; identical seeds give
    identical extracts.
    """
    _check_int("window", window, 1)
    _check_int("count", count, 1)
    _check_seed("seed", seed)
    n = series.n
    if window > n:
        raise WindowTooLarge(f"window {window} exceeds series length {n}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n - window + 1, size=count)
    return [DemandSeries(series.values[s : s + window]) for s in starts]
