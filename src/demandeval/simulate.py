"""Synthetic lumpy/intermittent demand and controlled forecast perturbation.

Randomness comes from numpy's PCG64 generator (``numpy.random.default_rng``);
normal variates use numpy's ziggurat sampler. Given the same config and seed
the output is always identical within one installation, which is what the
experiment runners rely on. Bit-identical streams across numpy versions or
other implementations are not a goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidConfig, check_int, check_number, check_seed
from .series import DemandSeries, ForecastSeries

#: Smallest nonzero demand a generated spike may carry (one SKU). Magnitudes
#: sampled at or below zero are clamped here rather than redrawn, so the
#: number of nonzero steps stays exactly as sampled.
MAGNITUDE_FLOOR = 1.0

#: Most steps a generated series may have: far above any study horizon, and
#: far below the sizes numpy refuses to allocate.
MAX_STEPS = 100_000_000

#: Most extracts :func:`segment_extracts` may draw, and most series, forecasts
#: per series or segments per series a study may ask for.
MAX_COUNT = 1_000_000

#: Steps of the actual whose spikes :func:`perturb_forecast` perturbs at once.
_SPIKE_BLOCK = 65_536


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
        check_int("n", self.n, 1, MAX_STEPS)
        check_number("count_mu", self.count_mu)
        check_number("count_sigma", self.count_sigma, 0)
        check_number("magnitude_mu", self.magnitude_mu)
        check_number("magnitude_sigma", self.magnitude_sigma, 0)
        check_seed("seed", self.seed)
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
        check_number("vertical_mu", self.vertical_mu)
        check_number("vertical_sigma", self.vertical_sigma, 0)
        check_number("horizontal_mu", self.horizontal_mu)
        check_number("horizontal_sigma", self.horizontal_sigma, 0)
        check_seed("seed", self.seed)


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


def perturb_forecast(
    actual: DemandSeries, config: ErrorInjectionConfig, rng: np.random.Generator | Iterable | None = None
) -> ForecastSeries:
    """Build a forecast by displacing and rescaling each spike of ``actual``.

    The normals are drawn from ``rng``, which is advanced, when it is given;
    ``config.seed`` is then unused. Without it they are drawn from
    ``default_rng(config.seed)``. The experiment runners pass each forecast
    a generator in ``default_rng(seed)``'s starting state, so either way a
    seed gives the same forecast. Given an iterable of k generators, the
    call returns a (k, n) block whose row i is, bit for bit, what a lone
    call with generator i returns, and advances each generator as that call
    would; a non-finite row raises ``SeriesError``.

    Spikes are processed in time order; per spike the horizontal offset is
    drawn before the vertical one. Offsets are rounded to the nearest step
    (ties to even) and clamped to the horizon; magnitudes are floored at 0.

    Each row's normals come from one ``standard_normal`` fill of its own
    generator: even draws are the horizontal offsets and odd ones the
    vertical errors, the order of one ``rng.normal`` call each per spike,
    and ``mu + sigma * z`` is what ``Generator.normal`` computes. The
    arithmetic runs on all rows at once, ``_SPIKE_BLOCK`` steps of the
    actual at a time, so temporaries stay small on a long series. Colliding
    spikes are added by ``np.add.at`` in spike order. The forecast holds
    that output array itself, not a validated copy of it.
    """
    y = actual.values
    n = y.size
    single = rng is None or isinstance(rng, np.random.Generator)
    streams = [np.random.default_rng(config.seed) if rng is None else rng] if single else list(rng)
    out = np.zeros((len(streams), n))
    row_starts = np.arange(0, out.size, n)[:, None]
    h_mu, h_sigma = config.horizontal_mu, config.horizontal_sigma
    v_mu, v_sigma = config.vertical_mu, config.vertical_sigma
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the float range fails validation
        for start in range(0, n, _SPIKE_BLOCK):
            positions = y[start : start + _SPIKE_BLOCK].nonzero()[0] + start
            draws = np.empty((len(streams), 2 * positions.size))
            for stream, row in zip(streams, draws):
                stream.standard_normal(out=row)
            shift = h_mu + h_sigma * draws[:, 0::2]
            # clamp before rounding: a draw may exceed any int64
            shift = np.where(np.abs(shift) < n, shift, np.copysign(n, shift))
            magnitude = y[positions] + (v_mu + v_sigma * draws[:, 1::2])
            target = np.clip(positions + np.rint(shift), 0, n - 1).astype(np.intp) + row_starts
            kept = magnitude > 0
            np.add.at(out.reshape(-1), target[kept], magnitude[kept])
    return ForecastSeries._owning(out[0] if single else out)


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
    check_int("window", window, 1)
    check_int("count", count, 1, MAX_COUNT)
    check_seed("seed", seed)
    n = series.n
    if window > n:
        raise InvalidConfig(f"window {window} exceeds series length {n}")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n - window + 1, size=count)
    return [DemandSeries(series.values[s : s + window]) for s in starts]
