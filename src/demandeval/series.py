"""Validated demand/forecast series containers.

Quantities are non-negative reals (SKU units per time step). Time steps are
abstract integer units; all external reporting is 1-based (t = 1..n), while
internal numpy storage is 0-based as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesError


def _validated_array(raw, ndims: tuple[int, ...], owned: bool = False) -> np.ndarray:
    """``raw`` as a read-only float array, copied unless ``owned``: a fresh
    float array that no caller writes to again is made read-only in place."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim not in ndims:
        kind = " or ".join(f"{d}-d" for d in ndims)
        raise SeriesError(f"expected a {kind} sequence of quantities, got shape {arr.shape}")
    if arr.size == 0:
        raise SeriesError("series must contain at least one time step")
    # the extremes are NaN or infinite exactly when an entry is, and need no mask of n entries
    low, high = np.min(arr), np.max(arr)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise SeriesError("series contains NaN or infinite entries")
    if low < 0:
        raise SeriesError("series contains negative quantities")
    if not owned:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Series:
    """Non-negative finite quantities, one per time step, stored read-only.

    Equality compares values and requires the same series type, so a demand
    series never equals a forecast series.
    """

    values: np.ndarray

    _NDIMS = (1,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validated_array(self.values, self._NDIMS))

    @classmethod
    def _owning(cls, values: np.ndarray):
        """The series of ``values``, a float array just built and held by no one
        else, validated and made read-only in place: the one copy is the series'."""
        series = object.__new__(cls)
        object.__setattr__(series, "values", _validated_array(values, cls._NDIMS, owned=True))
        return series

    @property
    def n(self) -> int:
        """The number of time steps: the length of the last axis."""
        return int(self.values.shape[-1])

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.values, other.values)


class DemandSeries(_Series):
    """Actual demand quantities, one non-negative value per time step."""


class ForecastSeries(_Series):
    """Forecast quantities; negative forecasts are rejected, not clamped.

    A negative value would mean a negative delivery into the notional
    warehouse, which has no interpretation in this cost model. The values
    are one forecast, or a (k, n) block of k forecasts of the same n steps,
    one per row, which every metric scores row by row in one call.
    """

    _NDIMS = (1, 2)


@dataclass(frozen=True)
class EvaluationPair:
    """An aligned (actual, forecast) pair covering the same horizon; the
    forecast may be a (k, n) block, which makes the pair a block of k pairs."""

    actual: DemandSeries
    forecast: ForecastSeries

    def __post_init__(self) -> None:
        if self.actual.n != self.forecast.n:
            raise SeriesError(
                f"actual has {self.actual.n} steps but forecast has {self.forecast.n}"
            )

    @property
    def n(self) -> int:
        return self.actual.n

    @classmethod
    def from_values(cls, actual, forecast) -> "EvaluationPair":
        return cls(DemandSeries(actual), ForecastSeries(forecast))

