"""Validated demand/forecast series containers.

Quantities are non-negative reals (SKU units per time step). Time steps are
abstract integer units; all external reporting is 1-based (t = 1..n), while
internal numpy storage is 0-based as usual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesError


def _validated_array(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        raise SeriesError(f"expected a 1-d sequence of quantities, got shape {arr.shape}")
    if arr.size == 0:
        raise SeriesError("series must contain at least one time step")
    if not np.isfinite(arr).all():
        raise SeriesError("series contains NaN or infinite entries")
    if (arr < 0).any():
        raise SeriesError("series contains negative quantities")
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _validated_array(self.values))

    @property
    def n(self) -> int:
        return int(self.values.size)

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
    warehouse, which has no interpretation in this cost model.
    """


@dataclass(frozen=True)
class EvaluationPair:
    """An aligned (actual, forecast) pair covering the same horizon."""

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

