"""Exception classes shared by all demandeval modules, and the numeric input checks.

Everything user-facing derives from :class:`DemandEvalError` so the CLI can
map any expected failure to exit code 2 in one place. Each subclass names the
kind of input a caller must fix. :func:`check_number`, :func:`check_int` and
:func:`check_seed` are the one set of checks for parameter and config values;
they raise :class:`InvalidConfig`.
"""

import math


class DemandEvalError(ValueError):
    """Base class for all errors raised by this package."""


class SeriesError(DemandEvalError):
    """Values cannot be used as a demand or forecast series: empty, not 1-d,
    negative or non-finite, or a pair whose two series differ in length."""


class MalformedRow(DemandEvalError):
    """A pair CSV or JSON text does not parse, including a gap in t."""


class InvalidConfig(DemandEvalError):
    """A parameter, weight or config value is out of range."""


class StatsError(DemandEvalError):
    """A statistic cannot be computed on its input, or it overflows."""


class DegenerateInput(StatsError):
    """The statistic is undefined on this input (e.g. constant sequence)."""


def check_number(name: str, value: float, minimum: float | None = None) -> None:
    """Raise :class:`InvalidConfig` unless ``value`` is a finite real (not a
    bool), and, when ``minimum`` is given, at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value!r}")


def check_int(name: str, value: int, minimum: int) -> None:
    """Raise :class:`InvalidConfig` unless ``value`` is an int (not a bool) of at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidConfig(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_seed(name: str, value: int) -> None:
    """Raise :class:`InvalidConfig` unless ``value`` is an int (not a bool) in [0, 2**64)."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise InvalidConfig(f"{name} must be an unsigned 64-bit integer, got {value!r}")
