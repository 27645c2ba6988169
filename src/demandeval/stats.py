"""Statistical helpers for the experiment runners.

Kept deliberately small: Pearson correlation, Levene's homogeneity-of-variance
test with F-distribution p-values, and the descriptive aggregates they need.
Accumulation uses ``math.fsum`` (compensated summation) so long experiment
outputs do not erode the 1e-9 comparison tolerances used in tests; a sum
that leaves the float range raises :class:`StatsError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateInput,
    GroupTooSmall,
    InvalidDegreesOfFreedom,
    LengthMismatch,
    StatsError,
    TooFewGroups,
)


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    n: int


@dataclass(frozen=True)
class LeveneResult:
    w: float
    df1: int
    df2: int
    p: float


def _fsum(values) -> float:
    """``math.fsum``, with a float-range overflow raised as :class:`StatsError`.

    ``values`` may be a generator; an ``OverflowError`` it raises (``x ** 2``
    past the float range) is reported the same way.
    """
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # ValueError: -inf + inf
        raise StatsError("statistic overflows the float range") from None


def mean(xs: Sequence[float]) -> float:
    if len(xs) == 0:
        raise StatsError("mean of an empty sequence")
    return _fsum(xs) / len(xs)


def variance(xs: Sequence[float]) -> float:
    """Sample variance (denominator n - 1)."""
    n = len(xs)
    if n < 2:
        raise StatsError("variance needs at least two observations")
    m = _fsum(xs) / n
    return _fsum((x - m) ** 2 for x in xs) / (n - 1)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation coefficient.

    Raises DegenerateInput when either sequence is constant.
    """
    n = len(xs)
    if n != len(ys):
        raise LengthMismatch(f"sequences have lengths {n} and {len(ys)}")
    if n < 2:
        raise DegenerateInput("correlation needs at least two observations")
    mx = _fsum(xs) / n
    my = _fsum(ys) / n
    sxy = _fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = _fsum((x - mx) ** 2 for x in xs)
    syy = _fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation is undefined for a constant sequence")
    scale = math.sqrt(sxx * syy)
    if scale == math.inf:  # the product overflows; its factors need not
        scale = math.sqrt(sxx) * math.sqrt(syy)
    r = sxy / scale
    # float rounding may push |r| a hair past 1 on exactly affine data
    r = max(-1.0, min(1.0, r))
    return CorrelationResult(r=r, n=n)


def levene(groups: Sequence[Sequence[float]]) -> LeveneResult:
    """Levene's test for equal variances across groups (mean-centered).

    The p-value is the upper tail of F(k-1, N-k) at the observed statistic.
    """
    k = len(groups)
    if k < 2:
        raise TooFewGroups(f"need at least 2 groups, got {k}")
    sizes = [len(g) for g in groups]
    if any(size < 2 for size in sizes):
        raise GroupTooSmall("every group needs at least 2 observations")
    total = sum(sizes)

    centers = [_fsum(g) / len(g) for g in groups]
    z = [[abs(x - c) for x in g] for g, c in zip(groups, centers)]
    z_group_means = [_fsum(zj) / len(zj) for zj in z]
    z_grand_mean = _fsum(_fsum(zj) for zj in z) / total

    between = _fsum(
        size * (zm - z_grand_mean) ** 2 for size, zm in zip(sizes, z_group_means)
    )
    within = _fsum(
        _fsum((x - zm) ** 2 for x in zj) for zj, zm in zip(z, z_group_means)
    )
    df1 = k - 1
    df2 = total - k
    if within == 0.0:
        # all deviations identical inside every group: either the spreads
        # coincide exactly (no evidence) or they differ with no within noise
        if between == 0.0:
            return LeveneResult(w=0.0, df1=df1, df2=df2, p=1.0)
        return LeveneResult(w=math.inf, df1=df1, df2=df2, p=0.0)
    w = (df2 / df1) * (between / within)
    return LeveneResult(w=w, df1=df1, df2=df2, p=f_sf(w, df1, df2))


def f_sf(x: float, d1: int, d2: int) -> float:
    """Upper-tail probability of the F(d1, d2) distribution.

    Evaluated through the regularized incomplete beta function with a
    continued-fraction expansion (relative error below 1e-8).
    """
    for name, d in (("d1", d1), ("d2", d2)):
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InvalidDegreesOfFreedom(f"{name} must be a positive integer, got {d!r}")
    if not math.isfinite(x):
        if math.isnan(x):
            raise StatsError("F statistic is NaN")
        return 0.0 if x > 0 else 1.0
    if x < 0:
        raise StatsError(f"F statistic must be >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    return _reg_inc_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x))


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny, eps, max_iter = 1e-300, 1e-12, 300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise StatsError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")
