"""Stock-keeping-oriented prediction error costs (SPEC).

The score treats forecast quantities as deliveries into a notional warehouse
and actual demand quantities as withdrawals from it, matched first-in
first-out. At every time step each unit that is still sitting in stock
(delivered too early) or still owed to a customer (delivered too late) is
charged in proportion to its age, so a unit that stays open for k periods has
been charged 1 + 2 + ... + k times by the end. Owed units are weighted by
``alpha1`` (opportunity cost), stored units by ``alpha2`` (stock-keeping
cost), and the grand total is divided by the series length.

One production kernel computes it: an O(n) FIFO walk that nets deliveries
against demand only at steps with volume and writes the charge at every
step into two float arrays, so it holds no Python object per step. A series
of up to ``_CHUNK`` steps is walked one Python step at a time; a longer one
is taken in chunks of ``_CHUNK`` steps, netting in Python at the volume
steps only while numpy fills the charges in between. Both paths take each
charge by the same float operations and sum the charges in step order, so
they give the same bits.
:func:`spec_fast` (the score),
:func:`spec_decompose` (the per-step split) and :func:`spec_alpha_sweep`
(the alpha trade-off line) are all derived from it. :func:`spec_literal` is
the normative reference: a direct O(n^2) transcription of the definition,
kept permanently as the oracle the kernel is tested against to 1e-9.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, check_int, check_number
from .series import EvaluationPair


@dataclass(frozen=True)
class SpecParams:
    """Cost weights per SKU per time unit.

    ``alpha1`` prices a unit of unserved demand, ``alpha2`` a unit sitting in
    stock. Any non-negative finite weights are accepted; they only need to sum
    to 1 when scores are compared across weightings (see
    :func:`spec_alpha_sweep`). Defaults follow a 3:1 opportunity-to-storage
    cost ratio.
    """

    alpha1: float = 0.75
    alpha2: float = 0.25

    def __post_init__(self) -> None:
        check_number("alpha1", self.alpha1, 0)
        check_number("alpha2", self.alpha2, 0)
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise InvalidConfig("alpha1 and alpha2 cannot both be zero; the score would be identically 0")


DEFAULT_PARAMS = SpecParams()


@dataclass(frozen=True, eq=False)
class CostBreakdown:
    """Per-time-step cost attribution plus weight-independent aggregates.

    ``per_t_opportunity`` and ``per_t_stock`` hold the weighted cost charged
    at each step (0-based arrays; use :meth:`opportunity_at` / :meth:`stock_at`
    for 1-based access). At most one of the two is positive at any step.
    ``opp_unit_periods`` / ``stock_unit_periods`` are the age-weighted unit
    totals before applying the weights or dividing by n, so the score for any
    weighting is ``(alpha1 * opp + alpha2 * stock) / n`` up to rounding.
    """

    per_t_opportunity: np.ndarray
    per_t_stock: np.ndarray
    opp_unit_periods: float
    stock_unit_periods: float
    spec_value: float
    params: SpecParams

    @property
    def n(self) -> int:
        return int(self.per_t_opportunity.size)

    def opportunity_at(self, t: int) -> float:
        """Opportunity cost charged at 1-based time step t."""
        return float(self.per_t_opportunity[t - 1])

    def stock_at(self, t: int) -> float:
        """Stock-keeping cost charged at 1-based time step t."""
        return float(self.per_t_stock[t - 1])


@dataclass(frozen=True)
class AlphaSweepPoint:
    """Score at one point of the alpha1 + alpha2 = 1 trade-off line."""

    alpha1: float
    alpha2: float
    spec_value: float


def spec_literal(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> float:
    """Reference evaluator: direct double sum over (time step, batch origin).

    Deliberately naive; do not optimize. :func:`spec_fast` is the fast path
    and is tested against this function.
    """
    y = pair.actual.values.tolist()
    f = pair.forecast.values.tolist()
    n = len(y)
    a1, a2 = params.alpha1, params.alpha2

    ycum = [0.0] * n
    fcum = [0.0] * n
    ry = rf = 0.0
    for k in range(n):
        ry += y[k]
        rf += f[k]
        ycum[k] = ry
        fcum[k] = rf

    total = 0.0
    for t in range(n):
        ft = fcum[t]
        yt = ycum[t]
        for i in range(t + 1):
            owed = ycum[i] - ft
            if owed > y[i]:
                owed = y[i]
            held = fcum[i] - yt
            if held > f[i]:
                held = f[i]
            term = 0.0
            cand = owed * a1
            if cand > term:
                term = cand
            cand = held * a2
            if cand > term:
                term = cand
            if term > 0.0:
                total += term * (t - i + 1)
    return total / n


_CHUNK = 1024  # steps per chunk of _chunk_charges, and the longest series _walk_charges takes


def _fifo_charges(
    y: np.ndarray, f: np.ndarray, alpha1: float, alpha2: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted owed and held charges at each step (0-based) and their total,
    for demand ``y`` and deliveries ``f``.

    Maintains FIFO queues of still-open demand and delivery batches, netting
    them against each other at each step with volume; at any other step at
    least one queue is empty, so there is nothing to net. The age-weighted
    charge for a whole queue is computed in O(1) from the running aggregates
    sum(q) and sum(q * origin), since sum(q * (t - origin + 1)) =
    (t+1)*sum(q) - sum(q*origin). The charges go into two float arrays, so
    no Python float is kept per step. The total is accumulated in step order;
    :func:`spec_fast` returns it divided by n, so its bits depend on that order.

    A series of up to ``_CHUNK`` steps is walked step by step
    (:func:`_walk_charges`), where numpy's per-call cost would outweigh its
    speed; a longer one nets only at its volume steps and fills the charges in
    between with numpy (:func:`_chunk_charges`). Both give the same bits.
    """
    if y.size <= _CHUNK:
        return _walk_charges(y, f, alpha1, alpha2)
    return _chunk_charges(y, f, alpha1, alpha2)


def _walk_charges(
    y: np.ndarray, f: np.ndarray, alpha1: float, alpha2: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_fifo_charges` by one Python step per step of the series."""
    n = y.size
    opp, stock = np.zeros(n), np.zeros(n)
    opp_at, stock_at = memoryview(opp), memoryview(stock)

    owed: deque[list[float]] = deque()  # [origin, qty] demand not yet covered
    held: deque[list[float]] = deque()  # [origin, qty] deliveries not yet consumed
    owed_q = owed_qt = 0.0
    held_q = held_qt = 0.0

    total = 0.0
    t = 0
    # memoryview yields one float at a time; .tolist() would hold 2n at once
    for yt, ft in zip(memoryview(y), memoryview(f)):
        t += 1
        if yt > 0.0 or ft > 0.0:
            if yt > 0.0:
                owed.append([t, yt])
                owed_q += yt
                owed_qt += yt * t
            if ft > 0.0:
                held.append([t, ft])
                held_q += ft
                held_qt += ft * t
            while owed and held:
                d = owed[0]
                s = held[0]
                c = d[1] if d[1] <= s[1] else s[1]
                d[1] -= c
                s[1] -= c
                owed_q -= c
                owed_qt -= c * d[0]
                held_q -= c
                held_qt -= c * s[0]
                if d[1] <= 0.0:
                    owed.popleft()
                if s[1] <= 0.0:
                    held.popleft()
            # keep aggregates exactly zero when a queue empties, so float residue
            # from the subtractions above cannot leak into the charge
            if not owed:
                owed_q = owed_qt = 0.0
            if not held:
                held_q = held_qt = 0.0
        if owed_q > 0.0:
            charge = alpha1 * ((t + 1) * owed_q - owed_qt)
            opp_at[t - 1] = charge
            total += charge
        if held_q > 0.0:
            charge = alpha2 * ((t + 1) * held_q - held_qt)
            stock_at[t - 1] = charge
            total += charge
    return opp, stock, total


def _chunk_charges(
    y: np.ndarray, f: np.ndarray, alpha1: float, alpha2: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_fifo_charges` by chunks of ``_CHUNK`` steps: Python nets the
    queues at a chunk's volume steps only, as :func:`_walk_charges` does, and
    numpy forward-fills the open side's (Q, QT) over the chunk and computes
    each charge from it.

    The bits are the walk's. Between volume steps the aggregates do not
    change, and each charge takes the walk's float operations in its order;
    a side the walk does not charge (its Q not above 0) is filled with
    Q = QT = 0, whose charge is +0.0. At most one side is open at a step, so
    adding the two charges changes neither, and ``add.accumulate`` sums in
    step order from the running total, as the walk's ``total += charge``.
    Holds one chunk's temporaries beyond the two charge arrays.
    """
    n = y.size
    opp, stock = np.empty(n), np.empty(n)

    owed: deque[list[float]] = deque()  # [origin, qty] demand not yet covered
    held: deque[list[float]] = deque()  # [origin, qty] deliveries not yet consumed
    owed_q = owed_qt = 0.0
    held_q = held_qt = 0.0

    state = [0.0, 0.0, 0.0, 0.0]  # charged (owed_q, owed_qt, held_q, held_qt) in force
    total = 0.0
    # numpy warns where the walk's Python floats overflow to inf or give nan silently
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            yc, fc = y[lo:hi], f[lo:hi]
            vm = (yc > 0.0) | (fc > 0.0)
            at = vm.nonzero()[0]
            table = state
            for t, yt, ft in zip((at + (lo + 1)).tolist(), yc[at].tolist(), fc[at].tolist()):
                if yt > 0.0:
                    owed.append([t, yt])
                    owed_q += yt
                    owed_qt += yt * t
                if ft > 0.0:
                    held.append([t, ft])
                    held_q += ft
                    held_qt += ft * t
                while owed and held:
                    d = owed[0]
                    s = held[0]
                    c = d[1] if d[1] <= s[1] else s[1]
                    d[1] -= c
                    s[1] -= c
                    owed_q -= c
                    owed_qt -= c * d[0]
                    held_q -= c
                    held_qt -= c * s[0]
                    if d[1] <= 0.0:
                        owed.popleft()
                    if s[1] <= 0.0:
                        held.popleft()
                if not owed:
                    owed_q = owed_qt = 0.0
                if not held:
                    held_q = held_qt = 0.0
                # after netting one queue is empty, so at most one side is charged
                if owed_q > 0.0:
                    table += (owed_q, owed_qt, 0.0, 0.0)
                elif held_q > 0.0:
                    table += (0.0, 0.0, held_q, held_qt)
                else:
                    table += (0.0, 0.0, 0.0, 0.0)
            state = table[-4:]
            # row i of the table is the state after the chunk's i-th volume step
            owed_q_at, owed_qt_at, held_q_at, held_qt_at = (
                np.array(table, dtype=float).reshape(-1, 4).take(vm.cumsum(), axis=0).T)
            t1 = np.arange(lo + 2, hi + 2, dtype=float)  # t + 1 at 1-based steps lo+1 .. hi
            opp_c, stock_c = opp[lo:hi], stock[lo:hi]
            np.multiply(t1, owed_q_at, out=opp_c)
            np.subtract(opp_c, owed_qt_at, out=opp_c)
            np.multiply(alpha1, opp_c, out=opp_c)
            np.multiply(t1, held_q_at, out=stock_c)
            np.subtract(stock_c, held_qt_at, out=stock_c)
            np.multiply(alpha2, stock_c, out=stock_c)
            charge = opp_c + stock_c
            charge[0] += total
            total = float(np.add.accumulate(charge, out=charge)[-1])
    return opp, stock, total


def rescued(reduce, *xs: np.ndarray, degrees: tuple[int, ...] = (1,)) -> float:
    """``reduce(*xs)``, of degree ``degrees[i]`` in ``xs[i]``, ``inf`` only when
    its exact value exceeds the float range: a non-finite result is taken again
    on each x scaled by 2**-k, k the binary exponent of its largest |x|, and
    scaled back by 2**(sum of degree * k). Scaling by a power of two is exact
    away from subnormals, so a result that did not overflow keeps its bits.
    """
    value = reduce(*xs)
    if math.isfinite(value):
        return float(value)
    ks = [int(np.frexp(np.max(np.abs(x), initial=0.0))[1]) for x in xs]
    scaled = reduce(*(np.ldexp(x, -k) for x, k in zip(xs, ks)))
    with np.errstate(over="ignore"):  # a value past the float range is inf
        return float(np.ldexp(scaled, sum(d * k for d, k in zip(degrees, ks))))


def walk_mean(walk, pair: EvaluationPair, alpha1: float, alpha2: float) -> float:
    """The total ``walk(y, f, alpha1, alpha2)`` returns last, over n. Past the float range it is
    :func:`rescued` on the pair, then, if still past it, on the weights; never both in one pass."""
    y, f = pair.actual.values, pair.forecast.values
    mean = walk(y, f, alpha1, alpha2)[-1] / pair.n
    if math.isfinite(mean):
        return mean

    def weighted(weights: np.ndarray) -> float:
        a1, a2 = weights.tolist()
        return rescued(lambda yf: walk(*yf, a1, a2)[-1] / pair.n, np.stack((y, f)))
    return rescued(weighted, np.array([alpha1, alpha2], dtype=float))


def spec_fast(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> float:
    """O(n) evaluator matching :func:`spec_literal` to 1e-9."""
    return walk_mean(_fifo_charges, pair, params.alpha1, params.alpha2)


def _unit_charges(pair: EvaluationPair) -> tuple[np.ndarray, np.ndarray, int]:
    """Unit-weight charges at each step and k = 0, or, where their total passes
    the float range, the charges of the pair scaled by 2**-k below 1 and k."""
    y, f = pair.actual.values, pair.forecast.values
    opp, stock, total = _fifo_charges(y, f, 1.0, 1.0)
    if math.isfinite(total):
        return opp, stock, 0
    k = int(np.frexp(max(y.max(), f.max()))[1])
    opp, stock, _ = _fifo_charges(np.ldexp(y, -k), np.ldexp(f, -k), 1.0, 1.0)
    return opp, stock, k


def spec_decompose(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> CostBreakdown:
    """Attribute the score to individual time steps.

    ``spec_value`` is :func:`spec_fast`'s score; the weighted per-step arrays
    sum to ``n * spec_value`` up to rounding. The unit-period aggregates let
    any other weighting be evaluated without rescoring.
    """
    opp_units, stock_units, k = _unit_charges(pair)
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        per_t_opp = np.ldexp(params.alpha1 * opp_units, k)
        per_t_stock = np.ldexp(params.alpha2 * stock_units, k)
        opp_total, stock_total = np.ldexp([opp_units.sum(), stock_units.sum()], k).tolist()
    per_t_opp.setflags(write=False)
    per_t_stock.setflags(write=False)
    return CostBreakdown(
        per_t_opportunity=per_t_opp,
        per_t_stock=per_t_stock,
        opp_unit_periods=opp_total,
        stock_unit_periods=stock_total,
        spec_value=spec_fast(pair, params),
        params=params,
    )


def spec_alpha_sweep(pair: EvaluationPair, grid_size: int) -> list[AlphaSweepPoint]:
    """Score the pair along alpha1 = 0 .. 1 with alpha2 = 1 - alpha1.

    Uses one weight-free pass of the O(n) kernel and the score's linearity
    in the weights, so the cost does not grow with the grid size.
    """
    check_int("grid_size", grid_size, 2)
    opp_units, stock_units, k = _unit_charges(pair)
    opp_total, stock_total = float(opp_units.sum()), float(stock_units.sum())
    alphas = [i / (grid_size - 1) for i in range(grid_size)]
    values = [(a1 * opp_total + (1.0 - a1) * stock_total) / pair.n for a1 in alphas]
    with np.errstate(over="ignore"):  # a score past the float range is inf
        values = np.ldexp(values, k).tolist()
    return [AlphaSweepPoint(a1, 1.0 - a1, value) for a1, value in zip(alphas, values)]
