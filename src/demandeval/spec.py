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
against demand in Python at the steps with volume only, and charges every
step with numpy. It takes a (k, n) block of forecasts, one forecast being the
block of one row, ``_CHUNK`` steps at a time. One pass nets the chunk of
every row, each row's walk keeping a single queue of open units, owed or
held, and one signed pair per netted step; the charges of the whole chunk are
filled from those pairs at once, into two float arrays where the per-step
split is asked for. Each row's charges are summed in step order, so a row's
score has the same bits in any block, and no Python object is kept per step.
:func:`spec_fast` (the score, also of a block),
:func:`spec_decompose` (the per-step split) and :func:`spec_alpha_sweep`
(the alpha trade-off line) are all derived from it. :func:`by_row` drives
every score, the classic metrics' too: a lone forecast is the block of one
row, and only a row left non-finite is taken again, by the score's rescue;
:func:`walk_means` is this walk's and the warehouse oracle's. :func:`spec_literal`
is the normative reference: a direct O(n^2) transcription of the definition,
kept permanently as the oracle the kernel is tested against to 1e-9.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidConfig, SeriesError, check_int, check_number
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
        """Opportunity cost charged at 1-based time step t, 1 to n."""
        check_int("t", t, 1, self.n)
        return float(self.per_t_opportunity[t - 1])

    def stock_at(self, t: int) -> float:
        """Stock-keeping cost charged at 1-based time step t, 1 to n."""
        check_int("t", t, 1, self.n)
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
    y, f = (values.tolist() for values in one_forecast(pair))
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


_CHUNK = 1024  # steps per chunk: a block's SPEC holds a few (k, _CHUNK) arrays at a time


def _net(states, table, steps, ys, fs, ends):
    """Net one chunk of every row of a block. Row i nets ``steps[s:ends[i]]``,
    1-based, s = ``ends[i-1]`` or 0, with the demand ``ys`` and the delivery
    ``fs`` at each; ``states[i]`` carries its walk between chunks.

    A walk queues the open units of one side, demand owed or deliveries
    held, as ``[origin, qty]``: after netting at most one side is open, and
    between two steps with volume nothing changes. Its charge at step t is
    (t+1)*Q - QT, from the aggregates Q = sum(qty) and QT = sum(qty * origin).
    At a step, volume on the open side is queued first; the other side's
    volume z starts at r = z, with aggregates z and z*t, nets against the
    head, and opens its side with what is left when the queue runs out. An
    empty side's aggregates are exactly 0.0, so these are the operations of
    a walk that queues both sides.

    After each step it appends the signed pair charged from then on to
    ``table``: (Q, QT) when owed, (-Q, QT) when held, zeros when Q <= 0, as
    an open queue can hold a float residue Q <= 0 that is not charged.
    """
    steps = zip(steps, ys, fs)
    append = table.append
    start = 0
    for i, end in enumerate(ends):
        queue, owed, q, qt = states[i]
        for t, yt, ft in islice(steps, end - start):
            if not queue:  # the side with volume opens, demand first
                owed = yt > 0.0
            if owed:
                v, z = yt, ft
            else:
                v, z = ft, yt
            if v > 0.0:
                queue.append([t, v])
                q += v
                qt += v * t
            if z > 0.0:  # nets against the queue: it was open, or holds v
                r, zqt = z, z * t
                while True:
                    head = queue[0]
                    c = head[1]
                    if c > r:  # z closes
                        head[1] = c - r
                        q -= r
                        qt -= r * head[0]
                        break
                    queue.popleft()  # the head closes
                    r -= c
                    q -= c
                    qt -= c * head[0]
                    zqt -= c * t
                    if r <= 0.0 or not queue:
                        break
                if not queue:
                    if r > 0.0:  # what is left of z opens its side
                        queue.append([t, r])
                        owed, q, qt = not owed, r, zqt
                    else:
                        q = qt = 0.0
            if q > 0.0:
                append(q if owed else -q)
                append(qt)
            else:
                append(0.0)
                append(0.0)
        states[i] = queue, owed, q, qt
        start = end


def _block_totals(y: np.ndarray, block: np.ndarray, alpha1: float, alpha2: float,
                  charges: np.ndarray | None = None) -> np.ndarray:
    """Each row's total charge, summed in step order, for a (k, n) ``block`` of
    deliveries against demand ``y``; given a (2, k, n) ``charges``, the
    weighted owed and held charge at each step is written into it.

    The block is taken ``_CHUNK`` steps at a time. One :func:`_net` call nets
    the chunk's first step and each row's volume steps into one table of
    signed pairs, so every step's pair is picked by the count of netted steps
    so far. Each charge is ``alpha * ((t + 1) * |Q| - QT)``, alpha2 where
    Q < 0 and alpha1 elsewhere; ``charges`` holds 0.0 on the other side. Each
    row's running total is folded into its chunk's first charge and summed
    with ``add.accumulate``, which sums in sequence, so a row's total has the
    same bits at any chunking and in any block. Besides ``charges``, one
    chunk's temporaries are held: a few arrays of k by ``_CHUNK``.
    """
    k, n = block.shape
    states = [(deque(), True, 0.0, 0.0) for _ in range(k)]
    totals = np.zeros(k)
    # numpy warns where Python floats overflow to inf or give nan silently
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            yc, bc = y[lo:hi], block[:, lo:hi]
            vm = np.logical_or(yc, bc)  # the series are non-negative: volume where either is > 0
            # netting the first step appends the pair the chunk starts with;
            # a step without volume leaves the queue as it is
            vm[:, 0] = True
            index = vm.cumsum().reshape(k, -1)  # counts of steps to net, all earlier rows' included
            flat = vm.ravel().nonzero()[0]
            at = flat % (hi - lo)
            steps, ys, fs = (at + (lo + 1)).tolist(), yc[at].tolist(), bc.ravel()[flat].tolist()
            table = [0.0, 0.0]  # picked by no step: every count is at least 1
            _net(states, table, steps, ys, fs, index[:, -1].tolist())
            q, qt = np.array(table, dtype=float).reshape(-1, 2).T.take(index, axis=1)
            held = q < 0.0
            np.abs(q, out=q)
            np.multiply(np.arange(lo + 2, hi + 2, dtype=float), q, out=q)  # t + 1 at 1-based steps
            np.subtract(q, qt, out=q)
            if charges is not None:
                charges[:, :, lo:hi] = np.where(held, 0.0, q) * alpha1, np.where(held, q, 0.0) * alpha2
            charge = np.multiply(alpha1, q, out=qt)
            np.multiply(alpha2, q, out=charge, where=held)
            charge[:, 0] += totals
            totals = np.add.accumulate(charge, axis=1, out=charge)[:, -1].copy()
            del q, qt, charge  # free this chunk's take before the next chunk makes its own
    return totals


def rescued(reduce, *xs: np.ndarray, degrees: tuple[int, ...] = (1,)) -> float:
    """``reduce(*xs)``, of degree ``degrees[i]`` in ``xs[i]``, ``inf`` only when
    its exact value exceeds the float range: a non-finite result is taken again
    by :func:`_rescaled`.
    """
    value = reduce(*xs)
    return float(value) if math.isfinite(value) else _rescaled(reduce, xs, degrees)


def _rescaled(reduce, xs: tuple[np.ndarray, ...], degrees: tuple[int, ...] = (1,)) -> float:
    """``reduce`` on each x scaled by 2**-k, k the binary exponent of its largest
    |x|, scaled back by 2**(sum of degree * k). Scaling by a power of two is exact
    away from subnormals, so a result that did not overflow keeps its bits.
    """
    ks = [int(np.frexp(np.max(np.abs(x), initial=0.0))[1]) for x in xs]
    scaled = reduce(*(np.ldexp(x, -k) for x, k in zip(xs, ks)))
    with np.errstate(over="ignore"):  # a value past the float range is inf
        return float(np.ldexp(scaled, sum(d * k for d, k in zip(degrees, ks))))


def one_forecast(pair: EvaluationPair) -> tuple[np.ndarray, np.ndarray]:
    """The value arrays of a pair of one forecast; a (k, n) forecast block raises
    :class:`SeriesError`, for the evaluators that take one forecast only."""
    if pair.forecast.values.ndim != 1:
        raise SeriesError(f"expected one forecast, got a block of shape {pair.forecast.values.shape}")
    return pair.actual.values, pair.forecast.values


def by_row(pair: EvaluationPair, rows, rescue=None) -> float | np.ndarray:
    """Every score's one driver: ``rows(y, block)`` scores the pair's forecast as
    a (k, n) block, a lone forecast being the block of one row, and returns a
    float64 array of k scores, each a row's bits in any block; each row it
    leaves non-finite is taken again by ``rescue(y, row)`` where one is given.
    A lone forecast gets its score as a float."""
    y, f = pair.actual.values, pair.forecast.values
    block = f.reshape(-1, y.size)
    values = rows(y, block)
    if rescue is not None:
        for i in np.flatnonzero(~np.isfinite(values)):
            values[i] = rescue(y, block[i])
    return values if f.ndim == 2 else values.item()


def walk_means(walk, pair: EvaluationPair, alpha1: float, alpha2: float) -> float | np.ndarray:
    """Each forecast's total ``walk(y, block, alpha1, alpha2)`` returns, over n,
    by :func:`by_row`: the block is walked once, and a row whose mean is past
    the float range is walked again on the pair, :func:`_rescaled`, and where
    it is still past, on the weights rescaled likewise, the pair
    :func:`rescued` at them."""
    n = pair.n

    def mean(a1: float, a2: float):
        return lambda yf: walk(yf[0], yf[1:], a1, a2)[0] / n

    def rescue(y: np.ndarray, row: np.ndarray) -> float:
        yf = np.stack((y, row))
        value = _rescaled(mean(alpha1, alpha2), (yf,))
        if math.isfinite(value):
            return value
        weights = np.array([alpha1, alpha2], dtype=float)
        return _rescaled(lambda w: rescued(mean(*w.tolist()), yf), (weights,))

    return by_row(pair, lambda y, block: walk(y, block, alpha1, alpha2) / n, rescue)


def spec_fast(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> float | np.ndarray:
    """O(n) evaluator matching :func:`spec_literal` to 1e-9; on a (k, n)
    forecast block, one score per row (:func:`walk_means`, :func:`_block_totals`)."""
    return walk_means(_block_totals, pair, params.alpha1, params.alpha2)


def _unit_charges(pair: EvaluationPair) -> tuple[np.ndarray, np.ndarray, int]:
    """Unit-weight charges at each step and k = 0, or, where their total passes
    the float range, the charges of the pair scaled by 2**-k below 1 and k."""
    y, f = one_forecast(pair)
    charges = np.empty((2, 1, y.size))
    k = 0
    if not math.isfinite(_block_totals(y, f[None], 1.0, 1.0, charges)[0]):
        k = int(np.frexp(max(y.max(), f.max()))[1])
        _block_totals(np.ldexp(y, -k), np.ldexp(f, -k)[None], 1.0, 1.0, charges)
    return charges[0, 0], charges[1, 0], k


def spec_decompose(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> CostBreakdown:
    """Attribute the score to individual time steps.

    ``spec_value`` is :func:`spec_fast`'s score; the weighted per-step arrays
    sum to ``n * spec_value`` up to rounding. The unit-period aggregates let
    any other weighting be evaluated without rescoring.

    Unscaled, the weighted arrays are the weighted walk's own charges, so
    their sum in step order over n is the score, bit for bit, wherever it is
    finite; elsewhere :func:`spec_fast` takes its rescued pass.
    """
    opp_units, stock_units, k = _unit_charges(pair)
    with np.errstate(over="ignore", invalid="ignore"):  # a cost past the float range is inf
        per_t_opp = np.ldexp(params.alpha1 * opp_units, k)
        per_t_stock = np.ldexp(params.alpha2 * stock_units, k)
        opp_total, stock_total = np.ldexp([opp_units.sum(), stock_units.sum()], k).tolist()
        charge = per_t_opp + per_t_stock  # summed in place, so it holds one n-array
        total = np.add.accumulate(charge, out=charge)[-1].item() if k == 0 else math.inf
    per_t_opp.setflags(write=False)
    per_t_stock.setflags(write=False)
    return CostBreakdown(
        per_t_opportunity=per_t_opp,
        per_t_stock=per_t_stock,
        opp_unit_periods=opp_total,
        stock_unit_periods=stock_total,
        spec_value=total / pair.n if math.isfinite(total) else spec_fast(pair, params),
        params=params,
    )


MAX_GRID_SIZE = 1_000_001  # most points :func:`spec_alpha_sweep` takes: a step of 1e-6 in alpha1


def spec_alpha_sweep(pair: EvaluationPair, grid_size: int) -> list[AlphaSweepPoint]:
    """Score the pair along alpha1 = 0 .. 1 with alpha2 = 1 - alpha1, at
    ``grid_size`` evenly spaced points, 2 to :data:`MAX_GRID_SIZE`.

    Uses one weight-free pass of the O(n) kernel and the score's linearity
    in the weights, so the kernel's cost does not grow with the grid size;
    the points themselves are Python objects, hence the bound.
    """
    check_int("grid_size", grid_size, 2, MAX_GRID_SIZE)
    opp_units, stock_units, k = _unit_charges(pair)
    opp_total, stock_total = float(opp_units.sum()), float(stock_units.sum())
    alphas = [i / (grid_size - 1) for i in range(grid_size)]
    values = [(a1 * opp_total + (1.0 - a1) * stock_total) / pair.n for a1 in alphas]
    with np.errstate(over="ignore"):  # a score past the float range is inf
        values = np.ldexp(values, k).tolist()
    return [AlphaSweepPoint(a1, 1.0 - a1, value) for a1, value in zip(alphas, values)]
