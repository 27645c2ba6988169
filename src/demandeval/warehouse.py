"""Discrete-event warehouse bookkeeping used as the ground-truth cost model.

This walks the horizon with explicit stock lots and backorder records: each
forecast quantity arrives as a delivery (first filling open backorders,
oldest first, then shelved as a lot), each demand quantity drains the oldest
stock first and queues the shortfall as a backorder. At the end of every step
each open lot or backorder is charged weight * quantity * age.

The walk takes a (k, n) forecast block, one forecast being the block of one
row, ``_CHUNK`` steps at a time, and finds every row's volume steps, where
the demand or the delivery is positive, with one mask per chunk. It visits a
row's volume steps in order, and the steps in between and after the last
one only while a lot or a backorder is open, to charge them; a step with
nothing open and no volume adds nothing. Each row carries its lots,
backorders, running total and last visited step from one chunk to the next,
so the walk holds one chunk's volume steps besides its open lots and
backorders, whatever the series length, and every charge is added in step
order, so a row's cost has the same bits in any block.

It is intentionally a separate code path from the metric evaluators in
:mod:`demandeval.spec` (no prefix sums, no netting aggregates) so the
experiment suite can use it as an independent oracle for what a forecast
error actually costs. It shares only its entry and the float rescue with
them, :func:`~demandeval.spec.walk_means`: the block is walked once, a row's
cost has the lone call's bits, and it is ``inf`` only when the exact value
exceeds the float range, because a row whose mean is past it is walked again
on the pair, and then the weights, scaled by a power of two.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, walk_means

_CHUNK = 1024  # steps per chunk: the walk holds one chunk's volume steps of every row at a time


def stock_cost(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> float | np.ndarray:
    """Average per-period cost of running the notional warehouse, one per row of a forecast block.

    ``params.alpha1`` prices one backordered SKU per period of age,
    ``params.alpha2`` one shelved SKU per period of age.
    """
    return walk_means(_warehouse_totals, pair, params.alpha1, params.alpha2)


def _warehouse_totals(y: np.ndarray, block: np.ndarray, a1: float, a2: float) -> np.ndarray:
    """Each row's summed charges, for a (k, n) ``block`` of deliveries against demand ``y``."""
    k, n = block.shape
    walks = [(deque(), deque(), 0.0, 1) for _ in range(k)]
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        yc, bc = y[lo:hi], block[:, lo:hi]
        flat = np.logical_or(yc, bc).ravel().nonzero()[0]  # the series are non-negative
        at = flat % (hi - lo)
        ends = flat.searchsorted(np.arange(1, k + 1) * (hi - lo)).tolist()  # each row's end in flat
        _walk(walks, (at + (lo + 1)).tolist(), yc[at].tolist(), bc.ravel()[flat].tolist(), ends, a1, a2)
    return np.array([_charged(lots, backorders, total, last, n + 1, a1, a2)
                     for lots, backorders, total, last in walks], dtype=float)


def _walk(walks, steps, ys, fs, ends, a1, a2):
    """Walk one chunk of every row: row i visits the 1-based volume steps
    ``steps[s:ends[i]]``, s = ``ends[i-1]`` or 0, with the demand ``ys`` and
    the delivery ``fs`` at each; ``walks[i]`` carries its lots, backorders,
    total and last visited step between chunks. The steps since the last
    visited one are charged before a volume step moves any quantity.
    """
    volume = zip(steps, ys, fs)
    start = 0
    for i, end in enumerate(ends):
        lots, backorders, total, last = walks[i]
        for step, leaving, arriving in islice(volume, end - start):
            total = _charged(lots, backorders, total, last, step, a1, a2)
            while arriving > 0.0 and backorders:
                oldest = backorders[0]
                filled = oldest[1] if oldest[1] <= arriving else arriving
                oldest[1] -= filled
                arriving -= filled
                if oldest[1] <= 0.0:
                    backorders.popleft()
            if arriving > 0.0:
                lots.append([step, arriving])

            while leaving > 0.0 and lots:
                oldest = lots[0]
                taken = oldest[1] if oldest[1] <= leaving else leaving
                oldest[1] -= taken
                leaving -= taken
                if oldest[1] <= 0.0:
                    lots.popleft()
            if leaving > 0.0:
                backorders.append([step, leaving])
            last = step
        walks[i] = lots, backorders, total, last
        start = end


def _charged(lots, backorders, total, first, stop, a1, a2):
    """``total`` plus the charges at steps ``first`` to ``stop - 1`` of the
    open lots and backorders, added in the walk's order; with none open, no
    step is visited."""
    if lots or backorders:
        for step in range(first, stop):
            for arrival_step, qty in lots:
                total += a2 * qty * (step - arrival_step + 1)
            for order_step, qty in backorders:
                total += a1 * qty * (step - order_step + 1)
    return total
