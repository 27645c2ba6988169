"""Discrete-event warehouse bookkeeping used as the ground-truth cost model.

This walks the horizon step by step with explicit stock lots and backorder
records: each forecast quantity arrives as a delivery (first filling open
backorders, oldest first, then shelved as a lot), each demand quantity drains
the oldest stock first and queues the shortfall as a backorder. At the end of
every step each open lot or backorder is charged weight * quantity * age.
The walk streams the two series one step at a time, so it holds no Python
float per step.

It is intentionally a separate code path from the metric evaluators in
:mod:`demandeval.spec` (no prefix sums, no netting aggregates) so the
experiment suite can use it as an independent oracle for what a forecast
error actually costs. It shares only the float rescue with them, through
:func:`demandeval.spec.walk_mean`: like every score, its cost is ``inf`` only
when the exact value exceeds the float range, because a mean past it is
walked again on the pair, and then the weights, scaled by a power of two.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, walk_mean


def stock_cost(pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> float:
    """Average per-period cost of running the notional warehouse.

    ``params.alpha1`` prices one backordered SKU per period of age,
    ``params.alpha2`` one shelved SKU per period of age.
    """
    return walk_mean(_warehouse_total, pair, params.alpha1, params.alpha2)


def _warehouse_total(y: np.ndarray, f: np.ndarray, a1: float, a2: float) -> tuple[float]:
    """Summed charges of the walk over demand ``y`` and deliveries ``f``, as a 1-tuple."""
    lots: deque[list[float]] = deque()  # [arrival_step, qty] on the shelf
    backorders: deque[list[float]] = deque()  # [order_step, qty] owed

    total = 0.0
    step = 0
    # memoryview yields one float at a time; .tolist() would hold 2n at once
    for leaving, arriving in zip(memoryview(y), memoryview(f)):
        step += 1
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

        for arrival_step, qty in lots:
            total += a2 * qty * (step - arrival_step + 1)
        for order_step, qty in backorders:
            total += a1 * qty * (step - order_step + 1)
    return (total,)
