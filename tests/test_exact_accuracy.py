"""The SPEC and classic scores against exact rational arithmetic.

``_exact_unit_totals`` is :func:`spec_literal`'s double sum taken in
``fractions.Fraction``, so nothing in it rounds. It returns the exact
unit-weight owed total O and held total H. At a (step, origin) pair at most
one of the two branches is positive, so any weighting's exact score is
(alpha1 * O + alpha2 * H) / n, and one exact pass serves every weighting.

Agreeing with ``spec_literal`` to 1e-9 says nothing about how close either
float path is to the truth; this budget does. The error allowed is
``C * n * eps`` times the condition magnitude K of each total: the same sum
with every open quantity that is a difference of running sums,
``ycum[i] - fcum[t]`` or ``fcum[i] - ycum[t]``, replaced by the sum of the
two. Where no term is such a difference, K is the total itself and the bound
is a relative error of ``C * n * eps``. Where a small remainder is left of a
large netted volume, no float evaluation gets it to a few eps relative: one
pair of 26 steps drawn like these has its held total off by 43.7 * n * eps
relative, while its error is 0.08 * n * eps * K.

The classic metrics (mae, mse, mase, mape and smape; the root forms only add
a ``sqrt``) hold a plain relative bound of ``C * n * eps``: each sums
non-negative terms, so no cancellation can leave a small result of large
parts.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from demandeval import EvaluationPair, SpecParams, spec_alpha_sweep, spec_decompose, spec_fast
from demandeval import metrics

EPS = sys.float_info.epsilon
C = 1  # the worst measured case over these pairs is 0.42 (error / (n * eps * K))
WEIGHTS = (SpecParams(0.75, 0.25), SpecParams(0.1, 0.9), SpecParams(3.0, 0.5))
# the worst measured case over the classic pairs is 0.42 (smape), and 0.83 (mse)
# over ten seeds of the same draw (relative error / (n * eps))
CLASSIC_C = 1


def _exact_unit_totals(pair):
    """Exact O and H, ``spec_literal``'s double sum at unit weights, per
    branch, and their condition magnitudes."""
    y = [Fraction(v) for v in pair.actual.values.tolist()]
    f = [Fraction(v) for v in pair.forecast.values.tolist()]
    n = len(y)
    ycum, fcum = [], []
    ry = rf = Fraction(0)
    for k in range(n):
        ry += y[k]
        rf += f[k]
        ycum.append(ry)
        fcum.append(rf)

    owed_total = held_total = owed_k = held_k = Fraction(0)
    for t in range(n):
        for i in range(t + 1):
            age = t - i + 1
            owed = ycum[i] - fcum[t]
            held = fcum[i] - ycum[t]
            assert owed <= 0 or held <= 0  # the branches exclude each other
            if owed > 0:
                owed_total += min(owed, y[i]) * age
                owed_k += (ycum[i] + fcum[t] if owed < y[i] else y[i]) * age
            if held > 0:
                held_total += min(held, f[i]) * age
                held_k += (fcum[i] + ycum[t] if held < f[i] else f[i]) * age
    return owed_total, held_total, owed_k, held_k


def _pairs():
    """200 pairs of 1 to 32 steps: even ones whole units, odd ones real-valued."""
    rng = np.random.default_rng(2718)
    pairs = []
    for i in range(200):
        n = int(rng.integers(1, 33))
        density = rng.uniform(0.1, 1.0)
        if i % 2 == 0:
            actual = rng.integers(1, 13, n).astype(float)
            forecast = rng.integers(1, 13, n).astype(float)
        else:
            actual = rng.uniform(0.1, 50, n)
            forecast = rng.uniform(0.1, 50, n)
        actual *= rng.random(n) < density
        forecast *= rng.random(n) < density
        pairs.append(EvaluationPair.from_values(actual, forecast))
    return pairs


def test_scores_within_accuracy_budget():
    for pair in _pairs():
        n = pair.n
        owed, held, owed_k, held_k = _exact_unit_totals(pair)
        breakdown = spec_decompose(pair)
        sweep = spec_alpha_sweep(pair, 3)

        def weighted(params, o, h):
            return (Fraction(params.alpha1) * o + Fraction(params.alpha2) * h) / n

        # (float result, exact value, condition magnitude)
        results = [(spec_fast(pair, params), weighted(params, owed, held),
                    weighted(params, owed_k, held_k)) for params in WEIGHTS]
        results += [
            (breakdown.spec_value, weighted(breakdown.params, owed, held),
             weighted(breakdown.params, owed_k, held_k)),
            (breakdown.opp_unit_periods, owed, owed_k),
            (breakdown.stock_unit_periods, held, held_k),
            (sweep[0].spec_value, held / n, held_k / n),  # alpha1 = 0
            (sweep[-1].spec_value, owed / n, owed_k / n),  # alpha1 = 1
        ]
        for got, exact, k in results:
            assert abs(Fraction(got) - exact) <= C * n * Fraction(EPS) * k, (pair, got, float(exact))


def _exact_classic(name, y, f):
    """``name``'s exact value under :mod:`demandeval.metrics`' conventions: None
    where it is undefined, ``math.inf`` where the percentage family is infinite."""
    n = len(y)
    e = [abs(b - a) for a, b in zip(y, f)]
    if name == "mae":
        return sum(e) / n
    if name == "mse":
        return sum(x * x for x in e) / n
    if name == "mase":
        scale = sum(abs(y[t] - y[t - 1]) for t in range(1, n))
        return sum(e) / n / (scale / (n - 1)) if scale else None
    if name == "mape":
        if any(a == 0 and d != 0 for a, d in zip(y, e)):
            return math.inf
        terms = [d / a for a, d in zip(y, e) if a]
    else:  # smape
        terms = [d / (a + b) for a, b, d in zip(y, f, e) if a + b]
    return sum(terms) / len(terms) if terms else None


def _classic_pairs():
    """300 pairs of 1 to 60 steps: even ones whole units, odd ones real-valued; in
    half of them the forecast is zero where the actual is, so mape is finite."""
    rng = np.random.default_rng(1618)
    pairs = []
    for i in range(300):
        n = int(rng.integers(1, 61))
        density = rng.uniform(0.1, 1.0)
        if i % 2 == 0:
            actual = rng.integers(1, 13, n).astype(float)
            forecast = rng.integers(1, 13, n).astype(float)
        else:
            actual = rng.uniform(0.1, 50, n)
            forecast = rng.uniform(0.1, 50, n)
        actual *= rng.random(n) < density
        forecast *= (actual > 0) if i % 4 < 2 else (rng.random(n) < density)
        pairs.append(EvaluationPair.from_values(actual, forecast))
    return pairs


def test_classic_scores_within_accuracy_budget():
    names = ("mae", "mse", "mase", "mape", "smape")
    finite = dict.fromkeys(names, 0)
    for pair in _classic_pairs():
        n = pair.n
        y = [Fraction(v) for v in pair.actual.values.tolist()]
        f = [Fraction(v) for v in pair.forecast.values.tolist()]
        for name in names:
            got = getattr(metrics, name)(pair)
            exact = _exact_classic(name, y, f)
            if exact is None or exact == math.inf:
                assert math.isnan(got) if exact is None else got == math.inf, (name, pair)
                continue
            assert abs(Fraction(got) - exact) <= CLASSIC_C * n * Fraction(EPS) * exact, (
                name, pair, got, float(exact))
            finite[name] += 1
    assert min(finite.values()) >= 150, finite
