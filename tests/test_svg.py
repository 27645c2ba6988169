"""Emitted SVG must be well-formed and structurally predictable."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from demandeval import EvaluationPair, spec_alpha_sweep, spec_decompose
from demandeval.svg import render_decomposition_svg, render_sweep_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def test_decomposition_chart_one_group_per_step(model_b_pair):
    text = render_decomposition_svg(spec_decompose(model_b_pair))
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    groups = root.findall(f"{SVG_NS}g")
    assert len(groups) == model_b_pair.n
    charged = [g for g in groups if len(g.findall(f"{SVG_NS}rect")) > 0]
    assert len(charged) == 7  # t = 8..14 carry cost


def test_long_decomposition_chart_bins_steps_per_pixel():
    rng = np.random.default_rng(7)
    n = 100_000
    actual = rng.uniform(0, 20, n) * (rng.random(n) < 0.1)
    forecast = rng.uniform(0, 20, n) * (rng.random(n) < 0.1)
    breakdown = spec_decompose(EvaluationPair.from_values(actual, forecast))
    groups = ET.fromstring(render_decomposition_svg(breakdown)).findall(f"{SVG_NS}g")
    assert len(groups) <= 640 - 2 * 48
    assert groups[0].get("data-t").startswith("1-")
    assert groups[-1].get("data-t").endswith(f"-{n}")
    drawn_opp = math.fsum(float(g.get("data-opportunity")) for g in groups)
    drawn_stock = math.fsum(float(g.get("data-stock")) for g in groups)
    params = breakdown.params
    assert drawn_opp == pytest.approx(params.alpha1 * breakdown.opp_unit_periods, rel=1e-9)
    assert drawn_stock == pytest.approx(params.alpha2 * breakdown.stock_unit_periods, rel=1e-9)


def test_decomposition_chart_all_zero(model_a_pair):
    from demandeval import EvaluationPair

    pair = EvaluationPair.from_values([0, 1, 0], [0, 1, 0])
    text = render_decomposition_svg(spec_decompose(pair))
    root = ET.fromstring(text)
    assert all(len(g.findall(f"{SVG_NS}rect")) == 0 for g in root.findall(f"{SVG_NS}g"))


def test_sweep_chart_one_polyline_per_curve(model_a_pair, model_b_pair):
    curves = {
        "model_a": spec_alpha_sweep(model_a_pair, 21),
        "model_b": spec_alpha_sweep(model_b_pair, 21),
    }
    root = ET.fromstring(render_sweep_svg(curves))
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    assert all(len(p.get("points").split()) == 21 for p in polylines)
