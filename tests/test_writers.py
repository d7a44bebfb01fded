"""Series writers: csv and svg bytes against per-cell oracles, and the svg title."""

import math
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest

from blochprop import svgplot
from blochprop.cli import _csv, series_to_csv
from blochprop.propagation import ErrorSeries, simulate
from blochprop.rotations import euler_matrix
from blochprop.svgplot import render_series_svg

SVG_NS = "{http://www.w3.org/2000/svg}"
PI_BELOW = math.nextafter(math.pi, 0.0)


def one_sample_series():
    # one sample: t_hi == t_lo, so the svg falls back to t_span = 1.0
    return ErrorSeries(t=[-0.0], delta_az=[5e-324], delta_el=[math.pi])


def edge_series():
    return ErrorSeries(
        t=[-2.5, -0.0, 5e-324, 1.0, math.pi, 7.0],
        delta_az=[-0.0, 5e-324, math.pi, PI_BELOW, 0.0, 1.0 / 3.0],
        delta_el=[math.pi, -0.0, 5e-324, 0.0, PI_BELOW, 2.0 / 3.0],
    )


def run_1000_steps(pipeline):
    v = np.array([0.48, 0.6, 0.64])
    return simulate(v, v @ euler_matrix((0.3, 2.9, -1.1)), (0.05, -0.06, 0.04), 1000, pipeline=pipeline)


SERIES = [
    pytest.param(one_sample_series, id="one-sample"),
    pytest.param(edge_series, id="edges"),
    pytest.param(lambda: ErrorSeries(t=[], delta_az=[], delta_el=[]), id="empty"),
] + [pytest.param(lambda p=p: run_1000_steps(p), id=f"1000-steps-{p}") for p in ("euler", "su2", "closed")]


@pytest.mark.parametrize("make", SERIES)
def test_series_csv_bytes_equal_the_per_cell_writer(make):
    series = make()
    want = _csv("t,delta_az,delta_el", zip(series.t.tolist(), series.delta_az.tolist(), series.delta_el.tolist()))
    assert series_to_csv(series) == want


def per_cell_polylines(series):
    """The two polyline elements of render_series_svg, one f-string a point."""
    t_lo, t_hi = float(series.t[0]), float(series.t[-1])
    y_lo = 0.0
    y_hi = max(float(series.delta_az.max()), float(series.delta_el.max()), 1e-9) * 1.05
    plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B
    t_span = t_hi - t_lo if t_hi > t_lo else 1.0

    def sx(v: float) -> float:
        return svgplot.MARGIN_L + (v - t_lo) / t_span * plot_w

    def sy(v: float) -> float:
        return svgplot.MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    ts = series.t.tolist()
    lines = []
    for ys, color in ((series.delta_az, svgplot.AZ_COLOR), (series.delta_el, svgplot.EL_COLOR)):
        pts = " ".join(f"{sx(tv):.2f},{sy(yv):.2f}" for tv, yv in zip(ts, ys.tolist()))
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    return lines


@pytest.mark.parametrize("make", [p for p in SERIES if p.id != "empty"])
def test_series_svg_bytes_equal_the_per_cell_writer(make):
    series = make()
    doc = render_series_svg(series, title="discrepancies per iteration")
    assert [ln for ln in doc.splitlines() if ln.startswith("<polyline")] == per_cell_polylines(series)


@pytest.mark.parametrize(
    "title", ["discrepancies per iteration", "discrepancies, 200 steps of pi/100", "1:1:2, one period"]
)
def test_plain_titles_are_written_verbatim(title):
    assert f'font-family="sans-serif">{title}</text>' in render_series_svg(edge_series(), title=title)


@pytest.mark.parametrize("title", ["a < b & c", "<svg>&amp;</svg>", "x > y \"quoted\" 'single'"])
def test_markup_in_the_title_is_escaped(title):
    doc = render_series_svg(edge_series(), title=title)
    assert f'font-family="sans-serif">{escape(title)}</text>' in doc
    root = ElementTree.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    assert [e.text for e in root.iter(f"{SVG_NS}text") if e.get("y") == "16"] == [title]
