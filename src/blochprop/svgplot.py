"""Tiny self-contained SVG line plots for discrepancy series.

Hand-rolled on purpose: the package's only plotting need is two polylines
over time with axes and a legend, and a plotting dependency would dwarf
the rest of the install.  Azimuth is drawn blue, elevation orange.
"""

from __future__ import annotations

from .propagation import ErrorSeries

AZ_COLOR = "#1f77b4"
EL_COLOR = "#ff7f0e"

WIDTH = 720
HEIGHT = 420
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 24
MARGIN_B = 48


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def _escape(text: str) -> str:
    """Text with &, < and > written as entities, as xml.sax.saxutils.escape does.

    That import pulls in urllib.request and costs tens of ms at start-up.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_series_svg(series: ErrorSeries, title: str = "") -> str:
    """Return an SVG document plotting delta_az and delta_el against t."""
    t = series.t
    if len(series) == 0:
        raise ValueError("cannot plot an empty series")
    t_lo, t_hi = float(t[0]), float(t[-1])
    y_lo = 0.0
    y_hi = max(float(series.delta_az.max()), float(series.delta_el.max()), 1e-9)
    y_hi *= 1.05

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    t_span = t_hi - t_lo if t_hi > t_lo else 1.0

    # on a float or, elementwise in the same operations, on an array
    def sx(v):
        return MARGIN_L + (v - t_lo) / t_span * plot_w

    def sy(v):
        return MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    xs = list(map("{:.2f}".format, sx(t).tolist()))

    def polyline(ys, color: str) -> str:
        pts = " ".join(map("{},{:.2f}".format, xs, sy(ys).tolist()))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for tv in _ticks(t_lo, t_hi):
        x = sx(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{tv:.3g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        y = sy(yv)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{yv:.3g}</text>'
        )
    parts.append(polyline(series.delta_az, AZ_COLOR))
    parts.append(polyline(series.delta_el, EL_COLOR))

    legend_x = MARGIN_L + 10
    parts.append(
        f'<line x1="{legend_x}" y1="{MARGIN_T + 12}" x2="{legend_x + 24}" '
        f'y2="{MARGIN_T + 12}" stroke="{AZ_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{legend_x + 30}" y="{MARGIN_T + 16}" font-size="12" '
        'font-family="sans-serif">azimuthal</text>'
    )
    parts.append(
        f'<line x1="{legend_x}" y1="{MARGIN_T + 30}" x2="{legend_x + 24}" '
        f'y2="{MARGIN_T + 30}" stroke="{EL_COLOR}" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{legend_x + 30}" y="{MARGIN_T + 34}" font-size="12" '
        'font-family="sans-serif">elevation</text>'
    )
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="16" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 10}" font-size="12" '
        'text-anchor="middle" font-family="sans-serif">t</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
