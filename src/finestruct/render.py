"""Deterministic SVG rendering of a plot model.

One vertical column per feature: density glyphs are closed polygons mirrored
about the column axis (per-feature width-normalized so every glyph spans its
column), jitter glyphs are small circles, Dirac glyphs a horizontal line.
Output is plain SVG 1.1 text, byte-identical for identical inputs.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .engine import PlotModel
from .errors import BadSpec, NoPlottableFeatures
from .stats_core import check_real, real_values

SVG_NS = "http://www.w3.org/2000/svg"

MARGIN_LEFT = 70.0
MARGIN_RIGHT = 20.0
MARGIN_TOP = 45.0
MARGIN_BOTTOM = 60.0
WIDTH_PX = 960
HEIGHT_PX = 640
COLUMN_WIDTH_FRACTION = 0.9  # share of its column a glyph may span
GLYPH_FILL = "#9aa0a6"
GAUSSIAN_COLOR = "magenta"
BOX_COLOR = "black"
REFERENCE_LINE_COLOR = "red"
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# one jitter point: what ``_tag`` writes for a circle, filled in by str.format
_JITTER_CIRCLE = ('<circle cx="{:.2f}" cy="{:.2f}" r="2" fill="' + GLYPH_FILL
                  + '" fill-opacity="0.7" />')


@dataclass(frozen=True)
class AxisTransform:
    """Affine map from data-space y values (a float or an array) to pixel rows."""

    y_low: float
    y_high: float
    px_top: float
    px_height: float

    def to_px(self, y: float | np.ndarray) -> float | np.ndarray:
        span = self.y_high - self.y_low
        if span == math.inf:  # halving every term is exact and stays finite
            frac = (self.y_high / 2 - y / 2) / (self.y_high / 2 - self.y_low / 2)
        else:
            frac = (self.y_high - y) / span
        return self.px_top + frac * self.px_height


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering finite [lo, hi] with 1-2-5 stepping."""
    lo, hi = check_real("lo", lo), check_real("hi", hi)
    span = hi - lo
    if span <= 0:
        return [lo]
    if span == math.inf:  # hi - lo overflows; take its log from the halves
        mag = 10.0 ** math.floor(math.log10(hi / 2 - lo / 2) + math.log10(2.0))
    else:
        mag = 10.0 ** math.floor(math.log10(span))
    best = None
    for scale in (mag * 10.0, mag, mag / 10.0, mag / 100.0):
        for mult in (1.0, 2.0, 5.0):
            step = scale * mult
            if not step > 0:  # 10 ** -324 and below underflow to 0
                continue
            first = math.ceil(lo / step)
            last = math.floor(hi / step)
            count = last - first + 1
            if count < 4 or count > 14:
                continue
            score = abs(count - 8)
            if best is None or score < best[0] or (score == best[0] and step > best[1]):
                best = (score, step, first, count)
    if best is None:  # degenerate span; fall back to endpoints
        return [lo, hi]
    _, step, first, count = best
    return [(first + i) * step for i in range(count)]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:g}"


def _tag(out: list, tag: str, attrs: dict, text: str = "") -> None:
    """Append one leaf element: attributes in insertion order, and `` />``
    when there is no text. Every attribute value is a number or a constant
    of this module, so only the text is escaped: each character XML 1.0
    forbids becomes U+FFFD, and ``& < >`` become entities."""
    head = "<" + tag + "".join([f' {k}="{v}"' for k, v in attrs.items()])
    if not text:
        out.append(head + " />")
        return
    text = _NOT_XML_CHAR.sub("\ufffd", text)
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.append(f"{head}>{text}</{tag}>")


def gaussian_overlay_path(mu: float, sigma: float, kernels, width_scale: float = 1.0) -> np.ndarray:
    """Normal pdf sampled on the glyph's kernels, scaled like the density.

    ``width_scale`` is the per-feature factor (half-width / max density) the
    renderer applies to the density itself, so the two outlines compare.
    """
    mu, sigma = check_real("mu", mu), check_real("sigma", sigma, 0.0, math.inf)
    k = real_values(kernels)
    with np.errstate(over="ignore"):  # a z that squares to inf gives exp(-inf) = 0, the right value
        pdf = np.exp(-0.5 * ((k - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return pdf * width_scale


def _polygon_points(xs, ys) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))


def default_axis(model: PlotModel) -> AxisTransform:
    """The axis transform render_svg uses for this model."""
    plot_h = HEIGHT_PX - MARGIN_TOP - MARGIN_BOTTOM
    return AxisTransform(model.y_range[0], model.y_range[1], MARGIN_TOP, plot_h)


def render_svg(model: PlotModel, reference_lines=()) -> str:
    """Render a plot model to an SVG 1.1 document.

    ``reference_lines`` are data-space y values drawn as horizontal lines
    across the plot; one that is not a real number, or has no finite pixel row
    (NaN, inf, or too far off the y range), raises BadSpec.
    """
    if not model.glyphs:
        raise NoPlottableFeatures("plot model has no glyphs")
    plot_w = WIDTH_PX - MARGIN_LEFT - MARGIN_RIGHT
    axis = default_axis(model)
    plot_h = axis.px_height
    k = len(model.glyphs)
    colw = plot_w / k
    half = colw * COLUMN_WIDTH_FRACTION / 2.0

    out = ['<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="{SVG_NS}" version="1.1" width="{WIDTH_PX}" height="{HEIGHT_PX}"'
           f' viewBox="0 0 {WIDTH_PX} {HEIGHT_PX}">']
    _tag(out, "rect", {
        "x": "0", "y": "0", "width": str(WIDTH_PX), "height": str(HEIGHT_PX),
        "fill": "white",
    })
    if model.title:
        _tag(out, "text", {
            "x": _fmt(WIDTH_PX / 2.0), "y": _fmt(MARGIN_TOP * 0.6),
            "text-anchor": "middle", "font-family": "sans-serif", "font-size": "16",
        }, model.title)

    # y axis with ticks
    out.append('<g stroke="black" stroke-width="1">')
    _tag(out, "line", {
        "x1": _fmt(MARGIN_LEFT), "y1": _fmt(MARGIN_TOP),
        "x2": _fmt(MARGIN_LEFT), "y2": _fmt(MARGIN_TOP + plot_h),
    })
    for tick in nice_ticks(model.y_range[0], model.y_range[1]):
        py = axis.to_px(tick)
        _tag(out, "line", {
            "x1": _fmt(MARGIN_LEFT - 5.0), "y1": _fmt(py),
            "x2": _fmt(MARGIN_LEFT), "y2": _fmt(py),
        })
        _tag(out, "text", {
            "x": _fmt(MARGIN_LEFT - 8.0), "y": _fmt(py + 4.0),
            "text-anchor": "end", "font-family": "sans-serif", "font-size": "11",
            "stroke": "none", "fill": "black",
        }, _tick_label(tick))
    out.append("</g>")

    for i, glyph in enumerate(model.glyphs):
        cx = MARGIN_LEFT + (i + 0.5) * colw
        out.append("<g>")  # never empty: a glyph draws at least one element
        if glyph.kind == "density":
            curve = glyph.curve
            dmax = float(curve.densities.max())
            widths = curve.densities / dmax * half
            ys = axis.to_px(curve.kernels).tolist()
            xs = [cx - wd for wd in widths] + [cx + wd for wd in reversed(widths)]
            pys = ys + list(reversed(ys))
            _tag(out, "polygon", {
                "points": _polygon_points(xs, pys),
                "fill": GLYPH_FILL,
                "stroke": "none",
            })
            if glyph.gaussian_overlay is not None:
                ov = glyph.gaussian_overlay
                ow = gaussian_overlay_path(ov.mu, ov.sigma, curve.kernels, half / dmax)
                for sign in (-1.0, 1.0):
                    pts = _polygon_points([cx + sign * wd for wd in ow], ys)
                    _tag(out, "polyline", {
                        "points": pts,
                        "fill": "none",
                        "stroke": GAUSSIAN_COLOR,
                        "stroke-width": "1.5",
                    })
            if glyph.box_overlay is not None:
                _draw_box(out, glyph.box_overlay, cx, colw, axis)
        elif glyph.kind == "jitter":
            xs = (cx + glyph.offsets * colw).tolist()
            ys = axis.to_px(glyph.points).tolist()
            out.extend(map(_JITTER_CIRCLE.format, xs, ys))
        else:  # dirac
            py = axis.to_px(glyph.dirac_value)
            _tag(out, "line", {
                "x1": _fmt(cx - half), "y1": _fmt(py),
                "x2": _fmt(cx + half), "y2": _fmt(py),
                "stroke": GLYPH_FILL, "stroke-width": "2.5",
            })
        out.append("</g>")
        _tag(out, "text", {
            "x": _fmt(cx), "y": _fmt(MARGIN_TOP + plot_h + 18.0),
            "text-anchor": "middle", "font-family": "sans-serif", "font-size": "11",
        }, glyph.feature)

    for ref in real_values(reference_lines).tolist():
        py = axis.to_px(ref)
        if not math.isfinite(py):
            raise BadSpec(f"reference line {ref!r} has no finite pixel row")
        _tag(out, "line", {
            "x1": _fmt(MARGIN_LEFT), "y1": _fmt(py),
            "x2": _fmt(MARGIN_LEFT + plot_w), "y2": _fmt(py),
            "stroke": REFERENCE_LINE_COLOR, "stroke-width": "1",
        })
    out.append("</svg>")
    return "".join(out)


def _draw_box(out: list, box, cx: float, colw: float, axis: AxisTransform) -> None:
    bw = 0.08 * colw
    y25 = axis.to_px(box.q25)
    y75 = axis.to_px(box.q75)
    _tag(out, "rect", {
        "x": _fmt(cx - bw), "y": _fmt(y75),
        "width": _fmt(2 * bw), "height": _fmt(y25 - y75),
        "fill": "none", "stroke": BOX_COLOR, "stroke-width": "1.2",
    })
    _tag(out, "line", {
        "x1": _fmt(cx - bw), "y1": _fmt(axis.to_px(box.median)),
        "x2": _fmt(cx + bw), "y2": _fmt(axis.to_px(box.median)),
        "stroke": BOX_COLOR, "stroke-width": "1.8",
    })
    for q, wv in ((box.q25, box.whisker_low), (box.q75, box.whisker_high)):
        _tag(out, "line", {
            "x1": _fmt(cx), "y1": _fmt(axis.to_px(q)),
            "x2": _fmt(cx), "y2": _fmt(axis.to_px(wv)),
            "stroke": BOX_COLOR, "stroke-width": "1.2",
        })
        _tag(out, "line", {
            "x1": _fmt(cx - bw * 0.7), "y1": _fmt(axis.to_px(wv)),
            "x2": _fmt(cx + bw * 0.7), "y2": _fmt(axis.to_px(wv)),
            "stroke": BOX_COLOR, "stroke-width": "1.2",
        })
