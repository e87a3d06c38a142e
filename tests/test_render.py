import dataclasses
import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from finestruct import (
    EngineConfig,
    FeatureSeries,
    NoPlottableFeatures,
    PlotModel,
    ScalingMode,
    build_plot_model,
    gaussian_overlay_path,
    nice_ticks,
    render_svg,
)
from finestruct import render as render_mod
from finestruct.render import GLYPH_FILL, _NOT_XML_CHAR, _fmt, _tag, default_axis

FAST = EngineConfig(replicates=200, seed=7)
SVGNS = "{http://www.w3.org/2000/svg}"


def _model(seed=1, n=1500):
    rng = np.random.default_rng(seed)
    feats = [
        FeatureSeries("norm", rng.normal(size=n)),
        FeatureSeries("few", rng.normal(size=30)),
        FeatureSeries("const", np.full(100, 1.5)),
    ]
    return build_plot_model(feats, FAST)


def _polygons(svg):
    root = ET.fromstring(svg)
    return [p.get("points") for p in root.iter(f"{SVGNS}polygon")]


class TestRenderSvg:
    def test_valid_xml_and_finite_coordinates(self):
        svg = render_svg(_model())
        ET.fromstring(svg)  # raises if malformed
        for num in re.findall(r'points="([^"]+)"', svg):
            for tok in re.split(r"[ ,]", num):
                assert np.isfinite(float(tok))

    def test_density_polygon_mirrored(self):
        model = _model()
        svg = render_svg(model)
        pts = _polygons(svg)[0]
        coords = [tuple(map(float, pair.split(","))) for pair in pts.split(" ")]
        m = len(coords) // 2
        left, right = coords[:m], coords[m:][::-1]
        for (xl, yl), (xr, yr) in zip(left, right):
            assert yl == yr
            # both sides equidistant from the column axis
            mid = (xl + xr) / 2.0
            assert abs((xr - mid) - (mid - xl)) < 1e-9

    def test_polygon_extent_inside_data_range(self):
        model = _model()
        svg = render_svg(model)
        axis = default_axis(model)
        glyph = model.glyphs[0]
        assert glyph.kind == "density"
        lo, hi = glyph.extent()
        coords = [tuple(map(float, pair.split(","))) for pair in _polygons(svg)[0].split(" ")]
        ys = [y for _, y in coords]
        assert min(ys) >= axis.to_px(hi) - 0.01  # px axis is inverted
        assert max(ys) <= axis.to_px(lo) + 0.01

    def test_byte_deterministic(self):
        model = _model()
        assert render_svg(model) == render_svg(model)

    def test_reference_line_roundtrip(self):
        model = _model()
        svg = render_svg(model, reference_lines=(0.5, -1.0))
        axis = default_axis(model)
        root = ET.fromstring(svg)
        red = [el for el in root.iter(f"{SVGNS}line") if el.get("stroke") == "red"]
        assert len(red) == 2
        for el, want in zip(red, (0.5, -1.0)):
            y_px = float(el.get("y1"))
            assert abs(y_px - axis.to_px(want)) <= 0.5

    def test_jitter_and_dirac_present(self):
        svg = render_svg(_model())
        root = ET.fromstring(svg)
        assert len(list(root.iter(f"{SVGNS}circle"))) == 30
        assert any(el.get("stroke-width") == "2.5" for el in root.iter(f"{SVGNS}line"))

    def test_glyph_stays_in_column(self):
        model = _model()
        svg = render_svg(model)
        colw = (960 - 70 - 20) / len(model.glyphs)
        coords = [tuple(map(float, p.split(","))) for p in _polygons(svg)[0].split(" ")]
        xs = [x for x, _ in coords]
        assert max(xs) - min(xs) <= colw + 1e-9

    def test_gaussian_overlay_drawn_when_present(self):
        model = _model()
        has_overlay = any(g.gaussian_overlay is not None for g in model.glyphs)
        svg = render_svg(model)
        root = ET.fromstring(svg)
        polylines = [el for el in root.iter(f"{SVGNS}polyline")
                     if el.get("stroke") == "magenta"]
        assert bool(polylines) == has_overlay

    def test_box_overlay_monotone_in_pixels(self):
        cfg_engine = EngineConfig(replicates=200, seed=7, boxplot_overlay=True)
        rng = np.random.default_rng(2)
        model = build_plot_model([FeatureSeries("n", rng.normal(size=2000))], cfg_engine)
        axis = default_axis(model)
        box = model.glyphs[0].box_overlay
        pys = [axis.to_px(v) for v in
               (box.whisker_low, box.q25, box.median, box.q75, box.whisker_high)]
        assert pys == sorted(pys, reverse=True)  # higher data value, smaller pixel row

    def test_empty_model_raises(self):
        empty = PlotModel(glyphs=(), skipped=(), y_range=(0, 1),
                          scaling_applied=ScalingMode.NONE)
        with pytest.raises(NoPlottableFeatures):
            render_svg(empty)

    def test_no_external_references(self):
        svg = render_svg(_model())
        assert "href" not in svg and "<script" not in svg


def test_names_escaped_in_text_and_attributes_plain():
    # title and column names come from outside the program and go into text
    # content only; every attribute value is a number or a constant, so
    # attributes need no escaper
    specials = '&<>"\'\r\n\t\x01'
    rng = np.random.default_rng(4)
    feats = [
        FeatureSeries("norm" + specials, rng.normal(size=600)),
        FeatureSeries(specials + "few", rng.normal(size=30)),
        FeatureSeries("c" + specials + "c", np.full(100, 1.5)),
    ]
    cfg = EngineConfig(replicates=200, seed=7, boxplot_overlay=True)
    model = dataclasses.replace(build_plot_model(feats, cfg), title="T" + specials)
    svg = render_svg(model, reference_lines=(0.5, -1.0))
    root = ET.fromstring(svg)

    def parsed(text):  # XML end-of-line handling turns \r\n and \r into \n
        return _NOT_XML_CHAR.sub("\ufffd", text).replace("\r\n", "\n").replace("\r", "\n")

    labels = [el.text for el in root.findall(f"{SVGNS}text")]
    assert labels == [parsed(model.title)] + [parsed(g.feature) for g in model.glyphs]
    attr_ok = re.compile(r"^[-0-9A-Za-z.,:/#() ]*$")
    for el in root.iter():
        for value in el.attrib.values():
            assert attr_ok.match(value), value
    assert {el.tag for el in root.iter()} >= {
        f"{SVGNS}{t}" for t in ("polygon", "polyline", "circle", "rect", "line")}


class TestGaussianOverlayPath:
    def test_peak_at_mu(self):
        kernels = np.linspace(-3, 5, 401)
        path = gaussian_overlay_path(1.0, 0.7, kernels)
        assert kernels[int(np.argmax(path))] == pytest.approx(1.0, abs=0.02)

    def test_symmetry_about_mu(self):
        t = np.linspace(0, 3, 50)
        up = gaussian_overlay_path(2.0, 1.3, 2.0 + t)
        down = gaussian_overlay_path(2.0, 1.3, 2.0 - t)
        assert np.max(np.abs(up - down)) < 1e-12

    def test_width_scale_applied(self):
        k = np.linspace(-1, 1, 11)
        assert np.allclose(gaussian_overlay_path(0, 1, k, 3.0),
                           3.0 * gaussian_overlay_path(0, 1, k))

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_overlay_path(0.0, 0.0, [0.0, 1.0])

    def test_kernels_at_the_float_limit(self):
        # z**2 overflows to inf there, and exp(-inf) = 0 is the pdf's value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = gaussian_overlay_path(0.0, 1.0, [-1.7e308, 0.0, 1.7e308])
        assert path.tolist() == [0.0, 1.0 / math.sqrt(2.0 * math.pi), 0.0]


class TestNiceTicks:
    def test_count_and_steps(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            lo = rng.normal() * 100
            hi = lo + abs(rng.normal()) * 100 + 1e-6
            ticks = nice_ticks(lo, hi)
            assert 2 <= len(ticks) <= 14
            assert all(lo - 1e-9 <= t <= hi + 1e-9 for t in ticks)
            if len(ticks) >= 2:
                steps = np.diff(ticks)
                assert np.allclose(steps, steps[0])
                mant = steps[0] / 10 ** np.floor(np.log10(steps[0]))
                assert min(abs(mant - m) for m in (1, 2, 5, 10)) < 1e-9

    def test_overflowing_span(self):
        top = 1.7976931348623157e308
        ticks = nice_ticks(-top, top)
        assert 4 <= len(ticks) <= 14
        assert all(np.isfinite(ticks)) and all(-top <= t <= top for t in ticks)

    def test_subnormal_span_falls_back_to_ends(self):
        # 10 ** -324 underflows to a zero step
        assert nice_ticks(0.0, 5e-324) == [0.0, 5e-324]


class TestInfiniteSharedRange:
    """Columns at the ends of the float range share one finite y axis."""

    @pytest.mark.parametrize("end", [1.7e308, 1.7976931348623157e308])
    def test_dirac_columns_at_both_ends(self, end):
        feats = [FeatureSeries("lo", np.full(100, -end)), FeatureSeries("hi", np.full(100, end))]
        model = build_plot_model(feats, FAST)
        lo, hi = model.y_range
        assert np.isfinite(lo) and np.isfinite(hi) and lo <= -end and hi >= end
        svg = render_svg(model, reference_lines=(0.0, end))
        assert "inf" not in svg and "nan" not in svg
        axis = default_axis(model)
        assert axis.to_px(hi) == pytest.approx(axis.px_top)
        assert axis.to_px(lo) == pytest.approx(axis.px_top + axis.px_height)
        assert axis.to_px(0.0) == pytest.approx(axis.px_top + axis.px_height / 2)



def _reference_circles(glyph, cx, colw, axis):
    """A jitter glyph's circles, one ``_tag`` call and one scalar ``to_px`` per point."""
    out = []
    for value, off in zip(glyph.points, glyph.offsets):
        _tag(out, "circle", {
            "cx": _fmt(cx + off * colw),
            "cy": _fmt(axis.to_px(float(value))),
            "r": "2",
            "fill": GLYPH_FILL,
            "fill-opacity": "0.7",
        })
    return "".join(out)


@pytest.mark.parametrize("levels", [
    [-3.0, -1.0, 0.5, 2.0, 7.25],
    [-1.7e308, -1e300, 0.0, 1e300, 1.7e308],  # the shared span overflows to inf
], ids=["finite-axis", "infinite-span"])
def test_array_coordinates_match_per_point_reference(levels):
    # two jitter glyphs and a density glyph; the glyph groups are the "<g>"
    # elements without attributes
    rng = np.random.default_rng(5)
    feats = [FeatureSeries("lv", rng.choice(levels, size=700)),
             FeatureSeries("few", rng.choice(levels, size=40)),
             FeatureSeries("norm", rng.normal(size=400))]
    model = build_plot_model(feats, FAST)
    axis = default_axis(model)
    assert (axis.y_high - axis.y_low == np.inf) == (levels[-1] == 1.7e308)
    assert sorted(g.kind for g in model.glyphs) == ["density", "jitter", "jitter"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        svg = render_svg(model)
    colw = (render_mod.WIDTH_PX - render_mod.MARGIN_LEFT - render_mod.MARGIN_RIGHT) / 3
    groups = re.findall(r"<g>(.*?)</g>", svg)
    assert len(groups) == 3
    for i, (glyph, body) in enumerate(zip(model.glyphs, groups)):
        cx = render_mod.MARGIN_LEFT + (i + 0.5) * colw
        if glyph.kind == "jitter":
            assert body == _reference_circles(glyph, cx, colw, axis)
        else:  # the polygon's rows, down one side and up the other
            ys = [_fmt(axis.to_px(float(v))) for v in glyph.curve.kernels]
            points = re.search(r'<polygon points="([^"]+)"', body).group(1)
            assert [pair.split(",")[1] for pair in points.split(" ")] == ys + ys[::-1]
