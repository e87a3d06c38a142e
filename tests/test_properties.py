"""Property-based tests over extreme inputs.

Samples mix sizes from 2 to 400, heavy ties, magnitudes from 1e-300 to 1e300
and offsets up to 1e17. Each example is built from a drawn seed with numpy,
so a failing example shrinks to a small (n, scale, offset, ties, seed) tuple.
The dip's mirror property also draws multiples of 5e-324 beside values near 1.
The CLI properties draw whole CSV files instead: cells, names and row shapes.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import dip_lp_oracle, pareto_radius_oracle, read_csv_reference
from finestruct import (
    BadRange,
    ConstantFeature,
    FeatureSeries,
    FineStructError,
    ScalingMode,
    dagostino_skewness,
    describe,
    dip_statistic,
    pareto_radius,
    pde_estimate,
)
from finestruct import cli, density
from finestruct.cli import CsvError, main, read_csv_features
from finestruct.stattests import _skew_z

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=500, deadline=None, database=None)


@st.composite
def extreme_samples(draw, min_n=2, max_n=400, max_exp=300, max_offset=1e17) -> np.ndarray:
    n = draw(st.integers(min_n, max_n))
    scale = 10.0 ** draw(st.integers(-max_exp, max_exp))
    offset = draw(st.one_of(st.just(0.0), st.floats(-max_offset, max_offset)))
    levels = draw(st.sampled_from([None, 1, 4, 32]))  # None: no rounding, so no ties
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n)
    if levels is not None:
        z = np.round(z * levels) / levels
    return offset + scale * z


@PROPERTY_SETTINGS
@given(extreme_samples())
def test_pde_support_and_unit_mass(x):
    # a sample the density cannot be drawn for must fail with a typed error
    try:
        curve = pde_estimate(x)
    except FineStructError:
        return
    assert curve.kernels[0] >= x.min() and curve.kernels[-1] <= x.max()
    assert np.all(np.isfinite(curve.densities)) and np.all(curve.densities >= 0)
    assert abs(curve.integral() - 1.0) <= 1e-9


@PROPERTY_SETTINGS
@given(extreme_samples(), st.sampled_from([2, 7, 60, 5000]), st.integers(0, 2**32 - 1))
def test_pareto_radius_matches_oracle(x, cap, seed):
    # caps below n run the seeded subsample, and cap 2 its constant-subsample fallback
    with mock.patch.object(density, "DISTANCE_SAMPLE_CAP", cap):
        if x.min() == x.max() or not float(x.max()) - float(x.min()) < math.inf:
            with pytest.raises(FineStructError):
                pareto_radius(x, seed)
            return
        assert pareto_radius(x, seed) == pareto_radius_oracle(x, cap, seed)


@PROPERTY_SETTINGS
@given(extreme_samples(min_n=9))
def test_skewness_defined_alike(x):
    # describe (sorted order) and the skewness test (given order) share one
    # moments routine; neither warns, g1 is undefined for both or neither,
    # and where defined both give the same g1, z and p bit for bit, whether
    # the test reads describe's g1 (as feature_report does) or its own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1 = describe(FeatureSeries("x", x)).skewness_g1
        z, p = _skew_z(g1, x.size)
        try:
            tested = dagostino_skewness(x)
        except ConstantFeature:
            tested = None
    assert (tested is not None) == (not math.isnan(g1))
    if tested is not None:
        assert tested == (g1, z, p)
    else:
        assert math.isnan(z) and math.isnan(p)
    if x.min() == x.max():
        assert math.isnan(g1)


def _normal_shifts(x):
    """The k for which every nonzero |x| * 2**k stays a normal float."""
    e = [math.frexp(v)[1] for v in np.abs(x[x != 0]).tolist()]
    return st.integers(-1021 - min(e), 1024 - max(e)) if e else st.just(0)


def _dip_and_skewness(x):
    try:
        skewness = dagostino_skewness(x)
    except ConstantFeature:
        skewness = None
    return dip_statistic(x), skewness


@PROPERTY_SETTINGS
@given(extreme_samples(min_n=9), st.data())
def test_power_of_two_scaling_leaves_statistics_unchanged(x, data):
    # D, g1, z and p depend only on the power-of-two-scaled sample
    k = data.draw(_normal_shifts(x), label="k")
    assert _dip_and_skewness(np.ldexp(x, k)) == _dip_and_skewness(x)


def _normal(a) -> bool:
    """Whether no nonzero value of ``a`` is subnormal."""
    a = np.abs(np.asarray(a))
    return bool(np.all((a == 0) | (a >= np.finfo(float).tiny)))


@PROPERTY_SETTINGS
@given(extreme_samples(max_n=4000), st.integers(0, 2**32 - 1), st.data())
def test_power_of_two_scaling_scales_the_density(x, seed, data):
    # x * 2**k scales the radius and the kernels by 2**k and the densities by
    # 2**-k, bit for bit, wherever all of them stay normal floats
    k = data.draw(_normal_shifts(x), label="k")
    y = np.ldexp(x, k)
    try:
        r = pareto_radius(x, seed)
        r_y = pareto_radius(y, seed)
    except FineStructError:
        return
    assume(_normal([r, r_y]))
    assert r_y == np.ldexp(r, k)
    try:
        curve = pde_estimate(x, seed)
    except BadRange:  # the range holds too few floats for the grid, at any scale
        with pytest.raises(BadRange):
            pde_estimate(y, seed)
        return
    curve_y = pde_estimate(y, seed)
    assume(all(map(_normal, [curve.kernels, curve_y.kernels, curve.densities, curve_y.densities])))
    assert np.array_equal(curve_y.kernels, np.ldexp(curve.kernels, k))
    assert np.array_equal(curve_y.densities, np.ldexp(curve.densities, -k))


@st.composite
def subnormal_mixes(draw) -> np.ndarray:
    """Multiples of 5e-324 beside values of magnitude 0.1 to 1, of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tiny = 5e-324 * rng.integers(-40, 41, size=draw(st.integers(0, 60)))
    unit = rng.uniform(0.1, 1.0, size=draw(st.integers(max(0, 2 - tiny.size), 60)))
    signs = draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)]))
    return np.concatenate([tiny, unit * rng.choice(signs, size=unit.size)])


@PROPERTY_SETTINGS
@given(st.one_of(extreme_samples(), subnormal_mixes()))
def test_dip_bounds_and_mirror_symmetry(x):
    # 1/(2n) <= D <= 1/4, and D(-x) equals D(x) but for rounding
    d = dip_statistic(x)
    assert 0.5 / x.size <= d <= 0.25
    assert abs(dip_statistic(-x) - d) <= 1e-12 * d


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(extreme_samples(min_n=9), st.integers(0, 2**32 - 1))
def test_cli_test_output_ignores_row_order(x, seed):
    # `finestruct test --json` on a CSV and on the same rows shuffled
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run, values in (("a", x), ("b", np.random.default_rng(seed).permutation(x))):
            src = os.path.join(tmp, run + ".csv")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write("x\n" + "".join(f"{v!r}\n" for v in values.tolist()))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["test", src, "x", "--json", "--replicates", "9"])
            outputs.append((code, out.getvalue()))
    assert outputs[0] == outputs[1]


@PROPERTY_SETTINGS
@given(extreme_samples(max_n=20, max_exp=3, max_offset=1e3))
def test_dip_matches_lp_oracle(x):
    assert dip_statistic(x) == pytest.approx(dip_lp_oracle(x), abs=1e-7)


SPECIAL_CELLS = st.sampled_from(["", "NA", "inf", "-inf", "nan", "1.7e308", "-1.7e308",
                                 "5e-324", "1700000000000000000", "junk", " 3 ", "0x1p3"])
ORDINARY_CELLS = st.floats(-1e3, 1e3).map(repr)
OFFSET_CELLS = st.integers(-200, 200).map(lambda k: repr(1e17 + 16.0 * k))  # 16 = ulp(1e17)
MISSING_CELLS = st.sampled_from(["", "NA", "nan"])
COLUMN_CELLS = [  # a column of ordinary floats or of 1e17 offsets, some missing; or of anything
    st.one_of(ORDINARY_CELLS, ORDINARY_CELLS, ORDINARY_CELLS, MISSING_CELLS),
    st.one_of(OFFSET_CELLS, OFFSET_CELLS, OFFSET_CELLS, MISSING_CELLS),
    st.one_of(ORDINARY_CELLS, OFFSET_CELLS, SPECIAL_CELLS),
]
# a visible first character, then control characters among others; no letter of
# "nan" or "inf", so a name cannot put either word into the SVG
NAMES = st.tuples(st.sampled_from("xyzXYZ_\u00e9"),
                  st.text(alphabet="xyz-. \x01\x08\x0b\x0c\x1f\x7f\ufffe", max_size=3)).map("".join)


@st.composite
def csv_texts(draw) -> str:
    """A CSV file: a header, perhaps with a repeated name, then full, short or long rows."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique_by=str.strip))
    columns = [draw(st.sampled_from(COLUMN_CELLS)) for _ in names]
    shape = draw(st.sampled_from(["full", "full", "full", "short", "long", "duplicate"]))
    rows = []
    for _ in range(draw(st.one_of(st.integers(1, 12), st.integers(50, 80)))):
        cells = len(names) if shape != "short" else draw(st.integers(0, len(names)))
        rows.append(",".join(draw(col) for col in columns[:cells]))
    if shape == "long" and rows:
        rows[draw(st.integers(0, len(rows) - 1))] += ",1" * len(names)
    if shape == "duplicate":
        names.append(names[0])
    return "\n".join([",".join(names), *rows]) + "\n"


# cells float() reads after strip ('1_0', Arabic-Indic '١٢', '\x1c3\x1c') or
# rejects, and quoted cells holding a newline or a comma
READER_CELLS = st.one_of(ORDINARY_CELLS, st.sampled_from([
    "", "NA", "nan", "inf", "1_0", "\u0661\u0662", "\x1c3\x1c", " 2 ", "junk",
    '"3\n"', '"1\n2"', '"1,5"', '"\n"']))


@st.composite
def reader_csv_texts(draw) -> str:
    """Full, short and blank rows of READER_CELLS, perhaps one too-long row, in any line ending."""
    width = draw(st.integers(1, 3))
    rows = [",".join(draw(READER_CELLS) for _ in range(draw(st.integers(0, width))))
            for _ in range(draw(st.integers(0, 12)))]
    if rows and draw(st.integers(0, 5)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), ",".join(["1"] * (width + 1)))
    return draw(st.sampled_from(["\n", "\r\n"])).join([",".join(f"c{j}" for j in range(width)),
                                                          *rows]) + "\n"


def _read_columns(read, path):
    """Each column's (name, value bytes, missing count) from ``read``, or its error message."""
    try:
        return [(name, np.asarray(values).tobytes(), missing)
                for name, values, missing in read(path)]
    except (ValueError, CsvError) as exc:
        return str(exc)


def _assert_reader_matches_reference(text):
    # chunks of 1, 2 and 3 rows put every missing or padded cell at a chunk's
    # start, middle and end
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _read_columns(read_csv_reference, path)
        for chunk in (1, 2, 3, cli._CHUNK_ROWS):
            with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
                got = _read_columns(
                    lambda p: [(f.name, f.values, f.missing_count) for f in read_csv_features(p)],
                    path)
            assert got == expected, chunk


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(csv_texts(), reader_csv_texts()))
def test_reader_matches_per_cell_reference(text):
    _assert_reader_matches_reference(text)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.one_of(csv_texts(), reader_csv_texts()))
def test_split_reader_matches_per_cell_reference(text):
    # a 1-byte floor splits every file with a line below the header, unless a
    # quoted cell keeps it in one process
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _read_columns(read_csv_reference, path)
        for cpus in (2, 3, 4):
            for chunk in (1, cli._CHUNK_ROWS):
                with mock.patch.object(cli, "_SPLIT_BYTES", 1), \
                        mock.patch.object(cli, "_CHUNK_ROWS", chunk), \
                        mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                          create=True):
                    got = _read_columns(
                        lambda p: [(f.name, f.values, f.missing_count) for f in read_csv_features(p)],
                        path)
                assert got == expected, (cpus, chunk)
    with pytest.raises(ChildProcessError):  # every forked reader was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text", ["a,b\n", "a,b", "a\n\n", "a\n1\n2,3\n"],
                         ids=["header-only", "no-newline", "one-blank-row", "long-row"])
def test_reader_matches_reference_on_edge_files(text):
    _assert_reader_matches_reference(text)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(csv_texts(), st.sampled_from([m.value for m in ScalingMode]),
       st.sampled_from(["9", "10", "50"]), st.booleans())
def test_cli_on_any_csv_text(text, scaling, min_data, boxplot):
    # exit 0, 2 or 3 and no exception; on 0 a parseable, finite SVG, a test
    # report on every density glyph, and the same SVG and report bytes from a
    # second run
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.csv")
        with open(src, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        outputs = []
        for run in ("a", "b"):
            svg = os.path.join(tmp, run + ".svg")
            args = ["plot", src, "-o", svg, "--replicates", "9", "--scaling", scaling,
                    "--min-data", min_data] + ["--boxplot"] * boxplot
            code = main(args)
            assert code in (0, 2, 3)
            if code != 0:
                return
            with open(svg, "rb") as fh, open(os.path.join(tmp, run + ".report.json"), "rb") as rf:
                outputs.append((fh.read(), rf.read()))
        svg_bytes = outputs[0][0]
        ET.fromstring(svg_bytes)
        for feature in json.loads(outputs[0][1])["features"]:
            if feature["glyph"] == "density":
                assert feature["test"] is not None
        assert b"nan" not in svg_bytes and b"inf" not in svg_bytes
        assert outputs[0] == outputs[1]


def _plot(tmp, text, run, *options):
    """Exit code of ``plot`` on ``text``, and its report on exit 0."""
    src = os.path.join(tmp, run + ".csv")
    with open(src, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    code = main(["plot", src, "-o", os.path.join(tmp, run + ".svg"), "--replicates", "9",
                 *options])
    if code != 0:
        return code, None
    with open(os.path.join(tmp, run + ".report.json"), encoding="utf-8") as fh:
        return code, json.load(fh)


@st.composite
def csv_texts_and_added_column(draw) -> tuple[str, str]:
    """A CSV text, and the same text with one more column in front of the others."""
    text = draw(csv_texts())
    cells = draw(st.sampled_from(COLUMN_CELLS))
    header, *rows = text.split("\n")[:-1]
    wider = ["added," + header] + [draw(cells) + "," + row for row in rows]
    return text, "\n".join(wider) + "\n"


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(csv_texts_and_added_column(), st.sampled_from([m.value for m in ScalingMode]))
def test_added_column_leaves_other_entries_unchanged(texts, scaling):
    # far below the cell budget nothing is subsampled, so a column's report
    # entry, plotted or skipped, does not depend on its siblings
    with tempfile.TemporaryDirectory() as tmp:
        code, before = _plot(tmp, texts[0], "a", "--scaling", scaling, "--min-data", "10")
        if code != 0:
            return
        code, after = _plot(tmp, texts[1], "b", "--scaling", scaling, "--min-data", "10")
        assert code == 0
        for key in ("features", "skipped"):
            entries = {e["name"]: e for e in after[key]}
            for entry in before[key]:
                assert entries[entry["name"]] == entry
