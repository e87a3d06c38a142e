"""Unimodality and skewness testing.

The dip statistic is the minimum over all unimodal distribution functions of
the sup distance to the empirical CDF, computed exactly on sorted data with
the greatest-convex-minorant / least-concave-majorant iteration. One kernel
dips a block of sorted samples of equal n at once: numpy prunes every row's
hull candidates and computes the chord gaps, and the walk between the two
fits runs per row in Python; numpy is the only dependency. The dip and the
skewness are computed on the sample scaled by a power of two
(``stats_core.unit_scaled``), so they depend only on its multiset of values:
row order and any x * 2**k that keeps the values normal leave them bit for
bit alike. The dip's p-value comes from seeded Monte Carlo against the
uniform null, which depends only on (seed, n, B) (Hartigan & Hartigan 1985):
``_null_dips`` caches it on that key, so every sample of equal n tested at one
seed and B reuses one null, and splits it across the usable CPUs with ``fork``
(``_split.split_fill``) without changing a byte. ``feature_report`` records
that seed in ``TestReport.seed``. Skewness uses the classic transformation of
g1 (from ``describe`` in ``feature_report``) to an approximately
standard-normal z.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._split import split_fill, usable_workers
from .errors import ConstantFeature, TooFewPoints
from .stats_core import (DescriptiveStats, FeatureSeries, check_count, check_real, check_seed, finite_values,
                         moments, seeded_rng, unit_scaled)

SKEW_UNDEFINED = "skewness undefined for a constant sample"
MIN_SKEW_N = 9  # fewest values the skewness test's Johnson S_U fit accepts
# A second null worker, forked, reaped and exited in a process that has
# imported finestruct.cli, costs 8-18 ms of CPU, and 80 000 points of null
# dips take 20-33 ms (n = 1000 and 500; 2-core VM): split in two, 160 000
# points take 39-40 ms of wall time instead of 52 ms, and 80 000 gain nothing.
# A null is split only so far that each worker gets at least this many points
# (n times replicates).
_MIN_SPLIT_POINTS = 80_000
# a null's replicates are dipped in blocks of about this many points (rows times n)
_BLOCK_POINTS = 1 << 16
# fewest points (per hull) for which the dip's hull rounds and chord gaps run in numpy
_NUMPY_POINTS = 384
# processes that computed each null of this process, in order (1 = not split)
_null_workers: list[int] = []


@dataclass(frozen=True)
class TestReport:
    """Dip and skewness results for one feature; seed keyed the dip null."""

    n: int
    dip_d: float
    dip_p: float
    dip_replicates: int
    skew_g1: float
    skew_z: float
    skew_p: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _hull_links(sides: tuple, windows: list, rounds: bool) -> None:
    """Link the greatest-convex-minorant knots of each window's points.

    A window (s, lo, hi) holds the points (x[j], j), lo <= j <= hi, of the side
    (flat, x, link): ``flat`` holds the values of the list ``x``, ascending
    within the window. Afterwards the chain hi, link[hi], link[link[hi]], ...
    steps down the window's knots to lo. With ``rounds`` the candidates are
    first pruned in numpy, all windows at once: drop the points not strictly
    below the chord from lo to hi, then delete every inner point that fails
    the strict convexity test against its neighbours, round after round, while
    a round removes at least an eighth of them and of ``_NUMPY_POINTS``. The
    stack loop then decides every knot with the same test; without rounds it
    links every prefix of the window, so each later window inside it has its
    chain already.
    """
    if not rounds:
        cands = [range(lo, hi + 1) for _, lo, hi in windows]
    else:
        v = np.concatenate([sides[s][0][lo:hi + 1] for s, lo, hi in windows])
        size = np.array([hi - lo + 1 for _, lo, hi in windows])
        first = np.cumsum(size) - size
        t = np.arange(v.size, dtype=float) - np.repeat(first, size)  # offset from lo
        u = np.repeat(size - 1.0, size) - t  # offset to hi
        ends = (t == 0) | (u == 0)
        keep = ends | ((np.repeat(v[first + size - 1], size) - v) * t < (v - np.repeat(v[first], size)) * u)
        while True:
            kept = keep.nonzero()[0]
            count = t.size
            t, v, ends = t[kept], v[kept], ends[kept]
            if 8 * (count - t.size) < max(count, _NUMPY_POINTS):
                break
            dv = v[1:] - v[:-1]
            dt = t[1:] - t[:-1]
            keep = ends.copy()
            keep[1:-1] |= dv[1:] * dt[:-1] < dv[:-1] * dt[1:]
        cuts = (t == 0).nonzero()[0].tolist()
        t = t.astype(np.int64).tolist()
        cands = [[lo + k for k in t[i:j]] for (_, lo, _), i, j in zip(windows, cuts, [*cuts[1:], len(t)])]
    for (s, low, _), c in zip(windows, cands):
        _, x, link = sides[s]
        m = low
        for j in itertools.islice(c, 1, None):
            xj = x[j]
            while m > low:
                mm = link[m]
                xm = x[m]
                if (xj - xm) * (m - mm) < (xm - x[mm]) * (j - m):
                    break
                m = mm
            link[j] = m
            m = j


def _chord_peaks(flat: np.ndarray, x: list, chords: list) -> list:
    """Largest signed gap of each chord (jb, je, s) of a fit, je - jb > 1.

    Its gaps are s * ((jj - jb + s) - (x[jj] - x[jb]) * c) for jb <= jj <= je,
    with c = (je - jb) / (x[je] - x[jb]) the chord's slope in ECDF steps per
    unit of x; negating a gap is exact, since fl(a - b) == -fl(b - a). Over a
    gap of a few subnormals beside values near 1, c overflows; the bounded
    ratios (x[jj] - x[jb]) / (x[je] - x[jb]) then stand in for x[jj] - x[jb]
    times c, so every gap stays finite. ``flat`` holds the values of the list
    ``x``; from ``_NUMPY_POINTS`` gaps on, they are computed in numpy.
    """
    if sum([je - jb + 1 for jb, je, _ in chords]) < _NUMPY_POINTS:
        peaks = []
        for jb, je, s in chords:
            xjb = x[jb]
            span = x[je] - xjb
            c = (je - jb) / span
            if c == math.inf:
                gaps = [(jj - jb + s) - (x[jj] - xjb) / span * (je - jb) for jj in range(jb, je + 1)]
            else:
                gaps = [(jj - jb + s) - (x[jj] - xjb) * c for jj in range(jb, je + 1)]
            peaks.append(max(gaps) if s == 1 else -min(gaps))
        return peaks
    jb, je, s = np.array(chords).T
    size = je - jb + 1
    first = np.cumsum(size) - size
    jj = np.arange(first[-1] + size[-1]) + np.repeat(jb - first, size)
    span = flat[je] - flat[jb]
    rise = flat[jj] - np.repeat(flat[jb], size)
    steps = jj - np.repeat(jb - s, size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed c is replaced below
        c = (je - jb) / span
        gap = steps - rise * np.repeat(c, size)
    steep = np.repeat(c == math.inf, size)
    if steep.any():
        gap[steep] = steps[steep] - rise[steep] / np.repeat(span, size)[steep] * np.repeat(je - jb, size)[steep]
    gap *= np.repeat(s, size)
    return np.maximum.reduceat(gap, first).tolist()


def _dips_sorted(X: np.ndarray) -> list:
    """Dip of each row of a 2-D block of ascending rows of equal length n, as a list.

    Hartigan & Hartigan's iteration, for all rows at once: fit the greatest
    convex minorant and least concave majorant of each row's ECDF on its
    shrinking modal interval [low..high]; the running maximum discrepancy
    (kept in units of 2n) is the dip, in [1/(2n), 1/4]. Ties are handled
    natively. ``low`` is a knot of the prefix minorant at every later
    ``high``, so the hull of [low..high] is that minorant's chain from
    ``high`` down to ``low``. The majorant is the minorant of the reflected
    row, whose every comparison multiplies the same two floats with both
    signs flipped. The walk between the two fits runs per row on its knots.
    """
    rows, n = X.shape
    flat = X.ravel()
    mirror = -flat[::-1]  # row r, reflected, is mirror row rows - 1 - r
    top = flat.size - 1  # flat index i mirrors to top - i
    x = flat.tolist()
    mn, mj = [0] * flat.size, [0] * flat.size  # minorant links of x and of the mirror
    sides = ((flat, x, mn), (mirror, mirror.tolist(), mj))
    dip = [1.0] * rows  # in 2n units; enforces the 1/(2n) lower bound
    low = list(range(0, flat.size, n))  # flat indices
    high = [i + n - 1 for i in low]
    linked = [False] * rows  # the links hold the chain of every window inside the current one
    live = [r for r in range(rows) if x[high[r]] != x[low[r]]]
    while live:
        fresh = [r for r in live if not linked[r]]
        if fresh:
            rounds = sum([high[r] - low[r] + 1 for r in fresh]) >= _NUMPY_POINTS
            windows = [(0, low[r], high[r]) for r in fresh] + [(1, top - high[r], top - low[r]) for r in fresh]
            _hull_links(sides, windows, rounds)
            if not rounds:
                for r in fresh:
                    linked[r] = True
        chords = []  # (first, last, sign) of each chord whose gaps count
        moved = []  # (row, its chords' slice, next low, next high)
        for r in live:
            lo, hi = low[r], high[r]
            gcm = [hi]  # minorant knots, from high down to low
            while gcm[-1] > lo:
                gcm.append(mn[gcm[-1]])
            l_gcm = ig = len(gcm) - 1
            ix = ig - 1

            lcm = [lo]  # majorant knots, from low up to high
            while lcm[-1] < hi:
                lcm.append(top - mj[top - lcm[-1]])
            l_lcm = ih = len(lcm) - 1
            iv = 1

            # largest distance between the two fits, walked from both ends; gcm
            # falls strictly from hi and lcm rises strictly to hi, so the walk
            # stops on gcm[ix] == lcm[iv] by (0, l_lcm) and never leaves either
            d = 0.0
            if l_gcm != 1 or l_lcm != 1:
                while True:
                    gcmix = gcm[ix]
                    lcmiv = lcm[iv]
                    if gcmix > lcmiv:
                        gcmil = gcm[ix + 1]
                        dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (gcmix - gcmil) / (x[gcmix] - x[gcmil])
                        iv += 1
                        if dx >= d:
                            d = dx
                            ig = ix + 1
                            ih = iv - 1
                    else:
                        lcmivl = lcm[iv - 1]
                        dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (x[lcmiv] - x[lcmivl]) - (gcmix - lcmivl - 1)
                        ix -= 1
                        if dx >= d:
                            d = dx
                            ig = ix + 1
                            ih = iv
                    if gcm[ix] == lcm[iv]:
                        break
            if d < dip[r]:
                continue

            # dip of each chord of the two fits within the modal interval: the
            # ECDF's largest rise above a minorant chord, from one step up, and
            # its largest fall below a majorant chord, from one step down
            first = len(chords)
            for j in range(ig, l_gcm):
                jb, je = gcm[j + 1], gcm[j]
                if je - jb > 1 and x[je] != x[jb]:
                    chords.append((jb, je, 1))
            for j in range(ih, l_lcm):
                jb, je = lcm[j], lcm[j + 1]
                if je - jb > 1 and x[je] != x[jb]:
                    chords.append((jb, je, -1))
            moved.append((r, slice(first, len(chords)), gcm[ig], lcm[ih]))

        peaks = _chord_peaks(flat, x, chords)
        live = []
        for r, own, lo, hi in moved:
            dip_new = max(peaks[own], default=0.0)
            if dip[r] < dip_new:
                dip[r] = dip_new
            if low[r] != lo or high[r] != hi:
                low[r] = lo
                high[r] = hi
                live.append(r)
    return [d / (2.0 * n) for d in dip]


def dip_statistic(values) -> float:
    """Hartigan-Hartigan dip of a finite sample; larger means less unimodal.

    The dip is scale-free, so it is computed on the sorted sample scaled by the
    power of two that puts max |x| in [0.5, 1) (``stats_core.unit_scaled``):
    D(x * 2**k) == D(x) bit for bit while x * 2**k stays normal, and a range
    near the float limit cannot overflow the chord slopes.
    """
    x = finite_values(values)
    if x.size < 2:
        raise TooFewPoints("dip_statistic needs at least 2 values")
    return _dips_sorted(unit_scaled(np.sort(x))[0][np.newaxis])[0]


def _null_range(n: int, lo: int, hi: int, seed: int) -> np.ndarray:
    """Dips of the null's replicates lo <= i < hi; replicate i draws from (seed, i).

    The replicates are drawn, sorted and dipped in blocks of about
    ``_BLOCK_POINTS`` points; no value depends on the block size.
    """
    out = np.empty(hi - lo)
    rows = max(1, _BLOCK_POINTS // n)
    for start in range(lo, hi, rows):
        block = np.empty((min(rows, hi - start), n))
        for i, row in enumerate(block, start):
            seeded_rng(seed, i).random(out=row)
        block.sort(axis=1)
        out[start - lo:start - lo + len(block)] = _dips_sorted(block)
    return out


@functools.cache
def _null_dips(n: int, b: int, seed: int) -> np.ndarray:
    """Dips of B seeded uniform(0,1) samples of size n (the dip-test null).

    Every null of a process is kept (8·B bytes per key), so a run never
    computes one twice, however many distinct n its columns have. The
    replicates are split into k contiguous ranges, one per usable CPU with
    at least ``_MIN_SPLIT_POINTS`` points each, and ``_split.split_fill``
    computes them at once in forked children; if that split fails (a
    mapping, a fork or a child), this process computes the whole null.
    Replicate i depends only on (seed, i), so the bytes are the same for
    every k and whichever process computes a range. ``_null_workers`` gets
    the number of processes that computed it: k, or 1 after a failed split.
    """
    k = usable_workers(min(b, n * b // _MIN_SPLIT_POINTS))
    bounds = [b * j // k for j in range(k + 1)]

    def fill(out, j):
        out[bounds[j]:bounds[j + 1]] = _null_range(n, bounds[j], bounds[j + 1], seed)

    if k > 1:
        try:
            null = split_fill(k, b, fill).copy()  # a plain array for the cache
        except OSError:  # no mapping, a fork or a child failed: computed here instead
            k = 1
    if k == 1:
        null = _null_range(n, 0, b, seed)
    _null_workers.append(k)
    null.setflags(write=False)
    return null


def dip_pvalue_mc(d: float, n: int, B: int, seed: int = 0) -> float:
    """Monte Carlo p-value of a dip value against the uniform null.

    Add-one estimator p = (1 + #{dip(U_b) >= d}) / (B + 1); each replicate b
    draws from its own (seed, b) stream, so results are reproducible and
    monotone in d for a fixed seed.
    """
    check_real("d", d, 0.0, math.inf)
    if (n := check_count("n", n)) < 2:
        raise TooFewPoints("dip p-value needs n >= 2")
    null = _null_dips(n, check_count("B", B), check_seed(seed))
    exceed = int(np.count_nonzero(null >= d))
    return (1 + exceed) / (B + 1)


def _skew_z(g1: float, n: int) -> tuple[float, float]:
    """(z ~ N(0,1), two-sided p) of g1 in n >= 9 values via the Johnson S_U fit; NaN for a NaN g1."""
    if n < MIN_SKEW_N:
        raise TooFewPoints(f"skewness test needs n >= {MIN_SKEW_N}, got {n}")
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z = delta * math.asinh(y / alpha)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def dagostino_skewness(values) -> tuple[float, float, float]:
    """Skewness test of a sample: (g1, z, two-sided p), g1 = m3/m2^1.5 by ``stats_core.moments``.

    Raises TooFewPoints below 9 values, ConstantFeature when g1 is undefined
    (a constant sample) and BadSpec when a value is NaN or infinite.
    """
    x = finite_values(values)
    g1 = moments(x)[1] if x.size else math.nan  # moments needs a value
    z, p = _skew_z(g1, x.size)
    if math.isnan(g1):
        raise ConstantFeature(SKEW_UNDEFINED)
    return g1, z, p


def feature_report(f: FeatureSeries, stats: DescriptiveStats, B: int = 2000, seed: int = 0) -> TestReport:
    """Dip test (B Monte Carlo replicates) and skewness test of one feature.

    ``stats`` is ``describe(f)``; the skewness test reads its g1. The skewness
    fields are NaN only when the sample is constant (min == max). Raises
    TooFewPoints below 2 values for the dip and below 9 for the skewness.
    """
    d = dip_statistic(f.values)
    z, skew_p = _skew_z(stats.skewness_g1, stats.n)  # its n check comes before the null
    dip_p = dip_pvalue_mc(d, len(f), B, seed)
    return TestReport(n=stats.n, dip_d=d, dip_p=dip_p, dip_replicates=B,
                      skew_g1=stats.skewness_g1, skew_z=z, skew_p=skew_p, seed=check_seed(seed))
