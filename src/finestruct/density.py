"""Pareto density estimation.

Density at a kernel position is the number of data points within a fixed
radius; the radius is a low quantile of the pairwise distances, so that a
neighborhood holds roughly 20% of the data. The resulting curve is defined
only on [min(data), max(data)] and never extends past the observed range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, BadSpec, ConstantFeature, TooFewPoints
from .stats_core import check_real, finite_values, seeded_subsample, unit_scaled

PARETO_QUANTILE = 0.18  # of the pairwise distances; a neighborhood holds ~20% of the data
LARGE_N_THRESHOLD = 1024  # above it the radius shrinks by (n/threshold)^(-1/5)
GRID_MIN = 64
GRID_MAX = 2048
SPACING_DIVISOR = 4.0  # kernel spacing is radius / SPACING_DIVISOR
DISTANCE_SAMPLE_CAP = 5000  # above it the radius is taken on a seeded subsample


@dataclass(frozen=True)
class DensityCurve:
    """Kernel positions, densities and the radius used to count neighbors.

    Kernels span exactly [min(data), max(data)]; densities are normalized so
    the trapezoidal integral over the kernels is 1. Outside the kernel range
    the density is exactly 0 by contract.
    """

    kernels: np.ndarray
    densities: np.ndarray
    radius: float

    def __post_init__(self):
        k = finite_values(self.kernels)
        d = finite_values(self.densities)
        if k.size != d.size or k.size < 2:
            raise BadSpec("kernels/densities must be equal-length, size >= 2")
        if np.any(np.diff(k) <= 0):
            raise BadSpec("kernels must be strictly increasing")
        if np.any(d < 0):
            raise BadSpec("densities must be non-negative")
        check_real("radius", self.radius, 0.0, math.inf)
        object.__setattr__(self, "kernels", k)
        object.__setattr__(self, "densities", d)

    def integral(self) -> float:
        return _trapezoid(self.densities, self.kernels)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(x)))


def _row_ends(xs: np.ndarray, t: float) -> np.ndarray:
    """Per row i of sorted ``xs``: the first j > i whose computed xs[j] - xs[i] exceeds ``t``.

    A row with no such j ends at xs.size. Rounding is monotone, so each row's
    computed differences rise with j and the pairs at or below a finite ``t``
    are a prefix of the row. The boundary of ``xs + t`` is only a candidate,
    because that sum rounds too; it is corrected on the computed differences
    one block of equal values at a time.
    """
    m = xs.size
    first = np.arange(1, m + 1)
    with np.errstate(over="ignore"):
        ends = np.maximum(np.searchsorted(xs, xs + t, side="right"), first)
    padded = np.append(xs, np.inf)
    while (up := np.flatnonzero(padded[ends] - xs <= t)).size:
        ends[up] = np.searchsorted(xs, xs[ends[up]], side="right")
    while (down := np.flatnonzero((ends > first) & (xs[ends - 1] - xs > t))).size:
        ends[down] = np.searchsorted(xs, xs[ends[down] - 1], side="left")
    return ends


def _pairs_before(ends: np.ndarray) -> int:
    """Number of pairs that ``_row_ends`` boundaries leave at or below their threshold."""
    return int(ends.sum()) - ends.size * (ends.size + 1) // 2


def _band(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Computed differences of the pairs lo[i] <= j < hi[i], in row-major order."""
    ends = np.cumsum(hi - lo)
    rows = np.repeat(np.arange(xs.size), hi - lo)
    return xs[np.arange(ends[-1]) + (hi - ends)[rows]] - xs[rows]


def _bits(d) -> int:
    """Int64 bit pattern of a non-negative difference; abs maps -0.0 to 0.0."""
    return int(np.float64(abs(d)).view(np.int64))


def _max_at_or_below(xs: np.ndarray, ends: np.ndarray):
    """Largest computed difference at or below the threshold whose row ends are ``ends``."""
    below = np.flatnonzero(ends > np.arange(1, xs.size + 1))
    return (xs[ends[below] - 1] - xs[below]).max()


def _min_above(xs: np.ndarray, ends: np.ndarray):
    """Smallest computed difference above the threshold whose row ends are ``ends``."""
    above = np.flatnonzero(ends < xs.size)
    return (xs[ends[above]] - xs[above]).min()


def _pair_diff_ranks(xs: np.ndarray, k: int) -> tuple[float, float]:
    """Ranks ``k`` and ``k + 1`` (0-based) of the computed pairwise differences of sorted ``xs``.

    Needs k + 2 <= m(m-1)/2 for m = xs.size, and holds O(m) memory. The
    differences are non-negative floats, which order as their int64 bit
    patterns, so the bracket (t_lo, t_hi] of both ranks is bisected on
    those bits: ``lo`` and ``hi`` are its row ends, ``c_lo`` and ``c_hi``
    the pairs at or below each bound. Each round moves one bound to the
    midpoint and snaps it to the computed differences on its side of it,
    which leaves the pairs at or below it the same, so a block of tied
    differences ends in a few counts. Each round at least halves the bits
    between the bounds, so it ends within 64 counts. A midpoint with
    exactly k + 1 pairs at or below it settles both ranks; a bracket one
    float wide holds only pairs equal to t_hi; a band of at most 4m pairs
    is extracted and partitioned.
    """
    m = xs.size
    lo, hi = np.arange(1, m + 1), np.full(m, m)
    c_lo, c_hi = 0, m * (m - 1) // 2
    b_lo, b_hi = -1, _bits(xs[-1] - xs[0])
    while c_hi - c_lo > 4 * m:
        if b_hi - b_lo == 1:
            t = float(np.int64(b_hi).view(np.float64))
            return t, t
        b = (b_lo + b_hi) // 2
        at = _row_ends(xs, float(np.int64(b).view(np.float64)))
        c = _pairs_before(at)
        if c <= k:
            lo, c_lo, b_lo = at, c, _bits(_min_above(xs, at)) - 1
        elif c >= k + 2:
            hi, c_hi, b_hi = at, c, _bits(_max_at_or_below(xs, at))
        else:  # c == k + 1: rank k lies at or below the midpoint, rank k + 1 above it
            return float(_max_at_or_below(xs, at)), float(_min_above(xs, at))
    vals = _band(xs, lo, hi)
    vals.partition([k - c_lo, k + 1 - c_lo])
    return float(vals[k - c_lo]), float(vals[k + 1 - c_lo])


def pareto_radius(values, seed: int = 0) -> float:
    """Neighborhood radius: the ``PARETO_QUANTILE`` of pairwise distances.

    Above ``DISTANCE_SAMPLE_CAP`` points the distances are taken on a seeded
    uniform subsample. The quantile is ``np.quantile``'s linear one over all
    m(m-1)/2 differences, found by exact selection in O(m) memory. A zero
    quantile (heavy ties) escalates to the smallest strictly positive
    distance, which is always a gap between neighbors of the sorted sample.
    Above ``LARGE_N_THRESHOLD`` the radius shrinks by
    (n/threshold)^(-1/5) so dense samples keep local detail. A range that
    overflows the float range raises BadRange, a NaN or inf value BadSpec.
    """
    x = finite_values(values)
    n = x.size
    if n < 2:
        raise TooFewPoints("pareto_radius needs at least 2 values")
    if np.all(x == x[0]):
        raise ConstantFeature("all values identical; no radius exists")
    if not float(x.max()) - float(x.min()) < math.inf:
        raise BadRange("the value range overflows the float range")
    sample = np.sort(seeded_subsample(x, DISTANCE_SAMPLE_CAP, seed))
    pairs = sample.size * (sample.size - 1) // 2
    if pairs == 1:
        r = float(sample[1] - sample[0])
    else:  # np.quantile's default "linear" method over all pairwise differences
        h = (pairs - 1) * PARETO_QUANTILE
        k = math.floor(h)
        g = h - k
        a, b = _pair_diff_ranks(sample, k)
        r = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    if r <= 0.0:
        gaps = np.diff(sample)
        if not gaps.any():  # subsample happened to be constant; fall back to the full data
            gaps = np.diff(np.sort(x))
        r = float(gaps[gaps > 0.0].min())
    if n > LARGE_N_THRESHOLD:
        r *= (n / LARGE_N_THRESHOLD) ** (-0.2)
    return r


def pde_estimate(values, seed: int = 0) -> DensityCurve:
    """Pareto density estimate on an even kernel grid spanning the data range.

    The kernel count is ceil(range / (radius/SPACING_DIVISOR)) + 1, clamped to
    [GRID_MIN, GRID_MAX]. Raw density at kernel g is |{x : |x - g| <= r}|,
    then the vector is normalized to unit trapezoidal integral. A range that
    holds fewer distinct floats than kernels, or a density that overflows,
    raises BadRange.
    """
    x = finite_values(values)
    r = pareto_radius(x, seed=seed)
    lo = float(x.min())
    hi = float(x.max())
    step = r / SPACING_DIVISOR
    if not step > 0.0:
        raise BadRange(f"radius {r!r} is below float resolution")
    m = int(np.ceil(min((hi - lo) / step, GRID_MAX))) + 1
    m = min(max(m, GRID_MIN), GRID_MAX)
    with np.errstate(over="ignore"):  # step * (m - 1) may round past the float maximum; linspace then sets hi
        kernels = np.linspace(lo, hi, m)
    if np.any(np.diff(kernels) <= 0):
        raise BadRange(f"[{lo!r}, {hi!r}] holds fewer than {m} distinct floats")
    xs = np.sort(x)
    unit, e = unit_scaled(kernels)  # a range near the float limit must not overflow the integral
    with np.errstate(over="ignore", divide="ignore"):  # kernels + r may overflow to inf: all count
        counts = (
            np.searchsorted(xs, kernels + r, side="right")
            - np.searchsorted(xs, kernels - r, side="left")
        ).astype(float)
        densities = np.ldexp(counts / _trapezoid(counts, unit), -e)
    if not np.all(np.isfinite(densities)):
        raise BadRange(f"[{lo!r}, {hi!r}] is too narrow for a unit-mass density")
    return DensityCurve(kernels=kernels, densities=densities, radius=r)
