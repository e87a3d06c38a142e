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

from .errors import BadRange, ConstantFeature, TooFewPoints
from .stats_core import seeded_subsample

PARETO_QUANTILE = 0.18  # of the pairwise distances; a neighborhood holds ~20% of the data
LARGE_N_THRESHOLD = 1024  # above it the radius shrinks by (n/threshold)^(-1/5)
GRID_MIN = 64
GRID_MAX = 2048
SPACING_DIVISOR = 4.0  # kernel spacing is radius / SPACING_DIVISOR


@dataclass(frozen=True)
class PdeConfig:
    """Above ``distance_sample_cap`` points the radius is taken on a seeded subsample."""

    distance_sample_cap: int = 5000

    def __post_init__(self):
        if self.distance_sample_cap < 2:
            raise ValueError("distance_sample_cap must be at least 2")


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
        k = np.asarray(self.kernels, dtype=float)
        d = np.asarray(self.densities, dtype=float)
        if k.size != d.size or k.size < 2:
            raise ValueError("kernels/densities must be equal-length, size >= 2")
        if np.any(np.diff(k) <= 0):
            raise ValueError("kernels must be strictly increasing")
        if np.any(d < 0):
            raise ValueError("densities must be non-negative")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "kernels", k)
        object.__setattr__(self, "densities", d)

    def integral(self) -> float:
        return _trapezoid(self.densities, self.kernels)


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * 0.5 * np.diff(x)))


def _pairwise_diffs(sorted_values: np.ndarray) -> np.ndarray:
    """All n*(n-1)/2 non-negative pairwise differences of a sorted vector."""
    n = sorted_values.size
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        m = n - 1 - i
        out[pos:pos + m] = sorted_values[i + 1:] - sorted_values[i]
        pos += m
    return out


def pareto_radius(values, cfg: PdeConfig = PdeConfig(), seed: int = 0) -> float:
    """Neighborhood radius: the ``PARETO_QUANTILE`` of pairwise distances.

    Above ``distance_sample_cap`` points the distances are taken on a seeded
    uniform subsample. A zero quantile (heavy ties) escalates to the smallest
    strictly positive distance, which is always a gap between neighbors of
    the sorted sample. Above ``LARGE_N_THRESHOLD`` the radius shrinks by
    (n/threshold)^(-1/5) so dense samples keep local detail. A range that
    overflows the float range raises BadRange.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise TooFewPoints("pareto_radius needs at least 2 values")
    if np.all(x == x[0]):
        raise ConstantFeature("all values identical; no radius exists")
    if not float(x.max()) - float(x.min()) < math.inf:
        raise BadRange("the value range overflows the float range")
    cap = cfg.distance_sample_cap
    sample = np.sort(seeded_subsample(x, cap, seed) if n > cap else x)
    r = float(np.quantile(_pairwise_diffs(sample), PARETO_QUANTILE, overwrite_input=True))
    if r <= 0.0:
        gaps = np.diff(sample)
        if not gaps.any():  # subsample happened to be constant; fall back to the full data
            gaps = np.diff(np.unique(x))
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
    x = np.asarray(values, dtype=float).ravel()
    r = pareto_radius(x, seed=seed)
    lo = float(x.min())
    hi = float(x.max())
    step = r / SPACING_DIVISOR
    if not step > 0.0:
        raise BadRange(f"radius {r!r} is below float resolution")
    m = int(np.ceil(min((hi - lo) / step, GRID_MAX))) + 1
    m = min(max(m, GRID_MIN), GRID_MAX)
    kernels = np.linspace(lo, hi, m)
    if np.any(np.diff(kernels) <= 0):
        raise BadRange(f"[{lo!r}, {hi!r}] holds fewer than {m} distinct floats")
    xs = np.sort(x)
    counts = (
        np.searchsorted(xs, kernels + r, side="right")
        - np.searchsorted(xs, kernels - r, side="left")
    ).astype(float)
    with np.errstate(over="ignore", divide="ignore"):
        densities = counts / _trapezoid(counts, kernels)
    if not np.all(np.isfinite(densities)):
        raise BadRange(f"[{lo!r}, {hi!r}] is too narrow for a unit-mass density")
    return DensityCurve(kernels=kernels, densities=densities, radius=r)


def neighborhood_fraction(values, radius: float) -> float:
    """Mean fraction of the sample within ``radius`` of each point (self-inclusive)."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise TooFewPoints("neighborhood_fraction needs at least 1 value")
    xs = np.sort(x)
    counts = (
        np.searchsorted(xs, xs + radius, side="right")
        - np.searchsorted(xs, xs - radius, side="left")
    )
    return float(counts.mean() / x.size)
