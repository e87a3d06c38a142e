"""Seeded synthetic samplers for benchmark experiments.

All samplers are deterministic functions of (parameters, seed); the RNG is
numpy's PCG64, constructed per call, never ambient state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, BadSpec
from .stats_core import FeatureSeries, check_count, seeded_rng

_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)  # E|Z| for Z ~ N(0,1)


@dataclass(frozen=True)
class GaussMixSpec:
    """Mixture components as (weight, mean, sd) triples; weights sum to 1."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), float(m), float(s)) for w, m, s in self.components)
        if not comps:
            raise BadSpec("mixture needs at least one component")
        if not all(math.isfinite(v) for comp in comps for v in comp):
            raise BadSpec("mixture weights, means and sds must be finite")
        if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-12:
            raise BadSpec("mixture weights must sum to 1")
        if any(w < 0 for w, _, _ in comps):
            raise BadSpec("mixture weights must be non-negative")
        if any(s <= 0 for _, _, s in comps):
            raise BadSpec("component sd must be positive")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class SkewSpec:
    """Skew parameter xi > 0; xi = 1 is the standard normal."""

    xi: float

    def __post_init__(self):
        if not (self.xi > 0 and math.isfinite(self.xi * self.xi + 1 / self.xi / self.xi)):
            raise BadSpec("xi must be positive, with xi**2 and xi**-2 finite")


def skew_normal_moments(xi: float) -> tuple[float, float]:
    """Analytic (mean, sd) of the unit-scale two-piece skew normal."""
    mean = _HALF_NORMAL_MEAN * (xi - 1.0 / xi)
    second = xi * xi - 1.0 + 1.0 / (xi * xi)
    var = second - mean * mean
    return mean, math.sqrt(var)


def sample_uniform(n: int, low: float, high: float, seed: int = 0) -> FeatureSeries:
    """n i.i.d. uniforms on [low, high)."""
    check_count("n", n)
    if low >= high:
        raise BadRange(f"need low < high, got [{low}, {high}]")
    if not math.isfinite(high - low):
        raise BadSpec(f"[{low}, {high}] must be finite with a finite width")
    rng = seeded_rng(seed)
    return FeatureSeries("uniform", rng.uniform(low, high, n))


def sample_gauss_mixture(n: int, spec: GaussMixSpec, seed: int = 0) -> FeatureSeries:
    """Gaussian mixture draw: pick a component by weight, then sample it."""
    check_count("n", n)
    rng = seeded_rng(seed)
    w = np.array([c[0] for c in spec.components])
    means = np.array([c[1] for c in spec.components])
    sds = np.array([c[2] for c in spec.components])
    comp = rng.choice(w.size, size=n, p=w)
    values = rng.normal(means[comp], sds[comp])
    if not np.isfinite(values).all():
        raise BadSpec("mixture draws overflow the float range")
    return FeatureSeries("gaussmix", values)


def sample_skew_normal(n: int, spec: SkewSpec, seed: int = 0) -> FeatureSeries:
    """Two-piece (inverse-scale-factor) skew normal draw.

    Draws a half-normal magnitude |Z|, then emits +|Z|*xi with probability
    xi^2/(1+xi^2) and -|Z|/xi otherwise. xi and 1/xi give mirror-image laws.
    The draw is standardized to mean 0 and variance 1 with the analytic
    moments, so xi is the only moving part.
    """
    check_count("n", n)
    xi = spec.xi
    rng = seeded_rng(seed)
    mag = np.abs(rng.normal(size=n))
    pos = rng.random(n) < xi * xi / (1.0 + xi * xi)
    values = np.where(pos, mag * xi, -mag / xi)
    mean, sd = skew_normal_moments(xi)
    return FeatureSeries("skewnorm", (values - mean) / sd)
