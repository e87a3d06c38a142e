"""Seeded synthetic samplers for benchmark experiments.

All samplers are deterministic functions of (parameters, seed); the RNG is
numpy's PCG64, constructed per call, never ambient state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRange, BadSpec
from .stats_core import FeatureSeries, check_count, check_real, seeded_rng

_HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)  # E|Z| for Z ~ N(0,1)


@dataclass(frozen=True)
class GaussMixSpec:
    """Mixture components as (weight, mean, sd) triples; weights sum to 1."""

    components: tuple

    def __post_init__(self):
        try:
            comps = [tuple(comp) for comp in self.components]
        except TypeError:  # not a sequence of sequences
            comps = None
        if not comps or any(len(comp) != 3 for comp in comps):
            raise BadSpec("a mixture needs one or more (weight, mean, sd) triples")
        comps = tuple((check_real("weight", w, 0.0, 1.0, closed=True), check_real("mean", m),
                       check_real("sd", s, 0.0, math.inf)) for w, m, s in comps)
        if abs(sum(w for w, _, _ in comps) - 1.0) > 1e-12:
            raise BadSpec("mixture weights must sum to 1")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class SkewSpec:
    """Skew parameter xi > 0; xi = 1 is the standard normal."""

    xi: float

    def __post_init__(self):
        xi = check_real("xi", self.xi, 0.0, math.inf)
        if not math.isfinite(xi * xi + 1 / xi / xi):  # products and quotients: ** raises OverflowError
            raise BadSpec("xi must be positive, with xi**2 and xi**-2 finite")
        object.__setattr__(self, "xi", xi)


def skew_normal_moments(xi: float) -> tuple[float, float]:
    """Analytic (mean, sd) of the unit-scale two-piece skew normal; ``SkewSpec`` checks xi."""
    xi = SkewSpec(xi).xi
    mean = _HALF_NORMAL_MEAN * (xi - 1.0 / xi)
    second = xi * xi - 1.0 + 1.0 / (xi * xi)
    var = second - mean * mean
    return mean, math.sqrt(var)


def sample_uniform(n: int, low: float, high: float, seed: int = 0) -> FeatureSeries:
    """n i.i.d. uniforms on [low, high)."""
    check_count("n", n)
    low, high = check_real("low", low), check_real("high", high)
    if low >= high:
        raise BadRange(f"need low < high, got [{low}, {high}]")
    if not math.isfinite(high - low):
        raise BadSpec(f"[{low}, {high}] must have a finite width")
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
