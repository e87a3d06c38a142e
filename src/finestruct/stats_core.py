"""Descriptive statistics, quantiles, robust estimators and feature transforms.

Everything here is a pure function of its inputs. The quantile definition is
pinned to linear interpolation with index h = (n-1)*p so that results are
bit-reproducible across this package.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadRange, BadSpec, ConstantFeature, DegenerateSpread, EmptyFeature

# normal-consistent IQR-to-sigma calibration: IQR of N(0,1) is ~1.349
IQR_TO_SIGMA = 1.349
# the most float64 values one array can address: 8 bytes each within sys.maxsize
MAX_COUNT = sys.maxsize // 8


@dataclass(frozen=True)
class FeatureSeries:
    """One named numeric feature with missing-value accounting.

    ``values`` holds only finite reals; entries dropped at ingestion are
    counted in ``missing_count``.
    """

    name: str
    values: np.ndarray
    missing_count: int = 0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError(f"feature {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", arr)
        if self.missing_count < 0:
            raise ValueError("missing_count must be non-negative")

    @classmethod
    def clean(cls, name: str, raw) -> "FeatureSeries":
        """Build a series from raw numbers, dropping NaN/inf into missing_count."""
        arr = np.asarray(raw, dtype=float).ravel()
        keep = np.isfinite(arr)
        return cls(name, arr[keep], missing_count=int(arr.size - keep.sum()))

    def __len__(self) -> int:
        return int(self.values.size)

    def with_values(self, values) -> "FeatureSeries":
        return FeatureSeries(self.name, values, self.missing_count)


def check_count(name: str, count: int) -> None:
    """BadSpec unless 1 <= count <= MAX_COUNT, a count of float64 values to draw."""
    if count < 1:
        raise BadSpec(f"{name} must be at least 1")
    if count > MAX_COUNT:
        raise BadSpec(f"{name} must be at most {MAX_COUNT} (8 bytes per value)")


def finite_values(values) -> np.ndarray:
    """``values`` as a flat float array; BadSpec if any is NaN or infinite."""
    x = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise BadSpec("values must be finite")
    return x


def seeded_subsample(values: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of ``size`` values without replacement, in input order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.choice(values.size, size=size, replace=False)
    idx.sort()
    return values[idx]


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    missing: int
    q01: float
    q25: float
    median: float
    q75: float
    q99: float
    mean: float
    skewness_g1: float  # NaN marks "undefined" (constant feature)
    excess_kurtosis: float

    def to_dict(self) -> dict:
        return asdict(self)


class ScalingMode(enum.Enum):
    NONE = "none"
    PERCENTALIZE = "percentalize"
    ROBUST = "robust"
    COMPLETE_ROBUST = "completerobust"
    LOG = "log"

    def __str__(self) -> str:
        return self.value


def quantile(values, p: float) -> float:
    """Linear-interpolation quantile of ascending-sorted ``values``.

    Uses index h = (n-1)*p; endpoints are the sample min/max.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptyFeature("quantile of empty sample")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    h = (v.size - 1) * p
    lo = math.floor(h)
    if lo >= v.size - 1:
        return float(v[-1])
    frac = h - lo
    a, b = float(v[lo]), float(v[lo + 1])
    if math.isfinite(b - a):
        return a + frac * (b - a)
    # the gap overflows (neighbours near -max and +max); weight the ends
    return (1.0 - frac) * a + frac * b


def unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x * 2**-e`` and ``e``, the power of two that puts max |x| in [0.5, 1).

    Exact unless a value falls below the normal float range.
    """
    e = math.frexp(max(-float(x.min()), float(x.max())))[1]
    return np.ldexp(x, -e), e


def _raw_moments(x: np.ndarray):
    mean = np.mean(x)
    d = x - mean
    m2 = np.mean(d * d)
    m3 = np.mean(d * d * d)
    m4 = np.mean(d * d * d * d)
    return mean, m2, m3 / m2 ** 1.5, m4 / (m2 * m2) - 3.0


def moments(x: np.ndarray) -> tuple[float, float, float]:
    """Mean, g1 and excess kurtosis of a sample, summed in the given order.

    Population central moments m_k = sum((x-mean)^k)/n give g1 = m3/m2^1.5
    and excess kurtosis m4/m2^2 - 3; both are NaN when min == max or m2 == 0
    (a constant sample, or a spread that underflows), and the mean of a
    constant sample is its value. When a moment overflows or underflows, they
    are computed again on the values scaled by a power of two below 1 in
    magnitude: g1 and kurtosis are scale-free and the mean scales back exactly.
    """
    lo, hi = float(x.min()), float(x.max())
    with np.errstate(all="ignore"):
        mean, m2, g1, kurt = _raw_moments(x)
        if m2 != 0.0 and not (math.isfinite(mean) and math.isfinite(g1 + kurt)):
            scaled, e = unit_scaled(x)
            mean, m2, g1, kurt = _raw_moments(scaled)
            mean = np.ldexp(mean, e)
    if lo == hi:
        return lo, math.nan, math.nan
    if m2 == 0.0:
        return float(mean), math.nan, math.nan
    return float(mean), float(g1), float(kurt)


def describe(f: FeatureSeries) -> DescriptiveStats:
    """Descriptive statistics of one feature.

    Quantiles and moments (see ``moments``) are computed on the sorted values,
    so the result is exactly permutation-invariant.
    """
    if f.values.size == 0:
        raise EmptyFeature(f"feature {f.name!r} has no values")
    s = np.sort(f.values)
    mean, g1, kurt = moments(s)
    return DescriptiveStats(
        n=int(s.size),
        missing=f.missing_count,
        q01=quantile(s, 0.01),
        q25=quantile(s, 0.25),
        median=quantile(s, 0.5),
        q75=quantile(s, 0.75),
        q99=quantile(s, 0.99),
        mean=mean,
        skewness_g1=g1,
        excess_kurtosis=kurt,
    )


def symmetric_log(x: np.ndarray) -> np.ndarray:
    """sign(x) * log10(1 + |x|); odd, continuous, 0 maps to 0."""
    return np.sign(x) * np.log10(1.0 + np.abs(x))


def transform(f: FeatureSeries, mode: ScalingMode) -> FeatureSeries:
    """Rescale a feature so differently-ranged features share one axis.

    Percentalize maps [min, max] to [0, 100]; Robust maps the 1%/99%
    quantile window to [0, 1]; CompleteRobust additionally clamps to [0, 1];
    Log is the symmetric base-10 log. A rescaling that overflows the float
    range raises BadRange.
    """
    x = f.values
    if x.size == 0:
        raise EmptyFeature(f"feature {f.name!r} has no values")
    if mode is ScalingMode.NONE:
        return f
    if mode is ScalingMode.LOG:
        return f.with_values(symmetric_log(x))
    with np.errstate(over="ignore", invalid="ignore"):
        if mode is ScalingMode.PERCENTALIZE:
            lo, hi = float(x.min()), float(x.max())
            if hi == lo:
                raise ConstantFeature(f"feature {f.name!r} is constant; cannot percentalize")
            y = (x - lo) / (hi - lo) * 100.0
        else:  # Robust / CompleteRobust
            s = np.sort(x)
            q01 = quantile(s, 0.01)
            q99 = quantile(s, 0.99)
            if q99 == q01:
                raise ConstantFeature(f"feature {f.name!r} has no spread between Q01 and Q99")
            y = (x - q01) / (q99 - q01)
            if mode is ScalingMode.COMPLETE_ROBUST:
                y = np.clip(y, 0.0, 1.0)
    if not np.all(np.isfinite(y)):
        raise BadRange(f"feature {f.name!r} overflows the float range under {mode} scaling")
    return f.with_values(y)


def robust_gaussian_fit(stats: DescriptiveStats) -> tuple[float, float]:
    """Outlier-resistant normal fit: median and IQR-calibrated sigma."""
    iqr = stats.q75 - stats.q25
    if iqr <= 0.0:
        raise DegenerateSpread("interquartile range is zero")
    return stats.median, iqr / IQR_TO_SIGMA
