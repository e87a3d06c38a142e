"""Descriptive statistics, quantiles, robust estimators and feature transforms.

Everything here is a pure function of its inputs. The quantile definition is
pinned to linear interpolation with index h = (n-1)*p so that results are
bit-reproducible across this package.
"""
from __future__ import annotations

import enum
import math
import numbers
import operator
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
        object.__setattr__(self, "values", finite_values(self.values))
        object.__setattr__(self, "missing_count", check_count("missing_count", self.missing_count, 0))

    @classmethod
    def clean(cls, name: str, raw) -> "FeatureSeries":
        """Build a series from raw numbers, dropping NaN/inf into missing_count."""
        arr = np.asarray(raw, dtype=float).ravel()
        keep = np.isfinite(arr)
        return cls(name, arr[keep], missing_count=arr.size - keep.sum())

    def __len__(self) -> int:
        return int(self.values.size)

    def with_values(self, values) -> "FeatureSeries":
        return FeatureSeries(self.name, values, self.missing_count)


def check_count(name: str, count: int, floor: int = 1, ceiling: int = MAX_COUNT) -> int:
    """``count`` as an int in [floor, ceiling] (by default a count of float64 values); else BadSpec."""
    try:
        count = operator.index(count)
    except TypeError:
        raise BadSpec(f"{name} must be an integer") from None
    if count < floor:
        raise BadSpec(f"{name} must be at least {floor}")
    if count > ceiling:
        raise BadSpec(f"{name} must be at most {ceiling}")
    return count


def check_seed(seed) -> int:
    """``seed`` as an int; BadSpec outside [0, 2**32), the seeds ``engine.derive_seed`` tells apart."""
    return check_count("seed", seed, 0, 2**32 - 1)


def check_real(name: str, value, low=-math.inf, high=math.inf, closed=False) -> float:
    """``value`` as a float: a finite real in (low, high), or [low, high] if ``closed``; else BadSpec."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (low <= x <= high if closed else low < x < high)):
        span = ("[{:g}, {:g}]" if closed else "({:g}, {:g})").format(low, high)
        rule = {"(-inf, inf)": "finite", "(0, inf)": "positive and finite"}.get(span, "in " + span)
        raise BadSpec(f"{name} must be {rule}, got {value!r}")
    return x


def as_member(kind: type[enum.Enum], value, name: str):
    """``kind(value)``, for a member of ``kind`` or its text; BadSpec naming ``name`` otherwise."""
    try:
        return kind(value)
    except ValueError:
        choices = ", ".join(map(str, kind))
        raise BadSpec(f"{name} must be one of {choices}, got {value!r}") from None


def finite_values(values) -> np.ndarray:
    """``values`` as a flat float array; BadSpec if any is NaN or infinite."""
    try:
        x = np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError):
        raise BadSpec("values must be real numbers") from None
    if not np.all(np.isfinite(x)):
        raise BadSpec("values must be finite")
    return x


def seeded_rng(seed) -> np.random.Generator:
    """numpy's PCG64 seeded with ``seed``, checked by ``check_seed``."""
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))


def seeded_subsample(values: np.ndarray, size: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of ``size`` values without replacement, in input order."""
    rng = seeded_rng(seed)
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
    v = finite_values(values)
    if v.size == 0:
        raise EmptyFeature("quantile of empty sample")
    p = check_real("p", p, 0.0, 1.0, closed=True)
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


def moments(x: np.ndarray) -> tuple[float, float, float]:
    """Mean, g1 and excess kurtosis of a sample; they depend only on its values.

    Population central moments m_k = sum((x-mean)^k)/n give g1 = m3/m2^1.5
    and excess kurtosis m4/m2^2 - 3; both are NaN when min == max, and the mean
    of a constant sample is its value. They are computed on ``unit_scaled(x)``
    with every sum exactly rounded (``math.fsum``), so no row order changes a
    bit, g1(-x) == -g1(x) exactly, and no moment overflows or underflows: once
    min < max the scaled m2 is positive. The mean scales back exactly.
    """
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        return lo, math.nan, math.nan
    s, e = unit_scaled(x)

    def mean(v):
        return math.fsum(v.tolist()) / v.size

    m1 = mean(s)
    d = s - m1
    m2 = mean(d * d)
    m3 = mean(d * d * d)
    m4 = mean(d * d * d * d)
    return math.ldexp(m1, e), m3 / m2 ** 1.5, m4 / (m2 * m2) - 3.0


def describe(f: FeatureSeries) -> DescriptiveStats:
    """Descriptive statistics of one feature.

    Quantiles are computed on the sorted values and the moments (see
    ``moments``) with exact sums, so the result is exactly permutation-invariant.
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


def transform(f: FeatureSeries, mode: ScalingMode | str) -> FeatureSeries:
    """Rescale a feature so differently-ranged features share one axis.

    Percentalize maps [min, max] to [0, 100]; Robust maps the 1%/99%
    quantile window to [0, 1]; CompleteRobust additionally clamps to [0, 1];
    Log is the symmetric base-10 log. A rescaling that overflows the float
    range raises BadRange. ``mode`` is a member or its text.
    """
    mode = as_member(ScalingMode, mode, "scaling")
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
