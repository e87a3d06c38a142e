"""Per-feature analysis pipeline and plot-model assembly.

Each feature is independently subsampled, transformed, routed to a glyph
(density, jittered scatter, or Dirac line) and tested; the resulting glyphs
are ordered and share one y axis. The subsample, PDE and jitter streams of a
feature derive from the global seed and the feature name. The dip-test null
depends only on (global seed, n, B), so columns of equal n share one cached
null, and ``finestruct test`` gives the same dip p as ``plot`` for a column
that is neither subsampled nor transformed. Adding a column therefore leaves
the others unchanged while no column is subsampled; the cell budget is split
across columns, so a subsampled column's n depends on the column count.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .density import DensityCurve, pde_estimate
from .errors import BadSpec, DegenerateSpread, FineStructError, NoPlottableFeatures
from .stats_core import (
    DescriptiveStats,
    FeatureSeries,
    ScalingMode,
    as_member,
    check_count,
    check_real,
    check_seed,
    derive_seed,
    describe,
    robust_gaussian_fit,
    seeded_subsample,
    substream,
    transform,
)
from .stattests import MIN_SKEW_N, TestReport, feature_report

JITTER_HALF_WIDTH = 0.3  # jitter offsets live in [-0.3, 0.3] column widths

# substream tags; above any plausible MC replicate index i, so apart from stats_core.seeded_rng's (seed, i)
_TAG_SUBSAMPLE = 2**33 + 1
_TAG_PDE = 2**33 + 2
_TAG_JITTER = 2**33 + 3


class Ordering(enum.Enum):
    COLUMNWISE = "columnwise"
    ALPHABETICAL = "alphabetical"
    STATISTICS = "statistics"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EngineConfig:
    sample_size_cap: int = 500_000  # total cell budget across all features
    min_data: int = 50
    min_unique: int = 12
    alpha: float = 0.05
    scaling: ScalingMode = ScalingMode.NONE
    ordering: Ordering = Ordering.STATISTICS
    robust_gaussian: bool = True
    boxplot_overlay: bool = False
    replicates: int = 2000
    seed: int = 0

    def __post_init__(self):
        # a mode's text is stored as its member, so the engine's identity tests hold
        object.__setattr__(self, "scaling", as_member(ScalingMode, self.scaling, "scaling"))
        object.__setattr__(self, "ordering", as_member(Ordering, self.ordering, "ordering"))
        object.__setattr__(self, "seed", check_seed(self.seed))
        # every density glyph gets both tests; a feature of one value is a Dirac line
        floors = {"sample_size_cap": 1, "min_data": MIN_SKEW_N, "min_unique": 2, "replicates": 1}
        for name, floor in floors.items():
            check_count(name, getattr(self, name), floor)
        for name in ("robust_gaussian", "boxplot_overlay"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise BadSpec(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.sample_size_cap < self.min_data:
            raise BadSpec("sample_size_cap must be at least min_data")
        check_real("alpha", self.alpha, 0.0, 1.0)


@dataclass(frozen=True)
class GaussianOverlay:
    """Robust normal fit; the renderer samples its pdf on the glyph's kernels."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class BoxOverlay:
    q25: float
    median: float
    q75: float
    whisker_low: float
    whisker_high: float


@dataclass(frozen=True)
class GlyphModel:
    """Visual form and verdict of one feature.

    kind is one of "density" (mirrored PDE curve), "jitter" (1D scatter with
    deterministic horizontal offsets) or "dirac" (a single horizontal line).
    shape_class is one of "Nonunimodal", "Skewed", "GaussianLike" (density
    glyphs) or "Discrete" (jitter and Dirac glyphs); report holds the dip and
    skewness tests of a density glyph.
    """

    feature: str
    kind: str
    stats: DescriptiveStats
    shape_class: str
    curve: DensityCurve | None = None
    points: np.ndarray | None = None          # jitter values
    offsets: np.ndarray | None = None         # jitter offsets in [-0.3, 0.3]
    dirac_value: float | None = None
    gaussian_overlay: GaussianOverlay | None = None
    box_overlay: BoxOverlay | None = None
    report: TestReport | None = None

    def extent(self) -> tuple[float, float]:
        if self.kind == "density":
            return float(self.curve.kernels[0]), float(self.curve.kernels[-1])
        if self.kind == "jitter":
            return float(self.points.min()), float(self.points.max())
        return self.dirac_value, self.dirac_value


@dataclass(frozen=True)
class SkipDiagnostic:
    feature: str
    reason: str


@dataclass(frozen=True)
class PlotModel:
    """Ordered glyphs plus shared-axis metadata; the renderer's sole input."""

    glyphs: tuple
    skipped: tuple
    y_range: tuple[float, float]
    scaling_applied: ScalingMode
    title: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "title": self.title,
            "scaling": str(self.scaling_applied),
            "y_range": list(self.y_range),
            "features": [
                {
                    "name": g.feature,
                    "glyph": g.kind,
                    "shape_class": g.shape_class,
                    "radius": g.curve.radius if g.curve is not None else None,
                    "gaussian_overlay": g.gaussian_overlay is not None,
                    "stats": g.stats.to_dict(),
                    "test": g.report.to_dict() if g.report is not None else None,
                }
                for g in self.glyphs
            ],
            "skipped": [{"name": s.feature, "reason": s.reason} for s in self.skipped],
        }


def subsample(f: FeatureSeries, cap_per_feature: int, seed: int = 0) -> FeatureSeries:
    """Seeded uniform sample without replacement down to the cap."""
    values = seeded_subsample(f.values, check_count("cap_per_feature", cap_per_feature), seed)
    return f if values is f.values else f.with_values(values)


def _van_der_corput(start: int, count: int) -> np.ndarray:
    """Base-2 radical-inverse sequence; low-discrepancy in (0, 1).

    Bits are added from the least significant up; every partial sum is dyadic
    and exact, so the values equal those of a scalar digit loop.
    """
    k = np.arange(start, start + count, dtype=np.uint64)
    out = np.zeros(count)
    denom = 1.0
    while k.any():
        denom *= 2.0
        out += (k & 1) / denom
        k >>= 1
    return out


def _jitter_offsets(n: int, seed: int) -> np.ndarray:
    start = substream(seed, _TAG_JITTER) % 997 + 1
    return (_van_der_corput(start, n) - 0.5) * (2.0 * JITTER_HALF_WIDTH)


def _box_overlay(stats: DescriptiveStats, values: np.ndarray) -> BoxOverlay:
    step = 1.5 * (stats.q75 - stats.q25)
    lo = float(values[values >= stats.q25 - step].min())
    hi = float(values[values <= stats.q75 + step].max())
    return BoxOverlay(stats.q25, stats.median, stats.q75, lo, hi)


def _shape_class(report: TestReport, alpha: float) -> str:
    if report.dip_p < alpha:
        return "Nonunimodal"
    if report.skew_p < alpha:
        return "Skewed"
    return "GaussianLike"


def analyze_feature(f: FeatureSeries, cfg: EngineConfig) -> GlyphModel:
    """Route one (already subsampled and transformed) feature to its glyph.

    Features below the data or uniqueness thresholds get a jittered scatter
    (a Dirac line when only one unique value exists); everything else gets a
    density glyph with tests, and optionally the Gaussian and box overlays.
    The Gaussian overlay needs a report whose shape class is GaussianLike,
    i.e. neither test rejects at level alpha.
    """
    stats = describe(f)
    xs = np.sort(f.values)  # not np.unique, which imports numpy.ma; != cannot overflow as np.diff can
    n_unique = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))
    feature_seed = derive_seed(cfg.seed, f.name)

    if len(f) < cfg.min_data or n_unique < cfg.min_unique:
        if n_unique == 1:
            return GlyphModel(f.name, "dirac", stats, "Discrete", dirac_value=float(f.values[0]))
        return GlyphModel(f.name, "jitter", stats, "Discrete", points=f.values.copy(),
                          offsets=_jitter_offsets(len(f), feature_seed))

    curve = pde_estimate(f.values, seed=substream(feature_seed, _TAG_PDE))
    report = feature_report(f, stats, cfg.replicates, cfg.seed)
    shape_class = _shape_class(report, cfg.alpha)
    overlay = None
    if cfg.robust_gaussian and shape_class == "GaussianLike":
        try:
            mu, sigma = robust_gaussian_fit(stats)
        except DegenerateSpread:
            pass
        else:
            overlay = GaussianOverlay(mu, sigma)
    box = _box_overlay(stats, f.values) if cfg.boxplot_overlay else None
    return GlyphModel(f.name, "density", stats, shape_class, curve=curve,
                      gaussian_overlay=overlay, box_overlay=box, report=report)


def order_features(glyphs, mode: Ordering | str) -> list[int]:
    """Permutation of feature indices for the configured ordering.

    ``mode`` is a member or its text. Statistics (the default) puts
    Gaussian-like features first: sort by dip p-value descending, then
    |skew z| ascending, then name; discrete glyphs go last.
    """
    mode = as_member(Ordering, mode, "ordering")
    if not glyphs:
        raise NoPlottableFeatures("nothing to order")
    idx = list(range(len(glyphs)))
    if mode is Ordering.COLUMNWISE:
        return idx
    if mode is Ordering.ALPHABETICAL:
        return sorted(idx, key=lambda i: glyphs[i].feature)

    def key(i):
        a = glyphs[i]
        if a.report is None:
            return (1, 0.0, 0.0, a.feature)
        return (0, -a.report.dip_p, abs(a.report.skew_z), a.feature)

    return sorted(idx, key=key)


def build_plot_model(features, cfg: EngineConfig) -> PlotModel:
    """Full pipeline: subsample, transform, analyze, order, share one axis.

    A failing feature is recorded as a skip diagnostic and never aborts the
    batch; if every feature fails, NoPlottableFeatures is raised.
    """
    features = list(features)
    if not features:
        raise NoPlottableFeatures("no input features")
    cap = max(cfg.min_data, cfg.sample_size_cap // len(features))

    glyphs: list[GlyphModel] = []
    skipped: list[SkipDiagnostic] = []
    for f in features:
        try:
            g = subsample(f, cap, substream(derive_seed(cfg.seed, f.name), _TAG_SUBSAMPLE))
            g = transform(g, cfg.scaling)
            glyphs.append(analyze_feature(g, cfg))
        except FineStructError as exc:
            skipped.append(SkipDiagnostic(f.name, f"{type(exc).__name__}: {exc}"))
    if not glyphs:
        raise NoPlottableFeatures("all features were skipped")

    glyphs = [glyphs[i] for i in order_features(glyphs, cfg.ordering)]

    lo = min(g.extent()[0] for g in glyphs)
    hi = max(g.extent()[1] for g in glyphs)
    span = hi - lo
    pad = 0.01 * span if span > 0 else 0.5
    if pad == math.inf:  # hi - lo overflows; the pad itself need not
        pad = 0.01 * hi - 0.01 * lo
    if lo - pad == hi + pad:  # one value so large (|v| >= 2**53) that v ± 0.5 rounds to v
        pad = 0.01 * abs(lo)
    top = sys.float_info.max
    return PlotModel(
        glyphs=tuple(glyphs),
        skipped=tuple(skipped),
        y_range=(max(lo - pad, -top), min(hi + pad, top)),
        scaling_applied=cfg.scaling,
    )
