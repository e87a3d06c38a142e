"""Fine structure of univariate distributions.

Pareto density estimation, unimodality and skewness testing, robust
transforms, and mirrored-density SVG plots of many features at once.
"""

__version__ = "0.1.0"

from .density import (
    DensityCurve,
    pareto_radius,
    pde_estimate,
)
from .engine import (
    BoxOverlay,
    EngineConfig,
    GaussianOverlay,
    GlyphModel,
    Ordering,
    PlotModel,
    SkipDiagnostic,
    analyze_feature,
    build_plot_model,
    order_features,
    subsample,
)
from .errors import (
    BadRange,
    BadSpec,
    ConstantFeature,
    DegenerateSpread,
    EmptyFeature,
    FineStructError,
    NoPlottableFeatures,
    TooFewPoints,
)
from .generators import (
    GaussMixSpec,
    SkewSpec,
    sample_gauss_mixture,
    sample_skew_normal,
    sample_uniform,
    skew_normal_moments,
)
from .render import AxisTransform, gaussian_overlay_path, nice_ticks, render_svg
from .stats_core import (
    DescriptiveStats,
    FeatureSeries,
    ScalingMode,
    derive_seed,
    describe,
    quantile,
    robust_gaussian_fit,
    symmetric_log,
    transform,
)
from .stattests import (
    TestReport,
    dagostino_skewness,
    dip_pvalue_mc,
    dip_statistic,
    feature_report,
)

__all__ = [
    "__version__",
    "AxisTransform",
    "BadRange",
    "BadSpec",
    "BoxOverlay",
    "ConstantFeature",
    "DegenerateSpread",
    "DensityCurve",
    "DescriptiveStats",
    "EmptyFeature",
    "EngineConfig",
    "FeatureSeries",
    "FineStructError",
    "GaussMixSpec",
    "GaussianOverlay",
    "GlyphModel",
    "NoPlottableFeatures",
    "Ordering",
    "PlotModel",
    "ScalingMode",
    "SkewSpec",
    "SkipDiagnostic",
    "TestReport",
    "TooFewPoints",
    "analyze_feature",
    "build_plot_model",
    "dagostino_skewness",
    "derive_seed",
    "describe",
    "dip_pvalue_mc",
    "dip_statistic",
    "feature_report",
    "gaussian_overlay_path",
    "nice_ticks",
    "order_features",
    "pareto_radius",
    "pde_estimate",
    "quantile",
    "render_svg",
    "robust_gaussian_fit",
    "sample_gauss_mixture",
    "sample_skew_normal",
    "sample_uniform",
    "skew_normal_moments",
    "subsample",
    "symmetric_log",
    "transform",
]
