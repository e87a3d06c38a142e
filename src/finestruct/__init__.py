"""Fine structure of univariate distributions.

Pareto density estimation, unimodality and skewness testing, robust
transforms, and mirrored-density SVG plots of many features at once.

The public names below are imported from their submodule on first use
(PEP 562), so ``import finestruct`` loads neither numpy nor a submodule.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "density": ("DensityCurve", "pareto_radius", "pde_estimate"),
    "engine": (
        "BoxOverlay", "EngineConfig", "GaussianOverlay", "GlyphModel", "Ordering",
        "PlotModel", "SkipDiagnostic", "analyze_feature", "build_plot_model",
        "order_features", "subsample",
    ),
    "errors": (
        "BadRange", "BadSpec", "ConstantFeature", "DegenerateSpread", "EmptyFeature",
        "FineStructError", "NoPlottableFeatures", "TooFewPoints",
    ),
    "generators": (
        "GaussMixSpec", "SkewSpec", "sample_gauss_mixture", "sample_skew_normal",
        "sample_uniform", "skew_normal_moments",
    ),
    "render": ("AxisTransform", "gaussian_overlay_path", "nice_ticks", "render_svg"),
    "stats_core": (
        "DescriptiveStats", "FeatureSeries", "ScalingMode", "derive_seed", "describe",
        "quantile", "robust_gaussian_fit", "symmetric_log", "transform",
    ),
    "stattests": (
        "TestReport", "dagostino_skewness", "dip_pvalue_mc", "dip_statistic",
        "feature_report",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_SOURCE)]


def __getattr__(name):
    if name in _EXPORTS:  # ``finestruct.density`` and the like; the import binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
