"""README's contract: every error the package expects is a FineStructError."""
import math

import numpy as np
import pytest

import finestruct as fs

NAN, INF = math.nan, math.inf
SAMPLE = fs.FeatureSeries("x", np.random.default_rng(5).normal(size=300))

# each call rejects its input; the id names the rule it breaks
REJECTED = {
    "series-nan": lambda: fs.FeatureSeries("x", [NAN]),
    "series-negative-missing": lambda: fs.FeatureSeries("x", [1.0], missing_count=-1),
    "series-text": lambda: fs.FeatureSeries("x", ["a"]),
    "quantile-p-above-1": lambda: fs.quantile([1, 2], 1.5),
    "quantile-p-nan": lambda: fs.quantile([1, 2], NAN),
    "density-kernels-decreasing": lambda: fs.DensityCurve([1, 0], [1, 1], 1),
    "overlay-sigma-0": lambda: fs.gaussian_overlay_path(0, 0, [1, 2]),
    "dip-text": lambda: fs.dip_statistic(["a", "b"]),
    "ticks-infinite-end": lambda: fs.nice_ticks(0, INF),
    "ticks-nan-end": lambda: fs.nice_ticks(NAN, 1),
    "config-alpha-text": lambda: fs.EngineConfig(alpha="0.1"),
    "uniform-negative-seed": lambda: fs.sample_uniform(10, 0, 1, seed=-1),
    "pde-text": lambda: fs.pde_estimate(["a", "b"]),
    "subsample-negative-seed": lambda: fs.subsample(fs.FeatureSeries("x", [1.0, 2.0, 3.0]), 2, -1),
    "config-seed-2**32": lambda: fs.EngineConfig(seed=2**32),
    "config-negative-seed": lambda: fs.EngineConfig(seed=-1),
    "derive-seed-2**32": lambda: fs.derive_seed(2**32, "x"),
    "uniform-seed-2**32": lambda: fs.sample_uniform(10, 0, 1, seed=2**32),
    "dip-p-seed-2**64": lambda: fs.dip_pvalue_mc(0.05, 50, 10, seed=2**64),
    "dip-p-negative-seed": lambda: fs.dip_pvalue_mc(0.05, 50, 10, seed=-1),
    "dip-p-d-text": lambda: fs.dip_pvalue_mc("a", 50, 10),
    "dip-p-n-text": lambda: fs.dip_pvalue_mc(0.05, "a", 10),
    "report-seed-fraction": lambda: fs.feature_report(SAMPLE, fs.describe(SAMPLE), 10, seed=1.5),
    "report-seed-text": lambda: fs.feature_report(SAMPLE, fs.describe(SAMPLE), 10, seed="3"),
    "gaussmix-text-weight": lambda: fs.GaussMixSpec((("a", 0, 1),)),
    "gaussmix-pair": lambda: fs.GaussMixSpec(((1, 0),)),
    "gaussmix-none": lambda: fs.GaussMixSpec(None),
    "quantile-text-values": lambda: fs.quantile(["a"], 0.5),
    "quantile-text-p": lambda: fs.quantile([1, 2], "a"),
    "density-text-kernels": lambda: fs.DensityCurve(["a", "b"], [1, 1], 1),
    "density-radius-nan": lambda: fs.DensityCurve([0, 1], [1, 1], NAN),
    "skew-text-xi": lambda: fs.SkewSpec("a"),
    "skew-xi-beyond-floats": lambda: fs.SkewSpec(10**400),
    "skew-moments-xi-0": lambda: fs.skew_normal_moments(0),
    "skew-moments-negative-xi": lambda: fs.skew_normal_moments(-1),
    "ticks-text-end": lambda: fs.nice_ticks("a", 1),
    "overlay-sigma-nan": lambda: fs.gaussian_overlay_path(0, NAN, [1, 2]),
    "overlay-mu-nan": lambda: fs.gaussian_overlay_path(NAN, 1, [1, 2]),
    "uniform-text-low": lambda: fs.sample_uniform(10, "a", 1),
    "series-missing-nan": lambda: fs.FeatureSeries("x", [1.0], missing_count=NAN),
    "series-missing-fraction": lambda: fs.FeatureSeries("x", [1.0], missing_count=1.5),
    "series-missing-text": lambda: fs.FeatureSeries("x", [1.0], missing_count="a"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_is_a_bad_spec(case):
    with pytest.raises(fs.FineStructError) as info:
        REJECTED[case]()
    assert isinstance(info.value, fs.BadSpec)


def test_seed_domain_is_the_32_bit_integers():
    # derive_seed XORs the seed with a 32-bit name hash, so it tells apart exactly [0, 2**32)
    with pytest.raises(fs.BadSpec):
        fs.EngineConfig(seed=2**32)
    assert fs.EngineConfig(seed=2**32 - 1).seed == 2**32 - 1
    d = fs.dip_statistic(SAMPLE.values)
    with pytest.raises(fs.BadSpec, match="seed must be an integer"):
        fs.dip_pvalue_mc(d, len(SAMPLE), 50, seed=1.5)
    report = fs.feature_report(SAMPLE, fs.describe(SAMPLE), 50, seed=np.int64(3))
    assert type(report.seed) is int and report.seed == 3
    assert report.dip_p == fs.dip_pvalue_mc(d, len(SAMPLE), 50, seed=3)
