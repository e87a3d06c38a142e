"""README's contract: every error the package expects is a FineStructError."""
import math

import pytest

import finestruct as fs

NAN, INF = math.nan, math.inf

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
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_is_a_bad_spec(case):
    with pytest.raises(fs.FineStructError) as info:
        REJECTED[case]()
    assert isinstance(info.value, fs.BadSpec)
