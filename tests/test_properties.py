"""Property-based tests over extreme inputs.

Samples mix sizes from 2 to 400, heavy ties, magnitudes from 1e-300 to 1e300
and offsets up to 1e17. Each example is built from a drawn seed with numpy,
so a failing example shrinks to a small (n, scale, offset, ties, seed) tuple.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dip_lp_oracle
from finestruct import (
    ConstantFeature,
    FeatureSeries,
    FineStructError,
    dagostino_skewness,
    describe,
    dip_statistic,
    pde_estimate,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=500, deadline=None, database=None)


@st.composite
def extreme_samples(draw, min_n=2, max_n=400, max_exp=300, max_offset=1e17) -> np.ndarray:
    n = draw(st.integers(min_n, max_n))
    scale = 10.0 ** draw(st.integers(-max_exp, max_exp))
    offset = draw(st.one_of(st.just(0.0), st.floats(-max_offset, max_offset)))
    levels = draw(st.sampled_from([None, 1, 4, 32]))  # None: no rounding, so no ties
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n)
    if levels is not None:
        z = np.round(z * levels) / levels
    return offset + scale * z


@PROPERTY_SETTINGS
@given(extreme_samples())
def test_pde_support_and_unit_mass(x):
    # a sample the density cannot be drawn for must fail with a typed error
    try:
        curve = pde_estimate(x)
    except FineStructError:
        return
    assert curve.kernels[0] >= x.min() and curve.kernels[-1] <= x.max()
    assert np.all(np.isfinite(curve.densities)) and np.all(curve.densities >= 0)
    assert abs(curve.integral() - 1.0) <= 1e-9


@PROPERTY_SETTINGS
@given(extreme_samples(min_n=9))
def test_skewness_defined_alike(x):
    # describe (sorted order) and the skewness test (given order) share one
    # moments routine; neither warns, and g1 is undefined for both or neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g1 = describe(FeatureSeries("x", x)).skewness_g1
        try:
            dagostino_skewness(x)
        except ConstantFeature:
            tested = False
        else:
            tested = True
    assert tested == (not math.isnan(g1))
    if x.min() == x.max():
        assert math.isnan(g1)


@PROPERTY_SETTINGS
@given(extreme_samples(max_n=20, max_exp=3, max_offset=1e3))
def test_dip_matches_lp_oracle(x):
    assert dip_statistic(x) == pytest.approx(dip_lp_oracle(x), abs=1e-7)
