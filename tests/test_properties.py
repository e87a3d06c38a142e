"""Property-based tests over extreme inputs.

Samples mix sizes from 2 to 400, heavy ties, magnitudes from 1e-300 to 1e300
and offsets up to 1e17. Each example is built from a drawn seed with numpy,
so a failing example shrinks to a small (n, scale, offset, ties, seed) tuple.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from finestruct import FineStructError, pde_estimate

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=500, deadline=None, database=None)


@st.composite
def extreme_samples(draw) -> np.ndarray:
    n = draw(st.integers(2, 400))
    scale = 10.0 ** draw(st.integers(-300, 300))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e17, 1e17)))
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
