import warnings

import numpy as np
import pytest

from finestruct import (
    BadSpec,
    ConstantFeature,
    DegenerateSpread,
    EmptyFeature,
    FeatureSeries,
    ScalingMode,
    describe,
    quantile,
    robust_gaussian_fit,
    transform,
)


class TestQuantile:
    def test_odd_length_median(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_midpoint_symmetry(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_linear_interpolation(self):
        # h = (4-1)*0.25 = 0.75 -> 10 + 0.75*10
        assert quantile([10, 20, 30, 40], 0.25) == 17.5

    def test_endpoints(self):
        v = [3, 5, 9, 11]
        assert quantile(v, 0.0) == 3
        assert quantile(v, 1.0) == 11

    def test_matches_numpy_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = np.sort(rng.normal(size=rng.integers(1, 40)))
            p = rng.random()
            assert quantile(v, p) == pytest.approx(np.quantile(v, p), abs=1e-12)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            v = np.sort(rng.normal(size=rng.integers(1, 30)))
            p1, p2 = sorted(rng.random(2))
            assert quantile(v, p1) <= quantile(v, p2)

    def test_empty_raises(self):
        with pytest.raises(EmptyFeature):
            quantile([], 0.5)

    def test_bad_p(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @pytest.mark.filterwarnings("error")
    def test_gap_overflow_finite_and_silent(self):
        # the gap between -1.7e308 and 1.7e308 overflows; the quantile does not
        v = [-1.7e308, 1.7e308]
        assert quantile(v, 0.0) == -1.7e308
        assert quantile(v, 0.25) == pytest.approx(-0.85e308, rel=1e-15)
        assert quantile(v, 0.5) == 0.0
        assert quantile(v, 1.0) == 1.7e308


class TestDescribe:
    def test_symmetric(self):
        st = describe(FeatureSeries("s", [-2, -1, 0, 1, 2]))
        assert st.skewness_g1 == 0
        assert st.mean == 0
        assert st.median == 0

    def test_outlier_skew(self):
        # m2 = 1522, m3 = 88920 for {1,2,3,4,100}
        st = describe(FeatureSeries("o", [1, 2, 3, 4, 100]))
        assert st.skewness_g1 == pytest.approx(88920 / 1522**1.5, rel=1e-12)
        assert st.skewness_g1 == pytest.approx(1.4975, abs=1e-4)

    def test_constant_undefined_markers(self):
        st = describe(FeatureSeries("c", [5, 5, 5]))
        assert st.mean == 5 and st.median == 5
        assert np.isnan(st.skewness_g1)
        assert np.isnan(st.excess_kurtosis)

    def test_constant_with_inexact_mean_undefined(self):
        # the mean of 100 x 0.1 is 0.09999999999999998, so m2 is not 0
        st = describe(FeatureSeries("c", [0.1] * 100))
        assert np.isnan(st.skewness_g1)
        assert np.isnan(st.excess_kurtosis)

    @pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3, 123.456, -1.7e308])
    def test_constant_mean_is_the_value(self, value):
        # the float mean of 100 x 0.1 is 0.09999999999999998
        assert describe(FeatureSeries("c", [value] * 100)).mean == value

    def test_quantiles_ordered(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            st = describe(FeatureSeries("x", rng.normal(size=rng.integers(1, 200))))
            assert st.q01 <= st.q25 <= st.median <= st.q75 <= st.q99

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=37)
        a = describe(FeatureSeries("x", x))
        b = describe(FeatureSeries("x", rng.permutation(x)))
        assert a == b

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_huge_values_keep_shape(self, scale):
        # m4 (from 1e80) and m2 (from 1e160) overflow on the plain values
        x = np.random.default_rng(9).normal(size=300)
        want = describe(FeatureSeries("x", x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = describe(FeatureSeries("x", x * scale))
        assert st.skewness_g1 == pytest.approx(want.skewness_g1, rel=1e-9)
        assert st.excess_kurtosis == pytest.approx(want.excess_kurtosis, rel=1e-9)
        assert st.mean == pytest.approx(want.mean * scale, rel=1e-9)

    def test_missing_passthrough(self):
        st = describe(FeatureSeries("m", [1.0, 2.0], missing_count=3))
        assert st.missing == 3 and st.n == 2

    def test_empty_raises(self):
        with pytest.raises(EmptyFeature):
            describe(FeatureSeries("e", []))


class TestTransform:
    def test_log_examples(self):
        f = transform(FeatureSeries("l", [0, -99, 99]), ScalingMode.LOG)
        assert f.values == pytest.approx([0.0, -2.0, 2.0])

    def test_log_is_odd(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=100) * 50
        pos = transform(FeatureSeries("x", x), ScalingMode.LOG).values
        neg = transform(FeatureSeries("x", -x), ScalingMode.LOG).values
        assert np.allclose(pos, -neg, atol=0)

    def test_robust_window(self):
        f = transform(FeatureSeries("r", np.arange(101.0)), ScalingMode.ROBUST)
        # q01 = 1 and q99 = 99 under the pinned quantile definition
        assert f.values[1] == pytest.approx(0.0, abs=1e-15)
        assert f.values[99] == pytest.approx(1.0, abs=1e-15)

    def test_percentalize_endpoints(self):
        f = transform(FeatureSeries("p", [-2.0, 2.0]), ScalingMode.PERCENTALIZE)
        assert list(f.values) == [0.0, 100.0]

    def test_percentalize_idempotent(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=200) * 7 + 3
        once = transform(FeatureSeries("x", x), ScalingMode.PERCENTALIZE)
        twice = transform(once, ScalingMode.PERCENTALIZE)
        assert np.max(np.abs(once.values - twice.values)) < 1e-12

    def test_complete_robust_clamps(self):
        rng = np.random.default_rng(29)
        x = np.concatenate([rng.normal(size=500), [1e6, -1e6]])
        f = transform(FeatureSeries("x", x), ScalingMode.COMPLETE_ROBUST)
        assert f.values.min() >= 0.0 and f.values.max() <= 1.0

    def test_robust_preserves_argsort(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=300)
        f = transform(FeatureSeries("x", x), ScalingMode.ROBUST)
        assert np.array_equal(np.argsort(x), np.argsort(f.values))

    def test_constant_errors(self):
        c = FeatureSeries("c", [4.0, 4.0, 4.0])
        with pytest.raises(ConstantFeature):
            transform(c, ScalingMode.PERCENTALIZE)
        with pytest.raises(ConstantFeature):
            transform(c, ScalingMode.ROBUST)

    def test_none_is_identity(self):
        f = FeatureSeries("n", [1.0, 2.0])
        assert transform(f, ScalingMode.NONE) is f

    def test_name_and_missing_preserved(self):
        f = FeatureSeries("keep", [1.0, 2.0, 3.0], missing_count=4)
        out = transform(f, ScalingMode.LOG)
        assert out.name == "keep" and out.missing_count == 4


class TestRobustGaussianFit:
    def test_calibration_constant(self):
        # data with IQR exactly 1.349 maps to sigma = 1
        mu, sigma = robust_gaussian_fit(describe(FeatureSeries("n", [-1.349, 0.0, 1.349])))
        assert mu == 0.0
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_direct_formula(self):
        mu, sigma = robust_gaussian_fit(describe(FeatureSeries("x", [1, 2, 3, 4, 5])))
        assert mu == 3
        assert sigma == pytest.approx(2 / 1.349)
        assert sigma == pytest.approx(1.4826, abs=1e-4)

    def test_zero_iqr(self):
        # under the pinned h=(n-1)p quantile, {7,7,7,7,8} has q25 = q75 = 7
        with pytest.raises(DegenerateSpread):
            robust_gaussian_fit(describe(FeatureSeries("t", [7, 7, 7, 7, 8])))


class TestScalingMode:
    @pytest.mark.parametrize("mode", list(ScalingMode))
    def test_parse_print_roundtrip(self, mode):
        # the report prints str(mode); the CLI builds the mode from that value
        assert ScalingMode(str(mode)) is mode

    def test_transform_takes_member_or_text_only(self):
        f = FeatureSeries("x", np.linspace(-50.0, 50.0, 101))
        assert np.array_equal(transform(f, "log").values, transform(f, ScalingMode.LOG).values)
        with pytest.raises(BadSpec, match="scaling must be one of"):
            transform(f, "bogus")


class TestFeatureSeries:
    def test_clean_counts_missing(self):
        f = FeatureSeries.clean("x", [1.0, np.nan, 2.0, np.inf, -np.inf])
        assert len(f) == 2 and f.missing_count == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FeatureSeries("bad", [1.0, np.nan])

    def test_rejects_negative_missing(self):
        with pytest.raises(ValueError):
            FeatureSeries("bad", [1.0], missing_count=-1)
