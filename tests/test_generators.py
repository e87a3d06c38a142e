import numpy as np
import pytest

from _oracles import skew_normal_moments_quadrature
from finestruct import (
    BadRange,
    BadSpec,
    GaussMixSpec,
    SkewSpec,
    dip_pvalue_mc,
    dip_statistic,
    dagostino_skewness,
    sample_gauss_mixture,
    sample_skew_normal,
    sample_uniform,
    skew_normal_moments,
)


class TestUniform:
    def test_in_range(self):
        f = sample_uniform(1000, -2, 2, seed=1)
        assert len(f) == 1000
        assert f.values.min() >= -2 and f.values.max() <= 2

    def test_deterministic(self):
        a = sample_uniform(500, 0, 1, seed=9)
        b = sample_uniform(500, 0, 1, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_single_draw(self):
        f = sample_uniform(1, 0, 1, seed=3)
        assert len(f) == 1 and 0 <= f.values[0] <= 1

    def test_bad_range(self):
        with pytest.raises(BadRange):
            sample_uniform(10, 2, -2, seed=0)

    def test_bad_n(self):
        with pytest.raises(BadSpec):
            sample_uniform(0, 0, 1, seed=0)
        with pytest.raises(BadSpec, match="at most"):
            sample_uniform(10**20, 0, 1, seed=0)
        with pytest.raises(BadSpec, match="must be an integer"):
            sample_uniform(2.5, 0, 1, seed=0)


class TestGaussMixture:
    def test_single_component_moments(self):
        f = sample_gauss_mixture(100_000, GaussMixSpec(((1.0, 0.0, 1.0),)), seed=2)
        assert abs(f.values.mean()) <= 0.02
        assert abs(f.values.std() - 1.0) <= 0.02

    def test_bimodal_detected_by_dip(self):
        spec = GaussMixSpec(((0.5, 0.0, 1.0), (0.5, 2.5, 1.0)))
        ps = []
        for seed in range(25):
            f = sample_gauss_mixture(31_000, spec, seed=seed)
            ps.append(dip_pvalue_mc(dip_statistic(f.values), len(f), 500, seed=123))
        assert float(np.median(ps)) <= 0.01

    def test_degenerate_weight(self):
        spec = GaussMixSpec(((1.0, 5.0, 0.1), (0.0, -100.0, 1.0)))
        f = sample_gauss_mixture(5000, spec, seed=4)
        assert f.values.min() > 0  # nothing from the weight-0 component

    def test_component_frequencies(self):
        # components far apart so membership is readable from the sign
        spec = GaussMixSpec(((0.3, -100.0, 1.0), (0.7, 100.0, 1.0)))
        f = sample_gauss_mixture(100_000, spec, seed=5)
        frac = float((f.values > 0).mean())
        sigma = np.sqrt(0.3 * 0.7 / 100_000)
        assert abs(frac - 0.7) <= 3 * sigma

    def test_deterministic(self):
        spec = GaussMixSpec(((0.5, 0.0, 1.0), (0.5, 3.0, 2.0)))
        a = sample_gauss_mixture(1000, spec, seed=8)
        b = sample_gauss_mixture(1000, spec, seed=8)
        assert np.array_equal(a.values, b.values)

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            GaussMixSpec(((0.5, 0.0, 1.0),))  # weights sum to 0.5
        with pytest.raises(BadSpec):
            GaussMixSpec(((1.0, 0.0, 0.0),))  # zero sd
        with pytest.raises(BadSpec):
            GaussMixSpec(())


class TestSkewNormal:
    def test_xi_one_is_standard_normal(self):
        f = sample_skew_normal(100_000, SkewSpec(xi=1.0), seed=3)
        g1, _, _ = dagostino_skewness(f.values)
        assert abs(g1) <= 0.05

    def test_standardized_moments(self):
        f = sample_skew_normal(100_000, SkewSpec(xi=2.0), seed=6)
        assert abs(f.values.mean()) <= 0.02
        assert abs(f.values.var() - 1.0) <= 0.03

    def test_analytic_moments_match_quadrature(self):
        for xi in (0.5, 0.9, 1.1, 2.0, 3.0):
            mean_a, sd_a = skew_normal_moments(xi)
            mean_q, sd_q = skew_normal_moments_quadrature(xi)
            assert mean_a == pytest.approx(mean_q, abs=1e-9)
            assert sd_a == pytest.approx(sd_q, abs=1e-9)

    def test_mild_skew_detected(self):
        ps = []
        for seed in range(25):
            f = sample_skew_normal(15_000, SkewSpec(xi=1.1), seed=seed)
            _, _, p = dagostino_skewness(f.values)
            ps.append(p)
        assert float(np.median(ps)) <= 0.01

    def test_mirror_symmetry(self):
        a = sample_skew_normal(100_000, SkewSpec(xi=2.0), seed=11)
        b = sample_skew_normal(100_000, SkewSpec(xi=0.5), seed=12)
        g1a, _, _ = dagostino_skewness(a.values)
        g1b, _, _ = dagostino_skewness(b.values)
        assert abs(g1a + g1b) <= 0.05

    def test_deterministic(self):
        a = sample_skew_normal(1000, SkewSpec(xi=1.3), seed=21)
        b = sample_skew_normal(1000, SkewSpec(xi=1.3), seed=21)
        assert np.array_equal(a.values, b.values)

    def test_bad_xi(self):
        with pytest.raises(BadSpec):
            SkewSpec(xi=0.0)
        with pytest.raises(BadSpec):
            SkewSpec(xi=-1.0)
