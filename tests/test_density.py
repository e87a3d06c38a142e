import numpy as np
import pytest

from _oracles import pareto_radius_oracle
from finestruct import (
    ConstantFeature,
    PdeConfig,
    TooFewPoints,
    neighborhood_fraction,
    pareto_radius,
    pde_estimate,
)
from finestruct.density import GRID_MAX, GRID_MIN


class TestParetoRadius:
    def test_single_pair(self):
        assert pareto_radius([0.0, 10.0]) == 10.0

    def test_integer_grid(self):
        # 45 pairwise distances; the 0.18 quantile lands among the nine 1s
        assert pareto_radius(np.arange(10.0)) == 1.0

    def test_constant_raises(self):
        with pytest.raises(ConstantFeature):
            pareto_radius([3.0, 3.0, 3.0])

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            pareto_radius([1.0])

    def test_tie_escalation(self):
        # quantile 0.18 of the distances hits the zeros; escalate to the
        # smallest strictly positive distance
        x = np.array([0.0] * 40 + [5.0, 7.0])
        r = pareto_radius(x)
        assert r == 2.0

    def test_large_n_shrink(self):
        # 2048 points: the unshrunk quantile times (2048/1024)^(-1/5)
        rng = np.random.default_rng(4)
        x = rng.normal(size=2048)
        r_raw = pareto_radius_oracle(x, cap=5000, seed=0, threshold=4096)
        assert pareto_radius(x, seed=0) == pytest.approx(r_raw * (2048 / 1024) ** -0.2, rel=1e-12)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=9000)
        cfg = PdeConfig(distance_sample_cap=500)
        assert pareto_radius(x, cfg, seed=3) == pareto_radius(x, cfg, seed=3)
        assert pareto_radius(x, cfg, seed=3) != pareto_radius(x, cfg, seed=4)


class TestPdeEstimate:
    def test_unit_mass(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.normal(size=rng.integers(2, 400))
            if np.unique(x).size < 2:
                continue
            curve = pde_estimate(x)
            assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_kernels_span_data_exactly(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=333)
        curve = pde_estimate(x)
        assert curve.kernels[0] == x.min()
        assert curve.kernels[-1] == x.max()

    def test_grid_count_clamped(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=500)
        curve = pde_estimate(x)
        assert GRID_MIN <= curve.kernels.size <= GRID_MAX

    def test_clipping_no_mass_outside(self):
        rng = np.random.default_rng(15)
        x = rng.normal(4000, 900, size=8000)
        x = x[(x >= 1800) & (x <= 6000)]
        curve = pde_estimate(x)
        assert curve.kernels[0] >= 1800
        assert curve.kernels[-1] <= 6000

    def test_even_grid_interior_density(self):
        # 1000 evenly spaced points on [-2, 2]: interior density near 0.25
        x = np.linspace(-2, 2, 1000)
        curve = pde_estimate(x)
        r = curve.radius
        interior = (curve.kernels > -2 + r) & (curve.kernels < 2 - r)
        d = curve.densities[interior]
        assert np.all(np.abs(d - 0.25) <= 0.025)

    def test_translation_scale_equivariance(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=800)
        a, b = 3.5, -11.0
        base = pde_estimate(x, seed=2)
        moved = pde_estimate(a * x + b, seed=2)
        assert np.allclose(moved.kernels, a * base.kernels + b, rtol=1e-9, atol=1e-9)
        assert np.allclose(moved.densities, base.densities / abs(a), rtol=1e-9, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=7000)
        c1 = pde_estimate(x, seed=9)
        c2 = pde_estimate(x, seed=9)
        assert np.array_equal(c1.kernels, c2.kernels)
        assert np.array_equal(c1.densities, c2.densities)
        assert c1.radius == c2.radius

    def test_config_validation(self):
        # a subsample of one point has no pairwise distance
        for cap in (0, 1):
            with pytest.raises(ValueError):
                PdeConfig(distance_sample_cap=cap)


class TestNeighborhoodFraction:
    def test_radius_covers_range(self):
        x = np.array([1.0, 2.0, 5.0])
        assert neighborhood_fraction(x, 10.0) == 1.0

    def test_zero_radius_distinct(self):
        x = np.arange(20.0)
        assert neighborhood_fraction(x, 0.0) == pytest.approx(1 / 20)

    def test_gaussian_near_target(self):
        fracs = []
        for seed in range(10):
            x = np.random.default_rng(seed).normal(size=1000)
            fracs.append(neighborhood_fraction(x, pareto_radius(x, seed=seed)))
        assert 0.15 <= float(np.median(fracs)) <= 0.25
