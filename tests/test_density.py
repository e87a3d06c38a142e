import tracemalloc

import numpy as np
import pytest

from _oracles import neighborhood_fraction, pareto_radius_oracle
from finestruct import (
    ConstantFeature,
    PdeConfig,
    TooFewPoints,
    pareto_radius,
    pde_estimate,
)
from finestruct import density
from finestruct.density import GRID_MAX, GRID_MIN

_SELECTION_DATA = {
    "gauss": lambda rng, n: rng.normal(size=n),
    "lognormal-sd2": lambda rng, n: rng.lognormal(0.0, 2.0, size=n),
    "uniform-clipped": lambda rng, n: np.clip(rng.uniform(-0.25, 1.25, size=n), 0.0, 1.0),
    "8-levels": lambda rng, n: rng.integers(0, 8, size=n).astype(float),
    "1e17-offset": lambda rng, n: 1e17 + 16.0 * rng.integers(0, 1000, size=n),
    "half-zeros": lambda rng, n: np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n)),
}
# differences across the whole exponent range; the n = 12 000 oracle would hold all pairs
_RANK_DATA = {
    **_SELECTION_DATA,
    "wide-range": lambda rng, n: rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, n),
    "20-levels": lambda rng, n: rng.integers(0, 20, size=n).astype(float),
}


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

    @pytest.mark.parametrize("kind", list(_SELECTION_DATA))
    @pytest.mark.parametrize("n", [1000, 5000, 12000])
    def test_selection_matches_oracle_at_real_sizes(self, n, kind):
        # 12000 points take the radius on the seeded 5000-point subsample
        x = _SELECTION_DATA[kind](np.random.default_rng(n), n)
        assert pareto_radius(x, seed=5) == pareto_radius_oracle(x, cap=5000, seed=5)

    @pytest.mark.parametrize("kind", list(_RANK_DATA))
    def test_selection_ranks_across_tie_blocks(self, kind):
        # 11 175 pairs at m = 150 exceed the 4m band, so bisection rounds run;
        # the ranks checked include every pair (k, k + 1) that straddles two values
        xs = np.sort(_RANK_DATA[kind](np.random.default_rng(7), 150))
        i, j = np.triu_indices(xs.size, k=1)
        diffs = np.sort(xs[j] - xs[i])
        steps = np.flatnonzero(diffs[1:] != diffs[:-1])
        for k in sorted({*steps[::max(steps.size // 60, 1)].tolist(), *range(0, diffs.size - 1, 211)}):
            assert density._pair_diff_ranks(xs, k) == (diffs[k], diffs[k + 1])

    @staticmethod
    def _most_counts(kind, m, monkeypatch):
        """Most ``_row_ends`` counts one rank pair takes, over four ranks."""
        calls, most = [], 0
        row_ends = density._row_ends
        monkeypatch.setattr(density, "_row_ends", lambda xs, t: calls.append(t) or row_ends(xs, t))
        xs = np.sort(_RANK_DATA[kind](np.random.default_rng(m), m))
        pairs = m * (m - 1) // 2
        for k in (0, int((pairs - 1) * density.PARETO_QUANTILE), pairs // 2, pairs - 2):
            calls.clear()
            density._pair_diff_ranks(xs, k)
            most = max(most, len(calls))
        return most

    @pytest.mark.parametrize("kind, m", [*((kind, 150) for kind in _RANK_DATA), ("gauss", 12000)])
    def test_selection_counts_at_most_64_times(self, kind, m, monkeypatch):
        # each round halves the bits between the bracket's bounds
        assert self._most_counts(kind, m, monkeypatch) <= 64

    @pytest.mark.parametrize("kind", ["8-levels", "20-levels"])
    @pytest.mark.parametrize("m", [150, 5000])
    def test_selection_ends_tie_blocks_in_few_counts(self, kind, m, monkeypatch):
        # each bound snaps to the computed differences, so a block of tied
        # differences ends the search instead of being bisected down to one float
        assert self._most_counts(kind, m, monkeypatch) <= 8

    def test_row_ends_on_rounded_sums(self):
        # the searchsorted candidate xs + t rounds: for t = 1.0 it stops at
        # 0.75, yet 0.75 + 2**-53 - (-0.25) rounds to 1.0; near 1e17 it
        # rounds past differences above t
        xs = np.sort([-1e17, -0.25, -0.0, 0.0, 0.75, 0.75 + 2**-53, 1.0, 2.0 - 2**-52,
                      1e17, 1e17 + 16, 1e17 + 32, 1e17 + 64])
        diffs = np.subtract.outer(xs, xs)  # diffs[j, i] = xs[j] - xs[i]
        for d in np.unique(diffs[diffs >= 0]):
            for t in (np.nextafter(d, -np.inf), d, np.nextafter(d, np.inf)):
                want = [i + 1 + int(np.sum(diffs[i + 1:, i] <= t)) for i in range(xs.size)]
                assert density._row_ends(xs, float(t)).tolist() == want

    def test_interpolation_at_half(self):
        # m = 24 puts the quantile halfway between ranks 49 and 50 (0.3 and 1.4),
        # where numpy's lerp takes b - (b - a)/2, which differs from a + (b - a)/2
        x = [0.0, 0.0, 0.0, 0.1, 0.3, 0.3, 1.7, 1.7, 1.7, 1.9, 1.9, 1.9,
             7.3, 7.3, 7.3, 7.3, 7.3, 11.1, 1000.7, 33000.0, 33000.0, 33000.0, 33000.0, 33000.0]
        assert pareto_radius(x) == pareto_radius_oracle(x, cap=5000, seed=0)

    @pytest.mark.parametrize("x", [
        np.random.default_rng(1).normal(size=12000),
        np.random.default_rng(2).integers(0, 8, size=5000).astype(float),
    ], ids=["normal-12000", "8-levels-5000"])
    def test_selection_memory(self, x):
        # all 12.5 M pairwise differences at the cap would take 100 MB
        tracemalloc.start()
        try:
            pareto_radius(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


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
