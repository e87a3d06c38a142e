"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as derived were computed with the independent
oracles in _oracles.py before the implementation existed.
"""
import json
import time
import xml.etree.ElementTree as ET

import numpy as np

from _oracles import neighborhood_fraction, skewness_z_oracle
from finestruct import (
    EngineConfig,
    FeatureSeries,
    build_plot_model,
    dagostino_skewness,
    describe,
    dip_pvalue_mc,
    dip_statistic,
    gaussian_overlay_path,
    pareto_radius,
    pde_estimate,
    render_svg,
    robust_gaussian_fit,
    sample_uniform,
)
from finestruct.cli import main
from finestruct.render import default_axis

SVGNS = "{http://www.w3.org/2000/svg}"


def _criterion(ok: bool, label: str, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {state}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


class TestCriterion1DipPvalueReproduction:
    def test_paper_anchors(self):
        t0 = time.perf_counter()
        p_uniform = dip_pvalue_mc(0.01215, 1000, 5000, seed=7)
        p_mty = dip_pvalue_mc(0.0020678, 11194, 2000, seed=7)
        p_its = dip_pvalue_mc(0.01196, 11194, 2000, seed=7)
        elapsed = time.perf_counter() - t0
        _criterion(
            0.38 <= p_uniform <= 0.50
            and p_mty >= 0.95
            and p_its == 1.0 / 2001
            and elapsed <= 120.0,
            "1 dip p-value reproduction",
            f"p(0.01215,1000)={p_uniform:.4f} in [0.38,0.50]; "
            f"p(0.0020678,11194)={p_mty:.4f} >= 0.95; "
            f"p(0.01196,11194)={p_its:.6f} == 1/2001; {elapsed:.1f}s <= 120s",
        )


class TestCriterion2BimodalBench:
    def test_bench_bimodal_reduced(self, tmp_path):
        t0 = time.perf_counter()
        out = tmp_path / "bimodal.csv"
        rc = main([
            "bench", "bimodal", "--sweep", "2.0,2.4,2.5", "--iterations", "25",
            "--replicates", "1000", "--n", "31000", "--seed", "101", "-o", str(out),
        ])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        medians = {}
        for line in out.read_text().strip().split("\n")[1:]:
            param, label, value = line.split(",")
            if label == "median":
                medians[float(param)] = float(value)
        _criterion(
            medians[2.0] >= 0.05 and medians[2.5] <= 0.01 and medians[2.4] <= 0.06
            and elapsed <= 900.0,
            "2 bimodal sweep sensitivity",
            f"median p(2.0)={medians[2.0]:.3f} >= 0.05; "
            f"median p(2.4)={medians[2.4]:.4f} <= 0.06; "
            f"median p(2.5)={medians[2.5]:.4f} <= 0.01; {elapsed:.0f}s <= 900s",
        )


class TestCriterion3SkewBench:
    def test_bench_skew_reduced(self, tmp_path):
        out = tmp_path / "skew.csv"
        rc = main([
            "bench", "skew", "--sweep", "0.90,0.95,1.0,1.05,1.10",
            "--iterations", "25", "--n", "15000", "--seed", "202", "-o", str(out),
        ])
        assert rc == 0
        medians = {}
        for line in out.read_text().strip().split("\n")[1:]:
            param, label, value = line.split(",")
            if label == "median":
                medians[float(param)] = float(value)
        _criterion(
            medians[0.90] <= 0.01 and medians[1.10] <= 0.01 and medians[1.0] >= 0.05,
            "3 skew sweep sensitivity",
            f"median p(0.90)={medians[0.90]:.2e} <= 0.01; "
            f"median p(1.10)={medians[1.10]:.2e} <= 0.01; "
            f"median p(1.0)={medians[1.0]:.3f} >= 0.05",
        )


class TestCriterion4Clipping:
    def test_clipped_sample_stays_in_band(self):
        rng = np.random.default_rng(404)
        raw = rng.normal(4000, 900, 11194)
        clipped = raw[(raw >= 1800) & (raw <= 6000)]
        curve = pde_estimate(clipped, seed=404)
        kernels_ok = curve.kernels[0] >= 1800 and curve.kernels[-1] <= 6000

        model = build_plot_model(
            [FeatureSeries("MTY_clipped", clipped)],
            EngineConfig(replicates=200, seed=404),
        )
        svg = render_svg(model)
        axis = default_axis(model)
        root = ET.fromstring(svg)
        poly = next(root.iter(f"{SVGNS}polygon"))
        ys = [float(pair.split(",")[1]) for pair in poly.get("points").split(" ")]
        # px axis is inverted; 0.01 allows only for the 2-decimal coordinate grid
        polygon_ok = min(ys) >= axis.to_px(6000.0) - 0.01 and max(ys) <= axis.to_px(1800.0) + 0.01
        _criterion(
            kernels_ok and polygon_ok,
            "4 clipping correctness",
            f"kernels [{curve.kernels[0]:.1f}, {curve.kernels[-1]:.1f}] within [1800, 6000]; "
            "rendered polygon inside the clip band",
        )


class TestCriterion5UniformFidelity:
    def test_interior_density(self):
        x = sample_uniform(1000, -2, 2, seed=3).values
        curve = pde_estimate(x, seed=3)
        r = curve.radius
        interior = (curve.kernels > x.min() + r) & (curve.kernels < x.max() - r)
        dens = curve.densities[interior]
        worst = float(np.max(np.abs(dens - 0.25)))
        _criterion(
            interior.sum() > 0 and worst <= 0.25 * 0.25,
            "5a uniform interior density",
            f"worst |density-0.25| = {worst:.4f} <= 0.0625 over {int(interior.sum())} kernels",
        )

    def test_false_positive_rate(self):
        hits = 0
        for s in range(100):
            u = np.random.default_rng((555, s)).random(1000) * 4.0 - 2.0
            p = dip_pvalue_mc(dip_statistic(u), 1000, 2000, seed=777)
            hits += p < 0.05
        _criterion(hits <= 10, "5b uniform dip false-positive rate",
                   f"{hits}/100 seeds rejected at alpha=0.05 (<= 10 allowed)")


class TestCriterion6ParetoCalibration:
    def test_neighborhood_fraction(self):
        fracs = []
        for seed in range(50):
            x = np.random.default_rng((606, seed)).normal(size=1000)
            fracs.append(neighborhood_fraction(x, pareto_radius(x, seed=seed)))
        med = float(np.median(fracs))
        _criterion(0.15 <= med <= 0.25, "6 pareto radius calibration",
                   f"median neighborhood fraction = {med:.4f} in [0.15, 0.25]")


class TestCriterion7OverlaySensitivity:
    @staticmethod
    def _gap(values, seed):
        curve = pde_estimate(values, seed=seed)
        mu, sigma = robust_gaussian_fit(describe(FeatureSeries("x", values)))
        dmax = float(curve.densities.max())
        overlay = gaussian_overlay_path(mu, sigma, curve.kernels, 1.0 / dmax)
        return float(np.max(np.abs(curve.densities / dmax - overlay)))

    def test_gap_ratio(self):
        ratios = []
        for seed in range(25):
            rng = np.random.default_rng((808, seed))
            mix = np.concatenate([rng.normal(0, 1, 15500), rng.normal(2.2, 1, 15500)])
            pure = rng.normal(0, 1, 31000)
            ratios.append(self._gap(mix, seed) / self._gap(pure, seed))
        med = float(np.median(ratios))
        _criterion(med >= 2.0, "7 gaussian-overlay sensitivity at mean 2.2",
                   f"median gap ratio mixture/pure = {med:.2f} >= 2")


class TestCriterion8Invariants:
    def test_dip_rank_invariance(self):
        # exact invariance under any strictly increasing transform, as stated;
        # powers of two keep the input bits intact so no representation error
        # can be blamed
        rng = np.random.default_rng(42)
        ok = True
        worst = 0.0
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(5, 200)))
            d = dip_statistic(x)
            ok &= dip_statistic(2.0 * x) == d
            diff = abs(dip_statistic(np.exp(x)) - d)
            worst = max(worst, diff)
            ok &= diff == 0.0
        _criterion(ok, "8a dip rank-invariance",
                   f"scale x2 exact; exp worst |diff| = {worst:.3e} (required 0)")

    def test_dip_bounds_and_even_grid(self):
        rng = np.random.default_rng(43)
        ok = True
        for _ in range(200):
            n = int(rng.integers(2, 400))
            d = dip_statistic(rng.normal(size=n))
            ok &= 0.5 / n <= d <= 0.25
        for n in range(2, 51):
            ok &= dip_statistic(np.arange(float(n))) == 0.5 / n
        _criterion(ok, "8b dip bounds and even-grid lower bound",
                   "1/(2n) <= D <= 1/4 on 200 random samples; D = 1/(2n) for n=2..50 grids")

    def test_pde_unit_mass(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 400))
            kind = checked % 3
            if kind == 0:
                x = rng.normal(size=n) * 10.0 ** int(rng.integers(-3, 4))
            elif kind == 1:
                x = rng.exponential(size=n)
            else:
                x = np.round(rng.normal(size=n), 1)
            if np.unique(x).size < 2:
                continue
            curve = pde_estimate(x, seed=checked)
            worst = max(worst, abs(curve.integral() - 1.0))
            checked += 1
        _criterion(worst <= 1e-9, "8c pde unit mass",
                   f"worst |integral - 1| = {worst:.2e} over 1000 random inputs")

    def test_end_to_end_byte_determinism(self, tmp_path):
        rng = np.random.default_rng(45)
        csv_path = tmp_path / "mixed.csv"
        n = 400
        cols = {
            "norm": rng.normal(size=n),
            "bimod": np.concatenate([rng.normal(0, 1, n // 2), rng.normal(5, 1, n // 2)]),
            "few": np.concatenate([rng.normal(size=30), [np.nan] * (n - 30)]),
            "const": np.full(n, 2.5),
        }
        lines = [",".join(cols)]
        for i in range(n):
            row = [("" if np.isnan(v[i]) else repr(float(v[i]))) for v in cols.values()]
            lines.append(",".join(row))
        csv_path.write_text("\n".join(lines) + "\n")
        payloads = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            out = d / "plot.svg"
            rc = main(["plot", str(csv_path), "-o", str(out), "--seed", "77",
                       "--replicates", "300", "--boxplot", "--hline", "0.0"])
            assert rc == 0
            payloads.append((out.read_bytes(), (d / "plot.report.json").read_bytes()))
        _criterion(payloads[0] == payloads[1], "8d end-to-end byte determinism",
                   "identical SVG and report bytes across two runs with the same seed")

    def test_per_feature_isolation(self):
        rng = np.random.default_rng(46)
        good = FeatureSeries("good", rng.normal(size=500))
        broken = FeatureSeries("broken", [])
        cfg = EngineConfig(replicates=200, seed=9)
        alone = build_plot_model([good], cfg)
        paired = build_plot_model([good, broken], cfg)
        g1, g2 = alone.glyphs[0], paired.glyphs[0]
        same = (
            np.array_equal(g1.curve.kernels, g2.curve.kernels)
            and np.array_equal(g1.curve.densities, g2.curve.densities)
            and g1.report == g2.report
            and alone.to_dict()["features"] == paired.to_dict()["features"]
            and len(paired.skipped) == 1
        )
        _criterion(same, "8e per-feature isolation",
                   "glyph and report of a healthy feature unchanged by a broken sibling")


class TestCriterion9SkewnessOracle:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(47)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(9, 501))
            x = rng.normal(size=n) * rng.uniform(0.5, 5) + rng.normal()
            g1, z, _ = dagostino_skewness(x)
            og1, oz = skewness_z_oracle(x)
            worst = max(worst, abs(g1 - og1), abs(z - oz))
        _criterion(worst <= 1e-10, "9a skewness oracle equivalence",
                   f"worst |diff| = {worst:.2e} over 100 random vectors, 9 <= n <= 500")

    def test_strong_negative_skew_level(self):
        # mirrored log-normal tuned so the population skewness is about -1.73
        g1s, ps = [], []
        for seed in range(7):
            rng = np.random.default_rng((909, seed))
            x = -np.exp(0.49685 * rng.normal(size=500))
            g1, _, p = dagostino_skewness(x)
            g1s.append(g1)
            ps.append(p)
        med_g1 = float(np.median(g1s))
        _criterion(
            abs(med_g1 - (-1.73)) <= 0.35 and max(ps) < 1e-3,
            "9b strong negative skew detected",
            f"median g1 = {med_g1:.3f} (target -1.73); max p = {max(ps):.1e} < 1e-3",
        )
