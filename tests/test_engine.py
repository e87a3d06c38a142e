import json

import numpy as np
import pytest

from finestruct import (
    EngineConfig,
    FeatureSeries,
    NoPlottableFeatures,
    Ordering,
    ScalingMode,
    analyze_feature,
    build_plot_model,
    derive_seed,
    order_features,
    subsample,
)
from finestruct.engine import _van_der_corput
from finestruct.stattests import _null_dips

FAST = EngineConfig(replicates=200, seed=7)


def _normal(name, n, seed, mu=0.0, sd=1.0):
    rng = np.random.default_rng(seed)
    return FeatureSeries(name, rng.normal(mu, sd, n))


def _bimodal(name, n, seed, m=4.0):
    # separation well past the detection threshold so the dip verdict is
    # decisive at these moderate sample sizes
    rng = np.random.default_rng(seed)
    half = n // 2
    vals = np.concatenate([rng.normal(0, 1, half), rng.normal(m, 1, n - half)])
    return FeatureSeries(name, vals)


# two tight clusters at the ends of the float range; max - min overflows
_HUGE = np.concatenate([np.linspace(-1.7e308, -1.6e308, 150), np.linspace(1.6e308, 1.7e308, 150)])


class TestSubsample:
    def test_under_cap_is_identity(self):
        f = _normal("x", 100, 1)
        assert subsample(f, 500_000, seed=1) is f

    def test_cap_semantics(self):
        f = _normal("x", 10_000, 2)
        out = subsample(f, 1000, seed=3)
        assert len(out) == 1000
        assert np.isin(out.values, f.values).all()
        assert out.name == "x"

    def test_deterministic(self):
        f = _normal("x", 5000, 4)
        a = subsample(f, 100, seed=5)
        b = subsample(f, 100, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_missing_preserved(self):
        f = FeatureSeries("m", np.arange(100.0), missing_count=9)
        assert subsample(f, 10, seed=0).missing_count == 9


class TestAnalyzeFeature:
    def test_small_sample_gets_jitter(self):
        f = _normal("small", 40, 3)
        glyph = analyze_feature(f, FAST)
        assert glyph.kind == "jitter"
        assert glyph.report is None
        assert glyph.shape_class == "Discrete"
        assert glyph.curve is None

    def test_two_error_states_get_jitter(self):
        vals = np.array([0.0] * 60 + [0.05] * 40)
        glyph = analyze_feature(FeatureSeries("err", vals), FAST)
        assert glyph.kind == "jitter"
        assert glyph.shape_class == "Discrete"

    def test_constant_gets_dirac(self):
        glyph = analyze_feature(FeatureSeries("c", np.full(100, 3.0)), FAST)
        assert glyph.kind == "dirac"
        assert glyph.dirac_value == 3.0

    def test_normal_gets_density_and_overlay(self):
        glyph = analyze_feature(_normal("n", 2000, 5), FAST)
        assert glyph.kind == "density"
        assert glyph.gaussian_overlay is not None
        assert glyph.shape_class == "GaussianLike"
        assert glyph.stats.n == 2000

    def test_bimodal_no_overlay(self):
        glyph = analyze_feature(_bimodal("b", 4000, 6), FAST)
        assert glyph.kind == "density"
        assert glyph.gaussian_overlay is None
        assert glyph.shape_class == "Nonunimodal"

    def test_skewed_class(self):
        rng = np.random.default_rng(8)
        glyph = analyze_feature(FeatureSeries("ln", rng.lognormal(size=3000)), FAST)
        assert glyph.shape_class == "Skewed"
        assert glyph.gaussian_overlay is None and glyph.report is not None

    def test_no_gaussian_disables_overlay(self):
        cfg = EngineConfig(replicates=200, seed=7, robust_gaussian=False)
        glyph = analyze_feature(_normal("n", 2000, 5), cfg)
        assert glyph.gaussian_overlay is None
        assert glyph.report is not None  # tests still run for the report

    def test_jitter_offsets_bounded_and_deterministic(self):
        f = _normal("j", 30, 9)
        g1 = analyze_feature(f, FAST)
        g2 = analyze_feature(f, FAST)
        assert np.array_equal(g1.offsets, g2.offsets)
        assert np.all(np.abs(g1.offsets) <= 0.3)

    def test_van_der_corput_matches_scalar_digits(self):
        def scalar(k):
            v, denom = 0.0, 1.0
            while k:
                denom *= 2.0
                v += (k & 1) / denom
                k >>= 1
            return v

        for start in (1, 2, 7, 500, 997, 998):
            got = _van_der_corput(start, 3000)
            want = np.array([scalar(start + i) for i in range(3000)])
            assert got.tobytes() == want.tobytes()
        assert _van_der_corput(5, 0).shape == (0,)

    def test_box_overlay_attached_iff_configured(self):
        cfg = EngineConfig(replicates=200, seed=7, boxplot_overlay=True)
        f = _normal("n", 2000, 5)
        with_box = analyze_feature(f, cfg)
        without = analyze_feature(f, FAST)
        assert with_box.box_overlay is not None
        assert without.box_overlay is None
        b = with_box.box_overlay
        assert b.whisker_low <= b.q25 <= b.median <= b.q75 <= b.whisker_high

    def test_overlay_never_on_jitter_or_dirac(self):
        rng = np.random.default_rng(10)
        for i in range(30):
            n = int(rng.integers(1, 60))
            vals = np.round(rng.normal(size=n), rng.integers(0, 2))
            glyph = analyze_feature(FeatureSeries(f"f{i}", vals), FAST)
            if glyph.kind != "density":
                assert glyph.gaussian_overlay is None
            # shape class and glyph kind stay in lockstep
            assert (glyph.shape_class == "Discrete") == (glyph.kind != "density")

    def test_large_subsample_exact_cap(self):
        rng = np.random.default_rng(99)
        f = FeatureSeries("big", rng.normal(size=1_000_000))
        out = subsample(f, 100_000, seed=1)
        assert len(out) == 100_000
        assert np.isin(out.values[:100], f.values).all()


class TestOrderFeatures:
    def test_alphabetical(self):
        glyphs = [
            analyze_feature(_normal(name, 60, i), FAST)
            for i, name in enumerate(["b", "a", "c"])
        ]
        perm = order_features(glyphs, Ordering.ALPHABETICAL)
        assert [glyphs[i].feature for i in perm] == ["a", "b", "c"]

    def test_columnwise_identity(self):
        glyphs = [analyze_feature(_normal(str(i), 60, i), FAST) for i in range(4)]
        assert order_features(glyphs, Ordering.COLUMNWISE) == [0, 1, 2, 3]

    def test_statistics_gaussian_first(self):
        gaussian = analyze_feature(_normal("gauss", 3000, 1), FAST)
        bimodal = analyze_feature(_bimodal("bimod", 3000, 2), FAST)
        perm = order_features([bimodal, gaussian], Ordering.STATISTICS)
        assert [["bimod", "gauss"][i] for i in perm] == ["gauss", "bimod"]

    def test_discrete_last(self):
        discrete = analyze_feature(_normal("tiny", 20, 3), FAST)
        gaussian = analyze_feature(_normal("gauss", 3000, 4), FAST)
        perm = order_features([discrete, gaussian], Ordering.STATISTICS)
        assert perm == [1, 0]

    def test_default_aliases_statistics(self):
        glyphs = [
            analyze_feature(_bimodal("b", 3000, 5), FAST),
            analyze_feature(_normal("g", 3000, 6), FAST),
        ]
        assert order_features(glyphs, Ordering.DEFAULT) == order_features(
            glyphs, Ordering.STATISTICS
        )

    def test_empty_raises(self):
        with pytest.raises(NoPlottableFeatures):
            order_features([], Ordering.DEFAULT)


class TestBuildPlotModel:
    def test_y_range_covers_extents_with_small_pad(self):
        f = FeatureSeries("u", np.random.default_rng(1).uniform(-2, 2, 1000))
        model = build_plot_model([f], FAST)
        lo, hi = model.glyphs[0].extent()
        span = hi - lo
        assert model.y_range[0] <= lo and model.y_range[1] >= hi
        assert (lo - model.y_range[0]) + (model.y_range[1] - hi) <= 0.02 * span + 1e-12

    def test_empty_feature_skipped_not_fatal(self):
        good = _normal("good", 200, 2)
        empty = FeatureSeries("empty", [], missing_count=5)
        model = build_plot_model([good, empty], FAST)
        assert len(model.glyphs) == 1
        assert len(model.skipped) == 1
        assert model.skipped[0].feature == "empty"

    def test_all_skipped_raises(self):
        empties = [FeatureSeries(n, []) for n in ("a", "b")]
        with pytest.raises(NoPlottableFeatures):
            build_plot_model(empties, FAST)

    def test_no_features_raises(self):
        with pytest.raises(NoPlottableFeatures):
            build_plot_model([], FAST)

    def test_complete_robust_shares_unit_axis(self):
        rng = np.random.default_rng(3)
        mty = FeatureSeries("MTY", rng.normal(4000, 900, 4000))
        its = FeatureSeries("ITS", rng.normal(0.4, 0.05, 4000))
        cfg = EngineConfig(replicates=200, seed=7, scaling=ScalingMode.COMPLETE_ROBUST)
        model = build_plot_model([mty, its], cfg)
        for glyph in model.glyphs:
            lo, hi = glyph.extent()
            assert lo >= 0.0 and hi <= 1.0

    def test_constant_feature_under_robust_scaling_skipped(self):
        cfg = EngineConfig(replicates=200, seed=7, scaling=ScalingMode.ROBUST)
        const = FeatureSeries("const", np.full(100, 2.0))
        good = _normal("good", 200, 4)
        model = build_plot_model([good, const], cfg)
        assert [g.feature for g in model.glyphs] == ["good"]
        assert model.skipped[0].feature == "const"

    def test_pipeline_deterministic(self):
        feats = [_normal("a", 500, 5), _bimodal("b", 600, 6), _normal("c", 40, 7)]
        m1 = build_plot_model(feats, FAST)
        m2 = build_plot_model(feats, FAST)
        assert json.dumps(m1.to_dict()) == json.dumps(m2.to_dict())

    def test_per_feature_isolation(self):
        good = _normal("good", 300, 8)
        sick = FeatureSeries("sick", [])
        alone = build_plot_model([good], FAST)
        paired = build_plot_model([good, sick], FAST)
        a = alone.to_dict()["features"][0]
        b = paired.to_dict()["features"][0]
        assert a == b

    @pytest.mark.parametrize(
        "values, scaling",
        [
            # range spans fewer floats than the PDE grid needs
            (1e17 + 16.0 * (np.arange(300) % 20), ScalingMode.NONE),
            (5e-324 * (np.arange(300) % 40), ScalingMode.NONE),
            # range overflows the float range
            (_HUGE, ScalingMode.NONE),
            (_HUGE, ScalingMode.PERCENTALIZE),
            (_HUGE, ScalingMode.ROBUST),
        ],
        ids=["offset-1e17", "subnormal", "overflow-none", "overflow-percentalize",
             "overflow-robust"],
    )
    def test_extreme_column_skipped_sibling_unchanged(self, values, scaling):
        cfg = EngineConfig(replicates=200, seed=7, scaling=scaling)
        good = _normal("good", 300, 8)
        alone = build_plot_model([good], cfg)
        with np.errstate(all="ignore"):
            paired = build_plot_model([good, FeatureSeries("extreme", values)], cfg)
        assert [s.feature for s in paired.skipped] == ["extreme"]
        assert paired.skipped[0].reason.startswith("BadRange: ")
        assert paired.to_dict()["features"] == alone.to_dict()["features"]
        g, h = alone.glyphs[0], paired.glyphs[0]
        assert np.array_equal(g.curve.kernels, h.curve.kernels)
        assert np.array_equal(g.curve.densities, h.curve.densities)
        assert g.report == h.report

    def test_equal_n_columns_share_one_null(self):
        feats = [_normal("a", 300, 20), _bimodal("b", 300, 21), _normal("c", 300, 22, mu=3)]
        _null_dips.cache_clear()
        model = build_plot_model(feats, FAST)
        info = _null_dips.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert [g.kind for g in model.glyphs] == ["density"] * 3
        assert all(g.report.seed == FAST.seed for g in model.glyphs)

    def test_equal_n_sibling_leaves_report_entry_unchanged(self):
        # below the cell budget nothing is subsampled, and the shared null
        # depends on (seed, n, B) only
        a = _normal("a", 300, 23)
        alone = build_plot_model([a], FAST).to_dict()["features"]
        paired = build_plot_model([a, _bimodal("b", 300, 24)], FAST).to_dict()["features"]
        entry = next(e for e in paired if e["name"] == "a")
        assert json.dumps(entry) == json.dumps(alone[0])

    def test_affine_scaling_preserves_kind_and_statistics_order(self):
        feats = [_normal("n1", 900, 9), _bimodal("n2", 900, 10), _normal("n3", 900, 11, mu=5)]
        cfg_none = EngineConfig(replicates=200, seed=7, ordering=Ordering.STATISTICS)
        cfg_rob = EngineConfig(
            replicates=200, seed=7, ordering=Ordering.STATISTICS, scaling=ScalingMode.ROBUST
        )
        m_none = build_plot_model(feats, cfg_none)
        m_rob = build_plot_model(feats, cfg_rob)
        assert [g.feature for g in m_none.glyphs] == [g.feature for g in m_rob.glyphs]
        assert [g.kind for g in m_none.glyphs] == [g.kind for g in m_rob.glyphs]

    def test_subsample_cap_divides_budget(self):
        feats = [_normal(f"f{i}", 400, i) for i in range(4)]
        cfg = EngineConfig(replicates=100, seed=1, sample_size_cap=800)
        model = build_plot_model(feats, cfg)
        for g in model.glyphs:
            assert g.stats.n == 200  # 800 cells / 4 features

    def test_derive_seed_stable(self):
        assert derive_seed(7, "alpha") == derive_seed(7, "alpha")
        assert derive_seed(7, "alpha") != derive_seed(8, "alpha")
        assert derive_seed(7, "alpha") != derive_seed(7, "beta")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(min_data=1)
        with pytest.raises(ValueError):
            EngineConfig(sample_size_cap=10, min_data=50)
        with pytest.raises(ValueError):
            EngineConfig(alpha=0.0)
