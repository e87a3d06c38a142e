import errno
import math
import mmap
import os
import signal
import threading
import time

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dip_lp_oracle, dip_sorted_reference, skewness_z_oracle
from finestruct import (
    BadSpec,
    ConstantFeature,
    EngineConfig,
    FeatureSeries,
    TooFewPoints,
    analyze_feature,
    dagostino_skewness,
    describe,
    dip_pvalue_mc,
    dip_statistic,
    feature_report,
    pareto_radius,
)
from finestruct import stattests
from finestruct._split import split_fill
from finestruct.cli import main
from finestruct.stats_core import MAX_COUNT
from finestruct.stattests import _dips_sorted, _skew_z


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda v: dip_pvalue_mc(v, 20, 5),
    lambda v: dip_statistic([1.0, v, 2.0, 0.5]),
    lambda v: dagostino_skewness([*range(9), v]),
    lambda v: pareto_radius([0.0, 1.0, v]),
], ids=["dip_pvalue_mc", "dip_statistic", "dagostino_skewness", "pareto_radius"])
def test_non_finite_input_rejected(call, bad):
    # unchecked, a NaN dip gets p = 1/(B + 1), the strongest rejection of unimodality
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def _null_replicate(n, i):
    """The sample of replicate i of a seed-3 dip null, drawn as ``stattests._null_range`` does."""
    return np.random.default_rng(np.random.SeedSequence((3, i))).random(n)


# each case: a sample built from a seeded generator, and the k at which
# dip_statistic(x * 2**k) is checked (1e17 * 2**1000 would overflow)
LP_CASES = {
    "null60": (lambda rng: _null_replicate(60, 0), (0, -1000, 1000)),
    "null100": (lambda rng: _null_replicate(100, 1), (0, -1000, 1000)),
    "ties80": (lambda rng: np.round(rng.normal(size=80), 1), (0, -1000, 1000)),
    "clusters": (lambda rng: np.concatenate([rng.normal(size=40), 4.0 + rng.normal(size=40)]),
                 (0, -1000, 1000)),
    "offset1e17": (lambda rng: 1e17 + 16.0 * rng.integers(-200, 200, size=60), (0, -1000)),
}


class TestDipStatistic:
    def test_two_points(self):
        # lower bound 1/(2n) attained at n=2 (verified against the LP oracle)
        assert dip_statistic([0, 1]) == 0.25

    def test_evenly_spaced(self):
        assert dip_statistic([1, 2, 3, 4, 5]) == 0.1

    def test_two_tight_clusters(self):
        # frozen LP-oracle value: (2 - 0.02/2.99) / 8
        d = dip_statistic([0.0, 0.01, 2.99, 3.0])
        assert d == pytest.approx(0.2491638795986622, abs=1e-15)

    def test_ties(self):
        assert dip_statistic([0.0, 0.0, 1.0]) == pytest.approx(1 / 6)

    def test_matches_lp_oracle_small_samples(self):
        rng = np.random.default_rng(42)
        for i in range(25):
            n = int(rng.integers(4, 13))
            if i % 3 == 0:
                x = rng.normal(size=n)
            elif i % 3 == 1:
                half = n // 2
                x = np.concatenate([0.05 * rng.normal(size=half),
                                    3 + 0.05 * rng.normal(size=n - half)])
            else:
                x = np.round(rng.normal(size=n), 1)  # forces ties
            assert dip_statistic(x) == pytest.approx(dip_lp_oracle(x), abs=1e-7)

    @pytest.mark.parametrize("case", sorted(LP_CASES))
    def test_matches_lp_oracle_at_null_sizes(self, case):
        # the kinds the null and real data hit at n = 60-100: the null's own
        # (seed, i) uniform streams, ties, two clusters and a 1e17 offset (16 is
        # its ulp). The LP solver fails at 2**±1000, so it sees the unscaled x.
        make, scales = LP_CASES[case]
        x = make(np.random.default_rng(50))
        want = dip_lp_oracle(x)
        for k in scales:
            assert dip_statistic(np.ldexp(x, k)) == pytest.approx(want, abs=1e-12), k

    @pytest.mark.parametrize("n", range(2, 51))
    def test_even_grid_attains_lower_bound(self, n):
        assert dip_statistic(np.arange(float(n))) == 0.5 / n

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            x = rng.normal(size=n)
            d = dip_statistic(x)
            assert 0.5 / n <= d <= 0.25

    def test_affine_invariance_exact(self):
        # scaling by powers of two is lossless in binary floating point, so
        # the dip must come out bit-identical; integer shifts of integer data
        # are lossless too
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 120)))
            d = dip_statistic(x)
            assert dip_statistic(4.0 * x) == d
            assert dip_statistic(0.25 * x) == d
        grid = np.sort(rng.integers(0, 1000, size=60)).astype(float)
        assert dip_statistic(grid + 7.0) == dip_statistic(grid)

    def test_power_of_two_invariance_at_any_scale(self):
        # the chord slopes of a sample scaled near either end of the float range
        # overflow unless the dip rescales it; integer data stays exact down to
        # the smallest subnormal, so D must be bit-identical for every k
        rng = np.random.default_rng(0)
        v = np.concatenate([rng.integers(-1000, -900, 200),
                            rng.integers(900, 1000, 200)]).astype(float)
        d = dip_statistic(v)
        assert [k for k in range(-1064, 1014) if dip_statistic(np.ldexp(v, k)) != d] == []
        clusters = v * 1.5e-3  # times 1e308, a range near 3e308 overflows
        assert dip_statistic(clusters * 1e308) == pytest.approx(dip_statistic(clusters), rel=1e-9)

    @pytest.mark.parametrize("step", [5e-324, 2.0**-1000, 2.0**-500])
    def test_subnormal_gap_beside_unit_values(self, step):
        # 3 zeros, 29 steps and 30 values in [0.1, 1]: at step 5e-324 a chord over
        # the steps has a slope that overflows the float range, yet its dip is
        # the 3/124 of the same staircase at normal steps, in either sign
        x = np.concatenate([np.zeros(3), step * np.arange(1, 30), np.linspace(0.1, 1, 30)])
        assert dip_statistic(x) == pytest.approx(3 / 124, rel=1e-12)
        assert dip_statistic(-x) == pytest.approx(3 / 124, rel=1e-12)
        # 21 steps with a gap beside 6 values in [0.1, 1]: here the dip is set by
        # a chord over the steps, 11/90 (the LP oracle's at step 2**-20)
        x = np.concatenate([2 * step * np.r_[1:13, 34:43], np.linspace(0.1, 1, 6)])
        assert dip_statistic(x) == pytest.approx(11 / 90, rel=1e-12)
        assert dip_statistic(-x) == pytest.approx(11 / 90, rel=1e-12)

    def test_affine_invariance_general(self):
        # a general a*x+b rounds the inputs themselves; the dip stays equal
        # to floating-point accuracy
        rng = np.random.default_rng(20)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 120)))
            d = dip_statistic(x)
            assert dip_statistic(0.7 * x - 8.0) == pytest.approx(d, rel=1e-9, abs=1e-12)

    def test_list_kernel_matches_reference(self):
        # the kernel must reproduce the frozen ndarray kernel bit for bit
        rng = np.random.default_rng(21)
        samples = []
        for i in range(250):
            n = int(rng.integers(2, 401))
            kind = i % 5
            if kind == 0:
                x = rng.random(n)
            elif kind == 1:
                x = rng.normal(size=n)
            elif kind == 2:
                x = np.round(rng.normal(size=n), 1)  # forces ties
            elif kind == 3:
                half = n // 2
                x = np.concatenate([rng.normal(size=half), 3 + rng.normal(size=n - half)])
            else:
                x = rng.lognormal(size=n)
            samples.append(x)
        samples.append(np.full(25, 4.0))
        samples.append(rng.normal(size=11194))
        # null replicates at the sizes a null table would hold, drawn as _null_range draws
        samples += [np.random.default_rng(np.random.SeedSequence((0, 0))).random(n) for n in (20_000, 50_000)]
        for x in samples:
            s = np.sort(x)
            assert _dips_sorted(s[np.newaxis]) == [dip_sorted_reference(s)]

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            dip_statistic([1.0])

    def test_constant_floor(self):
        assert dip_statistic([4.0] * 10) == 0.05


KERNEL_ROWS = ("uniform", "constant", "ties", "clusters", "offset", "staircase", "subnormal")


def _kernel_row(kind, n, rng):
    """n values of one kind that stresses the dip kernel's hulls and chord gaps."""
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "ties":
        return np.round(rng.normal(size=n), 1)
    if kind == "clusters":
        return np.concatenate([rng.normal(size=n // 2), 4.0 + rng.normal(size=n - n // 2)])
    if kind == "offset":  # 16 is the ulp of 1e17
        return 1e17 + 16.0 * rng.integers(-200, 200, size=n)
    if kind in ("staircase", "subnormal"):  # steps beside values in [0.1, 1]
        step = 5e-324 if kind == "subnormal" else 2.0**-1000
        return np.concatenate([step * rng.integers(0, 40, size=n // 2), rng.uniform(0.1, 1.0, size=n - n // 2)])
    return rng.random(n)


class TestDipKernel:
    """``_dips_sorted`` on blocks of rows: each row's dip is its dip alone and the frozen reference's."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(2, 600), st.lists(st.sampled_from(KERNEL_ROWS), min_size=1, max_size=8),
           st.sampled_from([1.0, -1.0]), st.integers(0, 2**32 - 1))
    def test_block_rows_match_reference(self, n, kinds, sign, seed):
        # blocks of fewer than _NUMPY_POINTS points run in Python loops, larger
        # ones in numpy, so a row is checked on both paths at most sizes; over
        # subnormal steps the two paths' overflowed slopes are checked alike
        rng = np.random.default_rng(seed)
        block = np.sort([sign * _kernel_row(kind, n, rng) for kind in kinds], axis=1)
        dips = _dips_sorted(block)
        assert len(dips) == len(kinds)
        for kind, row, d in zip(kinds, block, dips):
            assert _dips_sorted(row[np.newaxis]) == [d]
            if kind == "subnormal":  # the reference's chord slopes overflow over 5e-324 steps
                assert 0.5 / n <= d <= 0.25
            else:
                assert d == dip_sorted_reference(row)

    @pytest.mark.parametrize("step", [5e-324, 2.0**-1000])
    def test_block_of_subnormal_staircases(self, step):
        # the 27-value column whose dip, 11/90, a chord over the steps sets: in
        # a block of 64 its chord gaps run in numpy, alone in Python loops
        x = np.sort(np.concatenate([2 * step * np.r_[1:13, 34:43], np.linspace(0.1, 1, 6)]))
        for row in (x, -x[::-1]):
            alone = _dips_sorted(row[np.newaxis])
            assert _dips_sorted(np.tile(row, (64, 1))) == alone * 64
            assert alone[0] == pytest.approx(11 / 90, rel=1e-12)

    @pytest.mark.parametrize("n, b", [(2, 50), (7, 40), (500, 30), (11_194, 3)])
    def test_null_bytes_ignore_block_size(self, monkeypatch, n, b):
        want = stattests._null_range(n, 0, b, 13)
        for i in range(min(b, 3)):
            u = np.sort(np.random.default_rng(np.random.SeedSequence((13, i))).random(n))
            assert want[i] == dip_sorted_reference(u)
        for points in (n, 3 * n):
            monkeypatch.setattr(stattests, "_BLOCK_POINTS", points)
            assert stattests._null_range(n, 0, b, 13).tobytes() == want.tobytes()
            assert stattests._null_range(n, 1, b, 13).tobytes() == want[1:].tobytes()

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_invariants_at_table_sizes(self, n):
        # on the null's own replicates at the sizes a null table would hold:
        # the bounds, exact power-of-two invariance and mirror symmetry
        dips = stattests._null_range(n, 0, 2, 17)
        for i, d in enumerate(dips):
            x = np.random.default_rng(np.random.SeedSequence((17, i))).random(n)
            assert np.ldexp(x.min(), -1000) >= np.finfo(float).tiny  # x * 2**-1000 stays normal
            assert dip_statistic(x) == d
            assert 0.5 / n <= d <= 0.25
            assert dip_statistic(np.ldexp(x, 1000)) == d
            assert dip_statistic(np.ldexp(x, -1000)) == d
            assert dip_statistic(-x) == pytest.approx(d, rel=1e-12, abs=0)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """Force the next nulls onto k usable CPUs with no points floor, from an empty cache."""
    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setattr(stattests, "_MIN_SPLIT_POINTS", 1)
        stattests._null_dips.cache_clear()
    yield force
    stattests._null_dips.cache_clear()


_SERIAL = {}


class TestNullSplit:
    @pytest.mark.parametrize("n, b", [(50, 2), (50, 7), (2, 30), (500, 2000)],
                             ids=["b-below-k", "b-not-divisible", "n-2", "n-500"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_same_bytes_for_any_worker_count(self, workers, k, n, b):
        if (n, b) not in _SERIAL:
            _SERIAL[n, b] = stattests._null_range(n, 0, b, 11).tobytes()
        workers(k)
        assert stattests._null_dips(n, b, 11).tobytes() == _SERIAL[n, b]
        assert stattests._null_workers[-1] == min(k, b)
        _assert_no_child()

    def test_points_floor_keeps_small_nulls_whole(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        stattests._null_dips.cache_clear()
        b = stattests._MIN_SPLIT_POINTS // 100
        stattests._null_dips(100, b - 1, 2)
        assert stattests._null_workers[-1] == 1
        stattests._null_dips(100, 2 * b, 2)
        assert stattests._null_workers[-1] == 2
        stattests._null_dips.cache_clear()

    def test_no_split_beside_other_threads(self, workers):
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            workers(2)
            stattests._null_dips(50, 8, 1)
            assert stattests._null_workers[-1] == 1
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("module, call", [(os, "fork"), (mmap, "mmap")], ids=["fork", "mmap"])
    def test_fork_failure_computes_in_process(self, workers, monkeypatch, tmp_path, capsys,
                                              module, call):
        rng = np.random.default_rng(3)
        csv_path = tmp_path / "u.csv"
        csv_path.write_text("u\n" + "\n".join(repr(float(v)) for v in rng.random(200)) + "\n")
        args = ["test", str(csv_path), "u", "--replicates", "90", "--seed", "4", "--json"]
        workers(2)
        want = stattests._null_dips(200, 90, 4).tobytes()
        assert main(args) == 0
        out = capsys.readouterr().out

        def unavailable(*args):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(module, call, unavailable)
        workers(2)
        assert stattests._null_dips(200, 90, 4).tobytes() == want
        assert stattests._null_workers[-1] == 1
        stattests._null_dips.cache_clear()
        assert main(args) == 0
        assert capsys.readouterr().out == out
        _assert_no_child()

    @pytest.mark.parametrize("failure", ["raises", "short", "killed"])
    def test_failed_child_range_computed_in_process(self, workers, monkeypatch, failure):
        want = stattests._null_range(300, 0, 90, 5).tobytes()
        null_range = stattests._null_range
        parent = os.getpid()

        def child_fails(n, lo, hi, seed):
            if os.getpid() == parent:
                return null_range(n, lo, hi, seed)
            if failure == "raises":
                raise RuntimeError("child fails")
            if failure == "killed":  # before it writes
                os.kill(os.getpid(), signal.SIGKILL)
            return null_range(n, lo, hi - 1, seed)  # too few values for its slice

        monkeypatch.setattr(stattests, "_null_range", child_fails)
        workers(3)
        assert stattests._null_dips(300, 90, 5).tobytes() == want
        assert stattests._null_workers[-1] == 1
        _assert_no_child()

    def test_parent_failure_kills_children(self, workers, monkeypatch):
        parent = os.getpid()

        def parent_fails(n, lo, hi, seed):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(stattests, "_null_range", parent_fails)
        workers(3)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            stattests._null_dips(300, 90, 5)
        assert time.perf_counter() - t0 < 30
        _assert_no_child()

    def test_fork_fails_after_first_child(self, workers, monkeypatch):
        want = stattests._null_range(300, 0, 90, 5).tobytes()
        fork, pids = os.fork, []

        def fork_once():
            if pids:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        workers(3)
        assert stattests._null_dips(300, 90, 5).tobytes() == want
        assert stattests._null_workers[-1] == 1
        assert len(pids) == 1
        _assert_no_child()


class TestSplitFill:
    def test_failed_child_raises(self):
        parent = os.getpid()

        def fill(out, j):
            if os.getpid() != parent:
                raise RuntimeError("child fails")
            out[j] = 0.0

        with pytest.raises(ChildProcessError):
            split_fill(3, 3, fill)
        _assert_no_child()


class TestDipPvalue:
    def test_floor_for_huge_dip(self):
        assert dip_pvalue_mc(0.25, 100, 199, seed=1) == pytest.approx(1 / 200)

    def test_one_for_tiny_dip(self):
        assert dip_pvalue_mc(1e-9, 100, 199, seed=1) == 1.0

    def test_monotone_in_d(self):
        ds = np.linspace(0.001, 0.2, 40)
        ps = [dip_pvalue_mc(d, 200, 500, seed=3) for d in ds]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_deterministic(self):
        a = dip_pvalue_mc(0.02, 500, 300, seed=9)
        b = dip_pvalue_mc(0.02, 500, 300, seed=9)
        assert a == b

    def test_seed_changes_sample(self):
        a = dip_pvalue_mc(0.019, 500, 300, seed=9)
        b = dip_pvalue_mc(0.019, 500, 300, seed=10)
        assert a != b  # different null draws (equality would be a 1/300 fluke)

    def test_null_calibration(self):
        # uniform data should rarely look non-unimodal
        hits = 0
        reps = 200
        for seed in range(reps):
            x = np.random.default_rng((1234, seed)).random(1000)
            p = dip_pvalue_mc(dip_statistic(x), 1000, 500, seed=77)
            hits += p < 0.05
        assert 0.01 <= hits / reps <= 0.10

    def test_validation(self):
        for d in (0.0, math.inf):
            with pytest.raises(BadSpec, match="positive and finite"):
                dip_pvalue_mc(d, 100, 10)
        with pytest.raises(ValueError):
            dip_pvalue_mc(0.1, 100, 0)
        with pytest.raises(TooFewPoints):
            dip_pvalue_mc(0.1, 1, 10)
        with pytest.raises(BadSpec, match="at most"):  # 8·B bytes over sys.maxsize
            dip_pvalue_mc(0.1, 100, MAX_COUNT + 1)
        with pytest.raises(BadSpec, match="B must be an integer"):
            dip_pvalue_mc(0.1, 50, 1.9)
        with pytest.raises(BadSpec, match="n must be an integer"):
            dip_pvalue_mc(0.1, 50.9, 10)
        assert dip_pvalue_mc(0.1, np.int64(50), np.int32(10)) == dip_pvalue_mc(0.1, 50, 10)


class TestDagostinoSkewness:
    def test_symmetric_sample(self):
        x = [-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2]
        g1, z, p = dagostino_skewness(x)
        assert g1 == 0 and z == 0 and p == 1

    def test_outlier_sample_matches_oracle(self):
        # {1,2,3,4,100} padded with 4 symmetric mid-values
        x = [1, 2, 3, 4, 100, 2.0, 3.0, 2.5, 2.5]
        g1, z, _ = dagostino_skewness(x)
        og1, oz = skewness_z_oracle(x)
        assert g1 == pytest.approx(og1, abs=1e-12)
        assert z == pytest.approx(oz, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(9, 500))) * 2 + 1
            g1, z, p = dagostino_skewness(x)
            sz, sp = scipy.stats.skewtest(x)
            assert z == pytest.approx(float(sz), abs=1e-10)
            assert p == pytest.approx(float(sp), abs=1e-10)

    def test_sign_and_oddness(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x = rng.lognormal(size=50)
            g1, z, _ = dagostino_skewness(x)
            assert np.sign(z) == np.sign(g1)
            g1n, zn, _ = dagostino_skewness(-x)
            assert zn == -z and g1n == -g1

    def test_too_few(self):
        for call in (lambda: dagostino_skewness(np.arange(8.0)),
                     lambda: dagostino_skewness([]),
                     lambda: _skew_z(0.0, 8)):
            with pytest.raises(TooFewPoints):
                call()

    def test_constant(self):
        with pytest.raises(ConstantFeature):
            dagostino_skewness(np.ones(20))

    def test_constant_with_inexact_mean(self):
        # the mean of 100 x 0.1 is not 0.1, so m2 > 0 although all values are equal
        with pytest.raises(ConstantFeature):
            dagostino_skewness(np.full(100, 0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e125, 1e160, 1e-130])
    def test_scaled_sample_keeps_g1(self, scale):
        # unscaled, 1e125 would overflow m3 and m2 ** 1.5, 1e160 m2, and 1e-130
        # would underflow m2 ** 1.5
        x = np.random.default_rng(41).normal(size=300)
        g1, z, p = dagostino_skewness(x)
        sg1, sz, sp = dagostino_skewness(x * scale)
        assert sg1 == pytest.approx(g1, rel=1e-9)
        assert sz == pytest.approx(z, rel=1e-9) and sp == pytest.approx(p, rel=1e-9)
        assert describe(FeatureSeries("x", x * scale)).skewness_g1 == pytest.approx(g1, rel=1e-9)


class TestGaussianGate:
    """The verdict behind the Gaussian overlay: both p-values at or above alpha.

    ``analyze_feature`` draws the overlay exactly when ``feature_report``'s
    dip and skewness p-values both reach alpha.
    """

    def test_normal_passes(self):
        x = np.random.default_rng(5).normal(size=2000)
        f = FeatureSeries("n", x)
        report = feature_report(f, describe(f), B=500, seed=2)
        assert report.dip_p >= 0.05 and report.skew_p >= 0.05

    def test_bimodal_fails(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(size=2000), rng.normal(4.0, 1, size=2000)])
        f = FeatureSeries("b", x)
        report = feature_report(f, describe(f), B=500, seed=2)
        assert report.dip_p < 0.05

    def test_skewed_fails(self):
        x = np.random.default_rng(7).lognormal(size=2000)
        f = FeatureSeries("s", x)
        report = feature_report(f, describe(f), B=500, seed=2)
        assert report.skew_p < 0.05

    def test_degenerate_returns_none_report(self):
        f = FeatureSeries("c", np.ones(100))
        assert np.isnan(feature_report(f, describe(f), B=50, seed=1).skew_p)
        assert analyze_feature(f, EngineConfig(replicates=50, seed=1)).report is None

    def test_normal_passes_in_most_seeded_runs(self):
        # sampling oracle: the two 5%-level tests leave the overlay on for
        # nearly all truly Gaussian samples (dip rarely fires on normal data
        # because the uniform null is the least favorable unimodal case)
        count = 0
        for s in range(100):
            x = np.random.default_rng((321, s)).normal(size=15500)
            f = FeatureSeries("n", x)
            r = feature_report(f, describe(f), B=500, seed=999)
            count += r.dip_p >= 0.05 and r.skew_p >= 0.05
        assert count >= 95

    def test_report_fields(self):
        x = np.random.default_rng(8).normal(size=500)
        f = FeatureSeries("f", x)
        r = feature_report(f, describe(f), B=250, seed=42)
        assert r.n == 500
        assert r.dip_replicates == 250
        assert r.seed == 42
        assert 0.5 / 500 <= r.dip_d <= 0.25
        assert r.dip_p >= 1 / 251

    def test_tiny_spread_tests_like_unscaled(self):
        # 300 normals times 2**-565 (about 1e-170): the squared deviations
        # underflow unless the moments are taken on the power-of-two-scaled sample
        x = np.random.default_rng(9).normal(size=300)
        tiny = np.ldexp(x, -565)
        assert dagostino_skewness(tiny) == dagostino_skewness(x)
        glyph = analyze_feature(FeatureSeries("tiny", tiny), EngineConfig(replicates=50, seed=1))
        assert glyph.kind == "density" and glyph.report is not None


class TestFeatureReport:
    def test_matches_the_separate_tests(self):
        x = np.random.default_rng(10).normal(size=300)
        f = FeatureSeries("f", x)
        r = feature_report(f, describe(f), B=100, seed=3)
        d = dip_statistic(x)
        assert (r.dip_d, r.dip_p) == (d, dip_pvalue_mc(d, 300, 100, 3))
        assert (r.skew_g1, r.skew_z, r.skew_p) == dagostino_skewness(x)
        assert (r.n, r.dip_replicates, r.seed) == (300, 100, 3)

    def test_constant_sample_has_nan_skewness(self):
        f = FeatureSeries("c", np.ones(50))
        r = feature_report(f, describe(f), B=20, seed=1)
        assert r.dip_d == 0.5 / 50
        assert np.isnan(r.skew_g1) and np.isnan(r.skew_z) and np.isnan(r.skew_p)

    @pytest.mark.parametrize("n", [1, 8])
    def test_too_few_points_raises(self, n):
        with pytest.raises(TooFewPoints):
            f = FeatureSeries("s", np.arange(float(n)))
            feature_report(f, describe(f), B=20, seed=1)

    @pytest.mark.parametrize("n, message", [
        (1, "dip_statistic needs at least 2 values"),
        (8, "skewness test needs n >= 9, got 8"),
    ])
    def test_too_few_points_builds_no_null(self, n, message):
        # the skewness test's n check runs before the dip's B = 2000 null
        f = FeatureSeries("s", np.arange(float(n)))
        before = stattests._null_dips.cache_info().misses
        with pytest.raises(TooFewPoints, match=message):
            feature_report(f, describe(f), B=2000, seed=80_808)
        assert stattests._null_dips.cache_info().misses == before
