"""Unimodality and skewness testing.

The dip statistic is the minimum over all unimodal distribution functions of
the sup distance to the empirical CDF, computed exactly on sorted data with
the greatest-convex-minorant / least-concave-majorant iteration. The dip
runs in pure Python on lists of floats; numpy is the only dependency. The dip
and the skewness are computed on the sample scaled by a power of two
(``stats_core.unit_scaled``), so they depend only on its multiset of values:
row order and any x * 2**k that keeps the values normal leave them bit for
bit alike. The dip's p-value comes from seeded Monte Carlo against the
uniform null, which depends only on (seed, n, B) (Hartigan & Hartigan 1985):
``_null_dips`` caches it on that key, so every sample of equal n tested at one
seed and B reuses one null, and splits it across the usable CPUs with ``fork``
without changing a byte: each forked worker writes its replicates into one
anonymous shared mapping. ``feature_report`` records that seed in
``TestReport.seed``. Skewness uses the classic transformation of g1 (from
``describe`` in ``feature_report``) to an approximately standard-normal z.
"""
from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadSpec, ConstantFeature, TooFewPoints
from .stats_core import DescriptiveStats, FeatureSeries, check_count, finite_values, moments, unit_scaled

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
SKEW_UNDEFINED = "skewness undefined for a constant sample"
MIN_SKEW_N = 9  # fewest values the skewness test's Johnson S_U fit accepts
# Forking, exiting and reaping one null worker costs 5-7 ms of wall time and
# of CPU in a process that has imported finestruct.cli, and 20 000 points of
# null dips take 23-42 ms (n = 1000 and 500; 2-core VM); a null is split only
# so far that each worker gets at least this many points (n times replicates).
_MIN_SPLIT_POINTS = 20_000
# processes that computed each null of this process, in order (1 = not split)
_null_workers: list[int] = []


@dataclass(frozen=True)
class TestReport:
    """Dip and skewness results for one feature; seed keyed the dip null."""

    n: int
    dip_d: float
    dip_p: float
    dip_replicates: int
    skew_g1: float
    skew_z: float
    skew_p: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def _minorant_starts(x: list) -> list:
    """mn[j]: start of the greatest-convex-minorant chord ending at j, x sorted."""
    mn = [0] * len(x)
    for j in range(1, len(x)):
        xj = x[j]
        m = j - 1
        while m > 0:
            mm = mn[m]
            xm = x[m]
            if (xj - xm) * (m - mm) < (xm - x[mm]) * (j - m):
                break
            m = mm
        mn[j] = m
    return mn


def _chord_gaps(x: list, jb: int, je: int, off: int) -> list:
    """(jj - jb + off) - (x[jj] - x[jb]) * c for jb <= jj <= je, c the chord's slope.

    c = (je - jb) / (x[je] - x[jb]) in ECDF steps per unit of x, x sorted. Over
    a gap of a few subnormals beside values near 1, c overflows; the bounded
    ratios (x[jj] - x[jb]) / (x[je] - x[jb]) then stand in for x[jj] - x[jb]
    times c, so every gap stays finite.
    """
    xjb = x[jb]
    c = (je - jb) / (x[je] - xjb)
    if c == math.inf:
        span = x[je] - xjb
        return [(jj - jb + off) - (x[jj] - xjb) / span * (je - jb) for jj in range(jb, je + 1)]
    return [(jj - jb + off) - (x[jj] - xjb) * c for jj in range(jb, je + 1)]


def _dip_sorted(x: list) -> float:
    """Dip of an ascending-sorted sample, given as a list of floats.

    Iteratively fits the greatest convex minorant and least concave majorant
    of the ECDF on a shrinking modal interval; the running maximum discrepancy
    (kept in units of 2n) is the dip, in [1/(2n), 1/4]. Ties are handled
    natively. Python lists and floats index several times faster than ndarray
    scalars in these loops.
    """
    n = len(x)
    if x[n - 1] == x[0]:
        return 0.5 / n
    low = 0
    high = n - 1
    dip = 1.0  # in 2n units; enforces the 1/(2n) lower bound

    mn = _minorant_starts(x)
    # mj[k], the end of the concave-majorant chord starting at k, mirrors the
    # minorant of the reflected sample: each comparison multiplies the same two
    # floats with both signs flipped, so mj is exact
    mj = [n - 1 - m for m in reversed(_minorant_starts([-v for v in reversed(x)]))]

    while True:
        gcm = [high]  # minorant knots, from high down to low
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        l_gcm = ig = len(gcm) - 1
        ix = ig - 1

        lcm = [low]  # majorant knots, from low up to high
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        l_lcm = ih = len(lcm) - 1
        iv = 1

        # largest distance between the two fits, walked from both ends
        d = 0.0
        if l_gcm != 1 or l_lcm != 1:
            while True:
                gcmix = gcm[ix]
                lcmiv = lcm[iv]
                if gcmix > lcmiv:
                    gcmil = gcm[ix + 1]
                    dx = (lcmiv - gcmil + 1) - (x[lcmiv] - x[gcmil]) * (gcmix - gcmil) / (x[gcmix] - x[gcmil])
                    iv += 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv - 1
                else:
                    lcmivl = lcm[iv - 1]
                    dx = (x[gcmix] - x[lcmivl]) * (lcmiv - lcmivl) / (x[lcmiv] - x[lcmivl]) - (gcmix - lcmivl - 1)
                    ix -= 1
                    if dx >= d:
                        d = dx
                        ig = ix + 1
                        ih = iv
                if ix < 0:
                    ix = 0
                if iv > l_lcm:
                    iv = l_lcm
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip:
            break

        # dip of each chord of the two fits within the modal interval: the
        # ECDF's largest rise above a minorant chord, from one step up, and its
        # largest fall below a majorant chord, from one step down (negating the
        # gaps is exact, since fl(a - b) == -fl(b - a))
        dip_new = 0.0
        for j in range(ig, l_gcm):
            jb, je = gcm[j + 1], gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                dip_new = max(dip_new, max(_chord_gaps(x, jb, je, 1)))
        for j in range(ih, l_lcm):
            jb, je = lcm[j], lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                dip_new = max(dip_new, -min(_chord_gaps(x, jb, je, -1)))

        if dip < dip_new:
            dip = dip_new
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]
    return dip / (2.0 * n)


def dip_statistic(values) -> float:
    """Hartigan-Hartigan dip of a finite sample; larger means less unimodal.

    The dip is scale-free, so it is computed on the sorted sample scaled by the
    power of two that puts max |x| in [0.5, 1) (``stats_core.unit_scaled``):
    D(x * 2**k) == D(x) bit for bit while x * 2**k stays normal, and a range
    near the float limit cannot overflow the chord slopes.
    """
    x = finite_values(values)
    if x.size < 2:
        raise TooFewPoints("dip_statistic needs at least 2 values")
    return _dip_sorted(unit_scaled(np.sort(x))[0].tolist())


def _null_range(n: int, lo: int, hi: int, seed: int) -> np.ndarray:
    """Dips of the null's replicates lo <= i < hi; replicate i draws from (seed, i)."""
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        u = rng.random(n)
        u.sort()
        out[i - lo] = _dip_sorted(u.tolist())
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call, e.g. macOS
        return os.cpu_count() or 1


@functools.cache
def _null_dips(n: int, b: int, seed: int) -> np.ndarray:
    """Dips of B seeded uniform(0,1) samples of size n (the dip-test null).

    Every null of a process is kept (8·B bytes per key), so a run never
    computes one twice, however many distinct n its columns have. The
    replicates are split into k contiguous ranges, one per usable CPU with
    at least ``_MIN_SPLIT_POINTS`` points each; the parent computes the
    first and a forked child each other one, writing into its slice of an
    anonymous mapping that fork shares. Replicate i depends only on
    (seed, i), so the bytes are the same for every k. A child that does not
    exit 0, or a fork or mapping that fails, leaves its range to the parent,
    and a process without ``fork`` or running other threads uses k = 1.
    """
    k = 1
    if hasattr(os, "fork") and threading.active_count() == 1:  # fork is unsafe beside threads
        k = max(1, min(_usable_cpus(), b, n * b // _MIN_SPLIT_POINTS))
    out = np.empty(b)
    if k > 1:
        try:
            out = np.frombuffer(mmap.mmap(-1, 8 * b))
        except OSError:
            k = 1
    bounds = [b * j // k for j in range(k + 1)]

    def fill(j):
        out[bounds[j]:bounds[j + 1]] = _null_range(n, bounds[j], bounds[j + 1], seed)

    children = []  # (range index, pid), unreaped
    try:
        for j in range(1, k):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:  # the child never returns: no atexit hook, no inherited buffer flushed
                code = 1
                try:
                    fill(j)
                    code = 0
                finally:
                    os._exit(code)
            children.append((j, pid))
        for j in [0, *range(len(children) + 1, k)]:
            fill(j)
        workers = 1
        while children:
            j, pid = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status == 0:
                workers += 1
            else:
                fill(j)
    finally:
        for _, pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    _null_workers.append(workers)
    null = out.copy()  # a plain array for the cache; the mapping is freed with its view
    null.setflags(write=False)
    return null


def dip_pvalue_mc(d: float, n: int, B: int, seed: int = 0) -> float:
    """Monte Carlo p-value of a dip value against the uniform null.

    Add-one estimator p = (1 + #{dip(U_b) >= d}) / (B + 1); each replicate b
    draws from its own (seed, b) stream, so results are reproducible and
    monotone in d for a fixed seed.
    """
    if not 0 < d < math.inf:
        raise BadSpec("d must be positive and finite")
    if n < 2:
        raise TooFewPoints("dip p-value needs n >= 2")
    check_count("n", n)
    check_count("B", B)
    null = _null_dips(int(n), int(B), int(seed) & _SEED_MASK)
    exceed = int(np.count_nonzero(null >= d))
    return (1 + exceed) / (B + 1)


def _skew_z(g1: float, n: int) -> tuple[float, float]:
    """(z ~ N(0,1), two-sided p) of g1 in n >= 9 values via the Johnson S_U fit; NaN for a NaN g1."""
    if n < MIN_SKEW_N:
        raise TooFewPoints(f"skewness test needs n >= {MIN_SKEW_N}, got {n}")
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0 * (n * n + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(math.log(math.sqrt(w2)))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z = delta * math.asinh(y / alpha)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def dagostino_skewness(values) -> tuple[float, float, float]:
    """Skewness test of a sample: (g1, z, two-sided p), g1 = m3/m2^1.5 by ``stats_core.moments``.

    Raises TooFewPoints below 9 values, ConstantFeature when g1 is undefined
    (a constant sample) and BadSpec when a value is NaN or infinite.
    """
    x = finite_values(values)
    g1 = moments(x)[1] if x.size else math.nan  # moments needs a value
    z, p = _skew_z(g1, x.size)
    if math.isnan(g1):
        raise ConstantFeature(SKEW_UNDEFINED)
    return g1, z, p


def feature_report(f: FeatureSeries, stats: DescriptiveStats, B: int = 2000, seed: int = 0) -> TestReport:
    """Dip test (B Monte Carlo replicates) and skewness test of one feature.

    ``stats`` is ``describe(f)``; the skewness test reads its g1. The skewness
    fields are NaN only when the sample is constant (min == max). Raises
    TooFewPoints below 2 values for the dip and below 9 for the skewness.
    """
    d = dip_statistic(f.values)
    z, skew_p = _skew_z(stats.skewness_g1, stats.n)  # its n check comes before the null
    dip_p = dip_pvalue_mc(d, len(f), B, seed)
    return TestReport(n=stats.n, dip_d=d, dip_p=dip_p, dip_replicates=B,
                      skew_g1=stats.skewness_g1, skew_z=z, skew_p=skew_p, seed=seed)
