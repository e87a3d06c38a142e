"""Independent oracles used to derive and verify expected test values.

These deliberately share no code with the package: the dip oracle solves
linear programs over piecewise-linear unimodal CDFs, the dip reference is a
frozen copy of the earlier ndarray dip kernel, the Pareto radius oracle takes
the quantile over every pairwise distance by definition, the neighborhood
fraction counts the points within the radius of each point, the skewness oracle
re-derives the z transformation step by step in plain math, the
skew-normal moment oracle integrates the density numerically, and the CSV
reference reads a file one cell at a time into Python lists.
"""
import csv
import math
from collections import Counter

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog


def dip_lp_oracle(data) -> float:
    """Brute-force dip: minimize sup |ECDF - G| over unimodal CDFs G.

    G is piecewise linear with knots at the unique data values plus far-away
    anchors pinned at 0 and 1. Candidate shapes: slopes rising then falling
    around each segment (mode inside the segment), and mode at each knot with
    an atom there (the knot splits into a left-limit and a value variable).
    Suitable for small n only.
    """
    x = np.sort(np.asarray(data, dtype=float))
    n = x.size
    uniq, counts = np.unique(x, return_counts=True)
    u = uniq.size
    if u == 1:
        return 0.5 / n
    cum = np.cumsum(counts) / n
    prev = np.concatenate([[0.0], cum[:-1]])
    gap = 1e6 * (uniq[-1] - uniq[0])
    xs = np.concatenate([[uniq[0] - gap], uniq, [uniq[-1] + gap]])
    n_seg = xs.size - 1
    best = np.inf

    def solve(a_ub, b_ub, a_eq, b_eq, nvar):
        c = np.zeros(nvar)
        c[-1] = 1.0
        res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                      bounds=[(None, None)] * nvar, method="highs")
        return res.fun if res.status == 0 else np.inf

    def pins(nvar):
        a_eq, b_eq = [], []
        r = np.zeros(nvar); r[0] = 1.0
        a_eq.append(r); b_eq.append(0.0)
        r = np.zeros(nvar); r[u + 1] = 1.0
        a_eq.append(r); b_eq.append(1.0)
        return a_eq, b_eq

    def band(a_ub, b_ub, var, lo, hi, nvar):
        r = np.zeros(nvar); r[var] = -1.0; r[-1] = -1.0
        a_ub.append(r); b_ub.append(-lo)
        r = np.zeros(nvar); r[var] = 1.0; r[-1] = -1.0
        a_ub.append(r); b_ub.append(hi)

    def slope_le(a_ub, b_ub, sa, sb, nvar, var_of):
        # slope(sa) <= slope(sb)
        (ia, ja), (ib, jb) = var_of(sa), var_of(sb)
        da = xs[sa + 1] - xs[sa]
        db = xs[sb + 1] - xs[sb]
        r = np.zeros(nvar)
        r[ja] += 1.0 / da; r[ia] -= 1.0 / da
        r[jb] -= 1.0 / db; r[ib] += 1.0 / db
        a_ub.append(r); b_ub.append(0.0)

    def monotone(a_ub, b_ub, nvar, var_of):
        for s in range(n_seg):
            i, j = var_of(s)
            r = np.zeros(nvar); r[i] = 1.0; r[j] = -1.0
            a_ub.append(r); b_ub.append(0.0)

    # mode inside segment j
    for j in range(n_seg):
        nvar = (u + 2) + 1
        a_ub, b_ub = [], []
        a_eq, b_eq = pins(nvar)
        for k in range(u):
            band(a_ub, b_ub, 1 + k, cum[k], prev[k], nvar)
        var_of = lambda s: (s, s + 1)
        for s in range(j):
            slope_le(a_ub, b_ub, s, s + 1, nvar, var_of)
        for s in range(j, n_seg - 1):
            slope_le(a_ub, b_ub, s + 1, s, nvar, var_of)
        monotone(a_ub, b_ub, nvar, var_of)
        best = min(best, solve(a_ub, b_ub, a_eq, b_eq, nvar))

    # mode at knot k with an atom
    for k in range(u):
        nvar = (u + 2) + 2
        split = u + 2
        a_ub, b_ub = [], []
        a_eq, b_eq = pins(nvar)
        for kk in range(u):
            if kk == k:
                band(a_ub, b_ub, split, prev[kk], prev[kk], nvar)
                band(a_ub, b_ub, 1 + kk, cum[kk], cum[kk], nvar)
            else:
                band(a_ub, b_ub, 1 + kk, cum[kk], prev[kk], nvar)
        r = np.zeros(nvar); r[split] = 1.0; r[1 + k] = -1.0
        a_ub.append(r); b_ub.append(0.0)

        def var_of(s, k=k, split=split):
            if s + 1 == k + 1:  # segment ending at the mode knot
                return (s, split)
            return (s, s + 1)

        for s in range(k):
            slope_le(a_ub, b_ub, s, s + 1, nvar, var_of)
        for s in range(k + 1, n_seg - 1):
            slope_le(a_ub, b_ub, s + 1, s, nvar, var_of)
        monotone(a_ub, b_ub, nvar, var_of)
        best = min(best, solve(a_ub, b_ub, a_eq, b_eq, nvar))

    return float(best)


def dip_sorted_reference(x):
    """Dip of an ascending-sorted float64 array, in [1/(2n), 1/4].

    A frozen copy of the package's earlier ndarray kernel (greatest convex
    minorant / least concave majorant iteration on ndarray scalars). The
    package's kernel must return bit-identical values; keep this copy
    unchanged.
    """
    n = x.shape[0]
    if x[n - 1] == x[0]:
        return 0.5 / n
    low = 0
    high = n - 1
    dip = 1.0  # in 2n units; enforces the 1/(2n) lower bound

    # mn[j]: start of the convex-minorant chord ending at j
    mn = np.empty(n, np.int64)
    mn[0] = 0
    for j in range(1, n):
        mn[j] = j - 1
        while True:
            mnj = mn[j]
            mnmnj = mn[mnj]
            if mnj == 0 or (x[j] - x[mnj]) * (mnj - mnmnj) < (x[mnj] - x[mnmnj]) * (j - mnj):
                break
            mn[j] = mnmnj
    # mj[k]: end of the concave-majorant chord starting at k
    mj = np.empty(n, np.int64)
    mj[n - 1] = n - 1
    for k in range(n - 2, -1, -1):
        mj[k] = k + 1
        while True:
            mjk = mj[k]
            mjmjk = mj[mjk]
            if mjk == n - 1 or (x[k] - x[mjk]) * (mjk - mjmjk) < (x[mjk] - x[mjmjk]) * (k - mjk):
                break
            mj[k] = mjmjk

    gcm = np.empty(n, np.int64)
    lcm = np.empty(n, np.int64)
    while True:
        gcm[0] = high
        i = 0
        while gcm[i] > low:
            gcm[i + 1] = mn[gcm[i]]
            i += 1
        ig = i
        l_gcm = i
        ix = ig - 1

        lcm[0] = low
        i = 0
        while lcm[i] < high:
            lcm[i + 1] = mj[lcm[i]]
            i += 1
        ih = i
        l_lcm = i
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

        # dip of the convex minorant within the current modal interval
        dip_l = 0.0
        for j in range(ig, l_gcm):
            max_t = 1.0
            jb = gcm[j + 1]
            je = gcm[j]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (jj - jb + 1) - (x[jj] - x[jb]) * c
                    if max_t < t:
                        max_t = t
            if dip_l < max_t:
                dip_l = max_t
        # dip of the concave majorant
        dip_u = 0.0
        for j in range(ih, l_lcm):
            max_t = 1.0
            jb = lcm[j]
            je = lcm[j + 1]
            if je - jb > 1 and x[je] != x[jb]:
                c = (je - jb) / (x[je] - x[jb])
                for jj in range(jb, je + 1):
                    t = (x[jj] - x[jb]) * c - (jj - jb - 1)
                    if max_t < t:
                        max_t = t
            if dip_u < max_t:
                dip_u = max_t

        dip_new = dip_u if dip_u > dip_l else dip_l
        if dip < dip_new:
            dip = dip_new
        if low == gcm[ig] and high == lcm[ih]:
            break
        low = gcm[ig]
        high = lcm[ih]
    return dip / (2.0 * n)


def pareto_radius_oracle(values, cap, seed, quantile=0.18, threshold=1024):
    """Pareto radius by definition: a low quantile of all pairwise distances.

    Above ``cap`` points it draws ``cap`` indices without replacement from a
    ``SeedSequence(seed)`` generator, as the package's subsample does. The
    radius is np.quantile over every difference x[j] - x[i], i < j, of the
    sorted sample; a zero quantile escalates to the smallest positive
    difference, or, when the sample is constant, to the smallest gap between
    distinct values of the full data. Above ``threshold`` points the radius
    shrinks by (n/threshold)^(-1/5).
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    sample = x
    if n > cap:
        idx = np.random.default_rng(np.random.SeedSequence(seed)).choice(n, size=cap, replace=False)
        sample = x[np.sort(idx)]
    sample = np.sort(sample)
    i, j = np.triu_indices(sample.size, k=1)
    d = sample[j] - sample[i]
    r = float(np.quantile(d, quantile))
    if r <= 0.0:
        positive = d[d > 0.0]
        distinct = np.unique(x)
        r = float(positive.min() if positive.size else np.min(distinct[1:] - distinct[:-1]))
    if n > threshold:
        r *= (n / threshold) ** (-0.2)
    return r


def neighborhood_fraction(values, radius):
    """Mean fraction of the sample within ``radius`` of each point (self-inclusive)."""
    xs = np.sort(np.asarray(values, dtype=float).ravel())
    if xs.size == 0:
        raise ValueError("neighborhood_fraction needs at least 1 value")
    counts = (
        np.searchsorted(xs, xs + radius, side="right")
        - np.searchsorted(xs, xs - radius, side="left")
    )
    return float(counts.mean() / xs.size)


def skewness_z_oracle(values):
    """Step-by-step recomputation of (g1, z) from first principles."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    m2 = sum((v - mean) ** 2 for v in vals) / n
    m3 = sum((v - mean) ** 3 for v in vals) / n
    g1 = m3 / m2 ** 1.5
    y = g1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n ** 2 + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    z = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))
    return g1, z


def skew_normal_density(x, xi):
    """Two-piece skew-normal density with unit base scale."""
    phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    norm = 2.0 / (xi + 1.0 / xi)
    if x >= 0:
        return norm * phi(x / xi)
    return norm * phi(x * xi)


def skew_normal_moments_quadrature(xi):
    """(mean, sd) of the two-piece skew normal by numeric integration."""
    mean = quad(lambda x: x * skew_normal_density(x, xi), -np.inf, np.inf)[0]
    second = quad(lambda x: x * x * skew_normal_density(x, xi), -np.inf, np.inf)[0]
    return mean, math.sqrt(second - mean * mean)


def read_csv_reference(path):
    """[(name, finite values, missing count)] per column, one ``float`` call per cell.

    The per-cell reader the package's chunked one must match: a cell is missing
    when its row ends before it or when ``float(cell.strip())`` raises or is
    not finite. Raises ValueError with the package's CsvError message for a
    missing header, a duplicate name or a row longer than the header.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        names = [h.strip() for h in next(reader, [])]
        if not any(names):
            raise ValueError(f"{path} has no header row")
        dup = next((name for name, count in Counter(names).items() if count > 1), None)
        if dup is not None:
            raise ValueError(f"{path} has a duplicate column name {dup!r}")
        width = len(names)
        cols = [[] for _ in names]
        for row in reader:
            if len(row) > width:
                raise ValueError(f"{path} line {reader.line_num} has {len(row)} cells, "
                                 f"the header has {width}")
            for col, cell in zip(cols, row):
                try:
                    col.append(float(cell.strip()))
                except ValueError:
                    col.append(math.nan)
            for col in cols[len(row):]:
                col.append(math.nan)
    out = []
    for name, col in zip(names, cols):
        arr = np.array(col, dtype=float)
        keep = np.isfinite(arr)
        out.append((name, arr[keep], int(arr.size - keep.sum())))
    return out
