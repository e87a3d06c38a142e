"""Command-line entry point.

Subcommands: ``plot`` (CSV in, SVG + JSON report + manifest out), ``test``
(dip and skewness report for one column), ``gen`` (synthetic one-column CSV)
and ``bench`` (Monte Carlo sweeps of the two tests).

Exit codes: 0 on success, 2 for unreadable input or bad parameters, 3 when
every feature was skipped.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from . import __version__
from .engine import EngineConfig, Ordering, build_plot_model
from .errors import FineStructError, NoPlottableFeatures
from .generators import (
    GaussMixSpec,
    SkewSpec,
    sample_gauss_mixture,
    sample_skew_normal,
    sample_uniform,
)
from .render import render_svg
from .stats_core import FeatureSeries, ScalingMode, quantile
from .stattests import (
    SKEW_UNDEFINED, _null_dips, dagostino_skewness, dip_pvalue_mc, dip_statistic,
    feature_report,
)

class CsvError(Exception):
    pass


def read_csv_features(path: str) -> list[FeatureSeries]:
    """Parse a headered CSV into per-column features.

    A cell counts as missing when the row ends before it or when, stripped of
    whitespace, it does not parse as a finite number with a '.' decimal point
    ('', 'NA', 'NaN' and 'inf' included). Column names must be unique and no
    row may have more cells than the header.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # drops a leading BOM
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvError(f"{path} is empty") from None
        names = [h.strip() for h in header]
        if not any(names):
            raise CsvError(f"{path} has a blank header row")
        dup = next((name for name, count in Counter(names).items() if count > 1), None)
        if dup is not None:
            raise CsvError(f"{path} has a duplicate column name {dup!r}")
        width = len(names)
        cols: list[list[float]] = [[] for _ in names]
        for row in reader:
            if len(row) > width:
                raise CsvError(f"{path} line {reader.line_num} has {len(row)} cells, "
                               f"the header has {width}")
            for col, cell in zip(cols, row):
                try:
                    col.append(float(cell.strip()))
                except ValueError:
                    col.append(math.nan)
            for col in cols[len(row):]:
                col.append(math.nan)
    return [FeatureSeries.clean(name, col) for name, col in zip(names, cols)]


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="global RNG seed")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finestruct",
                                description="Fine structure of univariate distributions: "
                                            "mirrored-density plots, dip and skewness tests.")
    p.add_argument("--version", action="version", version=f"finestruct {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    plot = sub.add_parser("plot", help="render a mirrored-density plot from a CSV file")
    plot.add_argument("input", help="CSV file with a header row")
    plot.add_argument("--output", "-o", default="plot.svg", help="SVG output path")
    plot.add_argument("--report", default=None,
                      help="JSON report path (default: derived from --output)")
    plot.add_argument("--scaling", default="none",
                      choices=[m.value for m in ScalingMode], help="feature transform")
    plot.add_argument("--ordering", default="default",
                      choices=[m.value for m in Ordering], help="column ordering")
    plot.add_argument("--sample-size", type=int, default=500_000,
                      help="total cell budget before subsampling")
    plot.add_argument("--min-data", type=int, default=50,
                      help="minimum values for density estimation")
    plot.add_argument("--min-unique", type=int, default=12,
                      help="minimum unique values for density estimation")
    plot.add_argument("--alpha", type=float, default=0.05, help="test level for the Gaussian gate")
    plot.add_argument("--replicates", type=int, default=2000, help="Monte Carlo replicates")
    plot.add_argument("--no-gaussian", action="store_true", help="disable the Gaussian overlay")
    plot.add_argument("--boxplot", action="store_true", help="overlay a box plot on each glyph")
    plot.add_argument("--hline", type=float, action="append", default=[],
                      help="horizontal reference line at this y (repeatable)")
    plot.add_argument("--title", default="", help="plot title")
    _add_seed(plot)

    test = sub.add_parser("test", help="dip and skewness tests for one column")
    test.add_argument("input", help="CSV file with a header row")
    test.add_argument("column", help="column name to test")
    test.add_argument("--replicates", type=int, default=2000, help="Monte Carlo replicates")
    test.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_seed(test)

    gen = sub.add_parser("gen", help="generate a synthetic one-column CSV")
    gen.add_argument("kind", choices=["uniform", "gaussmix", "skewnorm"])
    gen.add_argument("params", nargs="*",
                     help="uniform: LOW HIGH | gaussmix: MEAN:SD:WEIGHT,... | skewnorm: XI")
    gen.add_argument("--n", type=int, required=True, help="sample size")
    gen.add_argument("--output", "-o", default=None, help="output CSV (default: stdout)")
    _add_seed(gen)

    bench = sub.add_parser("bench", help="Monte Carlo sweep of a test over a parameter")
    bench.add_argument("experiment", choices=["bimodal", "skew"])
    bench.add_argument("--sweep", required=True,
                       help="comma-separated parameter values (means or xi)")
    bench.add_argument("--iterations", type=int, default=100, help="samples per sweep value")
    bench.add_argument("--replicates", type=int, default=2000,
                       help="Monte Carlo replicates for dip p-values")
    bench.add_argument("--n", type=int, default=None,
                       help="sample size (default: 31000 bimodal, 15000 skew)")
    bench.add_argument("--output", "-o", default=None, help="output CSV (default: stdout)")
    _add_seed(bench)
    return p


def _json_sanitize(obj):
    """Replace non-finite floats with null; bare NaN is not valid JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    return obj


def _stem(path: str, suffix: str) -> str:
    """``path`` without ``suffix`` (matched case-insensitively), if it ends so."""
    return path[:-len(suffix)] if path.lower().endswith(suffix) else path


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process so far, in MB (None without ``resource``)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _write_manifest(path: str, command: str, seed: int, config: dict, t0: float,
                    **extra) -> None:
    """Reproducibility sidecar of a file-producing run.

    ``timing`` holds what varies from run to run: the wall time and the peak RSS.
    """
    manifest = {
        "tool": "finestruct",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        **extra,
        "timing": {"total_s": round(time.perf_counter() - t0, 3),
                   "peak_rss_mb": _peak_rss_mb()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def cmd_plot(args) -> int:
    seed = args.seed
    t0 = time.perf_counter()
    try:
        features = read_csv_features(args.input)
    except CsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = EngineConfig(
            sample_size_cap=args.sample_size,
            min_data=args.min_data,
            min_unique=args.min_unique,
            alpha=args.alpha,
            scaling=ScalingMode(args.scaling),
            ordering=Ordering(args.ordering),
            robust_gaussian=not args.no_gaussian,
            boxplot_overlay=args.boxplot,
            replicates=args.replicates,
            seed=seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    before = _null_dips.cache_info()
    try:
        model = build_plot_model(features, cfg)
    except NoPlottableFeatures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    after = _null_dips.cache_info()
    dip_null = {"computed": after.misses - before.misses, "reused": after.hits - before.hits,
                "replicates": args.replicates}
    if args.title:
        model = dataclasses.replace(model, title=args.title)
    svg = render_svg(model, args.hline)

    stem = _stem(args.output, ".svg")
    report_path = args.report if args.report is not None else stem + ".report.json"
    manifest_path = stem + ".manifest.json"
    report = _json_sanitize({"seed": seed, "ordering": args.ordering, **model.to_dict()})
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    config = {
        "scaling": args.scaling,
        "ordering": args.ordering,
        "sample_size": args.sample_size,
        "min_data": args.min_data,
        "min_unique": args.min_unique,
        "alpha": args.alpha,
        "replicates": args.replicates,
        "robust_gaussian": not args.no_gaussian,
        "boxplot": args.boxplot,
        "hlines": list(args.hline),
    }
    _write_manifest(
        manifest_path, "plot", seed, config, t0,
        input=args.input,
        features=[{"name": f.name, "values": len(f), "missing": f.missing_count}
                  for f in features],
        skipped=[{"name": s.feature, "reason": s.reason} for s in model.skipped],
        dip_null=dip_null,
    )
    print(f"wrote {args.output}, {report_path}, {manifest_path}")
    return 0


def cmd_test(args) -> int:
    seed = args.seed
    try:
        features = read_csv_features(args.input)
    except CsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    by_name = {f.name: f for f in features}
    if args.column not in by_name:
        print(f"error: column {args.column!r} not found "
              f"(have: {', '.join(by_name)})", file=sys.stderr)
        return 2
    f = by_name[args.column]
    try:
        r = feature_report(f, args.replicates, seed)
    except (FineStructError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diagnostic = f"ConstantFeature: {SKEW_UNDEFINED}" if math.isnan(r.skew_g1) else None
    if args.json:
        out = {"feature": f.name, "n": len(f), "missing": f.missing_count,
               **r.to_dict(), "diagnostic": diagnostic}
        print(json.dumps(_json_sanitize(out), indent=2, allow_nan=False))
    else:
        print(f"feature: {f.name}")
        print(f"n: {r.n} (missing: {f.missing_count})")
        print(f"dip D: {r.dip_d:.6g}")
        print(f"dip p: {r.dip_p:.6g} (B={r.dip_replicates})")
        print(f"skew g1: {r.skew_g1:.6g}")
        print(f"skew z: {r.skew_z:.6g}")
        print(f"skew p: {r.skew_p:.6g}")
        if diagnostic:
            print(f"diagnostic: {diagnostic}")
    return 0


def _parse_mixture(text: str) -> GaussMixSpec:
    comps = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"bad mixture component {part!r}, expected MEAN:SD:WEIGHT")
        mean, sd, weight = (float(v) for v in fields)
        comps.append((weight, mean, sd))
    return GaussMixSpec(tuple(comps))


def cmd_gen(args) -> int:
    seed = args.seed
    t0 = time.perf_counter()
    try:
        if args.kind == "uniform":
            if len(args.params) != 2:
                raise ValueError("uniform needs LOW HIGH")
            series = sample_uniform(args.n, float(args.params[0]), float(args.params[1]), seed)
        elif args.kind == "gaussmix":
            if len(args.params) != 1:
                raise ValueError("gaussmix needs one MEAN:SD:WEIGHT,... argument")
            series = sample_gauss_mixture(args.n, _parse_mixture(args.params[0]), seed)
        else:
            if len(args.params) != 1:
                raise ValueError("skewnorm needs XI")
            series = sample_skew_normal(args.n, SkewSpec(xi=float(args.params[0])), seed)
    except (ValueError, FineStructError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = [series.name] + [repr(float(v)) for v in series.values]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(_stem(args.output, ".csv") + ".manifest.json", "gen", seed,
                        {"kind": args.kind, "params": args.params, "n": args.n}, t0)
    else:
        sys.stdout.write(text)
    return 0


def run_bench(experiment: str, sweep, iterations: int, B: int, n: int | None, seed: int):
    """Sweep rows (param, iteration, p) plus per-param median/p99 summaries."""
    if n is None:
        n = 31000 if experiment == "bimodal" else 15000
    rows = []
    summaries = []
    for i, param in enumerate(sweep):
        ps = []
        for t in range(iterations):
            sample_seed = int(np.random.SeedSequence((seed, i, t)).generate_state(1)[0])
            if experiment == "bimodal":
                spec = GaussMixSpec(((0.5, 0.0, 1.0), (0.5, float(param), 1.0)))
                sample = sample_gauss_mixture(n, spec, sample_seed)
                d = dip_statistic(sample.values)
                p = dip_pvalue_mc(d, n, B, seed)
            else:
                sample = sample_skew_normal(n, SkewSpec(xi=float(param)), sample_seed)
                _, _, p = dagostino_skewness(sample.values)
            ps.append(p)
            rows.append((param, t, p))
        ps_sorted = sorted(ps)
        summaries.append((param, "median", quantile(ps_sorted, 0.5)))
        summaries.append((param, "p99", quantile(ps_sorted, 0.99)))
    return rows, summaries


def cmd_bench(args) -> int:
    seed = args.seed
    t0 = time.perf_counter()
    try:
        sweep = [float(v) for v in args.sweep.split(",") if v.strip()]
        if not sweep:
            raise ValueError("empty sweep")
        if args.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if args.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if args.experiment == "skew" and any(v <= 0 for v in sweep):
            raise ValueError("skew sweep values must be positive")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, summaries = run_bench(args.experiment, sweep, args.iterations,
                                args.replicates, args.n, seed)
    lines = ["param,iteration,p"]
    lines += [f"{param:g},{t},{p!r}" for param, t, p in rows]
    lines += [f"{param:g},{label},{p!r}" for param, label, p in summaries]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(_stem(args.output, ".csv") + ".manifest.json", "bench", seed,
                        {"experiment": args.experiment, "sweep": sweep,
                         "iterations": args.iterations, "replicates": args.replicates,
                         "n": args.n}, t0)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"plot": cmd_plot, "test": cmd_test, "gen": cmd_gen, "bench": cmd_bench}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
