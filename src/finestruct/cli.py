"""Command-line entry point.

Subcommands: ``plot`` (CSV in, SVG + JSON report + manifest out), ``test``
(dip and skewness report for one column), ``gen`` (synthetic one-column CSV)
and ``bench`` (Monte Carlo sweeps of the two tests). ``finestruct.csvread``
reads the CSV: every column for ``plot``, the tested one alone for ``test``.

Exit codes, set by ``main`` alone: 0 on success, 3 when every feature was
skipped, 2 for any other FineStructError, OSError or MemoryError (unreadable
input, unwritable output, bad parameters, a count too large for memory). Any
other exception is a program fault.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time

# numpy's OpenBLAS starts one worker thread per CPU on import, and each spins
# for about 0.13 s of CPU. The CLI calls no BLAS routine and splits its work
# by fork, so it runs OpenBLAS with one thread, whatever the environment says.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .csvread import read_csv_features
from .engine import EngineConfig, Ordering, build_plot_model
from .errors import BadSpec, FineStructError, NoPlottableFeatures
from .generators import (
    GaussMixSpec,
    SkewSpec,
    sample_gauss_mixture,
    sample_skew_normal,
    sample_uniform,
)
from .render import render_svg
from .stats_core import ScalingMode, check_count, describe, quantile, substream
from .stattests import (
    SKEW_UNDEFINED, _null_dips, _null_workers, dagostino_skewness, dip_pvalue_mc,
    dip_statistic, feature_report,
)

_GEN_PARAMS = {"uniform": "LOW HIGH", "gaussmix": "MEAN:SD:WEIGHT,...", "skewnorm": "XI"}
_DEFAULTS = EngineConfig()
# parsed flags that are top-level manifest keys, or output paths, not config
_NOT_CONFIG = {"command", "seed", "input", "output", "report"}


class _Parser(argparse.ArgumentParser):
    """Reads a negative number with an exponent (``-1e-3``) as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=_DEFAULTS.seed,
                   help="global RNG seed in [0, 2**32)")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="finestruct",
                description="Fine structure of univariate distributions: "
                            "mirrored-density plots, dip and skewness tests.")
    p.add_argument("--version", action="version", version=f"finestruct {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    plot = sub.add_parser("plot", help="render a mirrored-density plot from a CSV file")
    # each EngineConfig field is the dest of one flag and takes its default from EngineConfig
    plot.set_defaults(**dataclasses.asdict(_DEFAULTS))
    plot.add_argument("input", help="CSV file with a header row")
    plot.add_argument("--output", "-o", default="plot.svg", help="SVG output path")
    plot.add_argument("--report", default=None,
                      help="JSON report path (default: derived from --output)")
    plot.add_argument("--scaling", type=ScalingMode, choices=list(ScalingMode),
                      help="feature transform")
    plot.add_argument("--ordering", type=Ordering, choices=list(Ordering), help="column ordering")
    plot.add_argument("--sample-size", dest="sample_size_cap", type=int,
                      help="total cell budget before subsampling")
    plot.add_argument("--min-data", type=int,
                      help="minimum values for density estimation (at least 9)")
    plot.add_argument("--min-unique", type=int,
                      help="minimum unique values for density estimation (at least 2)")
    plot.add_argument("--alpha", type=float, help="test level for the Gaussian gate")
    plot.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    plot.add_argument("--no-gaussian", dest="robust_gaussian", action="store_false",
                      help="disable the Gaussian overlay")
    plot.add_argument("--boxplot", dest="boxplot_overlay", action="store_true",
                      help="overlay a box plot on each glyph")
    plot.add_argument("--hline", type=float, action="append", default=[],
                      help="horizontal reference line at this y (repeatable)")
    plot.add_argument("--title", default="", help="plot title")
    _add_seed(plot)

    test = sub.add_parser("test", help="dip and skewness tests for one column")
    test.add_argument("input", help="CSV file with a header row")
    test.add_argument("column", help="column name to test")
    test.add_argument("--replicates", type=int, default=_DEFAULTS.replicates,
                      help="Monte Carlo replicates")
    test.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_seed(test)

    gen = sub.add_parser("gen", help="generate a synthetic one-column CSV")
    gen.add_argument("kind", choices=list(_GEN_PARAMS))
    gen.add_argument("params", nargs="*",
                     help=" | ".join(f"{kind}: {usage}" for kind, usage in _GEN_PARAMS.items()))
    gen.add_argument("--n", type=int, required=True, help="sample size")
    gen.add_argument("--output", "-o", default=None, help="output CSV (default: stdout)")
    _add_seed(gen)

    bench = sub.add_parser("bench", help="Monte Carlo sweep of a test over a parameter")
    bench.add_argument("experiment", choices=["bimodal", "skew"])
    bench.add_argument("--sweep", required=True,
                       help="comma-separated parameter values (means or xi)")
    bench.add_argument("--iterations", type=int, default=100, help="samples per sweep value")
    bench.add_argument("--replicates", type=int, default=_DEFAULTS.replicates,
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
    """Peak resident set size of this process so far, in MB (None where unknown).

    Linux reports it as ``VmHWM`` in /proc/self/status. ``ru_maxrss`` is only
    the fallback: it survives ``exec``, so it starts at the peak of whichever
    process spawned this one.
    """
    try:
        with open("/proc/self/status", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 2**10, 1)  # kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _write_json(path: str, obj) -> None:
    """``obj`` as indented JSON; an enum is written as its CLI text."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False, default=str)
        fh.write("\n")


def _write_manifest(path: str, args, t0: float, **extra) -> None:
    """Reproducibility sidecar of a file-producing run.

    ``config`` is the command's parsed flags without the output paths and the
    keys written beside it. ``timing`` holds what varies from run to run: the
    wall time and the peak RSS.
    """
    manifest = {
        "tool": "finestruct",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "config": {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG},
        **extra,
        "timing": {"total_s": round(time.perf_counter() - t0, 3),
                   "peak_rss_mb": _peak_rss_mb()},
    }
    _write_json(path, manifest)


def cmd_plot(args) -> int:
    t0 = time.perf_counter()
    features = read_csv_features(args.input)
    cfg = EngineConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(EngineConfig)})
    before, split_from = _null_dips.cache_info(), len(_null_workers)
    model = build_plot_model(features, cfg)
    after = _null_dips.cache_info()
    dip_null = {"computed": after.misses - before.misses, "reused": after.hits - before.hits,
                "replicates": cfg.replicates,
                "workers": max(_null_workers[split_from:], default=1)}
    if args.title:
        model = dataclasses.replace(model, title=args.title)
    svg = render_svg(model, args.hline)

    stem = _stem(args.output, ".svg")
    report_path = args.report if args.report is not None else stem + ".report.json"
    manifest_path = stem + ".manifest.json"
    report = {"seed": cfg.seed, "ordering": str(cfg.ordering), **model.to_dict()}
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    _write_json(report_path, _json_sanitize(report))
    _write_manifest(
        manifest_path, args, t0,
        input=args.input,
        features=[{"name": f.name, "values": len(f), "missing": f.missing_count}
                  for f in features],
        skipped=[{"name": s.feature, "reason": s.reason} for s in model.skipped],
        dip_null=dip_null,
    )
    print(f"wrote {args.output}, {report_path}, {manifest_path}")
    return 0


def cmd_test(args) -> int:
    [f] = read_csv_features(args.input, args.column)
    r = feature_report(f, describe(f), args.replicates, args.seed)
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


def _number(text: str) -> float:
    """A finite float from a command-line parameter, else BadSpec."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise BadSpec(f"{text!r} is not a finite number")


def _parse_mixture(text: str) -> GaussMixSpec:
    comps = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise BadSpec(f"bad mixture component {part!r}, expected MEAN:SD:WEIGHT")
        mean, sd, weight = map(_number, fields)
        comps.append((weight, mean, sd))
    return GaussMixSpec(tuple(comps))


def _write_lines(args, lines: list[str], t0: float) -> int:
    """Write ``lines`` to ``--output`` and a manifest to ``<output>.manifest.json``, or to stdout.

    The manifest keeps the whole output name, so ``plot`` of the same stem,
    whose manifest is ``<stem>.manifest.json``, does not replace it.
    """
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(args.output + ".manifest.json", args, t0)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    usage = _GEN_PARAMS[args.kind]
    if len(args.params) != len(usage.split()):
        raise BadSpec(f"{args.kind} needs {usage}")
    if args.kind == "uniform":
        series = sample_uniform(args.n, *map(_number, args.params), args.seed)
    elif args.kind == "gaussmix":
        series = sample_gauss_mixture(args.n, _parse_mixture(args.params[0]), args.seed)
    else:
        series = sample_skew_normal(args.n, SkewSpec(xi=_number(args.params[0])), args.seed)
    return _write_lines(args, [series.name] + [repr(float(v)) for v in series.values], t0)


def run_bench(experiment: str, sweep, iterations: int, B: int, n: int | None, seed: int):
    """Sweep rows (param, iteration, p) plus per-param median/p99 summaries."""
    if n is None:
        n = 31000 if experiment == "bimodal" else 15000
    if experiment == "bimodal":
        specs = [GaussMixSpec(((0.5, 0.0, 1.0), (0.5, float(param), 1.0))) for param in sweep]
    else:
        specs = [SkewSpec(xi=float(param)) for param in sweep]
    rows = []
    summaries = []
    for i, (param, spec) in enumerate(zip(sweep, specs)):
        ps = []
        for t in range(iterations):
            sample_seed = substream(seed, i, t)
            if experiment == "bimodal":
                sample = sample_gauss_mixture(n, spec, sample_seed)
                d = dip_statistic(sample.values)
                p = dip_pvalue_mc(d, n, B, seed)
            else:
                sample = sample_skew_normal(n, spec, sample_seed)
                _, _, p = dagostino_skewness(sample.values)
            ps.append(p)
            rows.append((param, t, p))
        ps_sorted = sorted(ps)
        summaries.append((param, "median", quantile(ps_sorted, 0.5)))
        summaries.append((param, "p99", quantile(ps_sorted, 0.99)))
    return rows, summaries


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    sweep = [_number(v) for v in args.sweep.split(",") if v.strip()]
    if not sweep:
        raise BadSpec("empty sweep")
    check_count("iterations", args.iterations)
    check_count("replicates", args.replicates)
    rows, summaries = run_bench(args.experiment, sweep, args.iterations,
                                args.replicates, args.n, args.seed)
    lines = ["param,iteration,p"]
    lines += [f"{param:g},{t},{p!r}" for param, t, p in rows]
    lines += [f"{param:g},{label},{p!r}" for param, label, p in summaries]
    return _write_lines(args, lines, t0)


def main(argv=None) -> int:
    """Run one command; an expected error prints ``error: <message>``."""
    args = build_parser().parse_args(argv)
    handler = {"plot": cmd_plot, "test": cmd_test, "gen": cmd_gen, "bench": cmd_bench}
    try:
        return handler[args.command](args)
    except (FineStructError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3 if isinstance(exc, NoPlottableFeatures) else 2


if __name__ == "__main__":
    sys.exit(main())
