"""Command-line entry point.

Subcommands: ``plot`` (CSV in, SVG + JSON report + manifest out), ``test``
(dip and skewness report for one column), ``gen`` (synthetic one-column CSV)
and ``bench`` (Monte Carlo sweeps of the two tests).

Exit codes, set by ``main`` alone: 0 on success, 3 when every feature was
skipped, 2 for any other FineStructError, OSError or MemoryError (unreadable
input, unwritable output, bad parameters, a count too large for memory). Any
other exception is a program fault.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import sys
import time
from array import array
from collections import Counter

# numpy's OpenBLAS starts one worker thread per CPU on import, and each spins
# for about 0.13 s of CPU. The CLI calls no BLAS routine and splits its work
# by fork, so it runs OpenBLAS with one thread, whatever the environment says.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from ._split import split_fill, usable_workers
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
from .stats_core import FeatureSeries, ScalingMode, check_count, describe, quantile, substream
from .stattests import (
    SKEW_UNDEFINED, _null_dips, _null_workers, dagostino_skewness, dip_pvalue_mc,
    dip_statistic, feature_report,
)

class CsvError(FineStructError):
    pass


# Rows held as cell strings before they are converted per column. A chunk's
# row lists stay below CPython's 700 allocations that start a young-generation
# garbage collection, so the read runs almost none: tall_ingest's CSV (100 000
# rows) ran 223 collections, 22 of them of older generations, in chunks of
# 4096 rows, and reads in 258 ms instead of 311 ms of CPU in chunks of 512.
_CHUNK_ROWS = 512
# A file is split only so far that each process reads at least this many
# bytes. One process reads 1 MiB of a 6-column CSV of normals in 27 ms. A
# split adds a byte scan (about 1 ms per MiB), a fork and reap (3 ms) and the
# copy-on-write faults of both processes: split in two, 1 MiB read in 25-30 ms,
# 2 MiB in 52-56 ms instead of 59-60 ms, and 4 MiB in 94 ms instead of 116-118
# ms (medians of 12; 2-core VM shared with other load). The byte scan reads
# blocks of this size too.
_SPLIT_BYTES = 1 << 20


def read_csv_features(path: str) -> list[FeatureSeries]:
    """Parse a headered UTF-8 CSV into per-column features.

    A cell counts as missing when the row ends before it or when, stripped of
    whitespace, it does not parse as a finite number with a '.' decimal point
    ('', 'NA', 'NaN' and 'inf' included). Column names must be unique and no
    row may have more cells than the header. A file that cannot be opened or
    decoded, or that the csv module rejects, raises CsvError naming the path.

    Rows are converted ``_CHUNK_ROWS`` at a time into 8 bytes per cell. A
    file of at least two ``_SPLIT_BYTES`` with no '\\r' outside '\\r\\n' and
    no '"' below its header is read in one process per usable CPU
    (``_read_split``). Any failure of that split, in a range or in
    ``_split.split_fill``, reads the whole file once more serially, so every
    value and error message is the serial reader's.
    """
    try:
        features = _read_split(path)
    except (FineStructError, OSError, UnicodeDecodeError, csv.Error):
        features = None
    if features is not None:
        return features
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
            reader = csv.reader(fh)
            names = _header(reader, path)
            cols = [array("d") for _ in names]
            for rows in _row_chunks(reader, len(names), path):
                _extend_columns(cols, rows)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    return [FeatureSeries.clean(name, np.frombuffer(col)) for name, col in zip(names, cols)]


def _header(reader, path: str) -> list[str]:
    """The stripped column names of ``reader``'s first row; CsvError if none or one repeats."""
    names = [h.strip() for h in next(reader, [])]
    if not any(names):  # an empty file or a blank first line
        raise CsvError(f"{path} has no header row")
    dup = next((name for name, count in Counter(names).items() if count > 1), None)
    if dup is not None:
        raise CsvError(f"{path} has a duplicate column name {dup!r}")
    return names


def _row_chunks(reader, width: int, path: str):
    """``reader``'s rows padded to ``width`` cells, in lists of ``_CHUNK_ROWS`` and a last shorter one."""
    rows: list[list[str]] = []
    for row in reader:
        if len(row) > width:
            raise CsvError(f"{path} line {reader.line_num} has {len(row)} cells, "
                           f"the header has {width}")
        if len(row) < width:
            row += [""] * (width - len(row))  # an absent cell is missing
        rows.append(row)
        if len(rows) == _CHUNK_ROWS:
            yield rows
            rows = []
    yield rows


def _extend_columns(cols: list[array], rows: list[list[str]]) -> None:
    """Append each full-width row's cells to their columns; a cell float() rejects is NaN."""
    for col, cells in zip(cols, zip(*rows)):
        values = map(float, map(str.strip, cells))
        while True:
            try:
                col.extend(values)  # keeps what it appended before a cell raised
                break
            except ValueError:  # that cell is consumed; the rest follow it
                col.append(math.nan)


def _lines_are_rows(data: bytes) -> bool:
    """Whether every line of ``data`` is one csv row: no '"' and no '\\r' outside '\\r\\n'."""
    return b'"' not in data and (b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))


def _newlines(data: bytes) -> int:
    """The count of b'\\n' in ``data``; numpy counts 1 MiB in 0.2 ms, ``bytes.count`` in 1 ms."""
    return int(np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n")))


def _read_split(path: str) -> list[FeatureSeries] | None:
    """The features of ``path`` read in k = ``usable_workers(size // _SPLIT_BYTES)`` processes.

    None when k < 2, when no row follows the header, when the header holds a
    '\\r' outside '\\r\\n' or a line below it may not be one row
    (``_lines_are_rows``). The header is parsed with ``strict=True``, so an
    open or misplaced quote raises csv.Error. One pass over the bytes cuts
    the body just after a newline near each k-th of it and counts the lines,
    so the rows, before each cut. Each range is decoded as plain UTF-8 (a
    U+FEFF there is a cell's text, not a BOM) and read by the serial reader's
    row loop into its columns of one (width, rows) array
    (``_split.split_fill``). Raises on any failure, a range with too few rows
    included.
    """
    size = os.stat(path).st_size
    k = usable_workers(size // _SPLIT_BYTES)
    if k < 2:
        return None
    with open(path, "rb") as fh:
        head = fh.readline()
        if head.count(b"\r") != head.count(b"\r\n"):  # a lone '\r' ends a csv row
            return None
        pos = len(head)
        targets = [pos + (size - pos) * j // k for j in range(1, k)]
        cuts, lines = [pos], [0]  # where each range starts, and the lines before it
        count, last = 0, b"\n"
        while block := fh.read(_SPLIT_BYTES):
            if block.endswith(b"\r"):  # keep a '\r\n' in one block
                block += fh.read(1)
            if not _lines_are_rows(block):
                return None
            while targets and targets[0] < pos + len(block):
                i = block.find(b"\n", max(targets[0] - pos, 0))
                if i < 0:
                    break
                if pos + i + 1 > cuts[-1]:  # one cut can end two targets' searches
                    cuts.append(pos + i + 1)
                    lines.append(count + _newlines(block[:i + 1]))
                del targets[0]
            count += _newlines(block)
            pos += len(block)
            last = block[-1:]
    rows = count + (last != b"\n")  # a last line without a newline is a row
    if not rows:
        return None
    if cuts[-1] == pos:  # a cut at the end of the file starts no range
        del cuts[-1], lines[-1]
    cuts.append(pos)
    lines.append(rows)
    names = _header(csv.reader([head.decode("utf-8-sig")], strict=True), path)
    width = len(names)

    def fill(out, j):
        at, stop = lines[j], lines[j + 1]
        with open(path, "rb") as raw:
            raw.seek(cuts[j])
            text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            for chunk in _row_chunks(csv.reader(itertools.islice(text, stop - at)), width, path):
                cols = [array("d") for _ in names]
                _extend_columns(cols, chunk)
                out[:, at:at + len(chunk)] = cols
                at += len(chunk)
        if at != stop:
            raise CsvError(f"{path} changed while it was read")

    return [FeatureSeries.clean(name, col)
            for name, col in zip(names, split_fill(len(cuts) - 1, (width, rows), fill))]


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
    by_name = {f.name: f for f in read_csv_features(args.input)}
    if args.column not in by_name:
        raise CsvError(f"column {args.column!r} not found (have: {', '.join(by_name)})")
    f = by_name[args.column]
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
