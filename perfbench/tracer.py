"""Traced run of one finestruct CLI operation, and the per-layer metrics of it.

Run as ``python3 perfbench/tracer.py SPANS_JSON CLI_ARG...`` with the package
on ``PYTHONPATH``. It wraps the public entry points of each layer in the
namespace of the module that calls them (so ``engine.pde_estimate`` is timed
where the engine calls it), runs ``finestruct.cli.main`` in-process, keeps
every span in memory and writes them to SPANS_JSON when the run ends. The
program's own files are not modified; a target that no longer exists is
listed under ``missing`` instead of failing the run.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module whose namespace holds the callee, attribute, span name)
TARGETS = (
    ("finestruct.cli", "read_csv_features", "cli.read_csv_features"),
    ("finestruct.cli", "build_plot_model", "engine.build_plot_model"),
    ("finestruct.cli", "render_svg", "render.render_svg"),
    ("finestruct.cli", "dip_statistic", "stattests.dip_statistic"),
    ("finestruct.cli", "dip_pvalue_mc", "stattests.dip_pvalue_mc"),
    ("finestruct.cli", "dagostino_skewness", "stattests.dagostino_skewness"),
    ("finestruct.engine", "subsample", "engine.subsample"),
    ("finestruct.engine", "analyze_feature", "engine.analyze_feature"),
    ("finestruct.engine", "transform", "stats_core.transform"),
    ("finestruct.engine", "describe", "stats_core.describe"),
    ("finestruct.engine", "robust_gaussian_fit", "stats_core.robust_gaussian_fit"),
    ("finestruct.engine", "pde_estimate", "density.pde_estimate"),
    ("finestruct.density", "pareto_radius", "density.pareto_radius"),
    ("finestruct.stattests", "dip_statistic", "stattests.dip_statistic"),
    ("finestruct.stattests", "dip_pvalue_mc", "stattests.dip_pvalue_mc"),
    ("finestruct.stattests", "dagostino_skewness", "stattests.dagostino_skewness"),
)
ROOT_SPAN = "cli.main"


def _count_csv(counts, bound, features):
    counts["cli.cells"] += sum(len(f) + f.missing_count for f in features)
    counts["cli.missing_cells"] += sum(f.missing_count for f in features)


def _count_model(counts, bound, model):
    for g in model.glyphs:
        counts[f"engine.features_{g.kind}"] += 1
    counts["engine.features_skipped"] += len(model.skipped)


def _count_pareto(counts, bound, radius):
    n = len(bound.arguments["values"])
    m = min(n, bound.arguments["cfg"].distance_sample_cap)
    counts["density.pareto_pairs"] += m * (m - 1) // 2


def _count_null(counts, bound, p):
    a = bound.arguments
    counts.setdefault("null_keys", set()).add((int(a["n"]), int(a["B"]), int(a["seed"])))
    counts["stattests.null_requests"] += 1


def _count_svg(counts, bound, svg):
    counts["render.svg_bytes"] += len(svg.encode("utf-8"))
    counts["render.svg_elements"] += svg.count("<") - svg.count("</") - svg.count("<?")


# counters read from the arguments and result at the same boundaries
HOOKS = {
    "cli.read_csv_features": _count_csv,
    "engine.build_plot_model": _count_model,
    "density.pareto_radius": _count_pareto,
    "stattests.dip_pvalue_mc": _count_null,
    "render.render_svg": _count_svg,
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = []

    def enter(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def leave(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if hook:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self.counts, bound, result)
                except (TypeError, KeyError, AttributeError) as exc:
                    problem = f"{name} counter: {exc!r}"
                    if problem not in self.missing:
                        self.missing.append(problem)
            return result

        return traced

    def install(self):
        originals = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                originals.append((module, attr, fn, name))
            else:
                self.missing.append(f"{module_name}.{attr}")
        for module, attr, fn, name in originals:
            setattr(module, attr, self.wrap(fn, name))

    def dump(self, path, exit_code):
        counts = dict(self.counts)
        keys = counts.pop("null_keys", set())
        counts["stattests.null_computes"] = len(keys)
        counts["stattests.null_dip_points"] = sum(n * b for n, b, _ in keys)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": counts, "missing": self.missing,
                       "exit": exit_code}, fh)


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced operation (times in seconds)."""
    spans = trace["spans"]
    total = defaultdict(float)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for i, (name, t0, t1, parent) in enumerate(spans):
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child_time[i]
    c = defaultdict(int, trace["counts"])
    requests = c["stattests.null_requests"]
    points = c["stattests.null_dip_points"]
    dip_p_s = total["stattests.dip_pvalue_mc"]
    return {
        "stattests.dip_pvalue_s": dip_p_s,
        "stattests.null_computes": c["stattests.null_computes"],
        "stattests.null_reuses": requests - c["stattests.null_computes"],
        "stattests.null_reuse_ratio": (requests - c["stattests.null_computes"]) / requests if requests else 0.0,
        "stattests.null_dip_points": points,
        "stattests.s_per_mpoint": dip_p_s / (points / 1e6) if points else 0.0,
        "stattests.dip_statistic_s": total["stattests.dip_statistic"],
        "stattests.skewness_s": total["stattests.dagostino_skewness"],
        "cli.read_csv_s": total["cli.read_csv_features"],
        "cli.cells": c["cli.cells"],
        "cli.missing_cells": c["cli.missing_cells"],
        "cli.self_s": self_time[ROOT_SPAN],
        "density.pareto_radius_s": total["density.pareto_radius"],
        "density.pareto_pairs": c["density.pareto_pairs"],
        "density.pareto_bytes_computed": 8 * c["density.pareto_pairs"],
        "density.pde_count_s": self_time["density.pde_estimate"],
        "engine.build_plot_model_s": total["engine.build_plot_model"],
        "engine.self_s": sum(v for k, v in self_time.items() if k.startswith("engine.")),
        "engine.subsample_s": total["engine.subsample"],
        "engine.features_density": c["engine.features_density"],
        "engine.features_jitter": c["engine.features_jitter"],
        "engine.features_dirac": c["engine.features_dirac"],
        "engine.features_skipped": c["engine.features_skipped"],
        "stats_core.s": sum(v for k, v in total.items() if k.startswith("stats_core.")),
        "render.render_svg_s": total["render.render_svg"],
        "render.svg_bytes": c["render.svg_bytes"],
        "render.svg_elements": c["render.svg_elements"],
    }


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("finestruct.cli")
    tracer = Tracer()
    tracer.install()
    code = 1
    tracer.enter(ROOT_SPAN)
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors and --version
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.leave()
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
