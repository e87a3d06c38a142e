"""Output checks for one benchmark operation.

Each check returns a list of problems (empty means the operation passed) and
the facts it read, so the caller can record dip values, Pareto radii and
output hashes. P-values and hashes are never compared to recorded values:
sharing or stopping the Monte Carlo null changes them on purpose.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import xml.etree.ElementTree as ET

from workloads import ALPHA

SVG_G = "{http://www.w3.org/2000/svg}g"
GLYPH_CHILD = {"polygon": "density", "circle": "jitter", "line": "dirac"}
GOLDEN_RTOL = 1e-9


def load_oracles(root: str):
    """The test suite's independent oracles (tests/_oracles.py)."""
    path = os.path.join(root, "tests", "_oracles.py")
    spec = importlib.util.spec_from_file_location("_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_test_result(name, t, values, replicates, oracle, problems):
    """Bounds shared by the plot report and the ``test --json`` output."""
    n, d, p = t["n"], t["dip_d"], t["dip_p"]
    if values is not None and n != len(values):
        problems.append(f"{name}: tested n={n}, input has {len(values)} values")
    if not 1.0 / (2 * n) - 1e-15 <= d <= 0.25 + 1e-15:
        problems.append(f"{name}: dip {d} outside [1/(2n), 1/4]")
    if t["dip_replicates"] != replicates:
        problems.append(f"{name}: {t['dip_replicates']} replicates, expected {replicates}")
    if not 1.0 / (replicates + 1) - 1e-15 <= p <= 1.0:
        problems.append(f"{name}: dip p {p} outside [1/(B+1), 1]")
    if values is not None:
        g1, z = oracle.skewness_z_oracle(values)
        if not (math.isclose(t["skew_g1"], g1, rel_tol=1e-8, abs_tol=1e-12)
                and math.isclose(t["skew_z"], z, rel_tol=1e-8, abs_tol=1e-10)):
            problems.append(f"{name}: skew (g1, z)=({t['skew_g1']}, {t['skew_z']}) "
                            f"but the oracle gives ({g1}, {z})")


def _check_golden(facts, golden, problems):
    for kind in ("dip_d", "radius"):
        for name, want in golden.get(kind, {}).items():
            got = facts[kind].get(name)
            if got is None or not math.isclose(got, want, rel_tol=GOLDEN_RTOL):
                problems.append(f"{name}: {kind} {got} differs from the recorded {want}")


def _svg_glyphs(svg_path):
    """(feature label, glyph kind) per glyph group, in plot order."""
    root = ET.parse(svg_path).getroot()
    children = list(root)
    out = []
    for i, el in enumerate(children):
        if el.tag != SVG_G or el.attrib:
            continue  # the axis group carries stroke attributes
        kinds = {GLYPH_CHILD.get(c.tag.split("}")[-1]) for c in el} - {None}
        label = children[i + 1].text if i + 1 < len(children) else None
        out.append((label, kinds.pop() if len(kinds) == 1 else f"unclear {sorted(kinds)}"))
    return out


def check_plot(wl, built, out_dir, exit_code, oracle, golden=None):
    """Problems and facts of one ``finestruct plot`` operation."""
    problems = []
    facts = {"dip_d": {}, "radius": {}, "sha256": {}}
    if exit_code != 0:
        return [f"exit code {exit_code}"], facts
    svg_path = os.path.join(out_dir, "plot.svg")
    report_path = os.path.join(out_dir, "plot.report.json")
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        glyphs = _svg_glyphs(svg_path)
    except (OSError, ValueError, ET.ParseError) as exc:
        return [f"unreadable output: {exc}"], facts
    for path in (svg_path, report_path):
        facts["sha256"][os.path.basename(path)] = _sha(path)
    try:
        _check_report(wl, built, report, glyphs, oracle, problems, facts)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    if golden:
        _check_golden(facts, golden, problems)
    return problems, facts


def _check_report(wl, built, report, glyphs, oracle, problems, facts):
    if report.get("schema_version") != 1:
        problems.append(f"report schema_version {report.get('schema_version')!r}, expected 1")
    features = report.get("features", [])
    if [(f["name"], f["glyph"]) for f in features] != glyphs:
        problems.append(f"SVG glyph groups {glyphs} do not match the report")
    if report.get("skipped"):
        problems.append(f"skipped features: {report['skipped']}")
    by_name = {f["name"]: f for f in features}
    for col in wl.columns:
        f = by_name.get(col.name)
        if f is None:
            problems.append(f"{col.name}: missing from the report")
            continue
        if f["glyph"] != col.glyph:
            problems.append(f"{col.name}: glyph {f['glyph']}, designed {col.glyph}")
        if f["radius"] is not None:
            facts["radius"][col.name] = f["radius"]
        t = f["test"]
        if col.glyph == "density" and t is None:
            problems.append(f"{col.name}: density glyph without a test report")
        if t is None:
            continue
        facts["dip_d"][col.name] = t["dip_d"]
        values = built.numeric[col.name] if wl.raw_tested else None
        _check_test_result(col.name, t, values, wl.replicates, oracle, problems)
        if col.rejects_dip and not t["dip_p"] < ALPHA:
            problems.append(f"{col.name}: dip p {t['dip_p']} does not reject at {ALPHA}")


def check_test(wl, built, stdout: bytes, exit_code, oracle, golden=None):
    """Problems and facts of one ``finestruct test --json`` operation."""
    facts = {"dip_d": {}, "radius": {}, "sha256": {"stdout": hashlib.sha256(stdout).hexdigest()}}
    if exit_code != 0:
        return [f"exit code {exit_code}"], facts
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"unreadable output: {exc}"], facts
    col = wl.columns[0]
    problems = []
    if not isinstance(out, dict) or out.get("feature") != col.name:
        problems.append(f"tested {out.get('feature')!r}, expected {col.name!r}")
        return problems, facts
    values = built.numeric[col.name]
    try:
        if out["missing"] != len(col.cells) - len(values):
            problems.append(f"missing {out['missing']}, expected {len(col.cells) - len(values)}")
        facts["dip_d"][col.name] = out["dip_d"]
        _check_test_result(col.name, out, values, wl.replicates, oracle, problems)
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    if golden:
        _check_golden(facts, golden, problems)
    return problems, facts
