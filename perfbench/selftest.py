"""Self-test of the benchmark on reduced inputs: ``python3 perfbench/selftest.py``.

Shows that every metric named in BENCHMARK.json is emitted, in both trace
modes, on every workload; that the checker rejects a corrupted SVG, a
corrupted report, corrupted ``test`` output and a non-zero exit; and that a
trace target which no longer exists is reported, not fatal. Exits 1 on the
first failed expectation.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
import check  # noqa: E402
import tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, write_csv  # noqa: E402


def expect(cond, what):
    print(f"{'PASS' if cond else 'FAIL'}: {what}")
    if not cond:
        sys.exit(1)


def metrics_emitted(spec):
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                   "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(proc.returncode == 0 and result["correct"] and got == want,
                   f"{name} --trace {trace}: correct, every {key} metric with its unit")


def corrupt(src_dir, dst_dir, name, edit):
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    return dst_dir


def checker_rejects(work, oracle):
    env = run.child_env()
    wl = WORKLOADS["wide_mixed"](run.DEFAULT_SEED, **SMOKE["wide_mixed"])
    built = write_csv(wl, os.path.join(work, "wide.csv"))
    good = os.path.join(work, "good")
    op = run.run_process([sys.executable, "-m", "finestruct.cli", *wl.cli_args(built.path, good)],
                         env, good, 120)
    ok, _ = check.check_plot(wl, built, good, op.exit_code, oracle)
    expect(op.exit_code == 0 and not ok, f"checker passes an intact plot ({ok})")

    cases = {
        "truncated SVG": ("plot.svg", lambda t: t[: len(t) // 2]),
        "SVG missing a glyph group": ("plot.svg",
                                      lambda t: re.sub(r"<g>.*?</g>", "", t, count=1, flags=re.S)),
        "report schema_version 2": ("plot.report.json",
                                    lambda t: t.replace('"schema_version": 1', '"schema_version": 2')),
        "report with a wrong glyph": ("plot.report.json",
                                      lambda t: t.replace('"glyph": "dirac"', '"glyph": "jitter"', 1)),
        "unparseable report": ("plot.report.json", lambda t: t[:-10]),
    }
    for i, (label, (name, edit)) in enumerate(cases.items()):
        bad = corrupt(good, os.path.join(work, f"bad{i}"), name, edit)
        problems, _ = check.check_plot(wl, built, bad, 0, oracle)
        expect(bool(problems), f"checker rejects a {label}: {problems[0][:90]}")
    problems, _ = check.check_plot(wl, built, good, 1, oracle)
    expect(bool(problems), "checker rejects a plot with a non-zero exit code")

    wl = WORKLOADS["test_single"](run.DEFAULT_SEED, **SMOKE["test_single"])
    built = write_csv(wl, os.path.join(work, "single.csv"))
    out = os.path.join(work, "test")
    op = run.run_process([sys.executable, "-m", "finestruct.cli", *wl.cli_args(built.path, out)],
                         env, out, 120)
    ok, _ = check.check_test(wl, built, op.stdout, op.exit_code, oracle)
    expect(op.exit_code == 0 and not ok, f"checker passes intact test output ({ok})")
    data = json.loads(op.stdout)
    for label, key, value in (("a dip above 1/4", "dip_d", 0.3),
                              ("a p-value below 1/(B+1)", "dip_p", 0.0),
                              ("a skew z off the oracle", "skew_z", data["skew_z"] * 1.001)):
        bad = json.dumps({**data, key: value}).encode()
        problems, _ = check.check_test(wl, built, bad, 0, oracle)
        expect(bool(problems), f"checker rejects test output with {label}: {problems[0][:90]}")
    problems, _ = check.check_test(wl, built, op.stdout, 2, oracle)
    expect(bool(problems), "checker rejects test output with a non-zero exit code")


def missing_target_reported():
    saved = tracer.TARGETS
    tracer.TARGETS = saved + (("finestruct.cli", "no_such_entry_point", "cli.gone"),)
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        tracer.TARGETS = saved
    expect(t.missing == ["finestruct.cli.no_such_entry_point"],
           f"a vanished trace target is listed, not fatal ({t.missing})")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        checker_rejects(work, check.load_oracles(run.ROOT))
        missing_target_reported()
        metrics_emitted(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
