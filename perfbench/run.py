"""finestruct benchmark: one fresh CLI process per operation, outputs checked.

    python3 perfbench/run.py --workload wide_mixed --seed 0 --seconds 40 --trace 0

Builds the workload's CSV from ``--seed`` before any timing, times
``python3 -m finestruct.cli --version`` launches (set-up), then runs the
workload's operation in a closed loop, one process at a time, until about
``--seconds`` seconds after the start, set-up included: a further operation
starts only while half of the previous one's wall time still fits. Every
operation's outputs are checked (check.py); a failed check counts the
operation as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over the operations. ``--trace 1`` alternates untraced and traced operations
(tracer.py), reports the per-layer metrics as medians over the traced ones,
and requires each traced output to be byte-identical to the untraced one.
The last stdout line is the JSON result; the lines above it give each metric
with its spread, the environment and the input and output hashes.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 0          # the seed whose dip values and radii are recorded
SETUP_LAUNCHES = 9
DEADLINE_S = 165.0        # the whole run, set-up included, ends before 180 s
GOLDEN = os.path.join(HERE, "golden.json")


@dataclass
class Op:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    problems: list


def run_process(cmd, env, out_dir, timeout) -> Op:
    """Run one child; wall time, its own rusage (os.wait4) and its stdout."""
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(out_dir, "stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    problems = [f"timed out after {timeout:.0f} s"] if wall >= timeout else []
    return Op(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, code, stdout, problems)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("FINESTRUCT_SEED", None)
    return env


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git ("unknown" outside a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_start) -> dict:
    import numpy

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dip_backend": "numba" if importlib.util.find_spec("numba") else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def describe(values, unit):
    if not values:
        return "no samples"
    return (f"median {statistics.median(values):.6g} {unit}, min {min(values):.6g}, "
            f"max (tail) {max(values):.6g} (n={len(values)})")


class Bench:
    def __init__(self, wl, built, oracle, golden, env, end, deadline):
        self.wl = wl
        self.built = built
        self.oracle = oracle
        self.golden = golden
        self.env = env
        self.end = end
        self.deadline = deadline
        self.ops = []
        self.hashes = {}
        self.facts = None

    def _check(self, op, out_dir):
        import check

        if self.wl.command == "plot":
            problems, facts = check.check_plot(self.wl, self.built, out_dir, op.exit_code,
                                               self.oracle, self.golden)
        else:
            problems, facts = check.check_test(self.wl, self.built, op.stdout, op.exit_code,
                                               self.oracle, self.golden)
        op.problems += problems
        self.hashes.update(facts["sha256"])
        self.facts = self.facts or facts
        self.ops.append(op)
        return op

    def run(self, out_dir, traced_spans=None) -> Op:
        args = self.wl.cli_args(self.built.path, out_dir)
        if traced_spans is None:
            cmd = [sys.executable, "-m", "finestruct.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), traced_spans, *args]
        timeout = max(1.0, self.deadline - time.perf_counter())
        return self._check(run_process(cmd, self.env, out_dir, timeout), out_dir)

    def loop(self, step):
        """Call ``step`` at least once, then while half of the next call fits before ``end``.

        A run so ends within half a call of ``end``, on average at it.
        """
        while True:
            s0 = time.perf_counter()
            step()
            now = time.perf_counter()
            last = now - s0
            if now + last / 2 > self.end or now + last > self.deadline:
                return


def same_outputs(wl, plain_dir, traced_dir, plain_op, traced_op):
    """Byte-identity of traced and untraced outputs (manifest timing excepted)."""
    if wl.command == "test":
        return plain_op.stdout == traced_op.stdout
    for name in ("plot.svg", "plot.report.json"):
        with open(os.path.join(plain_dir, name), "rb") as a, \
                open(os.path.join(traced_dir, name), "rb") as b:
            if a.read() != b.read():
                return False
    manifests = []
    for d in (plain_dir, traced_dir):
        with open(os.path.join(d, "plot.manifest.json"), encoding="utf-8") as fh:
            m = json.load(fh)
        m.pop("timing", None)
        manifests.append(m)
    return manifests[0] == manifests[1]


def measure_setup(env, work):
    """Median wall time of ``finestruct --version`` launches (interpreter + import)."""
    cmd = [sys.executable, "-m", "finestruct.cli", "--version"]
    out_dir = os.path.join(work, "setup")
    run_process(cmd, env, out_dir, 60)  # warm-up: bytecode caches are written once per checkout
    times = []
    for _ in range(SETUP_LAUNCHES):
        op = run_process(cmd, env, out_dir, 60)
        if op.exit_code != 0 or not op.stdout.startswith(b"finestruct "):
            raise RuntimeError(f"finestruct --version failed with exit code {op.exit_code}")
        times.append(op.wall)
    return times


def end_to_end(bench, work) -> dict:
    """Untraced operations; samples of each end-to-end metric but set-up."""
    bench.loop(lambda: bench.run(os.path.join(work, f"op{len(bench.ops)}")))
    ok = [op for op in bench.ops if not op.problems] or bench.ops
    cells = bench.built.cells - bench.built.missing
    return {
        "wall_s": [op.wall for op in ok],
        "cpu_s": [op.cpu for op in ok],
        "cells_per_s": [cells / op.wall for op in ok],
        "peak_rss_mb": [op.rss_mb for op in ok],
    }


def per_layer(bench, work):
    """Untraced and traced operations in turn; per-layer samples and trace warnings."""
    from tracer import layer_metrics

    plain_walls, traced_walls, layers, warnings = [], [], [], []
    spans_path = os.path.join(WORK, f"{bench.wl.name}.spans.json")

    def pair():
        k = len(plain_walls)
        plain_dir = os.path.join(work, f"plain{k}")
        traced_dir = os.path.join(work, f"traced{k}")
        plain = bench.run(plain_dir)
        traced = bench.run(traced_dir, traced_spans=spans_path)
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        if plain.problems or traced.problems:
            return
        if not same_outputs(bench.wl, plain_dir, traced_dir, plain, traced):
            traced.problems.append("traced outputs differ from the untraced run")
            return
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        for target in trace["missing"]:
            warning = f"warning: trace target missing or broken: {target}"
            if warning not in warnings:
                warnings.append(warning)
                print(warning, file=sys.stderr)
        layers.append(layer_metrics(trace))

    bench.loop(pair)
    values = {k: [m[k] for m in layers] for k in (layers[0] if layers else {})}
    if layers:
        values["trace.overhead_s"] = [statistics.median(traced_walls)
                                      - statistics.median(plain_walls)]
    return values, warnings


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs for the self-test; no recorded values are compared")
    p.add_argument("--record-golden", action="store_true",
                   help=f"store this run's dip values and radii as the seed-{DEFAULT_SEED} reference")
    args = p.parse_args(argv)
    started = time.perf_counter()
    load_start = list(os.getloadavg())

    if not os.path.isfile(os.path.join(SRC, "finestruct", "cli.py")):
        print(f"error: no finestruct sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "_oracles.py")):
        print("error: tests/_oracles.py is missing; the checker needs it", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import check
    import finestruct
    from workloads import SMOKE, WORKLOADS, write_csv

    if os.path.dirname(os.path.abspath(finestruct.__file__)) != os.path.join(SRC, "finestruct"):
        print(f"error: imported finestruct from {finestruct.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload](args.seed, **(SMOKE[args.workload] if args.smoke else {}))
    golden = None
    if args.seed == DEFAULT_SEED and not args.smoke and not args.record_golden:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)[wl.name]

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        built = write_csv(wl, os.path.join(work, f"{wl.name}.csv"))
        oracle = check.load_oracles(ROOT)
        env = child_env()
        setup_times = measure_setup(env, work)
        bench = Bench(wl, built, oracle, golden, env, started + args.seconds,
                      started + DEADLINE_S)
        if args.trace == 0:
            values = end_to_end(bench, work)
            values["setup_s"] = setup_times
            warnings = []
            metric_specs = spec["end_to_end"]
        else:
            values, warnings = per_layer(bench, work)
            metric_specs = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_golden:
        facts = {k: bench.facts[k] for k in ("dip_d", "radius") if bench.facts[k]}
        recorded = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as fh:
                recorded = json.load(fh)
        recorded[wl.name] = facts
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=2, sort_keys=True)
            fh.write("\n")

    failed = sum(1 for op in bench.ops if op.problems)
    attempted = len(bench.ops)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {attempted} operations, "
          f"{failed} failed")
    for op in bench.ops:
        for problem in op.problems:
            print(f"  failed: {problem}")
    for line in warnings:
        print(line)
    metrics = {}
    for m in metric_specs:
        samples = values.get(m["name"], [])
        print(f"  {m['name']:32s} {describe(samples, m['unit'])}")
        if samples:
            metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"]}
    # 0 whenever the run is correct, so it is printed here but is not a BENCHMARK.json metric
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print("environment " + json.dumps(environment(load_start)))
    print("input " + json.dumps({"cells": built.cells, "missing": built.missing,
                                 "sha256": built.sha256}))
    print("output sha256 (information only) " + json.dumps(bench.hashes, sort_keys=True))
    correct = failed == 0 and len(metrics) == len(metric_specs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
