"""Seeded workload inputs and the CLI operations that consume them.

Every input is a pure function of the workload seed: column samples come from
``finestruct.generators`` (plus numpy for the lognormal, clipping, integer and
missing-value shaping), each column from its own ``SeedSequence((seed, j))``
stream. The ``--seed`` handed to finestruct itself is fixed per workload so
the timed program always does the same kind of work.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from finestruct.generators import GaussMixSpec, sample_gauss_mixture, sample_uniform

FINESTRUCT_SEED = 7  # the program's own seed; never derived from the bench seed
ALPHA = 0.05  # the CLI's default test level, used by the checker


@dataclass(frozen=True)
class Column:
    name: str
    cells: list          # CSV cell text, "" or "NA" for missing
    glyph: str           # the glyph the design routes it to: density, jitter or dirac
    rejects_dip: bool = False  # designed to be visibly non-unimodal


@dataclass(frozen=True)
class Workload:
    name: str
    columns: tuple
    argv: tuple          # CLI arguments after the subcommand's input path
    command: str         # "plot" or "test"
    raw_tested: bool     # tests run on the raw column (no subsample, no transform)
    replicates: int      # Monte Carlo replicates of the dip null

    def cli_args(self, csv_path: str, out_dir: str) -> list:
        if self.command == "plot":
            return ["plot", csv_path, "-o", os.path.join(out_dir, "plot.svg"), *self.argv]
        return ["test", csv_path, *self.argv]


def _stream(seed: int, j: int) -> int:
    return int(np.random.SeedSequence((seed, j)).generate_state(1)[0])


def _gauss(n, seed, mean=0.0, sd=1.0):
    return sample_gauss_mixture(n, GaussMixSpec(((1.0, mean, sd),)), seed).values


def _fmt(values) -> list:
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _with_missing(cells: list, frac: float, seed: int) -> list:
    """Blank out about ``frac`` of the cells, alternating empty and NA."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    out = list(cells)
    for k, i in enumerate(np.flatnonzero(rng.random(len(cells)) < frac).tolist()):
        out[i] = ("", "NA")[k % 2]
    return out


def wide_mixed(seed: int, rows: int = 1000, replicates: int = 50) -> Workload:
    cols = []
    j = 0
    for k in range(6):
        cols.append(Column(f"gauss{k}", _fmt(_gauss(rows, _stream(seed, j))), "density"))
        j += 1
    bimodal = GaussMixSpec(((0.5, 0.0, 1.0), (0.5, 4.0, 1.0)))
    for k in range(6):
        v = sample_gauss_mixture(rows, bimodal, _stream(seed, j)).values
        cols.append(Column(f"bimodal{k}", _fmt(v), "density", rejects_dip=True))
        j += 1
    for k in range(6):
        cols.append(Column(f"lognorm{k}", _fmt(np.exp(_gauss(rows, _stream(seed, j)))), "density"))
        j += 1
    for k in range(6):
        v = np.clip(_gauss(rows, _stream(seed, j)), -1.0, 1.0)
        cols.append(Column(f"clipped{k}", _fmt(v), "density", rejects_dip=True))
        j += 1
    for k in range(4):
        v = np.floor(sample_uniform(rows, 0.0, 6.0, _stream(seed, j)).values).astype(int)
        cols.append(Column(f"levels{k}", [str(x) for x in v.tolist()], "jitter"))
        j += 1
    for k in range(2):
        cols.append(Column(f"const{k}", ["5"] * rows, "dirac"))
        j += 1
    for k in range(2):
        cells = _with_missing(_fmt(_gauss(rows, _stream(seed, j))), 0.97, _stream(seed, j))
        cols.append(Column(f"sparse{k}", cells, "jitter"))
        j += 1
    return Workload(
        "wide_mixed",
        tuple(cols),
        ("--replicates", str(replicates), "--seed", str(FINESTRUCT_SEED)),
        "plot",
        raw_tested=True,
        replicates=replicates,
    )


def tall_ingest(seed: int, rows: int = 100_000, sample_size: int = 60_000,
                replicates: int = 4) -> Workload:
    specs = [
        ("gauss", _gauss(rows, _stream(seed, 0))),
        ("lognorm_heavy", np.exp(_gauss(rows, _stream(seed, 1), sd=2.0))),
        ("uniform_clipped", np.clip(sample_uniform(rows, -0.2, 1.2, _stream(seed, 2)).values, 0.0, 1.0)),
    ]
    cols = [Column(name, _with_missing(_fmt(v), 0.01, _stream(seed, 10 + j)), "density")
            for j, (name, v) in enumerate(specs)]
    for k in range(3):
        v = np.floor(sample_uniform(rows, 0.0, 8.0, _stream(seed, 3 + k)).values).astype(int)
        cells = _with_missing([str(x) for x in v.tolist()], 0.01, _stream(seed, 13 + k))
        cols.append(Column(f"levels{k}", cells, "jitter"))
    return Workload(
        "tall_ingest",
        tuple(cols),
        ("--scaling", "robust", "--sample-size", str(sample_size),
         "--replicates", str(replicates), "--seed", str(FINESTRUCT_SEED)),
        "plot",
        raw_tested=False,
        replicates=replicates,
    )


def test_single(seed: int, rows: int = 500, replicates: int = 2000) -> Workload:
    spec = GaussMixSpec(((0.7, 3.0, 0.5), (0.3, 3.6, 0.4)))
    v = np.exp(sample_gauss_mixture(rows, spec, _stream(seed, 0)).values)
    cols = (Column("revenue", _fmt(v), "density"),)
    argv = ("revenue", "--json", "--seed", str(FINESTRUCT_SEED))
    if replicates != 2000:
        argv += ("--replicates", str(replicates))
    return Workload(
        "test_single",
        cols,
        argv,
        "test",
        raw_tested=True,
        replicates=replicates,
    )


WORKLOADS = {"wide_mixed": wide_mixed, "tall_ingest": tall_ingest, "test_single": test_single}

# reduced sizes for the self-test: every code path, a fraction of the work
SMOKE = {
    "wide_mixed": {"rows": 600, "replicates": 40},
    "tall_ingest": {"rows": 3000, "sample_size": 6000},
    "test_single": {"rows": 200, "replicates": 100},
}


@dataclass(frozen=True)
class BuiltInput:
    path: str
    cells: int
    missing: int
    sha256: str
    numeric: dict        # column name -> parsed finite values, as the CLI reads them


def write_csv(wl: Workload, path: str) -> BuiltInput:
    """Write the workload CSV; return its cell counts, hash and parsed columns."""
    names = [c.name for c in wl.columns]
    lines = [",".join(names)]
    lines += [",".join(row) for row in zip(*(c.cells for c in wl.columns))]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    numeric = {}
    missing = 0
    for c in wl.columns:
        vals = [float(x) for x in c.cells if x not in ("", "NA")]
        missing += len(c.cells) - len(vals)
        numeric[c.name] = np.asarray(vals)
    cells = len(wl.columns) * len(wl.columns[0].cells)
    return BuiltInput(path, cells, missing, hashlib.sha256(data).hexdigest(), numeric)
