"""Byte-level pin of `finestruct plot` on a small seeded input.

A refactor must leave the SVG and the report unchanged for a fixed input and
seed; these SHA-256s make that checkable in the suite. The "density" case
draws density glyphs with box and Gaussian overlays; the "mixed" case adds a
jitter and a Dirac glyph, two reference lines, and a title and a column name
holding XML specials and a control character. An intended output
change updates them and says why in CHANGES.md. They were recorded with
numpy 2.4 on x86-64; another numpy build may round a reduction differently.
"""
import hashlib

import numpy as np
import pytest

from finestruct.cli import main
from finestruct.generators import GaussMixSpec, sample_gauss_mixture, sample_uniform

N = 400
SPECIALS = "&<>\"'\x01"


def _write_density_csv(path):
    normal = sample_gauss_mixture(N, GaussMixSpec(((1.0, 0.0, 1.0),)), seed=11).values
    bimodal = sample_gauss_mixture(
        N, GaussMixSpec(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))), seed=12
    ).values
    clipped = np.clip(sample_uniform(N, -2.0, 2.0, seed=13).values, -1.5, 1.5)
    lines = ["normal,bimodal,clipped"]
    lines += [f"{a!r},{b!r},{c!r}" for a, b, c in zip(
        normal.tolist(), bimodal.tolist(), clipped.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _write_mixed_csv(path):
    normal = sample_gauss_mixture(N, GaussMixSpec(((1.0, 0.0, 1.0),)), seed=21).values
    few = sample_gauss_mixture(30, GaussMixSpec(((1.0, 0.5, 0.8),)), seed=22).values.tolist()
    name = "x" + SPECIALS
    lines = ["normal,few,const," + '"' + name.replace('"', '""') + '"']
    for i, a in enumerate(normal.tolist()):
        b = repr(few[i]) if i < len(few) else ""
        lines.append(f"{a!r},{b},1.25,{a * 0.5 + 1.0!r}")
    path.write_text("\n".join(lines) + "\n")


CASES = {
    "density": (_write_density_csv, ["--boxplot", "--seed", "7", "--replicates", "200"],
                "87e6cca98c64c6ed98a1abfdd1a7307a7937edd4607e23447685503847f5a87d",
                "f2502378af14bf6a4c4cc18ec8d0ebdf8eb62506f1501bf6f965230d5a597f70"),
    "mixed": (_write_mixed_csv, ["--boxplot", "--seed", "5", "--replicates", "100",
                                 "--title", "T" + SPECIALS, "--hline", "0.5", "--hline", "-1e-3"],
              "b4c97533b6ad81f3e996a84674b273e5156068f091a6c3e65dd7986f296e8aa9",
              "b4ff4f06b9f8769c26904c569fca74204ec66d077cd84d3c6cafd4d3a1f7cd9a"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_plot_bytes_pinned(tmp_path, case):
    write_csv, args, svg_sha256, report_sha256 = CASES[case]
    csv_path = tmp_path / "golden.csv"
    write_csv(csv_path)
    out = tmp_path / "golden.svg"
    assert main(["plot", str(csv_path), "-o", str(out), *args]) == 0
    assert _sha256(out) == svg_sha256
    assert _sha256(tmp_path / "golden.report.json") == report_sha256
