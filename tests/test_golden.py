"""Byte-level pin of `finestruct plot` on a small seeded input.

A refactor must leave the SVG and the report unchanged for a fixed input and
seed; these SHA-256s make that checkable in the suite. An intended output
change updates them and says why in CHANGES.md. They were recorded with
numpy 2.4 on x86-64; another numpy build may round a reduction differently.
"""
import hashlib

import numpy as np

from finestruct.cli import main
from finestruct.generators import GaussMixSpec, sample_gauss_mixture, sample_uniform

N = 400
SVG_SHA256 = "87e6cca98c64c6ed98a1abfdd1a7307a7937edd4607e23447685503847f5a87d"
REPORT_SHA256 = "30995f1d4cee0d592c0d8d5657a34d60c5d02795c31e366aa290cfb4f9899837"


def _write_csv(path):
    normal = sample_gauss_mixture(N, GaussMixSpec(((1.0, 0.0, 1.0),)), seed=11).values
    bimodal = sample_gauss_mixture(
        N, GaussMixSpec(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))), seed=12
    ).values
    clipped = np.clip(sample_uniform(N, -2.0, 2.0, seed=13).values, -1.5, 1.5)
    lines = ["normal,bimodal,clipped"]
    lines += [f"{a!r},{b!r},{c!r}" for a, b, c in zip(
        normal.tolist(), bimodal.tolist(), clipped.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_plot_bytes_pinned(tmp_path):
    csv_path = tmp_path / "golden.csv"
    _write_csv(csv_path)
    out = tmp_path / "golden.svg"
    rc = main(["plot", str(csv_path), "-o", str(out), "--boxplot", "--seed", "7",
               "--replicates", "200"])
    assert rc == 0
    assert _sha256(out) == SVG_SHA256
    assert _sha256(tmp_path / "golden.report.json") == REPORT_SHA256
