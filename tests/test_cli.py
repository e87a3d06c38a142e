import dataclasses
import errno
import json
import mmap
import os
import re
import signal
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from finestruct import cli, csvread, stattests
from finestruct.cli import main
from finestruct.csvread import CsvError, read_csv_features
from finestruct.engine import EngineConfig
from finestruct.stattests import _null_dips

SVGNS = "{http://www.w3.org/2000/svg}"
SRC = Path(__file__).resolve().parents[1] / "src"


def _write_normal_csv(path, n=300, cols=("a", "b"), seed=0):
    rng = np.random.default_rng(seed)
    data = {c: rng.normal(i, 1, n) for i, c in enumerate(cols)}
    lines = [",".join(cols)]
    for i in range(n):
        lines.append(",".join(repr(float(data[c][i])) for c in cols))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReadCsv:
    def test_missing_tokens_counted(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,\n5,NA\n7,NaN\n9\n")
        feats = read_csv_features(str(p))
        by = {f.name: f for f in feats}
        assert list(by["a"].values) == [1, 3, 5, 7, 9] and by["a"].missing_count == 0
        # the short last row counts its absent cell as missing
        assert list(by["b"].values) == [2] and by["b"].missing_count == 4

    def test_spec_example(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,\n")
        feats = read_csv_features(str(p))
        assert feats[1].missing_count == 1

    def test_unparseable_cells_are_missing(self, tmp_path):
        # str.strip removes the \x1c-\x1f separators that float() rejects;
        # float() itself accepts digit underscores
        p = tmp_path / "x.csv"
        p.write_text("a\n1\nfoo\ninf\n2\n 2 \n1_000\n-Infinity\n\x1c3\x1c\n")
        f = read_csv_features(str(p))[0]
        assert list(f.values) == [1, 2, 2, 1000, 3] and f.missing_count == 3

    def test_duplicate_header_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b, a\n1,2,3\n")
        with pytest.raises(CsvError, match="duplicate column name 'a'"):
            read_csv_features(str(p))

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text('"name a","b"\n"1.5",2\n')
        feats = read_csv_features(str(p))
        assert feats[0].name == "name a"
        assert feats[0].values[0] == 1.5


def _columns(path):
    """Each feature's (name, value bytes, missing count) as read, or the CsvError message."""
    try:
        return [(f.name, f.values.tobytes(), f.missing_count) for f in read_csv_features(str(path))]
    except CsvError as exc:
        return str(exc)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """``split(k)`` gives the next reads k usable CPUs and a 1-byte floor; it returns the list
    of every split's range count."""
    ranges = []
    split_fill = csvread.split_fill

    def spy(k, nbytes, fill):
        ranges.append(k)
        return split_fill(k, nbytes, fill)

    monkeypatch.setattr(csvread, "split_fill", spy)
    monkeypatch.setattr(csvread, "_SPLIT_BYTES", 1)

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        return ranges
    return force


def _cut_file(payload: bytes, k: int, newline: bytes = b"\n") -> bytes:
    """A header and k body blocks of equal length, so that the last cut falls just before
    ``payload``: each block is a padded row and then a plain row, or in the last, the payload."""
    tails = [newline.join([b"3,4", b""])] * (k - 1) + [payload]
    size = max(map(len, tails)) + 8
    blocks = [b"1," + b" " * (size - len(tail) - 3 - len(newline)) + b"2" + newline + tail
              for tail in tails]
    return b"a,b" + newline + b"".join(blocks)


class TestSplitReader:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("payload, newline", [
        (b"5,6\r\n7,\r\n", b"\r\n"),
        ("\ufeff5,6\n7,8\n".encode(), b"\n"),  # U+FEFF opens a line: a missing cell, not a BOM
        (b"5,6\n7,8", b"\n"),
        (b"\n5,6\n", b"\n"),
        (b"5,6\n7,8,9\n", b"\n"),
        (b"5,\xff6\n", b"\n"),
        (b"5\x00,6\n", b"\n"),
        (b'5,"6"\n', b"\n"),
    ], ids=["crlf", "feff", "no-final-newline", "blank-line", "long-row", "bad-utf8", "nul",
            "quote"])
    def test_cut_at_edge_case_reads_as_serial(self, tmp_path, split, k, payload, newline):
        path = tmp_path / "x.csv"
        path.write_bytes(_cut_file(payload, k, newline))
        ranges = split(1)
        want = _columns(path)
        assert ranges == []  # one CPU reads serially
        split(k)
        assert _columns(path) == want
        assert ranges == ([] if b'"' in payload else [k])
        _assert_no_child()

    @pytest.mark.parametrize("k", [2, 3])
    def test_quoted_header_splits(self, tmp_path, split, k):
        path = tmp_path / "x.csv"
        path.write_bytes(b'"a","b"' + _cut_file(b"5,6\n7,\n", k)[len(b"a,b"):])
        ranges = split(1)
        want = _columns(path)
        split(k)
        assert _columns(path) == want
        assert [name for name, _, _ in want] == ["a", "b"]
        assert ranges == [k]
        _assert_no_child()

    @pytest.mark.parametrize("header", [b'"a\n', b'a"b,"c\n', b"a\r\r\n"],
                             ids=["open-quote", "misplaced-quote", "lone-cr"])
    def test_header_csv_reads_otherwise_stays_serial(self, tmp_path, split, header):
        path = tmp_path / "x.csv"
        path.write_bytes(header + b"".join(b"%d\n" % i for i in range(12)))
        ranges = split(1)
        want = _columns(path)
        split(2)
        assert _columns(path) == want
        assert ranges == []
        _assert_no_child()

    def test_feff_cell_is_missing(self, tmp_path, split):
        path = tmp_path / "x.csv"
        path.write_bytes(_cut_file("\ufeff5,6\n".encode(), 2))
        ranges = split(2)
        assert [f.missing_count for f in read_csv_features(str(path))] == [1, 0]
        assert ranges == [2]

    @pytest.mark.parametrize("fault", ["fork", "mmap", "killed"])
    def test_fault_reads_same_columns(self, tmp_path, split, monkeypatch, fault):
        path = _write_normal_csv(tmp_path / "x.csv", n=200, cols=("a", "b", "c"))
        split(1)
        want = _columns(path)
        if fault == "killed":
            parent, extend = os.getpid(), csvread._extend_columns

            def child_dies(cols, rows):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                extend(cols, rows)

            monkeypatch.setattr(csvread, "_extend_columns", child_dies)
        else:
            def unavailable(*args):
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(*{"fork": (os, "fork"), "mmap": (mmap, "mmap")}[fault], unavailable)
        ranges = split(3)
        assert _columns(path) == want
        assert ranges == [3]
        _assert_no_child()

    def test_fork_fails_after_first_child(self, tmp_path, split, monkeypatch):
        path = _write_normal_csv(tmp_path / "x.csv", n=200, cols=("a", "b", "c"))
        split(1)
        want = _columns(path)
        fork, pids = os.fork, []

        def fork_once():
            if pids:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        ranges = split(3)
        assert _columns(path) == want
        assert ranges == [3] and len(pids) == 1
        _assert_no_child()

    def test_parent_never_parses_a_failed_childs_range(self, tmp_path, split, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_bytes(_cut_file(b"5,6\n7,8,9\n", 2))  # a too-long row in the last range
        split(1)
        want = _columns(path)
        parent, row_chunks, calls = os.getpid(), csvread._row_chunks, []

        def spy(*args):
            if os.getpid() == parent:
                calls.append(args)
            return row_chunks(*args)

        monkeypatch.setattr(csvread, "_row_chunks", spy)
        ranges = split(2)
        assert _columns(path) == want
        assert "line" in want
        assert ranges == [2]
        assert len(calls) == 2  # range 0, then the serial re-read for the message
        _assert_no_child()

    def test_header_error_reads_no_body(self, tmp_path, split, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_bytes(_cut_file(b"5,6\n", 2))
        ranges = split(2)
        read_csv_features(str(path))
        assert ranges == [2]  # a file of this size is split
        calls = []

        def spy(fn):
            def counted(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return counted

        monkeypatch.setattr(csvread, "_newlines", spy(csvread._newlines))
        monkeypatch.setattr(csvread, "_row_chunks", spy(csvread._row_chunks))
        with pytest.raises(CsvError, match=re.escape("column 'z' not found (have: a, b)")):
            read_csv_features(str(path), "z")
        path.write_bytes(b"a,a" + path.read_bytes()[len(b"a,b"):])
        with pytest.raises(CsvError, match="duplicate column name 'a'"):
            read_csv_features(str(path), "a")
        assert calls == [] and ranges == [2]
        _assert_no_child()

    def test_test_command_prints_as_one_cpu(self, tmp_path, split, capsys):
        path = _write_normal_csv(tmp_path / "x.csv", n=200, cols=("a", "b", "c"))

        def stdout(name):
            assert main(["test", str(path), name, "--replicates", "20"]) == 0
            return capsys.readouterr().out

        ranges = split(1)
        want = {name: stdout(name) for name in "abc"}
        split(2)
        assert {name: stdout(name) for name in "abc"} == want
        assert ranges == [2, 2, 2] and len(set(want.values())) == 3
        _assert_no_child()


class TestPlotCommand:
    def test_writes_three_outputs(self, tmp_path):
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        out = tmp_path / "out.svg"
        rc = main(["plot", str(csv_path), "-o", str(out),
                   "--replicates", "200", "--seed", "3"])
        assert rc == 0
        assert out.exists()
        report = json.loads((tmp_path / "out.report.json").read_text())
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert report["schema_version"] == 1
        assert {f["name"] for f in report["features"]} == {"a", "b"}
        assert manifest["seed"] == 3
        assert manifest["timing"]["total_s"] >= 0

    def test_manifest_dip_null_counts(self, tmp_path, monkeypatch):
        # equal-n density columns beside a constant one, as in a wide table;
        # with no points floor the one null is split across the usable CPUs
        k = 4
        csv_path = _write_normal_csv(tmp_path / "in.csv", n=200, cols=[f"c{i}" for i in range(k)])
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join([lines[0] + ",const"] + [r + ",5" for r in lines[1:]]) + "\n")
        monkeypatch.setattr(stattests, "_MIN_SPLIT_POINTS", 1)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            _null_dips.cache_clear()
            rc = main(["plot", str(csv_path), "-o", str(tmp_path / "out.svg"),
                       "--replicates", "60", "--seed", "3"])
            assert rc == 0
            manifest = json.loads((tmp_path / "out.manifest.json").read_text())
            assert manifest["dip_null"] == {"computed": 1, "reused": k - 1, "replicates": 60,
                                            "workers": cpus}
            assert manifest["timing"]["peak_rss_mb"] > 0

    def test_manifest_config_is_the_parsed_flags(self, tmp_path):
        csv_path = _write_normal_csv(tmp_path / "in.csv", n=100)
        assert main(["plot", str(csv_path), "-o", str(tmp_path / "out.svg"),
                     "--sample-size", "800", "--min-data", "40", "--min-unique", "10",
                     "--alpha", "0.1", "--no-gaussian", "--boxplot", "--scaling", "robust",
                     "--ordering", "alphabetical", "--replicates", "30"]) == 0
        config = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
        # EngineConfig's names; no output paths, and seed is a top-level key
        assert config == {"scaling": "robust", "ordering": "alphabetical",
                          "sample_size_cap": 800, "min_data": 40, "min_unique": 10,
                          "alpha": 0.1, "replicates": 30, "robust_gaussian": False,
                          "boxplot_overlay": True, "hline": [], "title": ""}

    def test_flagless_manifest_config_is_engine_defaults(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_normal_csv(tmp_path / "in.csv", n=100)
        assert main(["plot", "in.csv"]) == 0
        config = json.loads((tmp_path / "plot.manifest.json").read_text())["config"]
        expected = {**dataclasses.asdict(EngineConfig()), "scaling": "none",
                    "ordering": "statistics", "hline": [], "title": ""}
        del expected["seed"]
        assert config == expected

    def test_manifest_peak_rss_excludes_spawning_process(self, tmp_path):
        # getrusage's ru_maxrss survives exec: a child of a process holding
        # 200 MB would report at least that much as its own peak
        held_mb = 200
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        held = bytearray(b"\x01") * (held_mb << 20)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run([sys.executable, "-m", "finestruct.cli", "plot", str(csv_path),
                        "-o", str(tmp_path / "out.svg"), "--replicates", "20"],
                       env=env, check=True, capture_output=True, timeout=120)
        del held
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert 0 < manifest["timing"]["peak_rss_mb"] < held_mb

    def test_plot_and_test_agree_on_dip_p(self, tmp_path, capsys):
        csv_path = _write_normal_csv(tmp_path / "in.csv", n=400, cols=("a", "b", "c"))
        args = ["--replicates", "150", "--seed", "9"]
        assert main(["plot", str(csv_path), "-o", str(tmp_path / "p.svg"), *args]) == 0
        report = json.loads((tmp_path / "p.report.json").read_text())
        capsys.readouterr()
        for entry in report["features"]:
            assert main(["test", str(csv_path), entry["name"], "--json", *args]) == 0
            out = json.loads(capsys.readouterr().out)
            assert entry["test"] == {k: out[k] for k in entry["test"]}
            assert out["seed"] == 9

    @pytest.mark.parametrize("case", ["jitter-beside-normal", "dirac-at-both-ends"])
    def test_float_range_ends_share_finite_axis(self, tmp_path, capsys, case):
        n = np.random.default_rng(14).normal(size=200).tolist()
        if case == "jitter-beside-normal":
            rows = [f"{(-1.7e308 if i % 2 else 1.7e308)!r},{v!r}" for i, v in enumerate(n)]
        else:
            rows = [f"{-1.7e308!r},{1.7e308!r}"] * 200
        p = tmp_path / "in.csv"
        p.write_text("x,y\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out.svg"
        assert main(["plot", str(p), "-o", str(out), "--replicates", "50"]) == 0
        assert capsys.readouterr().err == ""
        svg = out.read_text()
        assert "inf" not in svg and "nan" not in svg
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert {f["name"] for f in report["features"]} == {"x", "y"}
        assert report["skipped"] == []
        assert all(np.isfinite(report["y_range"]))

    def test_report_order_matches_svg(self, tmp_path):
        csv_path = _write_normal_csv(tmp_path / "in.csv", cols=("x", "y", "z"))
        out = tmp_path / "p.svg"
        main(["plot", str(csv_path), "-o", str(out),
              "--replicates", "200", "--seed", "1", "--ordering", "alphabetical"])
        report = json.loads((tmp_path / "p.report.json").read_text())
        names = [f["name"] for f in report["features"]]
        assert names == ["x", "y", "z"]
        root = ET.fromstring(out.read_text())
        labels = [el.text for el in root.iter(f"{SVGNS}text")
                  if el.text in ("x", "y", "z")]
        assert labels == names

    def test_statistics_order_matches_sort_key(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 2000
        cols = {
            "gauss": rng.normal(size=n),
            "bimod": np.concatenate([rng.normal(0, 1, n // 2), rng.normal(4, 1, n // 2)]),
            "skew": rng.lognormal(size=n),
        }
        lines = [",".join(cols)]
        for i in range(n):
            lines.append(",".join(repr(float(v[i])) for v in cols.values()))
        p = tmp_path / "s.csv"
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.svg"
        main(["plot", str(p), "-o", str(out), "--replicates", "300",
              "--seed", "2", "--ordering", "statistics"])
        report = json.loads((tmp_path / "s.report.json").read_text())
        feats = report["features"]
        keys = [(-f["test"]["dip_p"], abs(f["test"]["skew_z"]), f["name"]) for f in feats]
        assert keys == sorted(keys)

    def test_completerobust_extents(self, tmp_path):
        rng = np.random.default_rng(6)
        p = tmp_path / "two.csv"
        big = rng.normal(4000, 900, 2000)
        small = rng.normal(0.4, 0.05, 2000)
        lines = ["MTY,ITS"] + [f"{float(big[i])!r},{float(small[i])!r}" for i in range(2000)]
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "cr.svg"
        rc = main(["plot", str(p), "-o", str(out), "--replicates", "200",
                   "--seed", "4", "--scaling", "completerobust"])
        assert rc == 0
        report = json.loads((tmp_path / "cr.report.json").read_text())
        assert report["scaling"] == "completerobust"
        assert report["y_range"][0] >= -0.02 and report["y_range"][1] <= 1.02

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["plot", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_empty_file_exit_2(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["plot", str(p)]) == 2

    @pytest.mark.parametrize("args", [["plot", "-o", "o.svg"], ["test", "x", "--json"]])
    def test_duplicate_header_exit_2(self, tmp_path, capsys, monkeypatch, args):
        # a row with more cells than the header exits 2 the same way
        monkeypatch.chdir(tmp_path)
        duplicate = _write_normal_csv(tmp_path / "dup.csv", cols=("x", "y", "x"))
        long_row = tmp_path / "long.csv"
        long_row.write_text("x,y\n1,2\n3,4,5\n6,7\n")
        for path, message in ((duplicate, "duplicate column name 'x'"),
                              (long_row, "line 3 has 3 cells, the header has 2")):
            assert main([args[0], path.name, *args[1:]]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""
            assert not (tmp_path / "o.svg").exists()

    @pytest.mark.parametrize("scale", [1e125, 1e-130])
    def test_extreme_scale_column_drawn(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(13)
        x, n = rng.normal(size=300) * scale, rng.normal(size=300)
        p = tmp_path / "in.csv"
        p.write_text("x,n\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), n.tolist())))
        rc = main(["plot", str(p), "-o", str(tmp_path / "out.svg"), "--replicates", "100"])
        assert rc == 0 and capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out.report.json").read_text())
        assert {f["name"]: (f["glyph"], f["test"] is not None) for f in report["features"]} \
            == {"x": ("density", True), "n": ("density", True)}

    def test_all_skipped_exit_3(self, tmp_path):
        p = tmp_path / "na.csv"
        p.write_text("a\nNA\nNA\n")
        assert main(["plot", str(p), "-o", str(tmp_path / "o.svg")]) == 3

    def test_byte_determinism(self, tmp_path):
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        outs = []
        for d in ("r1", "r2"):
            (tmp_path / d).mkdir()
            out = tmp_path / d / "plot.svg"
            main(["plot", str(csv_path), "-o", str(out),
                  "--replicates", "200", "--seed", "11", "--hline", "0.0"])
            outs.append((out.read_bytes(),
                         (tmp_path / d / "plot.report.json").read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_bad_flag_values_exit_2(self, tmp_path, capsys):
        csv_path = _write_normal_csv(tmp_path / "in.csv", n=60)
        assert main(["plot", str(csv_path), "--alpha", "2.0",
                     "-o", str(tmp_path / "x.svg")]) == 2
        assert main(["plot", str(csv_path), "--replicates", "0",
                     "-o", str(tmp_path / "x.svg")]) == 2
        for flag in ("--scaling", "--ordering"):
            with pytest.raises(SystemExit) as exc:  # argparse rejects values outside choices
                main(["plot", str(csv_path), flag, "zscore", "-o", str(tmp_path / "x.svg")])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_hline_rendered(self, tmp_path):
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        out = tmp_path / "h.svg"
        main(["plot", str(csv_path), "-o", str(out),
              "--replicates", "200", "--seed", "1", "--hline", "0.5"])
        root = ET.fromstring(out.read_text())
        assert any(el.get("stroke") == "red" for el in root.iter(f"{SVGNS}line"))


class TestTestCommand:
    def test_text_output_fields(self, tmp_path, capsys):
        csv_path = _write_normal_csv(tmp_path / "in.csv", n=1000)
        rc = main(["test", str(csv_path), "a", "--replicates", "300", "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        for field in ("n:", "dip D:", "dip p:", "skew g1:", "skew z:", "skew p:"):
            assert field in out
        assert "B=300" in out

    def test_uniform_column_not_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        p = tmp_path / "u.csv"
        p.write_text("u\n" + "\n".join(repr(float(v)) for v in rng.uniform(-2, 2, 1000)) + "\n")
        main(["test", str(p), "u", "--replicates", "500", "--seed", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert out["dip_p"] > 0.05

    def test_bimodal_column_rejected(self, tmp_path, capsys):
        # m=2.5 separation needs the paper's sample size to be decisive
        rng = np.random.default_rng(10)
        vals = np.concatenate([rng.normal(0, 1, 15500), rng.normal(2.5, 1, 15500)])
        p = tmp_path / "b.csv"
        p.write_text("b\n" + "\n".join(repr(float(v)) for v in vals) + "\n")
        main(["test", str(p), "b", "--replicates", "500", "--seed", "1", "--json"])
        out = json.loads(capsys.readouterr().out)
        assert out["dip_p"] <= 0.01

    def test_constant_column_diagnostic_exit_0(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        p.write_text("c\n" + "\n".join(["2.0"] * 50) + "\n")
        rc = main(["test", str(p), "c", "--replicates", "100", "--seed", "1", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["skew_g1"] is None  # NaN serialized as null
        assert "ConstantFeature" in out["diagnostic"]

    def test_inexact_constant_mean_diagnostic(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        p.write_text("c\n" + "0.1\n" * 100)
        rc = main(["test", str(p), "c", "--replicates", "100", "--seed", "1", "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["skew_g1"] is None and out["skew_p"] is None
        assert "ConstantFeature" in out["diagnostic"]

    def test_huge_column_finite_skewness(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        vals = np.random.default_rng(12).normal(size=300) * 1e160
        p.write_text("h\n" + "\n".join(repr(float(v)) for v in vals) + "\n")
        rc = main(["test", str(p), "h", "--replicates", "100", "--seed", "1", "--json"])
        assert rc == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert all(np.isfinite(out[k]) for k in ("skew_g1", "skew_z", "skew_p"))
        assert out["diagnostic"] is None and captured.err == ""

    def test_missing_column_exit_2(self, tmp_path, capsys):
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        assert main(["test", str(csv_path), "zzz"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_column_fails_before_a_long_row(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,4,5\n")
        assert main(["test", str(p), "z"]) == 2
        assert capsys.readouterr().err == "error: column 'z' not found (have: a, b)\n"

    def test_bom_prefixed_first_column_found(self, tmp_path, capsys):
        csv_path = _write_normal_csv(tmp_path / "in.csv")
        csv_path.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
        rc = main(["test", str(csv_path), "a", "--replicates", "50", "--seed", "1", "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n"] == 300


class TestGenCommand:
    def test_uniform_rows_in_range(self, tmp_path):
        out = tmp_path / "u.csv"
        rc = main(["gen", "uniform", "-2", "2", "--n", "1000",
                   "--seed", "3", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "uniform"
        vals = [float(v) for v in lines[1:]]
        assert len(vals) == 1000
        assert min(vals) >= -2 and max(vals) <= 2

    def test_gaussmix_spec_string(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["gen", "gaussmix", "0:1:0.5,2.5:1:0.5", "--n", "5000",
                   "--seed", "3", "-o", str(out)])
        assert rc == 0
        vals = [float(v) for v in out.read_text().strip().split("\n")[1:]]
        assert len(vals) == 5000

    def test_skewnorm(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["gen", "skewnorm", "1.5", "--n", "100",
                     "--seed", "3", "-o", str(out)]) == 0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["gen", "uniform", "0", "1", "--n", "200", "--seed", "8", "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_and_plot_of_one_stem_keep_both_manifests(self, tmp_path):
        assert main(["gen", "uniform", "0", "1", "--n", "100", "-o", str(tmp_path / "g.csv")]) == 0
        assert main(["plot", str(tmp_path / "g.csv"), "-o", str(tmp_path / "g.svg"),
                     "--replicates", "20"]) == 0
        for name, command in (("g.csv.manifest.json", "gen"), ("g.manifest.json", "plot")):
            assert json.loads((tmp_path / name).read_text())["command"] == command

    def test_bad_params_exit_2(self, capsys):
        assert main(["gen", "uniform", "2", "-2", "--n", "10"]) == 2
        assert main(["gen", "skewnorm", "-1", "--n", "10"]) == 2
        assert main(["gen", "gaussmix", "0:1:0.4", "--n", "10"]) == 2
        capsys.readouterr()


    def test_out_of_memory_exit_2(self, monkeypatch, capsys):
        # a count within MAX_COUNT can still exceed memory
        def sample_uniform(*args):
            raise MemoryError()
        monkeypatch.setattr(cli, "sample_uniform", sample_uniform)
        assert main(["gen", "uniform", "0", "1", "--n", "10000000000000"]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestBenchCommand:
    def test_single_iteration_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = main(["bench", "skew", "--sweep", "0.9,1.0,1.1", "--iterations", "1",
                   "--n", "500", "--seed", "2", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "param,iteration,p"
        data = [l for l in lines[1:] if re.match(r"^[\d.]+,\d+,", l)]
        summaries = [l for l in lines[1:] if ",median," in l or ",p99," in l]
        assert len(data) == 3
        assert len(summaries) == 6

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["bench", "bimodal", "--sweep", "3.0", "--iterations", "2",
                  "--replicates", "50", "--n", "400", "--seed", "5", "-o", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_sweep_exit_2(self, capsys):
        assert main(["bench", "skew", "--sweep", "-1.0", "--iterations", "1"]) == 2
        capsys.readouterr()


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_PLOT = ["plot", "in.csv", "-o", "o.svg", "--replicates", "9"]
_BIMODAL = ["bench", "bimodal", "--iterations", "1", "--replicates", "9"]
_SKEW = ["bench", "skew", "--iterations", "1"]
_HUGE = str(10**20)  # more float64 values than any array can address
# argv and the exit code it must give: 2 with an error line and no traceback, or
# 0 with no error output and, for plot, an SVG that an XML parser accepts
EXIT_CASES = {
    "plot-not-utf8": (["plot", "latin1.csv", "-o", "o.svg"], 2),
    "test-not-utf8": (["test", "latin1.csv", "a"], 2),
    "plot-field-over-limit": (["plot", "long.csv", "-o", "o.svg"], 2),
    "test-field-over-limit": (["test", "long.csv", "a"], 2),
    "plot-constant-1.7e18": (["plot", "huge.csv", "-o", "o.svg", "--replicates", "9"], 0),
    "plot-constant-2**53+1": (["plot", "2p53.csv", "-o", "o.svg", "--replicates", "9"], 0),
    "plot-unwritable-output": (["plot", "in.csv", "-o", "nodir/o.svg", "--replicates", "9"], 2),
    "plot-unwritable-report": ([*_PLOT, "--report", "nodir/r.json"], 2),
    "gen-unwritable-output": (["gen", "uniform", "0", "1", "--n", "5", "-o", "nodir/g.csv"], 2),
    "gen-infinite-high": (["gen", "uniform", "0", "inf", "--n", "5"], 2),
    "gen-gaussmix-overflow": (["gen", "gaussmix", "1e308:1e308:1", "--n", "50"], 2),
    "gen-skewnorm-huge-xi": (["gen", "skewnorm", "1e200", "--n", "5"], 2),
    "gen-skewnorm-tiny-xi": (["gen", "skewnorm", "1e-200", "--n", "5"], 2),
    "bench-n-0": ([*_BIMODAL, "--sweep", "3", "--n", "0"], 2),
    "bench-n-1": ([*_BIMODAL, "--sweep", "3", "--n", "1"], 2),
    "bench-skew-n-5": ([*_SKEW, "--sweep", "1", "--n", "5"], 2),
    "bench-negative-seed": ([*_SKEW, "--sweep", "1", "--n", "50", "--seed", "-1"], 2),
    "bench-skew-sweep-nan": ([*_SKEW, "--sweep", "nan", "--n", "50"], 2),
    "bench-bimodal-sweep-inf": ([*_BIMODAL, "--sweep", "inf", "--n", "50"], 2),
    "plot-hline-nan": ([*_PLOT, "--hline", "nan"], 2),
    "plot-hline-negative-exponent": ([*_PLOT, "--hline", "-1e-3"], 0),
    "gen-negative-exponent": (["gen", "uniform", "-1e308", "1", "--n", "5"], 0),
    "plot-control-char-name": (["plot", "ctrl.csv", "-o", "o.svg", "--replicates", "9"], 0),
    "plot-control-char-title": ([*_PLOT, "--title", "t\x01\x1f"], 0),
    "plot-subnormal-range": (["plot", "sub.csv", "-o", "o.svg", "--replicates", "9"], 0),
    "test-subnormal-scale": (["test", "tiny.csv", "t", "--replicates", "9"], 0),
    "plot-replicates-1e20": (["plot", "in.csv", "-o", "o.svg", "--replicates", _HUGE], 2),
    "plot-sample-size-1e20": ([*_PLOT, "--sample-size", _HUGE], 2),
    "plot-min-data-8": ([*_PLOT, "--min-data", "8"], 2),
    "plot-min-unique-1": ([*_PLOT, "--min-unique", "1"], 2),
    "plot-ordering-default": (["plot", "in.csv", "-o", "o.svg", "--ordering", "default"], 2),
    "test-replicates-1e20": (["test", "in.csv", "a", "--replicates", _HUGE], 2),
    "test-no-finite-cell": (["test", "missing.csv", "a", "--replicates", "9"], 2),
    "test-one-value": (["test", "one.csv", "a", "--replicates", "9"], 2),
    "test-eight-values": (["test", "eight.csv", "a", "--replicates", "9"], 2),
    "test-constant-60": (["test", "const.csv", "a", "--replicates", "9"], 0),
    "gen-uniform-n-1e20": (["gen", "uniform", "0", "1", "--n", _HUGE], 2),
    "gen-gaussmix-n-1e20": (["gen", "gaussmix", "0:1:1", "--n", _HUGE], 2),
    "gen-skewnorm-n-1e20": (["gen", "skewnorm", "2", "--n", _HUGE], 2),
    "bench-bimodal-n-1e20": ([*_BIMODAL, "--sweep", "1", "--n", _HUGE], 2),
    "bench-skew-n-1e20": ([*_SKEW, "--sweep", "1", "--n", _HUGE], 2),
    "bench-replicates-1e20": (["bench", "bimodal", "--sweep", "1", "--replicates", _HUGE], 2),
    "gen-uniform-one-param": (["gen", "uniform", "0", "--n", "5"], 2),
    "gen-gaussmix-two-fields": (["gen", "gaussmix", "0:1", "--n", "5"], 2),
    "gen-gaussmix-negative-weight": (["gen", "gaussmix", "0:1:-0.5,1:1:1.5", "--n", "5"], 2),
    "gen-uniform-width-overflows": (["gen", "uniform", "-1e308", "1e308", "--n", "5"], 2),
    "bench-empty-sweep": (["bench", "bimodal", "--sweep", ",", "--n", "50", "--iterations", "1"], 2),
    "bench-iterations-0": (["bench", "bimodal", "--sweep", "2", "--n", "50", "--iterations", "0"], 2),
    "bench-skew-sweep-0": (["bench", "skew", "--sweep", "0", "--n", "50", "--iterations", "1"], 2),
    "bench-skew-sweep-1e200": (["bench", "skew", "--sweep", "1,1e200", "--n", "50", "--iterations", "1"], 2),
    "bench-sweep-text": (["bench", "bimodal", "--sweep", "abc", "--n", "50", "--iterations", "1"], 2),
    "plot-seed-2**32": ([*_PLOT, "--seed", "4294967296"], 2),
    "test-seed-2**32": (["test", "in.csv", "a", "--replicates", "9", "--seed", "4294967296"], 2),
    "gen-seed-2**32": (["gen", "uniform", "0", "1", "--n", "5", "--seed", "4294967296"], 2),
    "bench-skew-seed-2**32": ([*_SKEW, "--sweep", "1", "--n", "50", "--seed", "4294967296"], 2),
}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_exit_code_policy(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    _write_normal_csv(tmp_path / "in.csv", n=60, cols=("a",))
    Path("latin1.csv").write_bytes(b"a\n1\n\xe9\n2\n")
    Path("long.csv").write_text("a\n1\n" + "9" * 131_073 + "\n")
    Path("huge.csv").write_text("c\n" + "1700000000000000000\n" * 60)
    Path("2p53.csv").write_text("c\n" + "9007199254740993\n" * 60)
    tiny = np.random.default_rng(0).normal(size=500) * 1e-310  # overflows the dip's slopes
    Path("tiny.csv").write_text("t\n" + "".join(f"{v!r}\n" for v in tiny.tolist()))
    Path("sub.csv").write_text("s\n" + "0.0\n5e-324\n" * 40 + "1e-323\n" * 20)
    Path("missing.csv").write_text("a\nnan\n\nNA\n")
    Path("one.csv").write_text("a\n1.5\n")
    Path("eight.csv").write_text("a\n" + "".join(f"{v}\n" for v in range(8)))
    Path("const.csv").write_text("a\n" + "3.25\n" * 60)
    Path("ctrl.csv").write_text("a\x01b\n" + Path("in.csv").read_text().split("\n", 1)[1])
    argv, expected = EXIT_CASES[case]
    assert _exit_code(argv) == expected
    err = capsys.readouterr().err
    if expected == 2:
        assert "error:" in err and "Traceback" not in err
        if case == "bench-sweep-text":
            assert "'abc' is not a finite number" in err
        return
    assert err == ""
    if argv[0] != "plot":  # the output went to stdout
        return
    svg = Path("o.svg").read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    assert "nan" not in svg and "inf" not in svg
    texts = [el.text for el in root.iter(f"{SVGNS}text")]
    report = json.loads(Path("o.report.json").read_text())
    if case == "plot-control-char-name":  # the report keeps the real name
        assert "a\ufffdb" in texts and report["features"][0]["name"] == "a\x01b"
    if case == "plot-control-char-title":
        assert "t\ufffd\ufffd" in texts and report["title"] == "t\x01\x1f"
