"""The CSV reader, the one module that knows the input format.

It owns the header rule, what counts as a missing cell, the row chunks and the
split of a large file across processes. ``plot`` reads every column and
``test`` only the one it examines, with the same values and error messages.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import os
from array import array
from collections import Counter

import numpy as np

from ._split import split_fill, usable_workers
from .errors import FineStructError
from .stats_core import FeatureSeries


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


def read_csv_features(path: str, column: str | None = None) -> list[FeatureSeries]:
    """Parse a headered UTF-8 CSV into per-column features, or into ``column``'s alone.

    A cell counts as missing when the row ends before it or when, stripped of
    whitespace, it does not parse as a finite number with a '.' decimal point
    ('', 'NA', 'NaN' and 'inf' included). Column names must be unique, a
    named ``column`` must be one of them, and no row may have more cells than
    the header. A file that cannot be opened or decoded, or that the csv
    module rejects, raises CsvError naming the path. Only the returned
    columns' cells are converted, but every row is parsed and checked.

    Rows are converted ``_CHUNK_ROWS`` at a time into 8 bytes per cell. A
    file of at least two ``_SPLIT_BYTES`` with no '\\r' outside '\\r\\n' and
    no '"' below its header is read in one process per usable CPU
    (``_read_split``). Any failure of that split, in a range or in
    ``_split.split_fill``, reads the whole file once more serially, so every
    value and error message is the serial reader's.
    """
    try:
        features = _read_split(path, column)
    except (FineStructError, OSError, UnicodeDecodeError, csv.Error):
        features = None
    if features is not None:
        return features
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
            reader = csv.reader(fh)
            names, keep = _header(reader, path, column)
            cols = {i: array("d") for i in keep}
            for rows in _row_chunks(reader, len(names), path):
                _extend_columns(cols, rows)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvError(f"cannot read {path}: {exc}") from exc
    return [FeatureSeries.clean(names[i], np.frombuffer(col)) for i, col in cols.items()]


def _header(reader, path: str, column: str | None) -> tuple[list[str], list[int]]:
    """``reader``'s first row of stripped names, and every index or ``column``'s alone.

    CsvError if there is no header, a name repeats or ``column`` is none of them.
    """
    names = [h.strip() for h in next(reader, [])]
    if not any(names):  # an empty file or a blank first line
        raise CsvError(f"{path} has no header row")
    dup = next((name for name, count in Counter(names).items() if count > 1), None)
    if dup is not None:
        raise CsvError(f"{path} has a duplicate column name {dup!r}")
    if column is None:
        return names, list(range(len(names)))
    if column not in names:
        raise CsvError(f"column {column!r} not found (have: {', '.join(names)})")
    return names, [names.index(column)]


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


def _extend_columns(cols: dict[int, array], rows: list[list[str]]) -> None:
    """Append each full-width row's cell i to ``cols[i]`` for every key i; a cell float() rejects is NaN."""
    for i, col in cols.items():
        values = map(float, map(str.strip, [row[i] for row in rows]))
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


def _read_split(path: str, column: str | None) -> list[FeatureSeries] | None:
    """The features of ``path`` read in k = ``usable_workers(size // _SPLIT_BYTES)`` processes.

    None when k < 2, when no row follows the header, when the header holds a
    '\\r' outside '\\r\\n' or a line below it may not be one row
    (``_lines_are_rows``). The header is parsed with ``strict=True``, so an
    open or misplaced quote raises csv.Error, and before any body byte is
    read, so a duplicate name or an unknown ``column`` raises at once. One
    pass over the bytes cuts the body just after a newline near each k-th of
    it and counts the lines, so the rows, before each cut. Each range is
    decoded as plain UTF-8 (a U+FEFF there is a cell's text, not a BOM) and
    read by the serial reader's row loop into its columns of one (columns,
    rows) array (``_split.split_fill``). Raises on any failure, a range with
    too few rows included.
    """
    size = os.stat(path).st_size
    k = usable_workers(size // _SPLIT_BYTES)
    if k < 2:
        return None
    with open(path, "rb") as fh:
        head = fh.readline()
        if head.count(b"\r") != head.count(b"\r\n"):  # a lone '\r' ends a csv row
            return None
        names, keep = _header(csv.reader([head.decode("utf-8-sig")], strict=True), path, column)
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

    def fill(out, j):
        at, stop = lines[j], lines[j + 1]
        with open(path, "rb") as raw:
            raw.seek(cuts[j])
            text = io.TextIOWrapper(raw, encoding="utf-8", newline="")
            for chunk in _row_chunks(csv.reader(itertools.islice(text, stop - at)), len(names), path):
                cols = {i: array("d") for i in keep}
                _extend_columns(cols, chunk)
                out[:, at:at + len(chunk)] = list(cols.values())
                at += len(chunk)
        if at != stop:
            raise CsvError(f"{path} changed while it was read")

    return [FeatureSeries.clean(names[i], col)
            for i, col in zip(keep, split_fill(len(cuts) - 1, (len(keep), rows), fill))]
