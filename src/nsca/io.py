"""CSV serialization for records, indexes, masks, matrices and spectra.

All files are plain comma-separated ASCII text. Numbers are written with 17
significant digits so doubles survive a round trip bit-exactly. Readers
reject non-ASCII bytes and non-finite cells and report 1-based line numbers
in errors. Each file is written to ``<path>.tmp`` and renamed onto
``path`` only once complete, so a failed write leaves the earlier file, or
none, behind.

Each format is a table of numbers under an optional header, read and
written by one pair of functions: a cell is any finite value Python's
``float`` accepts, except one holding ``_``; every line after the header is
a row with as many cells as the first line, so a blank line is a bad row. The
writer formats ``_BLOCK_ROWS`` rows at a time; the reader reads the file at
once and hands blocks of about ``_READ_BLOCK`` bytes of whole lines to
numpy's C reader, which converts a cell with the correctly rounded routine
behind ``float``. Both bound their temporaries by one block.

Formats:

* record    -- header ``ch1,...,chn``; one row per sample, one column per
               channel.
* index     -- header ``k,value``.
* mask      -- header ``k,label`` with integer labels below max(2, rows).
* matrix    -- no header; one row per matrix row.
* spectra   -- header ``class,component,value``; one row per entry.
"""

import contextlib
import itertools
import math
import os
import re

import numpy as np

from .errors import MalformedInput
from .partition import Partition
from .records import IndexSeries, Record

__all__ = [
    "write_record",
    "read_record",
    "write_index",
    "read_index",
    "write_mask",
    "read_mask",
    "write_matrix",
    "read_matrix",
    "write_spectra",
    "read_spectra",
]

_FMT = "%.17g"
_BLOCK_ROWS = 4096  # rows formatted per write; bounds the writer's temporaries
_READ_BLOCK = 1 << 18  # bytes of text parsed at a time; bounds the reader's temporaries


@contextlib.contextmanager
def _replacing(path):
    """A text file at ``<path>.tmp`` that replaces ``path`` once the block completes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_table(path, header, table, fmt):
    """Write ``header`` (None for none), then one ``fmt % row`` line per row."""
    line = fmt + "\n"
    with _replacing(path) as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _parse(lines, width):
    """All cells of ``lines`` -> (rows, width) array; ValueError on a bad line or cell.

    ``loadtxt`` rejects ``_``, which ``float`` takes. It skips blank lines
    and strips the byte 0x1f like a space, which ``float`` does not, so a
    missing row or a 0x1f byte fails the block too.
    """
    table = np.empty((0, width))
    if any(lines):  # loadtxt warns on input with no data: no lines, or only empty ones
        table = np.loadtxt(lines, np.float64, delimiter=",", comments=None, ndmin=2)
    if table.shape != (len(lines), width) or "\x1f" in "".join(lines):
        raise ValueError("blank line or bad cell")
    if not np.isfinite(table).all():
        raise ValueError("non-finite")
    return table


def _first_bad_cell(path, lines, first, width):
    """(row, error) for the first ragged line or bad cell; line ``first`` is row 0."""
    for row, text in enumerate(lines):
        i = first + row
        cells = text.split(",")
        if len(cells) != width:
            return row, MalformedInput(
                f"{path}: expected {width} columns, got {len(cells)} on line {i}", line=i
            )
        for cell in cells:
            try:
                if "_" in cell:  # float reads "1_0" as 10; the format does not
                    raise ValueError(cell)
                v = float(cell)
            except ValueError:
                return row, MalformedInput(f"{path}: bad number {cell!r} on line {i}", line=i)
            if not math.isfinite(v):
                return row, MalformedInput(f"{path}: non-finite value on line {i}", line=i)
    raise AssertionError("no bad cell in a table that failed to parse")


def _line_blocks(path):
    """The lines of file ``path``, as lists cut after a newline every ``_READ_BLOCK`` bytes.

    A newline always ends a line and a CR LF pair never straddles a cut, so
    the lines are those of the whole text's ``splitlines()``. The file is
    read and checked for non-ASCII bytes before the first list.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        at = re.search(rb"[\x80-\xff]", raw).start()
        # the lines of the text before the byte, the byte's own line included
        i = len((raw[:at].decode("ascii") + "?").splitlines())
        raise MalformedInput(f"{path}: non-ASCII byte on line {i}", line=i)
    start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _READ_BLOCK - 1) + 1 or len(raw)
        yield raw[start:stop].decode("ascii").splitlines()
        start = stop


def _read_table(path, header, checks=()):
    """Parse a CSV table -> (header cells, rows x columns float64 array).

    ``header`` is the header line a format requires, True for any header of
    nonempty column names, or None for a file without one. Each check is a
    ``(message, flag_rows)`` pair; ``flag_rows(table)`` marks the rows that
    break a rule of the format. The table has one row per data line. It is
    parsed block by block (see ``_line_blocks``), so the parser's temporaries
    are bounded by one block. Only a block that fails is scanned line by line
    to locate the bad cell; the blocks after it are counted, not parsed, and
    the checks see NaN from the bad line on.
    """
    blocks = _line_blocks(path)
    lines = next(blocks, [])
    if isinstance(header, str):
        if not lines or lines[0].strip() != header:
            raise MalformedInput(f"{path}: expected {header!r} header", line=1)
    elif not lines:
        raise MalformedInput(f"{path}: empty file", line=1)
    names = [c.strip() for c in lines[0].split(",")]
    if header is True and not all(names):
        raise MalformedInput(f"{path}: malformed header", line=1)
    first = 1 if header is None else 2  # line number of the first data row
    width = len(names)
    parts, stop, err = [], 0, None  # the rows before `stop` are well-formed
    for lines in itertools.chain([lines[first - 1:]], blocks):
        part = np.full((len(lines), width), np.nan)  # rows from a bad line on are unknown
        if err is None:
            try:
                part = _parse(lines, width)
                stop += len(lines)
            except ValueError:
                row, err = _first_bad_cell(path, lines, first + stop, width)
                part[:row] = _parse(lines[:row], width)
                stop += row
        parts.append(part)
    table = np.concatenate(parts)
    if not len(table):
        raise MalformedInput(f"{path}: no data rows", line=1)
    for message, flag_rows in checks:
        bad = np.flatnonzero(flag_rows(table))
        if bad.size and bad[0] < stop:
            stop = int(bad[0])
            err = MalformedInput(f"{path}: {message} (line {first + stop})", line=first + stop)
    if err is not None:
        raise err
    return names, table


def _not_index(cols):
    """Rows with a fractional or negative cell."""
    return ((cols != np.trunc(cols)) | (cols < 0)).any(axis=1)


def _repeats(keys):
    """Rows equal to an earlier row (``+ 0.0`` makes -0 equal 0)."""
    out = np.ones(len(keys), dtype=bool)
    out[np.unique(keys + 0.0, axis=0, return_index=True)[1]] = False
    return out


_K_RUNS = ("sample numbers must run 0,1,...", lambda t: t[:, 0] != np.arange(len(t)))


def write_record(path, record):
    """Record -> CSV, samples as rows so channels line up with the header."""
    fmt = ",".join([_FMT] * record.channels)
    _write_table(path, ",".join(record.channel_names), record.samples.T, fmt)


def read_record(path, sample_rate_hz=1.0):
    names, table = _read_table(path, True)
    return Record._wrap(table.T, sample_rate_hz, names)


def write_index(path, idx):
    table = np.column_stack((np.arange(idx.length), idx.values))
    _write_table(path, "k,value", table, "%d," + _FMT)


def read_index(path):
    _, table = _read_table(path, "k,value", [_K_RUNS])
    return IndexSeries(table[:, 1], name="index")


def write_mask(path, part):
    _write_table(path, "k,label", np.column_stack((np.arange(part.length), part.labels)), "%d,%d")


def read_mask(path):
    # Partition sizes its class arrays from the largest label. A mask of
    # `rows` samples fills at most max(2, rows) classes, so a larger label is
    # rejected before it can allocate
    _, table = _read_table(path, "k,label", [
        _K_RUNS,
        ("labels must be nonnegative integers", lambda t: _not_index(t[:, 1:])),
        ("labels must be below max(2, number of rows)", lambda t: t[:, 1] >= max(2, len(t))),
    ])
    return Partition(table[:, 1].astype(np.int64))


def write_matrix(path, mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    _write_table(path, None, mat, ",".join([_FMT] * mat.shape[1]))


def read_matrix(path):
    return _read_table(path, None)[1]


def write_spectra(path, spectra):
    spectra = np.atleast_2d(np.asarray(spectra, dtype=np.float64))
    cls, comp = np.indices(spectra.shape).reshape(2, -1)
    table = np.column_stack((cls, comp, spectra.ravel()))
    _write_table(path, "class,component,value", table, "%d,%d," + _FMT)


def read_spectra(path):
    _, table = _read_table(path, "class,component,value", [
        ("class/component must be indexes", lambda t: _not_index(t[:, :2])),
        ("repeated class/component entry", lambda t: _repeats(t[:, :2])),
    ])
    K, n = (int(m) + 1 for m in table[:, :2].max(axis=0))
    if len(table) != K * n:
        raise MalformedInput(f"{path}: missing spectra entries", line=len(table) + 1)
    out = np.empty((K, n))
    out[table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)] = table[:, 2]
    return out
