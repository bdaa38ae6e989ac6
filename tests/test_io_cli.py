"""CSV and command-line interface tests."""

import errno
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsca.cli
import nsca.errors
import nsca.io
from nsca.cli import main
from nsca.detectors import anderson_darling_index, normalize_index
from nsca.errors import MalformedInput
from nsca.io import (
    read_index,
    read_mask,
    read_matrix,
    read_record,
    read_spectra,
    write_index,
    write_mask,
    write_matrix,
    write_record,
    write_spectra,
)
from nsca.partition import Partition, threshold_mask
from nsca.records import IndexSeries, Record


def awkward_floats(rng, shape):
    """Values that expose any formatting shortcut: tiny, huge, negative, subnormal-ish."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-200, 200, size=shape)
    return x


class TestRoundTrips:
    def test_record(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = Record(awkward_floats(rng, (3, 40)), 250.0, ["a", "b", "c"])
        path = tmp_path / "rec.csv"
        write_record(path, rec)
        back = read_record(path, sample_rate_hz=250.0)
        assert np.array_equal(back.samples, rec.samples)
        assert back.channel_names == rec.channel_names

    def test_index(self, tmp_path):
        idx = IndexSeries(awkward_floats(np.random.default_rng(1), 64), valid_from=0, name="t")
        path = tmp_path / "idx.csv"
        write_index(path, idx)
        back = read_index(path)
        assert np.array_equal(back.values, idx.values)

    def test_index_drops_warmup_flag(self, tmp_path):
        # the CSV stores only (k, value); a reread series restarts at 0
        idx = IndexSeries(np.arange(10.0), valid_from=4, name="t")
        path = tmp_path / "idx.csv"
        write_index(path, idx)
        back = read_index(path)
        assert back.valid_from == 0
        assert np.array_equal(back.values, idx.values)  # warm-up already zeroed

    def test_mask(self, tmp_path):
        part = Partition(np.random.default_rng(2).integers(0, 3, size=50), K=3)
        path = tmp_path / "mask.csv"
        write_mask(path, part)
        back = read_mask(path)
        assert np.array_equal(back.labels, part.labels)
        assert back.K == part.K

    def test_matrix(self, tmp_path):
        M = awkward_floats(np.random.default_rng(3), (4, 4))
        path = tmp_path / "mat.csv"
        write_matrix(path, M)
        assert np.array_equal(read_matrix(path), M)

    def test_spectra(self, tmp_path):
        S = np.abs(awkward_floats(np.random.default_rng(4), (3, 5)))
        path = tmp_path / "spec.csv"
        write_spectra(path, S)
        assert np.array_equal(read_spectra(path), S)

    def test_long_record_is_bit_identical(self, tmp_path):
        # at T=1e5 the file spans dozens of the reader's blocks
        rec = Record(awkward_floats(np.random.default_rng(6), (5, 100_000)), 1.0, list("abcde"))
        path = tmp_path / "rec.csv"
        write_record(path, rec)
        assert path.stat().st_size > 20 * nsca.io._READ_BLOCK
        assert read_record(path).samples.tobytes() == rec.samples.tobytes()


def test_read_record_peak_memory(long_synth):
    # room for the file's bytes, the parsed blocks, their concatenation and
    # one block's text and cells, but not for the whole file's lines at once
    path = long_synth / "record.csv"
    read_record(path)
    tracemalloc.start()
    try:
        rec = read_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.samples.shape == (5, 100_000)
    assert peak <= path.stat().st_size + 3 * rec.samples.nbytes


class TestWrittenBytes:
    """The writers' exact text; downstream byte-identity checks rely on it."""

    def test_each_format(self, tmp_path):
        cases = [
            (write_record, Record(np.array([[0.1, -2.0], [1e300, 5e-324]]), 1.0, ["x", "y"]),
             "x,y\n0.10000000000000001,1.0000000000000001e+300\n-2,4.9406564584124654e-324\n"),
            (write_index, IndexSeries(np.array([0.5, 1 / 3]), 0, "i"),
             "k,value\n0,0.5\n1,0.33333333333333331\n"),
            (write_mask, Partition(np.array([0, 2, 1])), "k,label\n0,0\n1,2\n2,1\n"),
            (write_matrix, np.array([[1.0, 0.25], [-3.0, 1e-7]]), "1,0.25\n-3,9.9999999999999995e-08\n"),
            (write_spectra, np.array([[1.5, 2.0], [0.1, 4.0]]),
             "class,component,value\n0,0,1.5\n0,1,2\n1,0,0.10000000000000001\n1,1,4\n"),
        ]
        for writer, obj, text in cases:
            path = tmp_path / "out.csv"
            writer(path, obj)
            assert path.read_text() == text

    def test_long_record_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        rec = Record(awkward_floats(rng, (3, 10_000)), 1.0, ["a", "b", "c"])
        path = tmp_path / "rec.csv"
        write_record(path, rec)
        rows = ["a,b,c"] + [",".join("%.17g" % v for v in col) for col in rec.samples.T]
        assert path.read_text() == "\n".join(rows) + "\n"


class FullAfter:
    """A file whose writes fail with ENOSPC after the first ``n`` succeed."""

    def __init__(self, fh, n):
        self.fh, self.n = fh, n

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if self.n == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.n -= 1
        return self.fh.write(text)


@pytest.mark.parametrize("earlier", [None, "x,y\n1,2\n"], ids=["new", "existing"])
def test_failed_write_leaves_no_partial_table(tmp_path, monkeypatch, earlier):
    # the header and the first 4096-row block are written, then the disk fills
    path = tmp_path / "rec.csv"
    if earlier is not None:
        path.write_text(earlier)
    monkeypatch.setattr(nsca.io, "open", lambda *a, **k: FullAfter(open(*a, **k), 2),
                        raising=False)
    rec = Record(np.zeros((2, 10_000)), 1.0, ["x", "y"])
    with pytest.raises(OSError):
        write_record(path, rec)
    assert (path.read_text() if path.exists() else None) == earlier
    assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["rec.csv"])


class TestMalformedInput:
    def test_nan_cell_names_line(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0,2.0\nnan,3.0\n")
        with pytest.raises(MalformedInput) as err:
            read_record(path)
        assert "line 3" in str(err.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(MalformedInput):
            read_record(path)

    def test_index_requires_contiguous_k(self, tmp_path):
        path = tmp_path / "idx.csv"
        path.write_text("k,value\n0,1.0\n2,2.0\n")
        with pytest.raises(MalformedInput):
            read_index(path)

    def test_mask_rejects_fractional_label(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("k,label\n0,0\n1,1.5\n")
        with pytest.raises(MalformedInput):
            read_mask(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("")
        with pytest.raises(MalformedInput):
            read_record(path)

    # one file per reader and defect: (reader, file text, 1-based line of the error)
    H_IDX, H_MASK, H_SPEC = "k,value\n", "k,label\n", "class,component,value\n"
    GOOD = "1.5,-2\n" * 20
    CASES = {
        "record-ragged": (read_record, "a,b\n1,2\n3\n4,5\n", 3),
        "index-ragged": (read_index, H_IDX + "0,1\n1,2,3\n", 3),
        "mask-ragged": (read_mask, H_MASK + "0,0\n1\n", 3),
        "matrix-ragged": (read_matrix, "1,2\n3,4\n5\n", 3),
        "spectra-ragged": (read_spectra, H_SPEC + "0,0,1\n0,1\n", 3),
        "record-bad-number": (read_record, "a,b\n1,2\n3,x\n", 3),
        "index-bad-number": (read_index, H_IDX + "0,1\n1,2\n2,1..5\n", 4),
        "index-bad-k": (read_index, H_IDX + "0,1\nk1,2\n", 3),
        "mask-bad-number": (read_mask, H_MASK + "0,0\n1,one\n", 3),
        "matrix-bad-number": (read_matrix, "1,2\nabc,4\n", 2),
        "spectra-bad-number": (read_spectra, H_SPEC + "0,0,1\n0,1,1e\n", 3),
        "record-non-finite": (read_record, "a,b\n1,2\n3,4\ninf,5\n", 4),
        "index-non-finite": (read_index, H_IDX + "0,nan\n", 2),
        "mask-non-finite": (read_mask, H_MASK + "0,0\n1,inf\n", 3),
        "matrix-non-finite": (read_matrix, "1,2\n3,-inf\n", 2),
        "spectra-non-finite": (read_spectra, H_SPEC + "0,0,1\n0,1,nan\n", 3),
        "record-blank-line": (read_record, "a,b\n1,2\n\n3,4\n", 3),
        "record-1ch-blank-line": (read_record, "a\n1\n\n3\n", 3),
        "index-blank-line": (read_index, H_IDX + "0,1\n\n1,2\n", 3),
        "mask-blank-line": (read_mask, H_MASK + "0,1\n\n1,0\n", 3),
        "matrix-blank-line": (read_matrix, "1,2\n\n3,4\n", 2),
        "spectra-blank-line": (read_spectra, H_SPEC + "0,0,1\n\n0,1,2\n", 3),
        "record-trailing-blank-line": (read_record, "a,b\n1,2\n\n", 3),
        "record-spaces-line": (read_record, "a,b\n1,2\n   \n3,4\n", 3),
        "record-1ch-spaces-line": (read_record, "a\n1\n  \n3\n", 3),
        # float reads "1_0" as 10 and numpy's reader takes 0x1f for a space; the format does neither
        "spectra-underscore": (read_spectra, H_SPEC + "0,0,1\n0,1,0_1\n", 3),
        "matrix-unit-separator": (read_matrix, "1,2\n3,4\x1f\n", 2),
        "record-bad-header": (read_record, "a,,c\n1,2,3\n", 1),
        "index-bad-header": (read_index, "k,val\n0,1\n", 1),
        "index-missing-header": (read_index, "0,1\n1,2\n", 1),
        "mask-bad-header": (read_mask, H_IDX + "0,1\n", 1),
        "mask-missing-header": (read_mask, "0,1\n", 1),
        "spectra-bad-header": (read_spectra, "class,comp,value\n0,0,1\n", 1),
        "spectra-missing-header": (read_spectra, "0,0,1\n", 1),
        "record-header-only": (read_record, "a,b\n", 1),
        "index-header-only": (read_index, H_IDX, 1),
        "mask-header-only": (read_mask, H_MASK, 1),
        "spectra-header-only": (read_spectra, H_SPEC, 1),
        "record-empty": (read_record, "", 1),
        "index-empty": (read_index, "", 1),
        "mask-empty": (read_mask, "", 1),
        "matrix-empty": (read_matrix, "", 1),
        "spectra-empty": (read_spectra, "", 1),
        "index-gap-in-k": (read_index, H_IDX + "0,1\n2,2\n", 3),
        "index-k-from-1": (read_index, H_IDX + "1,1\n", 2),
        "mask-repeated-k": (read_mask, H_MASK + "0,0\n1,1\n1,0\n", 4),
        "mask-fractional-label": (read_mask, H_MASK + "0,0\n1,1.5\n", 3),
        "mask-negative-label": (read_mask, H_MASK + "0,0\n1,-1\n", 3),
        "spectra-fractional-index": (read_spectra, H_SPEC + "0,0,1\n0,0.5,2\n", 3),
        "spectra-negative-index": (read_spectra, H_SPEC + "0,0,1\n-1,1,2\n", 3),
        "spectra-missing-entry": (read_spectra, H_SPEC + "0,0,1\n0,1,2\n1,1,3\n", 4),
        "mask-label-1e19": (read_mask, H_MASK + "0,0\n1,1e19\n", 3),
        "mask-label-3e8": (read_mask, H_MASK + "0,0\n1,3e8\n", 3),
        "mask-label-2-of-1-row": (read_mask, H_MASK + "0,2\n", 2),
        "mask-label-3-of-3-rows": (read_mask, H_MASK + "0,0\n1,1\n2,3\n", 4),
        # the bound counts the rows after a bad line too: label 2 of 4 rows is fine
        "mask-label-bound-past-bad-line": (read_mask, H_MASK + "0,0\n1,2\nx,0\n3,0\n", 4),
        # each defect after 20 good rows (over 140 bytes), so that the reader's
        # blocks in TestMalformedInputInSmallBlocks put it in a later block
        "record-late-bad-number": (read_record, "a,b\n" + GOOD + "3,x\n" + GOOD, 22),
        "record-late-ragged": (read_record, "a,b\n" + GOOD + "3\n" + GOOD, 22),
        "record-late-blank-line": (read_record, "a,b\n" + GOOD + "\n" + GOOD, 22),
        "record-late-blank-lines": (read_record, "a,b\n" + GOOD + "\n\n\n" + GOOD, 22),
        "record-late-spaces-line": (read_record, "a,b\n" + GOOD + " \n" + GOOD, 22),
        "record-1ch-late-blank-line": (read_record, "a\n" + "1.5\n" * 40 + "\n" + "2\n", 42),
        "record-late-underscore": (read_record, "a,b\n" + GOOD + "1_0,3\n" + GOOD, 22),
        "record-late-unit-separator": (read_record, "a,b\n" + GOOD + "3,4\x1f\n" + GOOD, 22),
        "record-late-crlf": (read_record, ("a,b\n" + GOOD + "3,x\n").replace("\n", "\r\n"), 22),
        "record-late-cr": (read_record, ("a,b\n" + GOOD + "3,x\n").replace("\n", "\r"), 22),
        # label 50 of 62 rows is fine, but not of the rows up to the block after the bad line
        "mask-late-label-bound-past-bad-line": (read_mask, H_MASK + "".join(
            f"{k},0\n" for k in range(20)) + "20,50\nx,0\n" + "".join(
            f"{k},0\n" for k in range(22, 62)), 23),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_error_line(self, tmp_path, case):
        reader, text, line = self.CASES[case]
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(MalformedInput) as err:
            reader(path)
        assert err.value.line == line

    @pytest.mark.parametrize("text, line", [
        ("0,0,1\n0,0,2\n", 3),  # incomplete table
        ("0,0,1\n0,1,2\n0,0,3\n", 4),  # complete table plus a repeat
    ], ids=["incomplete", "complete"])
    def test_spectra_rejects_repeated_entry(self, tmp_path, text, line):
        path = tmp_path / "spec.csv"
        path.write_text("class,component,value\n" + text)
        with pytest.raises(MalformedInput) as err:
            read_spectra(path)
        assert err.value.line == line
        assert f"line {line}" in str(err.value)

    @pytest.mark.parametrize("text, K", [("0,1\n", 2), ("0,0\n1,1\n2,2\n", 3)])
    def test_mask_label_just_below_the_bound(self, tmp_path, text, K):
        path = tmp_path / "mask.csv"
        path.write_text("k,label\n" + text)
        assert read_mask(path).K == K

    @pytest.mark.parametrize("reader, data, line", [
        (read_record, b"a,b\n1,2\n3,\xc3\xa9\n", 3),
        (read_index, b"k,value\n0,1\n1,2\xff\n", 3),
        (read_mask, b"k,label\r\xa00,0\r", 2),
        (read_matrix, b"1,2\r\n3,4\r\n5,\xe9\r\n", 3),
        (read_spectra, b"class,\xc3\xa9,value\n0,0,1\n", 1),
    ], ids=["record", "index", "mask-cr", "matrix-crlf", "spectra-header"])
    def test_non_ascii_byte(self, tmp_path, reader, data, line):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedInput) as err:
            reader(path)
        assert err.value.line == line
        assert f"non-ASCII byte on line {line}" in str(err.value)

    @pytest.mark.parametrize("cell", ["1_0", "\x1f3"])
    def test_cell_that_float_or_numpy_alone_reads_is_a_bad_number(self, tmp_path, cell):
        path = tmp_path / "rec.csv"
        path.write_text(f"a,b\n1,2\n{cell},3\n")
        with pytest.raises(MalformedInput) as err:
            read_record(path)
        assert err.value.line == 3
        assert str(err.value).endswith(f"bad number {cell!r} on line 3")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("blank", ["", "  ", "\n"], ids=["empty", "spaces", "two-empty"])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    def test_blank_line_at_a_block_cut(self, tmp_path, blank, shift):
        # numpy's reader skips empty lines, so the row count of each block must
        # find them, and a block of empty lines alone must not reach it
        path = tmp_path / "rec.csv"
        lines = ["a,b"] + ["1.5,-2"] * (3 * nsca.io._READ_BLOCK // 7 + 20)
        path.write_text("".join(line + "\n" for line in lines))
        cut = sum(len(block) for block in itertools.islice(nsca.io._line_blocks(path), 3))
        lines.insert(cut + shift, blank)
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(MalformedInput) as err:
            read_record(path)
        assert err.value.line == cut + shift + 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reader, text", [(read_record, "a,b\n"), (read_index, "k,value\n")],
                             ids=["record", "index"])
    def test_header_only_has_no_data_rows(self, tmp_path, reader, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(MalformedInput, match="no data rows") as err:
            reader(path)
        assert err.value.line == 1

    def test_first_bad_line_wins(self, tmp_path):
        # a defect found by the per-format check comes before a later bad cell
        path = tmp_path / "mask.csv"
        path.write_text("k,label\n0,0\n1,2.5\n2,x\n")
        with pytest.raises(MalformedInput) as err:
            read_mask(path)
        assert err.value.line == 3


class TestMalformedInputInSmallBlocks(TestMalformedInput):
    """Every malformed-input case again, with the reader's blocks cut after 1, 5 or 64 bytes."""

    @pytest.fixture(autouse=True, params=[1, 5, 64])
    def read_block(self, request, monkeypatch):
        monkeypatch.setattr(nsca.io, "_READ_BLOCK", request.param)

    def test_crlf_file(self, tmp_path):
        # a cut in the middle of a CR LF pair would read as a blank line
        path = tmp_path / "rec.csv"
        path.write_bytes(b"a,b\r\n" + b"1.5,-2\r\n" * 20)
        assert np.array_equal(read_record(path).samples.T, [[1.5, -2.0]] * 20)


READERS = {"record": read_record, "index": read_index, "mask": read_mask,
           "matrix": read_matrix, "spectra": read_spectra}
HEADERS = {"index": "k,value", "mask": "k,label", "spectra": "class,component,value"}
ODD_CELLS = ["", "x", "nan", "-inf", "1e400", " 1", "1_0", "1.5", "-1", "-0", "2", "1e0", "+3",
             "1,2", "5."]


def loop_read(kind, text):
    """Per-line reference reader: the parsed rows, or the 1-based line of the first error."""
    lines = text.splitlines()
    if kind in HEADERS and (not lines or lines[0].strip() != HEADERS[kind]):
        return 1
    if not lines or (kind == "record" and not all(c.strip() for c in lines[0].split(","))):
        return 1
    first = 1 if kind == "matrix" else 2
    width, rows, seen = len(lines[0].split(",")), [], set()
    for i, line in enumerate(lines[first - 1:], start=first):
        if "_" in line:  # float reads "1_0" as 10; the format does not
            return i
        try:
            row = [float(c) for c in line.split(",")]
        except ValueError:
            return i
        if len(row) != width or not all(map(math.isfinite, row)):
            return i
        if kind in ("index", "mask") and row[0] != len(rows):
            return i
        ints = tuple(row[1:] if kind == "mask" else row[:2] if kind == "spectra" else [])
        if any(v != int(v) or v < 0 for v in ints) or (kind == "spectra" and ints in seen):
            return i
        if kind == "mask" and row[1] >= max(2, len(lines) - 1):
            return i
        seen.add(ints)
        rows.append(row)
    if not rows:
        return 1
    if kind == "spectra" and len(rows) != (max(r[0] for r in rows) + 1) * (max(r[1] for r in rows) + 1):
        return len(lines)
    return rows


def mutated_file(rng):
    """A small valid file of a random format with up to three random defects."""
    kind = str(rng.choice(list(READERS)))
    T, w = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    if kind == "spectra":
        K, n = rng.integers(1, 4, size=2)
        body = [f"{i},{j},{rng.random():.3f}" for i in range(K) for j in range(n)]
        body = [body[i] for i in rng.permutation(len(body))]
    elif kind in ("index", "mask"):
        body = [f"{k},{rng.integers(0, 3) if kind == 'mask' else rng.random()}" for k in range(T)]
    else:
        body = [",".join(f"{v:.3g}" for v in rng.normal(size=w)) for _ in range(T)]
    lines = ([] if kind == "matrix" else [HEADERS.get(kind, ",".join("abc"[:w]))]) + body
    for _ in range(int(rng.integers(0, 4))):
        if not lines:
            break
        i, j = rng.integers(len(lines), size=2)
        op = rng.integers(6)
        if op == 0:
            cells = lines[i].split(",")
            cells[rng.integers(len(cells))] = str(rng.choice(ODD_CELLS))
            lines[i] = ",".join(cells)
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, "")
        elif op == 3:
            lines.insert(i, lines[j])
        elif op == 4:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            del lines[i:]
    return kind, "".join(line + "\n" for line in lines)


@pytest.mark.filterwarnings("ignore:record has more channels than samples")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_readers_match_the_per_line_reference(tmp_path_factory, seed):
    check_against_the_per_line_reference(tmp_path_factory, seed)


@pytest.mark.filterwarnings("ignore:record has more channels than samples")
@pytest.mark.parametrize("block", [1, 5, 64])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_readers_match_the_per_line_reference_in_small_blocks(tmp_path_factory, block, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nsca.io, "_READ_BLOCK", block)
        check_against_the_per_line_reference(tmp_path_factory, seed)


def check_against_the_per_line_reference(tmp_path_factory, seed):
    kind, text = mutated_file(np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_text(text)
    expected = loop_read(kind, text)
    if isinstance(expected, int):
        with pytest.raises(MalformedInput) as err:
            READERS[kind](path)
        assert err.value.line == expected
        return
    rows = np.array(expected)
    got = READERS[kind](path)
    if kind == "spectra":
        assert got.shape == (rows[:, 0].max() + 1, rows[:, 1].max() + 1)
        assert np.array_equal(got[rows[:, 0].astype(int), rows[:, 1].astype(int)], rows[:, 2])
    elif kind in ("index", "mask"):
        assert np.array_equal(got.values if kind == "index" else got.labels, rows[:, 1])
    else:
        assert np.array_equal(got.samples.T if kind == "record" else got, rows)


def run(args):
    return main([str(a) for a in args])


class TestCliSynth:
    def test_writes_all_artifacts(self, tmp_path):
        code = run(["synth", "--n", 3, "--t", 2000, "--seed", 5, "--count", 1,
                    "--min-len", 300, "--max-len", 400, "--out-dir", tmp_path])
        assert code == 0
        for name in ("record.csv", "sources.csv", "mixing.csv", "mask.csv"):
            assert (tmp_path / name).exists()

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            assert run(["synth", "--n", 3, "--t", 1500, "--seed", 7, "--count", 1,
                        "--min-len", 200, "--max-len", 300, "--out-dir", d]) == 0
        for name in ("record.csv", "sources.csv", "mixing.csv", "mask.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_comes_from_the_flag_alone(self, tmp_path, monkeypatch):
        # the environment does not set the seed; NSCA_SEED is not read
        flags = ["synth", "--n", 2, "--t", 1000, "--seed", 0, "--count", 1,
                 "--min-len", 100, "--max-len", 150, "--out-dir"]
        assert run(flags + [tmp_path / "a"]) == 0
        monkeypatch.setenv("NSCA_SEED", "9")
        assert run(flags + [tmp_path / "b"]) == 0
        for name in ("record.csv", "sources.csv", "mixing.csv", "mask.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_amplitude_alias_is_gone(self, tmp_path, capsys):
        # --burst-amplitude is the one name of the burst amplitude
        assert run(["synth", "--n", 2, "--t", 1000, "--amplitude", 2,
                    "--out-dir", tmp_path / "out"]) == 2
        assert "--amplitude" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run(["synth", "--t", 1000, "--out-dir", tmp_path]) == 2
        assert "usage" in capsys.readouterr().err

    def test_zero_amplitude_still_lists_windows(self, tmp_path):
        assert run(["synth", "--n", 2, "--t", 1000, "--burst-amplitude", 0, "--count", 1,
                    "--min-len", 100, "--max-len", 150, "--out-dir", tmp_path]) == 0
        mask = read_mask(tmp_path / "mask.csv")
        assert mask.class_counts[1] > 0


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    code = main(["synth", "--n", "4", "--t", "6000", "--seed", "7", "--count", "2",
                 "--min-len", "400", "--max-len", "600", "--out-dir", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def long_synth(tmp_path_factory):
    d = tmp_path_factory.mktemp("long")
    assert main(["synth", "--n", "5", "--t", "100000", "--seed", "7", "--out-dir", str(d)]) == 0
    return d


class TestCliDetect:
    def test_default_detectors_run_a_long_record(self, long_synth, tmp_path):
        assert run(["detect", "--record", long_synth / "record.csv", "--out-dir", tmp_path]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ad.csv", "envelope.csv", "innovation.csv"]

    def test_easi_runs_a_long_record(self, long_synth, tmp_path):
        # the cubic EASI nonlinearity diverged on this record at step 3450
        assert run(["detect", "--record", long_synth / "record.csv", "--detectors", "easi",
                    "--out-dir", tmp_path]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["easi.csv"]

    def test_writes_indexes_and_summary(self, synth_dir, tmp_path, capsys):
        code = run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "envelope,innovation", "--window", 128,
                    "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("envelope", "innovation"):
            assert (tmp_path / f"{name}.csv").exists()
            assert f"{name} max=" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["envelope.csv", "innovation.csv"]
        norm = normalize_index(read_index(tmp_path / "envelope.csv"))
        assert norm.values.max() <= 1.0 + 1e-12

    def test_unknown_detector_is_usage_error(self, synth_dir, tmp_path, capsys):
        # an unknown or a repeated name stops the run before any detector;
        # `ar_tracking` is library-only, since it scores at chance, and
        # `cumulant_tracking`, since the envelope dominates it
        for detectors, error in [("wavelet", "unknown detectors: wavelet"),
                                 ("ar", "unknown detectors: ar"),
                                 ("cumulant", "unknown detectors: cumulant"),
                                 ("innovation,ad,innovation", "repeated detectors: innovation")]:
            out = tmp_path / detectors
            out.mkdir()
            assert run(["detect", "--record", synth_dir / "record.csv",
                        "--detectors", detectors, "--out-dir", out]) == 2
            assert f"nsca: {error}" in capsys.readouterr().err.splitlines()
            assert not list(out.iterdir())

    # one --window serves the envelope and the innovation index; AD, EASI and
    # the fitted model keep their library settings
    @pytest.mark.parametrize("flag", [
        "--ar-window 64", "--ar-order 2", "--ad-window 64", "--envelope-window 151",
        "--whiteness-window 128", "--cumulant-window 512", "--cumulant-order 3",
        "--easi-step -1", "--easi-g tanh", "--obs-noise-frac nan"])
    def test_ar_flags_are_gone(self, flag, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["detect", "--record", synth_dir / "record.csv", *flag.split(),
                    "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"nsca: error: unrecognized arguments: {flag}" in err.splitlines()
        assert not out.exists()

    def test_every_detect_flag_is_read_by_a_detector(self, synth_dir):
        # a deleted detector cannot leave its flags behind, nor a new flag go unread
        parser = nsca.cli._build_parser()
        detect = next(a for a in parser._actions if a.choices).choices["detect"]
        defaults = parser.parse_args(["detect", "--record", "unused.csv"])

        class Reads:
            def __init__(self):
                self.names = set()

            def __getattr__(self, name):
                self.names.add(name)
                return getattr(defaults, name)

        record = read_record(synth_dir / "record.csv")
        reads = {}
        for name, detector in nsca.cli.DETECTORS.items():
            reads[name] = Reads()
            detector(record, record.channel(0), reads[name])
        flags = {a.dest: a.option_strings[0] for a in detect._actions if a.dest != "help"}
        read = set().union(*(r.names for r in reads.values()))
        assert {flags.get(name, name) for name in read} == set(flags.values()) - {
            "--record", "--detectors", "--ref-channel", "--out-dir"}
        # detect rejects a --window that no selected detector reads
        assert {name for name, r in reads.items() if "window" in r.names} == set(
            nsca.cli.WINDOWED)

    def test_index_csvs_read_back_as_computed(self, synth_dir, tmp_path):
        # no index detect writes has a warm-up, so one read back from CSV has
        # the same values and theta labels; AD's zeroed warm-up used to become
        # the floor theta is measured from
        record = read_record(synth_dir / "record.csv")
        assert run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", ",".join(nsca.cli.DETECTORS), "--out-dir", tmp_path]) == 0
        ad = anderson_darling_index(record.channel(0))
        assert np.array_equal(threshold_mask(read_index(tmp_path / "ad.csv"), 0.5).labels,
                              threshold_mask(ad, 0.5).labels)
        args = nsca.cli._build_parser().parse_args(["detect", "--record", "unused.csv"])
        for name, detector in nsca.cli.DETECTORS.items():
            idx = detector(record, record.channel(0), args)
            back = read_index(tmp_path / f"{name}.csv")
            assert idx.valid_from == 0 and np.array_equal(back.values, idx.values), name
            assert np.array_equal(threshold_mask(back, 0.5).labels,
                                  threshold_mask(idx, 0.5).labels), name

    def test_missing_record_file(self, tmp_path):
        assert run(["detect", "--record", tmp_path / "nope.csv", "--out-dir", tmp_path]) == 3

    def test_failing_detector_writes_nothing(self, synth_dir, tmp_path, capsys, monkeypatch):
        # ad and envelope succeed, then EASI diverges; the run must not leave
        # the first two detectors' files behind
        ran = []

        def diverge(record, ref, args):
            ran.append(sorted(p.name for p in tmp_path.iterdir()))
            raise nsca.errors.Diverged("separator weights left [-1e6, 1e6] at step 3", at=3)

        monkeypatch.setitem(nsca.cli.DETECTORS, "easi", diverge)
        code = run(["detect", "--record", synth_dir / "record.csv",
                    "--detectors", "ad,envelope,easi", "--out-dir", tmp_path])
        assert code == 4 and ran == [[]]
        assert not list(tmp_path.iterdir())
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", [
        ["detect", "--detectors", "envelope,ad"],
        ["detect", "--detectors", "innovation"],
        ["separate", "--mask", "mask.csv"],
    ])
    def test_overflowing_record_is_a_numeric_failure(self, command, tmp_path, capfd):
        # samples near 1e307 are finite, but their squares are not
        assert run(["synth", "--n", 3, "--t", 2000, "--count", 1, "--min-len", 300,
                    "--max-len", 400, "--burst-amplitude", 1e307, "--out-dir", tmp_path]) == 0
        capfd.readouterr()
        args = [tmp_path / a if a.endswith(".csv") else a for a in command[1:]]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command[0], "--record", tmp_path / "record.csv", *args, "--out-dir", out])
        assert code == 4 and not caught
        captured = capfd.readouterr()  # LAPACK writes its complaints to the process's stdout
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"nsca: {tmp_path / 'record.csv'}: the second moments of channel 0 overflow float64; "
            "rescale the record"]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["detect", "separate"])
    def test_emit_plot_data_flag_is_gone(self, subcommand, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        classes = ["--mask", synth_dir / "mask.csv"] if subcommand == "separate" else []
        assert run([subcommand, "--record", synth_dir / "record.csv", *classes,
                    "--emit-plot-data", "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("nsca: ")] == [
            "nsca: error: unrecognized arguments: --emit-plot-data"]
        assert not out.exists()


class TestCliSeparate:
    def test_oracle_mask_two_class(self, synth_dir, tmp_path, capsys):
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", synth_dir / "mask.csv", "--out-dir", tmp_path])
        assert code == 0
        for name in ("demixer.csv", "est_sources.csv", "spectra.csv", "diagnostics.txt"):
            assert (tmp_path / name).exists()
        est = read_record(tmp_path / "est_sources.csv")
        truth = read_record(synth_dir / "sources.csv")
        mask = read_mask(synth_dir / "mask.csv")
        sel = mask.labels == 1
        burst = truth.samples[-1][sel]
        best = max(
            abs(np.corrcoef(est.samples[i][sel], burst)[0, 1]) for i in range(est.channels)
        )
        assert best >= 0.95

    def test_quantile_partition_path(self, synth_dir, tmp_path):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--window", 151, "--out-dir", d]) == 0
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--index", d / "envelope.csv", "--quantiles", 3, "--out-dir", tmp_path])
        assert code == 0
        spectra = read_spectra(tmp_path / "spectra.csv")
        assert spectra.shape[0] == 3
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "ajd_residual" in text

    def test_saturating_threshold_is_model_error(self, synth_dir, tmp_path):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--window", 151, "--out-dir", d]) == 0
        # a constant index cannot split: every sample reaches 100% of peak
        idx = read_index(d / "envelope.csv")
        write_index(d / "flat.csv", IndexSeries(np.ones(idx.length), 0, "flat"))
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--index", d / "flat.csv", "--theta", 1.0, "--out-dir", tmp_path]) == 4

    def test_left_out_flags_keep_the_library_defaults(self, synth_dir, envelope_csv, tmp_path):
        outs = tmp_path / "given", tmp_path / "left-out"
        flags = ["--theta", 0.5, "--min-event-len", 1], []
        for out, given in zip(outs, flags):
            assert run(["separate", "--record", synth_dir / "record.csv", "--index", envelope_csv,
                        *given, "--out-dir", out]) == 0
        for name in ("demixer.csv", "diagnostics.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # each flag given at its library default, against the same command without it
    AT_DEFAULT = {
        "lags": ("--two-round --target 0", "--lags 1,2,3,4,5,6,7,8,9,10"),
    }

    @pytest.mark.parametrize("case", sorted(AT_DEFAULT))
    def test_left_out_flag_is_the_library_default(self, case, synth_dir, envelope_csv, tmp_path):
        path, flag = self.AT_DEFAULT[case]
        outs = tmp_path / "given", tmp_path / "left-out"
        for out, given in zip(outs, (flag.split(), [])):
            assert run(["separate", "--record", synth_dir / "record.csv",
                        *path.format(index=envelope_csv).split(), *given, "--out-dir", out]) == 0
        for name in ("demixer.csv", "diagnostics.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # the class set has one weighting and one whitener, and no flag to change them
    @pytest.mark.parametrize("flag", ["--include-total", "--weight-rule cardinality"])
    def test_removed_weighting_flag_is_usage_error(self, flag, synth_dir, envelope_csv,
                                                   tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run(["separate", "--record", synth_dir / "record.csv", "--index", envelope_csv,
                    "--quantiles", 3, *flag.split(), "--out-dir", out]) == 2
        assert list(out.iterdir()) == []

    def test_two_round_requires_target(self, synth_dir, tmp_path):
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--two-round", "--out-dir", tmp_path]) == 2

    def test_two_round_runs(self, synth_dir, tmp_path):
        code = run(["separate", "--record", synth_dir / "record.csv",
                    "--two-round", "--target", 0, "--out-dir", tmp_path])
        assert code == 0
        text = (tmp_path / "diagnostics.txt").read_text()
        assert "round1_residual" in text

    def test_mask_length_mismatch_is_shape_error(self, synth_dir, tmp_path):
        short = tmp_path / "short.csv"
        write_mask(short, Partition(np.array([0] * 50 + [1] * 50)))
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", short, "--out-dir", tmp_path / "out"]) == 5
        assert not (tmp_path / "out").exists()

    def test_index_length_mismatch_is_shape_error(self, synth_dir, tmp_path):
        # a flat index cannot be thresholded (exit 4), so exit 5 shows that
        # its length is checked before it is partitioned
        short = tmp_path / "short.csv"
        write_index(short, IndexSeries(np.ones(100), 0, "flat"))
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--index", short, "--out-dir", tmp_path / "out"]) == 5
        assert not (tmp_path / "out").exists()


class TestCliEval:
    def test_overflowing_estimate_still_correlates(self, tmp_path, capsys):
        # the squares of these estimates overflow float64; eval once printed
        # every correlation as 0 and exited 0
        truth = Record(np.random.default_rng(8).normal(size=(3, 1000)))
        write_record(tmp_path / "truth.csv", truth)
        write_record(tmp_path / "est.csv", Record(1e300 * truth.samples[::-1]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["eval", "--est", tmp_path / "est.csv",
                        "--truth", tmp_path / "truth.csv"]) == 0
        assert not caught
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("corr_")]
        assert len(rows) == 3 and all(float(v) >= 1.0 - 1e-12 for _, v in rows)

    def test_source_table_and_metrics(self, synth_dir, tmp_path, capsys):
        sep = tmp_path / "sep"
        sep.mkdir()
        assert run(["separate", "--record", synth_dir / "record.csv",
                    "--mask", synth_dir / "mask.csv", "--out-dir", sep]) == 0
        code = run(["eval", "--est", sep / "est_sources.csv",
                    "--truth", synth_dir / "sources.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matched_corr_min" in out

    def test_mask_scores(self, synth_dir, tmp_path, capsys):
        code = run(["eval", "--est", synth_dir / "sources.csv",
                    "--truth", synth_dir / "sources.csv",
                    "--est-mask", synth_dir / "mask.csv",
                    "--truth-mask", synth_dir / "mask.csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mask_f1,1" in out

    def test_index_auc_reported(self, synth_dir, tmp_path, capsys):
        d = tmp_path / "det"
        d.mkdir()
        assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                    "--window", 151, "--out-dir", d]) == 0
        code = run(["eval", "--est", synth_dir / "sources.csv",
                    "--truth", synth_dir / "sources.csv",
                    "--index", d / "envelope.csv",
                    "--truth-mask", synth_dir / "mask.csv"])
        assert code == 0
        assert "index_auc," in capsys.readouterr().out

    def test_non_ascii_byte_exits_3(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xc3\xa9\n")
        assert run(["eval", "--est", path, "--truth", path]) == 3
        assert "non-ASCII byte on line 3" in capsys.readouterr().err

    def test_underscore_cell_exits_3(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text("a,b\n1,2\n1_0,3\n")
        assert run(["eval", "--est", path, "--truth", path]) == 3
        err = capsys.readouterr().err
        assert "bad number '1_0' on line 3" in err
        assert "Traceback" not in err

    def test_huge_mask_label_exits_3(self, synth_dir, tmp_path, capsys):
        mask = tmp_path / "m.csv"
        mask.write_text("k,label\n0,0\n1,1e19\n")
        code = run(["eval", "--est", synth_dir / "sources.csv", "--truth", synth_dir / "sources.csv",
                    "--est-mask", mask, "--truth-mask", mask])
        assert code == 3
        assert "(line 3)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def envelope_csv(synth_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("envelope")
    assert run(["detect", "--record", synth_dir / "record.csv", "--detectors", "envelope",
                "--window", 151, "--out-dir", d]) == 0
    return d / "envelope.csv"


class TestCliExitCodes:
    # {record}, {mask} and {index} name the pipeline fixture files
    OUT_OF_RANGE = {
        "theta-0": "separate --record {record} --index {index} --theta 0",
        "quantiles-1": "separate --record {record} --index {index} --quantiles 1",
        "negative-reg-eps": "separate --record {record} --mask {mask} --reg-eps -1",
        "min-event-len-0": "separate --record {record} --index {index} --min-event-len 0",
        "lag-0": "separate --record {record} --two-round --target 0 --lags 0",
        "lag-not-a-number": "separate --record {record} --two-round --target 0 --lags 1,x",
        "nan-reg-eps": "separate --record {record} --mask {mask} --reg-eps nan",
        "inf-reg-eps": "separate --record {record} --mask {mask} --reg-eps inf",
        "huge-reg-eps": "separate --record {record} --index {index} --quantiles 3 --reg-eps 1e308",
        "window-0": "detect --record {record} --window 0",
        "negative-window": "detect --record {record} --detectors innovation --window -1",
        "window-past-record": "detect --record {record} --detectors envelope --window 6001",
        # neither ad nor easi reads --window; it is rejected before any detector runs
        "window-read-by-no-detector": "detect --record {record} --detectors ad,easi --window 0",
        "non-numeric-pole": "synth --n 3 --t 2000 --sources gaussian,ar1:x,gaussian",
        "ecg-rate-inf": "synth --n 2 --t 1000 --sources gaussian,ecg:inf:0.05",
        "ecg-rate-1e300": "synth --n 2 --t 1000 --sources gaussian,ecg:1e300:0.05",
        "ecg-rate-nan": "synth --n 2 --t 1000 --sources gaussian,ecg:nan:0.05",
        "nan-burst-amplitude": "synth --n 3 --t 2000 --count 1 --min-len 300 --max-len 400 "
                               "--burst-amplitude nan",
        "inf-burst-amplitude": "synth --n 3 --t 2000 --count 1 --min-len 300 --max-len 400 "
                               "--burst-amplitude inf",
        "eval-index-without-truth-mask": "eval --est {record} --truth {record} --index {index}",
        # the usage error comes before any file is read
        "eval-est-mask-without-truth-mask":
            "eval --est {mask}.missing --truth {mask}.missing --est-mask {mask}",
        "eval-truth-mask-alone":
            "eval --est {mask}.missing --truth {mask}.missing --truth-mask {mask}",
        # a class flag the chosen partition would ignore
        "mask-with-quantiles": "separate --record {record} --mask {mask} --quantiles 3",
        "mask-with-theta": "separate --record {record} --mask {mask} --theta 0.4",
        "mask-with-min-event-len": "separate --record {record} --mask {mask} --min-event-len 3",
        "mask-with-target": "separate --record {record} --mask {mask} --target 0",
        "quantiles-with-theta":
            "separate --record {record} --index {index} --quantiles 3 --theta 0.4",
        "two-round-with-min-event-len":
            "separate --record {record} --two-round --target 0 --min-event-len 3",
        # a flag with a library default that the chosen path would ignore
        "index-with-lags": "separate --record {record} --index {index} --lags 1,2",
        "mask-with-lags": "separate --record {record} --mask {mask} --lags 1,2",
    }

    # the words the one error line must hold, where a case has a message to pin
    MESSAGES = {
        "nan-burst-amplitude": "burst parameters out of range",
        "inf-burst-amplitude": "burst parameters out of range",
        "huge-reg-eps": "reg_eps",
        "window-past-record": "window 6001 outside [1, 6000]",
        "window-read-by-no-detector": "--window is read only by envelope and innovation",
    }

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
    def test_out_of_range_flag_is_usage_error(self, case, synth_dir, envelope_csv, tmp_path,
                                              capsys):
        argv = self.OUT_OF_RANGE[case].format(
            record=synth_dir / "record.csv", mask=synth_dir / "mask.csv", index=envelope_csv)
        out = tmp_path / "out"
        out_dir = [] if argv.startswith("eval") else ["--out-dir", out]  # eval writes no file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv.split() + out_dir) == 2
        assert [str(w.message) for w in caught] == []  # no numpy warning ahead of the check
        err = capsys.readouterr().err
        assert sum(line.startswith("nsca: ") for line in err.splitlines()) == 1
        assert self.MESSAGES.get(case, "nsca: ") in err
        assert "Traceback" not in err
        assert not out.exists()

    # separate forms its classes from exactly one of --mask, --index and --two-round
    CLASS_SOURCES = {
        "none": "",
        "mask-and-index": "--mask {mask} --index {index}",
        "mask-and-two-round": "--mask {mask} --two-round --target 0",
        "index-and-two-round": "--index {index} --two-round --target 0",
    }

    @pytest.mark.parametrize("case", sorted(CLASS_SOURCES))
    def test_one_class_source(self, case, synth_dir, envelope_csv, tmp_path, capsys):
        flags = self.CLASS_SOURCES[case].format(mask=synth_dir / "mask.csv", index=envelope_csv)
        out = tmp_path / "out"
        argv = ["separate", "--record", synth_dir / "record.csv", *flags.split(), "--out-dir", out]
        assert run(argv) == 2
        assert "nsca separate: error: " in capsys.readouterr().err
        assert not out.exists()

    def test_every_separate_flag_without_a_default_is_checked(self):
        # a None default tells a given flag from a left-out one, which is what
        # the ignored-flag check reads; a new such flag must join that check
        sub = next(a for a in nsca.cli._build_parser()._actions if a.choices)
        separate = sub.choices["separate"]
        (classes,) = separate._mutually_exclusive_groups
        skipped = {"--record", *(a.option_strings[0] for a in classes._group_actions)}
        undefaulted = {a.option_strings[0] for a in separate._actions
                       if a.option_strings and a.default is None} - skipped
        assert undefaulted == set(nsca.cli.CLASS_FLAGS)

    # the exit code the cli docstring lists for each failure
    EXIT_CODES = {
        "BadSpec": 2, "BadChannel": 2, "BadClass": 2, "BadComponent": 2, "InvalidWindow": 2,
        "MalformedInput": 3, "OSError": 3,
        "ClassTooSmall": 4, "NotPositiveDefinite": 4, "NoConvergence": 4, "EmptyClass": 4,
        "Diverged": 4, "DegenerateIndex": 4, "DegenerateSeries": 4, "DegenerateTruth": 4,
        "ShapeMismatch": 5, "ModelMismatch": 5,
    }

    def test_every_error_class_has_an_exit_code(self):
        classes = {name for name, value in vars(nsca.errors).items()
                   if isinstance(value, type) and issubclass(value, nsca.errors.NscaError)
                   and value is not nsca.errors.NscaError}
        assert classes | {"OSError"} == set(self.EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_exit_code_of_each_error(self, name, monkeypatch, capsys):
        exc = getattr(nsca.errors, name, None) or OSError

        def fail(args):
            raise exc("raised by the test")

        monkeypatch.setattr(nsca.cli, "cmd_eval", fail)
        assert run(["eval", "--est", "e.csv", "--truth", "t.csv"]) == self.EXIT_CODES[name]
        err = capsys.readouterr().err
        assert sum(line.startswith("nsca: ") for line in err.splitlines()) == 1
        assert ("usage: nsca" in err) == (name == "BadSpec")
