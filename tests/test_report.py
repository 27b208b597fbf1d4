"""Report tables: the column CSV and JSON writers against the csv module
and the row-by-row JSON layout."""

import csv
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railsim import report
from railsim.engine import LOST_NS, NS_PER_MS
from railsim.report import IntColumn, MsColumn, ReportBundle


@st.composite
def row_tables(draw):
    """Tables of up to four blocks of ``block_rows`` rows.  At most two
    text cells hold one kind of character that csv.writer quotes, so a
    quoted cell often sits in one block and not in the others."""
    special = draw(st.sampled_from([",", '"', "\r", "\n", " "]))
    cells = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.sampled_from(["", "a", "\u00e9"]))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(alphabet="h,", min_size=1, max_size=3),
                           min_size=width, max_size=width))
    block_rows = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                         max_size=4 * block_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, width - 1))
        rows[row][col] = draw(st.sampled_from([special, f"a{special}b"]))
    return header, rows, block_rows


@settings(deadline=None)  # each example builds and writes whole tables
@given(row_tables())
def test_table_files_match_the_row_writers(table):
    header, rows, block_rows = table
    bundle = ReportBundle(manifest={})
    bundle.add_table("t", header, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([["" if c is None else c for c in row] for row in rows])
    want_json = json.dumps([dict(zip(header, row)) for row in rows],
                           sort_keys=True, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(report, "BLOCK_ROWS", block_rows):
        bundle.write(Path(tmp) / "csv")
        bundle.write(Path(tmp) / "json", fmt="json")
        assert (Path(tmp) / "csv" / "t.csv").read_bytes() == buf.getvalue().encode()
        assert (Path(tmp) / "json" / "t.json").read_bytes() == want_json.encode()


def _ms_text(ns: int, int_division: bool) -> str:
    q = ns / NS_PER_MS if int_division else float(np.float64(ns) / NS_PER_MS)
    return f"{q:.6f}"


@st.composite
def mixed_tables(draw):
    """Tables that mix IntColumn, MsColumn and list columns, with an
    MsColumn first, last or just before a list column, in blocks of one
    to three rows; also the rows as Python values, MsColumn cells as
    the strings they print."""
    kinds = draw(st.lists(st.sampled_from(["int", "ms", "list"]), max_size=3))
    where = draw(st.sampled_from(["first", "last", "before a list"]))
    if where == "first":
        kinds.insert(0, "ms")
    elif where == "last":
        kinds.append("ms")
    else:
        at = draw(st.integers(0, len(kinds)))
        kinds[at:at] = ["ms", "list"]
    block_rows = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4 * block_rows))
    header = draw(st.lists(st.text(alphabet="h,", min_size=1, max_size=3),
                           min_size=len(kinds), max_size=len(kinds)))
    big = 2 ** 33 * NS_PER_MS
    columns, cells = [], []
    for kind in kinds:
        if kind == "int":
            values = draw(st.lists(st.one_of(
                st.integers(0, 10 ** 12 - 1),
                st.sampled_from([0, 9, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8])),
                min_size=n, max_size=n))
            columns.append(IntColumn(np.array(values, dtype=np.int64)))
            cells.append(values)
        elif kind == "ms":
            # small in-range cells next to printed ones (negative, at or
            # above 2^33 ms, LOST_NS) that need more words than they do
            ns = draw(st.lists(st.one_of(
                st.integers(0, 10 ** 7), st.integers(0, big - 1),
                st.integers(-2 ** 63, -1), st.integers(big, 2 ** 63 - 1),
                st.sampled_from([big - 1, big, LOST_NS, -1])),
                min_size=n, max_size=n))
            missing = (draw(st.lists(st.booleans(), min_size=n, max_size=n))
                       if draw(st.booleans()) else None)
            word = draw(st.sampled_from(["LOST", ""]))
            int_division = draw(st.booleans())
            columns.append(MsColumn(
                np.array(ns, dtype=np.int64),
                None if missing is None else np.array(missing, dtype=bool),
                word, int_division))
            cells.append([word if missing is not None and missing[i]
                          else _ms_text(v, int_division) for i, v in enumerate(ns)])
        else:
            values = draw(st.lists(st.one_of(
                st.none(), st.booleans(), st.integers(), st.floats(),
                st.sampled_from(["", "a", "\u00e9", "a,b", 'say "hi"', "x\ny"])),
                min_size=n, max_size=n))
            columns.append(values)
            cells.append(values)
    return header, columns, [list(row) for row in zip(*cells)], block_rows


@settings(deadline=None)  # each example builds and writes whole tables
@given(mixed_tables())
def test_mixed_tables_match_the_row_writers(table):
    header, columns, rows, block_rows = table
    bundle = ReportBundle(manifest={})
    bundle.add_columns("t", header, columns)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([["" if c is None else c for c in row] for row in rows])
    want_json = json.dumps([dict(zip(header, row)) for row in rows],
                           sort_keys=True, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(report, "BLOCK_ROWS", block_rows):
        bundle.write(Path(tmp) / "csv")
        bundle.write(Path(tmp) / "json", fmt="json")
        assert (Path(tmp) / "csv" / "t.csv").read_bytes() == buf.getvalue().encode()
        assert (Path(tmp) / "json" / "t.json").read_bytes() == want_json.encode()


def test_lone_empty_cells_are_quoted_as_csv_writer_does(tmp_path):
    bundle = ReportBundle(manifest={})
    bundle.add_columns("ms", ["a"], [MsColumn(np.array([5, 7]),
                                              np.array([True, False]), "")])
    bundle.add_columns("list", ["a"], [[None, "", "x"]])
    bundle.add_columns("pair", ["a", "b"], [[None, ""], ["", None]])
    bundle.write(tmp_path)
    assert (tmp_path / "ms.csv").read_text() == 'a\n""\n0.000007\n'
    assert (tmp_path / "list.csv").read_text() == 'a\n""\n""\nx\n'
    assert (tmp_path / "pair.csv").read_text() == "a,b\n,\n,\n"


@given(st.lists(st.one_of(st.integers(0, 10 ** 12 - 1),
                          st.sampled_from([0, 9999, 10 ** 4, 10 ** 8 - 1, 10 ** 8])),
                min_size=1, max_size=8))
def test_int_columns_print_as_python_ints(values):
    bundle = ReportBundle(manifest={})
    bundle.add_columns("t", ["v"], [IntColumn(np.array(values))])
    with tempfile.TemporaryDirectory() as tmp:
        bundle.write(Path(tmp) / "csv")
        bundle.write(Path(tmp) / "json", fmt="json")
        assert (Path(tmp) / "csv" / "t.csv").read_text().split() == (
            ["v"] + [str(v) for v in values])
        assert json.loads((Path(tmp) / "json" / "t.json").read_text()) == [
            {"v": v} for v in values]


def test_json_tables_keep_cell_types(tmp_path):
    bundle = ReportBundle(manifest={})
    bundle.add_table("t", ["n", "x", "flag"], [[1, "a,b", None], [2, "c", True]])
    bundle.write(tmp_path, fmt="json")
    assert json.loads((tmp_path / "t.json").read_text()) == [
        {"n": 1, "x": "a,b", "flag": None}, {"n": 2, "x": "c", "flag": True}]


def test_tables_reject_ragged_input():
    bundle = ReportBundle(manifest={})
    with pytest.raises(ValueError):
        bundle.add_table("t", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        bundle.add_columns("t", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        bundle.add_columns("t", ["a", "b"], [[1, 2]])
    with pytest.raises(ValueError):
        IntColumn(np.array([3, -1]))


def test_tables_reject_nul_cells(tmp_path):
    bundle = ReportBundle(manifest={})
    bundle.add_table("t", ["a"], [["x\0"]])
    with pytest.raises(ValueError):
        bundle.write(tmp_path)


@pytest.mark.parametrize("int_division", [True, False])
def test_ms_cells_outside_the_digit_range_print_as_python(tmp_path, int_division):
    """Negative cells, cells at or above 2^33 ms, LOST_NS and -1 rows print
    as f"{x:.6f}" of their quotient, or as the missing word; blocks of
    three rows put some blocks past the one test that finds them."""
    big = 2 ** 33 * NS_PER_MS
    ns = np.array([0, 1, 999_999, 123_456_789, big - 1, -1, -5_000_123, big,
                   big + 7, 2 ** 62 + 3, LOST_NS, -2 ** 63, 1_000_000,
                   42_000_001, 7], dtype=np.int64)
    # missing where lost or -1, and one in-range row marked missing, in a
    # block of in-range rows
    missing = (ns == LOST_NS) | (ns == -1) | (ns == 42_000_001)

    def spelled(v, word=None):
        if word is not None:
            return word
        q = v / NS_PER_MS if int_division else float(np.float64(v) / NS_PER_MS)
        return f"{q:.6f}"

    want = [[spelled(v, "LOST" if m else None), spelled(v)]
            for v, m in zip(ns.tolist(), missing.tolist())]
    bundle = ReportBundle(manifest={})
    bundle.add_columns("t", ["a", "b"], [
        MsColumn(ns, missing, "LOST", int_division=int_division),
        MsColumn(ns, int_division=int_division)])
    with mock.patch.object(report, "BLOCK_ROWS", 3):
        bundle.write(tmp_path / "csv")
        bundle.write(tmp_path / "json", fmt="json")
    text = (tmp_path / "csv" / "t.csv").read_text()
    assert text == "a,b\n" + "".join(f"{a},{b}\n" for a, b in want)
    assert json.loads((tmp_path / "json" / "t.json").read_text()) == [
        {"a": a, "b": b} for a, b in want]
