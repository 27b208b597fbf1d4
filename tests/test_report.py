"""Report tables: the column CSV and JSON writers against the csv module
and the row-by-row JSON layout."""

import csv
import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from railsim.report import ReportBundle

@st.composite
def row_tables(draw):
    """Tables whose text cells hold at most one kind of character that
    csv.writer quotes, so each kind also turns up alone."""
    special = draw(st.sampled_from([",", '"', "\r", "\n", " "]))
    cells = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.sampled_from(["", "a", special, f"a{special}b"]))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(alphabet="h,", min_size=1, max_size=3),
                           min_size=width, max_size=width, unique=True))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width),
                         max_size=6))
    return header, rows


@given(row_tables())
def test_table_files_match_the_row_writers(table):
    header, rows = table
    bundle = ReportBundle(manifest={})
    bundle.add_table("t", header, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([["" if c is None else c for c in row] for row in rows])
    assert bundle.table_csv("t") == buf.getvalue()


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
