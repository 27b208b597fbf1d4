"""Run reports: a named bundle of tables plus a manifest that records
everything needed to reproduce the run byte-for-byte (seed, scenario
hash, tool version).  Nothing time- or host-dependent goes in here."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .engine import NS_PER_MS


def fmt_ms(value) -> str:
    return "" if value is None else f"{value:.6f}"


# Below 2^33 ms the float64 nearest ns / NS_PER_MS lies within 2^-21 ms
# of it, so six decimals print its exact decimal, whichever division
# made it: those cells are spelled from the int's digits.
_DECIMAL_NS = 2 ** 33 * NS_PER_MS


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of four ASCII bytes as uint32 words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


_I = np.arange(10_000)
_DIGITS = (np.stack([_I // 1000, _I // 100, _I // 10, _I], axis=1) % 10
           + ord("0"))
_ZEROS4 = _words(_DIGITS)                                           # "0042"
_SPACES4 = _words(np.where(_I[:, None] < [1000, 100, 10, 0], ord(" "), _DIGITS))
_DOT3 = _words(np.c_[np.full(1000, ord(".")), _DIGITS[:1000, 1:]])  # ".042"
_SPACE3 = _words(np.c_[_DIGITS[:1000, 1:], np.full(1000, ord(" "))])  # "042 "
_BLANK4 = _words(np.full((1, 4), ord(" ")))[0]


def _decimal_cells(ns: np.ndarray) -> list[str]:
    """``ns / NS_PER_MS`` with six decimals, for 0 <= ns < _DECIMAL_NS.

    Each cell is spelled right-aligned in five four-byte words (up to ten
    integer digits, then ".ddd" and "ddd "); split() drops the padding.
    """
    q, r = np.divmod(ns, NS_PER_MS)
    hi, lo = np.divmod(q, 10 ** 4)
    top, mid = np.divmod(hi, 10 ** 4)
    words = np.empty((len(ns), 5), dtype=np.uint32)
    words[:, 0] = np.where(top > 0, _SPACES4[top], _BLANK4)
    words[:, 1] = np.where(top > 0, _ZEROS4[mid],
                           np.where(mid > 0, _SPACES4[mid], _BLANK4))
    words[:, 2] = np.where(hi > 0, _ZEROS4[lo], _SPACES4[lo])
    frac_hi, frac_lo = np.divmod(r, 1000)
    words[:, 3] = _DOT3[frac_hi]
    words[:, 4] = _SPACE3[frac_lo]
    return words.tobytes().decode("ascii").split()


def fmt_ms_column(ns: np.ndarray, missing: np.ndarray | None = None,
                  word: str = "", int_division: bool = True) -> list[str]:
    """``ns / NS_PER_MS`` with six decimals, ``word`` where ``missing``.

    The quotient is Python's int division, or numpy's float64 division
    when not ``int_division``; the ledger has always printed send and
    padding times the second way, and the two differ beyond 2^53 ns.
    """
    if missing is None:
        missing = np.zeros(len(ns), dtype=bool)
    big = (ns >= _DECIMAL_NS) & ~missing
    cells = _decimal_cells(np.where(big | missing, 0, ns))
    for i in np.flatnonzero(missing).tolist():
        cells[i] = word
    at = np.flatnonzero(big)
    quotients = ([t / NS_PER_MS for t in ns[at].tolist()] if int_division
                 else (ns[at] / NS_PER_MS).tolist())
    for i, t in zip(at.tolist(), quotients):
        cells[i] = f"{t:.6f}"
    return cells


def fmt_num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


class Table(NamedTuple):
    """A header plus one list of cells per header name."""

    header: list[str]
    columns: list[list]


def _text(column: list) -> list[str]:
    """A column as CSV cells, printed as ``csv.writer`` prints them."""
    if set(map(type, column)) <= {str}:
        return column
    return ["" if c is None else str(c) for c in column]


def _plain(cells: list[str]) -> bool:
    """True when no cell needs quoting: joining adds exactly one comma per
    gap between cells, and no quote or line break appears anywhere."""
    joined = ",".join(cells)
    return (joined.count(",") == len(cells) - 1
            and not any(c in joined for c in '"\r\n'))


@dataclass
class ReportBundle:
    """manifest + named tables + JSON summaries."""

    manifest: dict
    tables: dict[str, Table] = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)

    def add_table(self, name: str, header: list[str], rows: list[list]) -> None:
        """Add a table given row by row."""
        header = list(header)
        if any(len(r) != len(header) for r in rows):
            raise ValueError(f"table {name!r}: every row needs {len(header)} cells")
        columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in header]
        self.tables[name] = Table(header, columns)

    def add_columns(self, name: str, header: list[str], columns: list[list]) -> None:
        """Add a table given column by column."""
        if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
            raise ValueError(f"table {name!r}: needs {len(header)} columns "
                             "of one length")
        self.tables[name] = Table(list(header), columns)

    def table_csv(self, name: str) -> str:
        header, columns = self.tables[name]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        cells = [_text(c) for c in columns]
        # csv.writer quotes the lone empty cell of a one-column row
        if all(map(_plain, cells)) and not (len(cells) == 1 and "" in cells[0]):
            rows = list(map(",".join, zip(*cells)))
            if rows:
                buf.write("\n".join(rows) + "\n")
        else:
            writer.writerows(zip(*cells))
        return buf.getvalue()

    def write(self, out_dir: str | Path, fmt: str = "csv") -> list[Path]:
        """Write manifest.json, summary.json and one file per table."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = []
        manifest = dict(self.manifest)
        manifest["tables"] = sorted(self.tables)
        for name, payload in (("manifest", manifest), ("summary", self.summaries)):
            path = out / f"{name}.json"
            path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            written.append(path)
        for name in sorted(self.tables):
            if fmt == "json":
                path = out / f"{name}.json"
                header, columns = self.tables[name]
                payload = [dict(zip(header, row)) for row in zip(*columns)]
                path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            else:
                path = out / f"{name}.csv"
                path.write_text(self.table_csv(name))
            written.append(path)
        return written
