"""Run reports: a named bundle of tables plus a manifest that records
everything needed to reproduce the run byte-for-byte (seed, scenario
hash, tool version).  Nothing time- or host-dependent goes in here."""

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .engine import NS_PER_MS


# Tables are spelled and written this many rows at a time, so writing a
# table needs memory for one block, not for the whole file.  A block of
# records rows as words (about 1 MiB) and its column temporaries fit in
# a 2 MiB L2 cache.
BLOCK_ROWS = 8_192


def fmt_ms(value) -> str:
    return "" if value is None else f"{value:.6f}"


def fmt_num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


# ---------------------------------------------------------------------------
# words: each row of a block is laid out as four-byte words, each cell
# right-aligned or padded with NUL bytes that the row assembler drops


# Below 2^33 ms the float64 nearest ns / NS_PER_MS lies within 2^-21 ms
# of it, so six decimals print its exact decimal, whichever division
# made it: those cells are spelled from the int's digits.
_DECIMAL_NS = 2 ** 33 * NS_PER_MS


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of four ASCII bytes as uint32 words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


# Digit words; the comments show NUL bytes as "_".
_I = np.arange(10_000)
_DIGITS = (np.stack([_I // 1000, _I // 100, _I // 10, _I], axis=1) % 10
           + ord("0"))
_ZEROS4 = _words(_DIGITS)                                        # "0042"
_PAD4 = _words(np.where(_I[:, None] < [1000, 100, 10, 0], 0, _DIGITS))  # "__42"
_LEAD4 = np.where(_I > 0, _PAD4, 0)                              # "____" for 0
_DOT3 = _words(np.c_[np.full(1000, ord(".")), _DIGITS[:1000, 1:]])  # ".042"
_FRAC3 = _words(np.c_[_DIGITS[:1000, 1:], np.zeros(1000, int)])     # "042_"


def _digit_words(q: np.ndarray) -> list[np.ndarray]:
    """0 <= q < 10^12 in decimal, right-aligned in four-byte words (most
    significant first), as many words as the largest q needs."""
    top = int(q.max(initial=0))
    n_words = 1 + (top >= 10 ** 4) + (top >= 10 ** 8)
    # numpy's // by a constant is fast, % and divmod are not
    words, above = [], None
    for k in reversed(range(n_words)):
        digits = q // 10 ** (4 * k) if k else q
        table = _PAD4 if k == 0 else _LEAD4
        if above is None:
            words.append(table[digits])
        else:
            part = digits - above * 10 ** 4
            words.append(np.where(above > 0, _ZEROS4[part], table[part]))
        above = digits
    return words


def _text_words(texts: list[str]) -> np.ndarray:
    """Texts as rows of words, NUL-padded to the widest."""
    encoded = [t.encode() for t in texts]
    cells = np.array(encoded, dtype=f"S{-(-max(map(len, encoded)) // 4) * 4 or 4}")
    if np.count_nonzero(cells.view(np.uint8)) != sum(map(len, encoded)):
        raise ValueError("table cells cannot hold NUL characters")
    return cells.view(np.uint32).reshape(len(encoded), -1)


@dataclass(frozen=True)
class IntColumn:
    """Integers 0 <= v < 10^12 in decimal, numbers in JSON."""

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) and not (0 <= self.values.min()
                                     and self.values.max() < 10 ** 12):
            raise ValueError("IntColumn values must lie in [0, 10^12)")

    def __len__(self) -> int:
        return len(self.values)

    def words(self, rows: slice, tail: str) -> tuple[list[np.ndarray], list]:
        return _digit_words(self.values[rows]), []


@dataclass(frozen=True)
class MsColumn:
    """int64 ns as milliseconds with six decimals, ``word`` where
    ``missing``; strings in JSON.

    The quotient is Python's int division, or numpy's float64 division
    when not ``int_division``; the ledger has always printed send and
    padding times the second way, and the two differ beyond 2^53 ns.
    Cells in [0, 2^33 ms) are spelled from the digits of the int; the
    few others are printed by Python.
    """

    ns: np.ndarray
    missing: np.ndarray | None = None
    word: str = ""
    int_division: bool = True

    def __len__(self) -> int:
        return len(self.ns)

    def words(self, rows: slice, tail: str) -> tuple[list[np.ndarray], list]:
        """The cells' words, ``tail`` in the fraction word's spare byte,
        and (rows, texts) for the cells that are written over them."""
        ns = self.ns[rows]
        missing = None if self.missing is None else self.missing[rows]
        # negative ns wrap to the top of uint64, so one unsigned test finds
        # the cells outside [0, 2^33 ms); the missing ones join them
        odd = ns.view(np.uint64) >= _DECIMAL_NS
        if missing is not None:
            odd |= missing
        any_odd = bool(odd.any())
        decimal = np.where(odd, 0, ns) if any_odd else ns
        q = decimal // NS_PER_MS
        r = decimal - q * NS_PER_MS
        frac_hi = r // 1000
        frac_lo = r - frac_hi * 1000
        texts = []
        if any_odd:
            if missing is not None and missing.any():
                texts.append((np.flatnonzero(missing), [self.word]))
                odd &= ~missing
            if odd.any():
                texts.append((np.flatnonzero(odd), self._printed(ns[odd])))
        frac = _FRAC3 | np.frombuffer(b"\0\0\0" + tail.encode(), np.uint32)
        return _digit_words(q) + [_DOT3[frac_hi], frac[frac_lo]], texts

    def _printed(self, ns: np.ndarray) -> list[str]:
        quotients = ([t / NS_PER_MS for t in ns.tolist()] if self.int_division
                     else (ns / NS_PER_MS).tolist())
        return [f"{t:.6f}" for t in quotients]


def _csv_cell(value) -> str:
    """A cell as ``csv.writer`` prints it: quoted when it holds the
    delimiter, the quote character or the line terminator."""
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class Table(NamedTuple):
    """A header plus one column per header name."""

    header: list[str]
    columns: list


def _table_blocks(table: Table, fmt: str) -> Iterator[bytes]:
    """The bytes of a CSV or JSON table file, BLOCK_ROWS rows at a time.

    JSON is what ``json.dumps(rows, sort_keys=True, indent=2)`` prints for
    one dict per row.  A block is one uint32 matrix of words, a row of
    the text between cells and each cell's words.
    """
    header, columns = table
    n = len(columns[0]) if columns else 0
    if fmt == "json":
        keys = {name: j for j, name in enumerate(header)}  # a dict keeps the last
        columns = [columns[keys[k]] for k in sorted(keys)]
        seps = [("  {\n" if i == 0 else ",\n") + f"    {json.dumps(k)}: "
                for i, k in enumerate(sorted(keys))] + ["\n  },\n"]
        yield b"[\n" if n else b"[]\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(header)
        yield buf.getvalue().encode()
        seps = [""] + [","] * (len(columns) - 1) + ["\n"]
    # MsColumn cells are quoted in JSON, and the byte that follows one (a
    # separator, a line end or the closing quote) is its tail: it fills
    # the fraction word's spare byte
    quote, tails = '"' if fmt == "json" else "", []
    for i, column in enumerate(columns):
        ms = isinstance(column, MsColumn)
        seps[i] += quote * ms
        after = quote * ms + seps[i + 1]
        tails.append(after[:ms])
        seps[i + 1] = after[ms:]
    size = min(n, BLOCK_ROWS)
    consts = [[np.full(size, w) for w in _text_words([s])[0] if w] for s in seps]
    zero = np.zeros(size, np.uint32)
    # csv.writer quotes the lone empty cell of a one-column row
    empty = '""' if fmt != "json" and len(columns) == 1 else ""
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n))
        k = rows.stop - start
        words, fixes = [], []
        for const, column, tail in zip(consts, columns, tails):
            words += [w[:k] for w in const]
            if isinstance(column, list):
                cell = list(_text_words(
                    [json.dumps(v) for v in column[rows]] if fmt == "json"
                    else [_csv_cell(v) or empty for v in column[rows]]).T)
                over = []
            else:
                cell, texts = column.words(rows, tail)
                over = [(at, _text_words([(t or empty) + tail for t in ts]))
                        for at, ts in texts]
            width = max([len(cell)] + [t.shape[1] for _, t in over])
            fixes += [(len(words), width, at, t) for at, t in over]
            words += cell + [zero[:k]] * (width - len(cell))
        words += [w[:k] for w in consts[-1]]
        # stacked as rows, each a contiguous copy; tobytes lays out the
        # transpose in one pass, faster than stacking into columns
        matrix = np.stack(words).T
        for a, width, at, t in fixes:
            matrix[at, a:a + width] = 0
            matrix[at, a:a + t.shape[1]] = t
        block = matrix.tobytes().translate(None, b"\0")
        yield block[:-2] + b"\n]\n" if fmt == "json" and rows.stop == n else block


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

    def add_columns(self, name: str, header: list[str], columns: list) -> None:
        """Add a table given column by column: lists of values, or
        IntColumn and MsColumn arrays."""
        if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
            raise ValueError(f"table {name!r}: needs {len(header)} columns "
                             "of one length")
        self.tables[name] = Table(list(header), columns)

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
            path = out / f"{name}.{'json' if fmt == 'json' else 'csv'}"
            with path.open("wb") as f:
                for block in _table_blocks(self.tables[name], fmt):
                    f.write(block)
            written.append(path)
        return written
