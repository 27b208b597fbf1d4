"""Output checks: every operation's report bundle is read back and checked.

The ledger checks read the bundle a user gets (``records.csv`` and
``summary.json``) rather than railsim's in-memory result, so they hold
for any internal representation that keeps the output bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def bundle_digest(out_dir: Path) -> str:
    """sha256 over the bundle files sorted by name, each fed as
    ``name + b"\\0" + bytes`` (the ROADMAP golden-digest recipe)."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir(), key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def file_digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
            for name in ("records.csv", "summary.json")}


def _ledger_ns(text: str) -> tuple[list[str], np.ndarray]:
    """records.csv as int64 nanoseconds; LOST and NEVER become -1.

    Every time cell is written with exactly six decimals of a millisecond,
    so dropping the point gives the exact integer nanosecond value.
    """
    header, _, body = text.partition("\n")
    body = body.replace("LOST", "-1").replace("NEVER", "-1").replace(".", "")
    table = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    return header.split(","), table


def check_ledger(out_dir: Path, count: int, interval_ns: int) -> None:
    """Raise CheckFailed unless the simulate bundle in ``out_dir`` obeys
    the replication invariants:

    - delivered copies = first forwards + suppressed + window-miss duplicates;
    - a packet is rail-lost exactly when every path lost it;
    - the rail delay is the minimum one-way delay over the delivered copies;
    - every delivered packet is released, never before it first arrived.
    """
    out_dir = Path(out_dir)
    header, t = _ledger_ns((out_dir / "records.csv").read_text())
    summary = json.loads((out_dir / "summary.json").read_text())
    n_paths = len(header) - 5
    if t.shape != (count, len(header)) or n_paths < 1:
        raise CheckFailed(f"records.csv has shape {t.shape}, expected ({count}, "
                          f"{len(header)}) with at least one path")
    seq, send, arrivals = t[:, 0], t[:, 1], t[:, 2:2 + n_paths]
    rail, forward = t[:, 2 + n_paths], t[:, 3 + n_paths]
    if not (np.array_equal(seq, np.arange(count))
            and np.array_equal(send, seq * interval_ns)):
        raise CheckFailed("seq or send_ms column does not match the traffic spec")

    delivered = arrivals >= 0
    rail_lost = rail < 0
    if not np.array_equal(rail_lost, ~delivered.any(axis=1)):
        bad = int(np.argmax(rail_lost != ~delivered.any(axis=1)))
        raise CheckFailed(f"seq {bad}: rail loss disagrees with the per-path losses")
    big = np.iinfo(np.int64).max
    min_delay = np.where(delivered, arrivals - send[:, None], big).min(axis=1)
    ok = ~rail_lost
    if not np.array_equal(rail[ok], min_delay[ok]):
        bad = int(np.flatnonzero(ok)[np.argmax(rail[ok] != min_delay[ok])])
        raise CheckFailed(f"seq {bad}: rail delay {rail[bad]} ns is not the minimum "
                          f"copy delay {min_delay[bad]} ns")
    if not (np.array_equal(forward >= 0, ok)
            and np.all(forward[ok] >= send[ok] + rail[ok])):
        raise CheckFailed("a delivered packet was never released or released early")

    c = summary["counters"]
    first = int(np.count_nonzero(ok))
    copies = int(np.count_nonzero(delivered))
    if copies != first + c["suppressed"] + c["window_miss_duplicates"]:
        raise CheckFailed(f"delivered copies {copies} != first forwards {first} + "
                          f"suppressed {c['suppressed']} + window-miss duplicates "
                          f"{c['window_miss_duplicates']}")
    if (c["forwarded"] != first + c["window_miss_duplicates"]
            or c["lost_copies"] != delivered.size - copies
            or summary["count"] != count or summary["rail"]["delivered"] != first):
        raise CheckFailed(f"summary.json counters {c} disagree with records.csv")
