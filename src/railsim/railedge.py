"""Edge-device datapath at the receiver: duplicate suppression and
release-time policies (delay padding, optional reorder removal)."""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError

DEFAULT_DEDUP_WINDOW = 4096


class DedupState:
    """Sliding-window duplicate filter over sequence numbers.

    Remembers the last ``window`` forwarded seqs; the first copy of a seq
    is forwarded, later copies are suppressed.  A copy arriving after its
    seq was evicted from the window is forwarded again (the simulation
    engine counts these window-miss duplicates).
    """

    def __init__(self, window: int = DEFAULT_DEDUP_WINDOW):
        if window < 1:
            raise ConfigurationError(f"dedup window must be >= 1, got {window}")
        self.window = window
        self._seen: set[int] = set()
        self._order: deque[int] = deque()

    def observe(self, seq: int) -> bool:
        """True if this copy should be forwarded; updates the window."""
        if seq in self._seen:
            return False
        self._seen.add(seq)
        self._order.append(seq)
        if len(self._order) > self.window:
            self._seen.discard(self._order.popleft())
        return True


@dataclass
class PaddingConfig:
    """Delay padding: hold early copies so the one-way delay presented to
    the LAN is a roughly constant ``target_one_way`` (never drops)."""

    enabled: bool = False
    target_one_way: float = 0.0  # ms; also the reorder-removal hold timeout


def reorder_hold_schedule(ready: Iterable[tuple[int, int]], timeout_ns: int,
                          window: int = DEFAULT_DEDUP_WINDOW) -> list[tuple[int, int]]:
    """Reorder-removal release schedule.

    ``ready`` is the (time_ns, seq) stream of packets as they become
    forwardable, sorted by time (ties by seq).  A packet is held until
    every smaller seq has been released or declared lost, where a missing
    seq is declared lost once some held packet above it has waited
    ``timeout_ns``.  Nothing is ever dropped: a copy arriving after its
    gap timed out is released immediately (late, possibly out of order).
    Returns the (release_ns, seq) events in emission order.
    """
    released: list[tuple[int, int]] = []
    buffered: dict[int, int] = {}
    deadlines: list[tuple[int, int]] = []
    next_expected = 0
    ready = list(ready)
    i, n = 0, len(ready)
    inf = 1 << 62
    while i < n or deadlines:
        t_ready = ready[i][0] if i < n else inf
        t_dead = deadlines[0][0] if deadlines else inf
        if t_ready <= t_dead:
            t, s = ready[i]
            i += 1
            if s < next_expected or s in buffered:
                # duplicate, or straggler whose gap already timed out
                released.append((t, s))
                continue
            buffered[s] = t
            heapq.heappush(deadlines, (t + timeout_ns, s))
            while next_expected in buffered:
                released.append((t, next_expected))
                del buffered[next_expected]
                next_expected += 1
            if len(buffered) > window:
                # memory bound: give up on the oldest gap
                s_min = min(buffered)
                released.append((t, s_min))
                del buffered[s_min]
                next_expected = s_min + 1
                while next_expected in buffered:
                    released.append((t, next_expected))
                    del buffered[next_expected]
                    next_expected += 1
        else:
            dl, s = heapq.heappop(deadlines)
            if s not in buffered:
                continue  # already released
            for m in sorted(k for k in buffered if k <= s):
                released.append((dl, m))
                del buffered[m]
            next_expected = s + 1
            while next_expected in buffered:
                released.append((dl, next_expected))
                del buffered[next_expected]
                next_expected += 1
    return released
