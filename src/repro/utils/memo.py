"""A bounded, thread-safe least-recently-used memo.

The per-process memos of the compile and runtime layers (compiled programs,
lowered plan structures, parsed Hamiltonians) share this bookkeeping: a hit
moves its key to the back, an insert past the cap evicts from the front, so
a long-lived worker cannot hoard build products and two workloads
interleaved across a wide sweep keep their hot entries instead of
FIFO-thrashing each other out.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable


class LRUMemo:
    """A map of at most ``cap`` entries, evicting the least recently used.

    The bookkeeping runs under a lock, since threads sharing a process (the
    service daemon's local workers) would otherwise race an eviction against
    a hit; callers compute a missing value outside it.
    """

    def __init__(self, cap: int):
        self.cap = int(cap)
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value stored under ``key`` (now the most recent), or ``default``."""
        with self._lock:
            try:
                value = self._entries.pop(key)
            except KeyError:
                return default
            self._entries[key] = value
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting past the cap."""
        with self._lock:
            self._entries.pop(key, None)
            while self._entries and len(self._entries) >= self.cap:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
