"""A small bounded LRU mapping with eviction accounting.

Both cross-request caches (the compiled-kernel cache in
``repro.engine.backend`` and the session cache in ``repro.engine.session``)
share this shape: get-or-miss with recency promotion, a hard capacity cap,
and an eviction callback so the owner can count what fell out.  Centralising
it keeps the two caches' semantics identical and lets the server expose one
``--kernel-cache`` / ``--session-cache`` capacity story.

Not thread-safe by itself: callers that touch a cache from worker threads
(the server's executor does) rely on the GIL making each individual
method call atomic enough for a cache — a lost race costs a recompute or
a missed recency promotion, never corruption or an exception.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """Bounded least-recently-used mapping.

    ``on_evict(key, value)``, when given, fires once per entry evicted by
    capacity pressure (``put`` beyond capacity or ``set_capacity`` shrink) —
    not for ``clear()``, which is an explicit owner action, not pressure.
    """

    def __init__(self, capacity: int, on_evict: Optional[Callable[[K, V], None]] = None):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._capacity = int(capacity)
        self._on_evict = on_evict
        self.evictions = 0

    @property
    def capacity(self) -> int:
        """The current maximum number of entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (promoting it to most-recent) or ``None``.

        A ``put`` on another thread may evict the key between the lookup and
        the promotion; the value found is still returned, just not promoted.
        """
        value = self._data.get(key)
        if value is not None:
            try:
                self._data.move_to_end(key)
            except KeyError:
                pass
        return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the oldest beyond capacity."""
        self._data[key] = value
        self._data.move_to_end(key)
        self._shrink_to(self._capacity)

    def pop(self, key: K) -> Optional[V]:
        """Remove and return an entry (``None`` if absent).

        A deliberate owner action — like :meth:`clear`, it never fires the
        eviction callback.
        """
        return self._data.pop(key, None)

    def values(self) -> "list[V]":
        """Snapshot of the cached values, oldest-recency first."""
        return list(self._data.values())

    def set_capacity(self, capacity: int) -> None:
        """Change the cap, evicting oldest entries if the cache must shrink."""
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._shrink_to(self._capacity)

    def clear(self) -> None:
        """Drop every entry without firing the eviction callback."""
        self._data.clear()

    def _shrink_to(self, capacity: int) -> None:
        while len(self._data) > capacity:
            key, value = self._data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(key, value)
