"""A small bounded LRU mapping with eviction accounting.

Both cross-request caches (the compiled-kernel cache in
``repro.engine.backend`` and the session cache in ``repro.engine.session``)
share this shape: get-or-miss with recency promotion, a hard capacity cap,
and eviction counting.  Centralising it keeps the two caches' semantics
identical and lets the server expose one ``--kernel-cache`` /
``--session-cache`` capacity story.  A cache built with a ``name`` keeps its
own ``repro_cache_size{cache=name}`` gauge and
``repro_cache_evictions_total{cache=name}`` counter, registered here once,
so no owner sets a size or counts an eviction by hand.

Not thread-safe by itself: callers that touch a cache from worker threads
(the server's executor does) rely on the GIL making each individual
method call atomic enough for a cache — a lost race costs a recompute or
a missed recency promotion, never corruption or an exception.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Optional, TypeVar

from repro.obs import REGISTRY

K = TypeVar("K")
V = TypeVar("V")

_CACHE_EVICTIONS = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Entries evicted from a cross-request cache by capacity pressure.",
    labels=("cache",),
)
_CACHE_SIZE = REGISTRY.gauge(
    "repro_cache_size",
    "Current entry count of a cross-request cache.",
    labels=("cache",),
)


class LruCache(Generic[K, V]):
    """Bounded least-recently-used mapping.

    ``on_evict(key, value)``, when given, fires once per entry evicted by
    capacity pressure (``put`` beyond capacity or ``set_capacity`` shrink) —
    not for ``clear()``, which is an explicit owner action, not pressure.
    ``evictions`` counts the same entries; with a ``name``, the cache also
    publishes them, and its size after every change, under ``cache=name``.
    """

    def __init__(self, capacity: int, on_evict: Optional[Callable[[K, V], None]] = None,
                 name: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._capacity = int(capacity)
        self._on_evict = on_evict
        self._name = name
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
        value = self._data.pop(key, None)
        self._publish_size()
        return value

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
        self._publish_size()

    def _shrink_to(self, capacity: int) -> None:
        while len(self._data) > capacity:
            key, value = self._data.popitem(last=False)
            self.evictions += 1
            if self._name is not None:
                _CACHE_EVICTIONS.labels(cache=self._name).inc()
            if self._on_evict is not None:
                self._on_evict(key, value)
        self._publish_size()

    def _publish_size(self) -> None:
        if self._name is not None:
            _CACHE_SIZE.labels(cache=self._name).set(len(self._data))
