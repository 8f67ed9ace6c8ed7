"""Unit tests for ``repro.utils.lru.LruCache``.

The two cross-request caches (compiled kernels, program sessions) share this
class, so its contract is load-bearing: recency promotion, the eviction
callback firing exactly once per capacity-pressure eviction, and the
explicit owner actions (``pop``/``clear``) staying silent.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.utils.lru import LruCache


def test_pop_removes_and_returns():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.pop("a") == 1
    assert "a" not in cache
    assert len(cache) == 1
    assert cache.get("a") is None


def test_pop_missing_returns_none():
    cache = LruCache(capacity=2)
    assert cache.pop("ghost") is None


def test_pop_never_fires_eviction_callback():
    evicted = []
    cache = LruCache(capacity=2, on_evict=lambda k, v: evicted.append((k, v)))
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.pop("a") == 1
    assert cache.pop("b") == 2
    assert evicted == []
    assert cache.evictions == 0


def test_pop_frees_capacity_without_counting_eviction():
    evicted = []
    cache = LruCache(capacity=2, on_evict=lambda k, v: evicted.append(k))
    cache.put("a", 1)
    cache.put("b", 2)
    cache.pop("a")
    cache.put("c", 3)  # fits in the slot pop freed — no pressure
    assert evicted == []
    assert sorted(cache.values()) == [2, 3]


def test_values_orders_oldest_recency_first():
    cache = LruCache(capacity=4)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert cache.values() == [1, 2, 3]
    # get() promotes: "a" becomes the most recent.
    assert cache.get("a") == 1
    assert cache.values() == [2, 3, 1]
    # put() of an existing key also promotes (and refreshes the value).
    cache.put("b", 20)
    assert cache.values() == [3, 1, 20]


def test_eviction_callback_fires_once_per_capacity_eviction():
    evicted = []
    cache = LruCache(capacity=2, on_evict=lambda k, v: evicted.append((k, v)))
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)  # evicts "a", the oldest
    assert evicted == [("a", 1)]
    assert cache.evictions == 1
    assert cache.get("a") is None
    assert cache.get("b") == 2


def test_eviction_respects_recency_promotion():
    evicted = []
    cache = LruCache(capacity=2, on_evict=lambda k, v: evicted.append(k))
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # promote "a"; "b" is now the eviction candidate
    cache.put("c", 3)
    assert evicted == ["b"]
    assert cache.get("a") == 1


def test_set_capacity_shrink_evicts_oldest_with_callback():
    evicted = []
    cache = LruCache(capacity=4, on_evict=lambda k, v: evicted.append(k))
    for key in ("a", "b", "c", "d"):
        cache.put(key, key.upper())
    cache.set_capacity(2)
    assert evicted == ["a", "b"]
    assert cache.evictions == 2
    assert cache.values() == ["C", "D"]
    assert cache.capacity == 2


def test_clear_never_fires_eviction_callback():
    evicted = []
    cache = LruCache(capacity=2, on_evict=lambda k, v: evicted.append(k))
    cache.put("a", 1)
    cache.put("b", 2)
    cache.clear()
    assert evicted == []
    assert cache.evictions == 0
    assert len(cache) == 0


@pytest.mark.parametrize("capacity", [0, -1])
def test_invalid_capacity_rejected(capacity):
    with pytest.raises(ValueError):
        LruCache(capacity=capacity)
    cache = LruCache(capacity=1)
    with pytest.raises(ValueError):
        cache.set_capacity(capacity)


def test_get_survives_an_eviction_between_lookup_and_promotion():
    """A ``put`` on another thread can evict the key after ``get`` found it
    but before it promotes it; ``get`` must still return what it found."""
    cache = LruCache(capacity=1)
    cache.put("a", 1)

    class _EvictAfterLookup(OrderedDict):
        def get(self, key, default=None):
            value = super().get(key, default)
            cache.put("b", 2)  # the racing put: capacity 1 evicts "a"
            return value

    cache._data = _EvictAfterLookup(cache._data)
    assert cache.get("a") == 1
    assert "a" not in cache
    assert cache.values() == [2]
    assert cache.evictions == 1


def test_named_cache_publishes_its_size_and_evictions():
    """A named cache keeps ``repro_cache_size{cache}`` and
    ``repro_cache_evictions_total{cache}`` itself, through every change;
    an unnamed one publishes nothing."""
    from repro.obs import REGISTRY

    mark = REGISTRY.mark()
    LruCache(capacity=1).put("x", 1)
    assert REGISTRY.delta(mark) == {}
    cache = LruCache(capacity=2, name="lru-test")
    size = 'repro_cache_size{cache="lru-test"}'
    evictions = 'repro_cache_evictions_total{cache="lru-test"}'
    for key in "abc":
        cache.put(key, key)
    assert REGISTRY.delta(mark) == {size: 2.0, evictions: 1.0}
    cache.pop("c")
    assert REGISTRY.delta(mark)[size] == 1.0
    cache.set_capacity(3)
    cache.put("d", "d")
    assert REGISTRY.delta(mark)[size] == 2.0
    cache.clear()
    assert REGISTRY.delta(mark) == {evictions: 1.0}
