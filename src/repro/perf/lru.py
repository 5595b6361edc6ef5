"""A small thread-safe LRU cache with metrics-registry instrumentation.

This is the storage primitive under the structural memo cache
(:mod:`repro.perf.memo`): a bounded mapping with least-recently-used
eviction whose hit/miss/eviction counts are written straight into the
process-wide metrics registry (:mod:`repro.obs.metrics`), so cache
behaviour shows up in ``chortle profile`` and in benchmark exports
without any extra plumbing.

The lock makes ``get``/``put`` safe when a library caller maps from its
own threads; the critical sections are a couple of dict operations, so
contention is negligible next to the DP work the cache is saving.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.obs import metrics


class LruCache:
    """Bounded LRU mapping; counts hits/misses/evictions under ``name``.

    ``name`` is the metrics prefix: a cache named ``perf.cache`` emits
    ``perf.cache.hits``, ``perf.cache.misses``, and
    ``perf.cache.evictions`` counters.  ``maxsize=None`` disables
    eviction (unbounded).
    """

    def __init__(self, maxsize: Optional[int] = 65536, name: str = "perf.cache"):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be positive or None, got %r" % maxsize)
        self.maxsize = maxsize
        self.name = name
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (refreshing recency), or ``default``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                metrics.count(self.name + ".misses")
                return default
            self._data.move_to_end(key)
            self._hits += 1
            metrics.count(self.name + ".hits")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``; evicts the LRU entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if self.maxsize is not None:
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1
                    metrics.count(self.name + ".evictions")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    # -- introspection -------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of the cache's effectiveness."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def items_snapshot(self):
        """A point-in-time copy of the cache contents (for persistence)."""
        with self._lock:
            return list(self._data.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LruCache %s size=%d hits=%d misses=%d>" % (
            self.name,
            len(self._data),
            self._hits,
            self._misses,
        )
