"""Process-wide mapper metrics: counters, gauges, and histograms.

The registry is a plain in-process aggregation point the instrumented
passes write into::

    from repro.obs import metrics

    metrics.count("chortle.minmap_entries", entries)
    metrics.gauge("sweep.nodes_out", len(net))
    metrics.observe("chortle.tree_size", tree.num_nodes)

Counters are monotonically increasing integers; gauges hold the last
value written; histograms keep O(1) running aggregates (count / sum /
min / max), not the raw samples.  Everything is cheap enough to leave
enabled unconditionally — the hot DP accumulates locally and writes one
counter update per node table, so the cost is a few dict operations per
mapped node.

``snapshot()`` returns a plain-dict view suitable for JSON export, and
``counter_delta(before)`` diffs two snapshots so a harness can attribute
counts to a single run without resetting global state under other
callers.  The catalogue of names used by this repository is documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class HistogramStat:
    """Running aggregate of observed values (no raw sample storage)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
        }


class MetricsRegistry:
    """Counter/gauge/histogram registry; one process-wide instance below."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStat] = {}
        # A library caller may map from its own threads; the
        # read-modify-write updates need the lock to avoid lost counts.
        self._lock = threading.Lock()

    # -- writers -----------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        with self._lock:
            stat = self._histograms.get(name)
            if stat is None:
                stat = self._histograms[name] = HistogramStat()
            stat.observe(value)

    # -- readers -----------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[HistogramStat]:
        return self._histograms.get(name)

    def counters(self) -> Dict[str, int]:
        return dict(self._counters)

    def snapshot(self) -> dict:
        """Plain-dict view of the whole registry (JSON-serializable)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: stat.to_dict() for name, stat in self._histograms.items()
            },
        }

    def counter_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since ``before`` (a ``counters()`` result).

        Only nonzero deltas are reported, so the result attributes work
        to the region between the two observations.
        """
        delta: Dict[str, int] = {}
        for name, value in self._counters.items():
            diff = value - before.get(name, 0)
            if diff:
                delta[name] = diff
        return delta

    def reset(self) -> None:
        """Clear all counters, gauges, and histograms."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry used by the instrumented passes."""
    return metrics
