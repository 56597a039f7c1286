"""Counters, gauges and timing histograms for the evaluation pipeline.

A :class:`MetricsRegistry` is a process-local, thread-safe bag of named
metrics:

* **counters** — monotonically increasing totals (``inc``);
* **gauges** — last-written values (``set_gauge``);
* **timings** — aggregated duration distributions (``observe`` /
  ``time``): count, total, min, max and a fixed log-scale bucket histogram.

Registries snapshot to plain dicts (``as_dict``) and **merge**
(:meth:`MetricsRegistry.merge`): counters and timing histograms add, gauges
are overwritten by the merged-in side.  Merging is how per-run registries
roll up into a benchmark suite total.

The :class:`~repro.engine.engine.EvaluationEngine` mirrors its
:class:`~repro.engine.engine.EngineStats` effort counters (evaluations,
cache hits, pair distances materialised, …) into its registry under the
``engine.*`` namespace — see ``EvaluationEngine.sync_metrics``.
"""

from __future__ import annotations

import threading
import time

__all__ = ["MetricsRegistry", "TimingStats"]

#: Upper bounds (seconds) of the timing histogram buckets; the last bucket
#: is implicit (+inf).  Fixed so snapshots from different processes merge.
BUCKET_BOUNDS: tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class TimingStats:
    """Aggregated duration distribution for one timing metric."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        #: Per-bucket observation counts; index i counts observations with
        #: duration <= BUCKET_BOUNDS[i], the final slot counts the rest.
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        for i, bound in enumerate(BUCKET_BOUNDS):
            if seconds <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "TimingStats | dict") -> None:
        if isinstance(other, dict):
            snapshot = other
            self.count += int(snapshot["count"])
            self.total += float(snapshot["total_seconds"])
            self.min = min(self.min, float(snapshot["min_seconds"]))
            self.max = max(self.max, float(snapshot["max_seconds"]))
            for i, n in enumerate(snapshot.get("buckets", ())):
                self.buckets[i] += int(n)
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "mean_seconds": self.mean,
            "bucket_bounds_seconds": list(BUCKET_BOUNDS),
            "buckets": list(self.buckets),
        }

    def __repr__(self) -> str:
        return f"TimingStats(count={self.count}, total={self.total:.6f}s)"


class _Timer:
    """Context manager recording one observation into a timing metric."""

    __slots__ = ("_registry", "_name", "_start", "seconds")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._start
        self._registry.observe(self._name, self.seconds)
        return False


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and timing histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timings: dict[str, TimingStats] = {}

    # -------------------------------------------------------------- recording

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration observation into timing ``name``."""
        with self._lock:
            stats = self._timings.get(name)
            if stats is None:
                stats = self._timings[name] = TimingStats()
            stats.observe(seconds)

    def time(self, name: str) -> _Timer:
        """Context manager timing its body into timing ``name``."""
        return _Timer(self, name)

    # -------------------------------------------------------------- querying

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> "float | None":
        return self._gauges.get(name)

    def timing(self, name: str) -> "TimingStats | None":
        return self._timings.get(name)

    def as_dict(self) -> dict:
        """Plain-dict snapshot: ``{counters, gauges, timings}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timings": {
                    name: stats.as_dict() for name, stats in self._timings.items()
                },
            }

    # --------------------------------------------------------------- merging

    def merge(self, other: "MetricsRegistry | dict") -> "MetricsRegistry":
        """Fold another registry (or an ``as_dict`` snapshot) into this one.

        Counters and timing histograms accumulate; gauges take the merged-in
        value.  This is the operation used to roll per-run registries up
        into a benchmark-suite total.  Returns ``self``.
        """
        snapshot = other.as_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        with self._lock:
            for name, timing in snapshot.get("timings", {}).items():
                stats = self._timings.get(name)
                if stats is None:
                    stats = self._timings[name] = TimingStats()
                stats.merge(timing)
        return self

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timings={len(self._timings)})"
        )
