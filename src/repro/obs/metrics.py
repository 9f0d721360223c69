"""Thread-safe metric primitives and the process-wide registry.

The LogLens paper positions the system as *operational* software
(Sections V–VI: zero-downtime model updates, heartbeat sweeps, an
8-worker deployment), which makes first-class instrumentation part of the
reproduction: every performance claim the benchmarks make should be
readable off the running system, not recomputed ad hoc.

Three primitives cover the system's needs:

* :class:`Counter` — a monotonically increasing count (logs parsed,
  group builds, records produced).
* :class:`Gauge` — a value that goes up and down (consumer lag, active
  heartbeat sources).
* :class:`Histogram` — fixed-bucket latency distribution with
  interpolated quantiles (p50/p95/p99), the shape Prometheus popularised.

All three are safe under free-threaded access: the ingest server thread
updates the same registry as the thread stepping the service, so every
mutation takes the metric's lock — plain ``+=`` on an int can lose updates
across bytecode boundaries.

A :class:`MetricsRegistry` names metrics and attaches labels (bounded
cardinality only: topic, partition, consumer group — never per-record
values).  Instrumented components default to the process-global registry
(:func:`get_registry`) so one snapshot sees the whole pipeline; tests pass
a private registry for isolation.

Hot-path components (``Tokenizer``, ``PatternIndex``, ``FastLogParser``)
resolve their registry handles once at construction.  Each call counts
into a call-local :class:`~repro.parsing.tokenizer.ParseTally` and
publishes it with one ``inc(n)`` / :meth:`Histogram.observe_many` per
family when the call (or the service step) ends, so each fact is counted
once, in the registry that dashboards and tests read.
"""

from __future__ import annotations

import bisect
import functools
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "timed",
    "get_registry",
    "set_registry",
    "DEFAULT_LATENCY_BUCKETS",
]


#: Upper bounds (seconds) of the default latency buckets: 10 µs to 10 s.
#: Everything above the last bound lands in a +Inf overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % (amount,))
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Counter(%d)" % self.value


class Gauge:
    """A thread-safe value that can go up and down (lag, queue depth)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Gauge(%g)" % self.value


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    Buckets are cumulative-style upper bounds plus an implicit +Inf
    overflow bucket.  Quantiles are estimated by linear interpolation
    inside the bucket containing the target rank — exact enough for
    latency reporting while keeping ``observe`` O(log buckets) and
    allocation-free.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(buckets if buckets is not None
                              else DEFAULT_LATENCY_BUCKETS))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Observe a batch of values under one lock acquisition.

        A parse-plane tally publishes its per-record latencies through
        this once per call, batch or service step; taking the lock once
        per batch instead of once per record removes the dominant cost
        of observability on the hot path.
        """
        if not values:
            return
        bounds = self._bounds
        with self._lock:
            counts = self._counts
            lo, hi = self._min, self._max
            total = 0.0
            for value in values:
                counts[bisect.bisect_left(bounds, value)] += 1
                total += value
                if lo is None or value < lo:
                    lo = value
                if hi is None or value > hi:
                    hi = value
            self._count += len(values)
            self._sum += total
            self._min, self._max = lo, hi

    def time(self) -> "_Timer":
        """Context manager observing the elapsed wall time in seconds."""
        return _Timer(self)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) of observed values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]; got %r" % (q,))
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            cumulative = 0
            for idx, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count < target:
                    cumulative += bucket_count
                    continue
                # Interpolate inside this bucket, then clamp into the
                # observed range: a bucket's bounds can lie outside it.
                lower = self._bounds[idx - 1] if idx > 0 else self._min
                if idx < len(self._bounds):
                    upper = self._bounds[idx]
                else:
                    upper = self._max  # +Inf overflow bucket
                lower = min(lower, upper)
                fraction = min(1.0, (target - cumulative) / bucket_count)
                estimate = min(lower + (upper - lower) * fraction, upper)
                return min(max(estimate, self._min), self._max)
            return self._max

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": lo,
            "max": hi,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Histogram(count=%d, p50=%g)" % (self.count,
                                                self.quantile(0.5))


class _Timer:
    """``with histogram.time():`` — observes elapsed seconds on exit."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


_LabelKey = Tuple[Tuple[str, str], ...]
_Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with (bounded-cardinality) labels.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name and labels return the same instance, so call sites
    don't need to cache metric handles (though hot paths may, to skip the
    registry lock).  Registering one name as two different metric types is
    an error — it would make snapshots ambiguous.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, _LabelKey], _Metric] = {}
        self._types: Dict[str, type] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(), labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(), labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(buckets=buckets), labels
        )

    def _get_or_create(
        self,
        name: str,
        metric_type: type,
        factory: Callable[[], _Metric],
        labels: Dict[str, str],
    ) -> Any:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            registered = self._types.get(name)
            if registered is not None and registered is not metric_type:
                raise ValueError(
                    "metric %r already registered as %s, not %s"
                    % (name, registered.__name__, metric_type.__name__)
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._types[name] = metric_type
            return metric

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._types)

    def get(self, name: str, **labels: str) -> Optional[_Metric]:
        """Fetch an existing metric without creating it."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            return self._metrics.get(key)

    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        """JSON-safe snapshot: ``{name: [{"labels": {...}, ...}, ...]}``.

        This is the export surface benches and the dashboard consume; the
        per-metric dicts come from each primitive's ``to_dict``.
        """
        with self._lock:
            items = list(self._metrics.items())
        out: Dict[str, List[Dict[str, Any]]] = {}
        for (name, label_key), metric in items:
            entry = {"labels": dict(label_key)}
            entry.update(metric.to_dict())
            out.setdefault(name, []).append(entry)
        for series in out.values():
            series.sort(key=lambda e: sorted(e["labels"].items()))
        return out

    # Alias used by service/dashboard code for symmetry with the other
    # snapshot-style exports in the repo.
    snapshot = to_dict

    def reset(self) -> None:
        """Reset every registered metric (keeps registrations)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


class _NullCounter(Counter):
    """A counter that records nothing (still validates its input)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % (amount,))


class _NullGauge(Gauge):
    """A gauge that records nothing."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that records nothing; ``time()`` is a no-op context."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass

    def time(self) -> "_NullTimer":  # type: ignore[override]
        return _NULL_TIMER


class _NullTimer:
    """No-clock stand-in for ``Histogram.time()``."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_TIMER = _NullTimer()


class NullRegistry(MetricsRegistry):
    """A registry whose metrics are shared no-ops.

    The control arm of observability-overhead experiments (the
    ``service_metrics_off`` bench case): instrumented components keep
    their exact call pattern — every ``inc``/``observe``/``time`` still
    happens — but nothing is recorded, no locks are taken, and
    :meth:`to_dict` is empty.  Instance identity is intentionally shared
    across names: callers must not rely on ``get``-style retrieval from
    a null registry.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_histogram = _NullHistogram()

    def counter(self, name: str, **labels: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        return self._null_histogram

    def names(self) -> List[str]:
        return []

    def get(self, name: str, **labels: str) -> Optional[_Metric]:
        return None

    def to_dict(self) -> Dict[str, List[Dict[str, Any]]]:
        return {}

    snapshot = to_dict

    def reset(self) -> None:
        pass


def timed(
    histogram: Union[Histogram, Callable[[], Histogram]],
) -> Callable[[Callable], Callable]:
    """Decorator observing a function's wall time into ``histogram``.

    ``histogram`` may be a :class:`Histogram` or a zero-argument callable
    resolving to one at call time (late binding to the global registry)::

        @timed(lambda: get_registry().histogram("builder.build_seconds"))
        def build(...):
            ...
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            target = histogram() if callable(histogram) and not isinstance(
                histogram, Histogram
            ) else histogram
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                target.observe(time.perf_counter() - started)
        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Process-global default registry.  Components take ``metrics=None`` and
# fall back to this, so one snapshot covers the whole pipeline.
# ----------------------------------------------------------------------
_global_registry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests, embedders); returns the old one."""
    global _global_registry
    with _global_lock:
        old, _global_registry = _global_registry, registry
    return old
