"""Engine-wide observability: metrics, trace sinks, and phase timers.

``repro.obs`` is the shared low-overhead introspection layer of the
traversal engines (seed walk, snapshot engine, approx filter).  Three
pieces, each independent:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket histograms with JSON-snapshot and
  Prometheus-text exporters, plus the zero-cost disabled form
  (:data:`NULL_REGISTRY`, whose instruments are shared no-op
  singletons — no per-call allocation when metrics are off);
* :mod:`repro.obs.trace` — the :class:`TraceSink` protocol every engine
  emits structured decision events through
  (:class:`~repro.core.explain.SearchTrace` is the reference sink),
  with counting / metrics-bridging / tee sinks;
* :mod:`repro.obs.timers` — :class:`PhaseTimer`, accumulating named
  wall-clock phases (build/freeze/group/walk/verify) for benchmark
  reports and registry gauges.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and the sink
contract, and ``docs/ARCHITECTURE.md`` for where the hooks attach.
"""

from .metrics import (
    BOUND_GAP_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    LATENCY_PERCENTILE_POINTS,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    latency_percentiles,
    record_approx,
    record_search,
    record_sketch_build,
    registry_or_null,
)
from .timers import PhaseTimer
from .trace import CountingSink, MetricsSink, TeeSink, TraceSink

__all__ = [
    "BOUND_GAP_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "LATENCY_PERCENTILE_POINTS",
    "NOOP_COUNTER",
    "NOOP_GAUGE",
    "NOOP_HISTOGRAM",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "latency_percentiles",
    "record_approx",
    "record_search",
    "record_sketch_build",
    "registry_or_null",
    "PhaseTimer",
    "CountingSink",
    "MetricsSink",
    "TeeSink",
    "TraceSink",
]
