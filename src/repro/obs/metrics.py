"""Counters, gauges, and fixed-bucket histograms with no-op defaults.

A :class:`MetricsRegistry` hands out named instruments — monotonically
increasing :class:`Counter`\\ s, last-value :class:`Gauge`\\ s, and
fixed-bucket :class:`Histogram`\\ s — and exports their state as either a
JSON-friendly snapshot (:meth:`MetricsRegistry.snapshot`) or
Prometheus-style exposition text (:meth:`MetricsRegistry.to_prometheus`).
The same registry object is shared by every engine of one process: the
seed walk, the snapshot engine, the fused group engine, the batch
engine, and the CLI all record through the identical instrument API (see
``docs/OBSERVABILITY.md`` for the metric name catalogue).

Observability must cost nothing when it is off, so the disabled form is
not "a registry full of real instruments nobody reads" but
:data:`NULL_REGISTRY` — a :class:`NullRegistry` whose ``counter()`` /
``gauge()`` / ``histogram()`` return one process-wide shared no-op
instrument regardless of name.  No dict insertion, no per-call
allocation, no state: the hot path pays one attribute call that does
nothing.  Engine code therefore never branches on "is metrics enabled";
it records unconditionally through whatever registry it was handed.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Latency histogram bucket upper bounds, in seconds.  Spans the
#: measured per-query range of the engines (tens of microseconds for a
#: warm snapshot walk at small |D| up to minutes for exact alpha=0.5
#: walks at n=10^5, whose p95 reaches ~70 s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    300.0,
)

#: Bound-gap histogram bucket upper bounds.  SimST is normalized into
#: ``[0, 1]``, so every gap between a lower and an upper bound lies in
#: ``[0, 1]`` too; the buckets are densest near 0 where tight bounds
#: (the healthy regime) land.
BOUND_GAP_BUCKETS: Tuple[float, ...] = (
    0.01,
    0.02,
    0.05,
    0.1,
    0.15,
    0.2,
    0.3,
    0.5,
    0.75,
    1.0,
)


#: Percentile points every latency summary reports.
LATENCY_PERCENTILE_POINTS: Tuple[int, ...] = (50, 95, 99)


def latency_percentiles(
    samples: Sequence[float],
    points: Sequence[int] = LATENCY_PERCENTILE_POINTS,
) -> Dict[str, float]:
    """Nearest-rank percentiles of raw samples: ``{"p50": .., ...}``.

    Nearest-rank (not interpolated) so every reported value is an
    actually observed latency — tail figures stay honest at small
    sample counts, where interpolation would invent values between the
    worst and second-worst observation.

    Edge contract (relied on by the bench reports and the service's
    stats endpoint, and pinned by ``tests/test_obs.py``):

    - **empty input** yields ``{}`` — no keys, never a zero-filled dict
      that could be mistaken for "measured and fast";
    - **a single sample** yields that sample for *every* requested
      point (``p50 == p95 == p99``), because nearest-rank with ``n=1``
      has only one observation to report;
    - every percentile point must lie in ``1..100`` — out-of-range
      points raise :class:`~repro.errors.ConfigError` at call time
      rather than silently clamping.
    """
    for p in points:
        if not 1 <= p <= 100:
            raise ConfigError(
                f"percentile points must be in 1..100, got {p!r}"
            )
    if not samples:
        return {}
    ordered = sorted(samples)
    n = len(ordered)
    out: Dict[str, float] = {}
    for p in points:
        rank = max(1, -(-p * n // 100))  # ceil(p/100 * n) in integers
        out[f"p{p}"] = ordered[min(rank, n) - 1]
    return out


class Counter:
    """A monotonically increasing count (events, objects, decisions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-value-wins measurement (occupancy, capacity, seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value, replacing the previous one."""
        self.value = value

    def add(self, value: float) -> None:
        """Accumulate into the gauge (phase timers sum durations)."""
        self.value += value


class Histogram:
    """Fixed-bucket value distribution (latencies, bound gaps).

    Buckets are defined by a sorted tuple of upper bounds; one implicit
    overflow bucket catches everything beyond the last bound.  Buckets
    are cumulative in the Prometheus export and plain per-bucket counts
    in the JSON snapshot.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigError("Histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ConfigError(f"Histogram buckets must be sorted, got {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one value into its bucket."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def mean(self) -> float:
        """Mean of the observed values (0.0 before any observation)."""
        return self.sum / self.count if self.count else 0.0


class NoopCounter(Counter):
    """A counter that discards every increment (shared, stateless)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class NoopGauge(Gauge):
    """A gauge that discards every value (shared, stateless)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Discard the value."""

    def add(self, value: float) -> None:
        """Discard the value."""


class NoopHistogram(Histogram):
    """A histogram that discards every observation (shared, stateless)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Discard the observation."""


#: The process-wide shared no-op instruments.  ``NullRegistry`` returns
#: these very objects for *every* name, so disabled-metrics call sites
#: allocate nothing — the identity is asserted by ``tests/test_obs.py``.
NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_HISTOGRAM = NoopHistogram()


def _sanitize(name: str) -> str:
    """Dotted metric name -> Prometheus-legal snake_case name."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


class MetricsRegistry:
    """Named instrument registry shared across the engines of a process.

    Instruments are created on first request and memoized by name;
    requesting an existing name with a different kind raises
    :class:`~repro.errors.ConfigError` (one name, one meaning).  Names
    are dotted (``search.queries.snapshot``); the Prometheus exporter
    rewrites dots to underscores and prefixes ``repro_``.
    """

    #: Whether instruments returned by this registry record anything.
    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        kinds = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in kinds.items():
            if other_kind != kind and name in table:
                raise ConfigError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_unique(name, "counter")
            instrument = Counter()
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_unique(name, "gauge")
            instrument = Gauge()
            self._gauges[name] = instrument
        return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The histogram under ``name`` (``buckets`` only bind on creation)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_unique(name, "histogram")
            instrument = Histogram(
                buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
            )
            self._histograms[name] = instrument
        return instrument

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly dump of every instrument's current state.

        The shape round-trips through ``json.dumps``/``json.loads``
        unchanged: counters map to ints, gauges to floats, histograms to
        ``{"buckets": [...], "counts": [...], "sum": s, "count": n}``
        where ``counts`` has one trailing overflow cell.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition of every instrument.

        Counters export as ``<prefix>_<name>_total``, gauges as
        ``<prefix>_<name>``, histograms as the conventional cumulative
        ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.
        """
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = f"{prefix}_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_fmt(gauge.value)}")
        for name, hist in sorted(self._histograms.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, count in zip(hist.buckets, hist.counts):
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {_fmt(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + ("\n" if lines else "")


class NullRegistry(MetricsRegistry):
    """The zero-cost disabled registry: every request returns the shared
    no-op instrument, nothing is ever stored, exports are empty.

    Use the module-level :data:`NULL_REGISTRY` singleton rather than
    constructing new instances; identity against its instruments is the
    documented "metrics are off" contract.
    """

    enabled = False

    __slots__ = ()

    def counter(self, name: str) -> Counter:
        """The shared :data:`NOOP_COUNTER`, regardless of ``name``."""
        return NOOP_COUNTER

    def gauge(self, name: str) -> Gauge:
        """The shared :data:`NOOP_GAUGE`, regardless of ``name``."""
        return NOOP_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The shared :data:`NOOP_HISTOGRAM`, regardless of ``name``."""
        return NOOP_HISTOGRAM


#: The process-wide disabled registry (see :class:`NullRegistry`).
NULL_REGISTRY = NullRegistry()


def registry_or_null(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Normalize an optional registry argument: ``None`` -> no-op."""
    return metrics if metrics is not None else NULL_REGISTRY


def record_search(
    metrics: Optional[MetricsRegistry], engine: str, stats
) -> None:
    """Record one finished search's counters into a registry.

    ``stats`` is the :class:`~repro.core.rstknn.SearchStats` any of the
    engines return; ``engine`` labels the per-engine query counter and
    latency histogram (``seed`` / ``snapshot`` / ``fused`` /
    ``approx``).  A ``None`` or null registry makes this a no-op.
    """
    if metrics is None or not metrics.enabled:
        return
    metrics.counter(f"search.queries.{engine}").inc()
    metrics.histogram(
        f"search.latency_seconds.{engine}", DEFAULT_LATENCY_BUCKETS
    ).observe(stats.elapsed_seconds)
    counter = metrics.counter
    counter("search.decisions.prune").inc(stats.pruned_entries)
    counter("search.decisions.accept").inc(stats.accepted_entries)
    counter("search.decisions.expand").inc(stats.expansions)
    counter("search.decisions.verify").inc(stats.verified_objects)
    counter("search.objects.group_decided").inc(stats.group_decided_objects())
    counter("search.objects.results").inc(stats.result_count)
    counter("search.verify_node_reads").inc(stats.verify_node_reads)


def record_approx(
    metrics: Optional[MetricsRegistry], last_filter: Dict[str, float]
) -> None:
    """Record one approx-engine filter pass into a registry.

    ``last_filter`` is :attr:`repro.approx.ApproxEngine.last_filter` —
    the per-query filter counters (survivors, objects and nodes
    floor-pruned, spatial shortcuts, and ``exact_fallbacks`` for a
    ``k > kmax`` query answered by the snapshot walk).  Each key lands
    under ``approx.<key>`` as a counter; a ``None`` or null registry
    makes this a no-op (see ``docs/OBSERVABILITY.md``).
    """
    if metrics is None or not metrics.enabled or not last_filter:
        return
    counter = metrics.counter
    for key, value in last_filter.items():
        counter(f"approx.{key}").inc(int(value))


def record_sketch_build(metrics: Optional[MetricsRegistry], sketch) -> None:
    """Publish one freshly built kNNL sketch's cost into a registry.

    Sets the ``approx.sketch.build_seconds`` and ``approx.sketch.bytes``
    gauges from a :class:`~repro.approx.sketch.KnnlSketch`.  Callers
    pass only sketches they built — one attached from a shared-memory
    segment carries the exporting process's build time.  A ``None`` or
    null registry makes this a no-op.
    """
    if metrics is None or not metrics.enabled:
        return
    metrics.gauge("approx.sketch.build_seconds").set(sketch.build_seconds)
    metrics.gauge("approx.sketch.bytes").set(sketch.nbytes())


def _fmt(value: float) -> str:
    """Compact float formatting (integers lose the trailing ``.0``)."""
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)
