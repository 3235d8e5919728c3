"""The TraceSink protocol: structured decision events from any engine.

Both traversal engines — the seed object-graph walk
(:class:`~repro.core.rstknn.RSTkNNSearcher`) and the columnar
:class:`~repro.core.traversal.SnapshotEngine` — emit the same stream of
group-level decision events into whatever *sink* the caller attaches:

    sink.record(action, ref, is_object, count, q_lo, q_hi,
                knn_lower, knn_upper)

with ``action`` one of ``"prune" | "accept" | "expand" | "verify-in" |
"verify-out"``, ``ref`` the entry/object id the decision touched,
``q_lo``/``q_hi`` the query-similarity bounds and
``knn_lower``/``knn_upper`` the entry's group kNN band at decision time.
The engines are parity-by-construction, so the *decision multiset* a
query produces is identical across all three (asserted by
``tests/test_obs.py``); only heap tie-break ordering may differ within
equal-priority runs.

:class:`~repro.core.explain.SearchTrace` is the reference sink — it
stores every event for rendering.  This module adds cheaper and
composable sinks: :class:`CountingSink` (per-action tallies only),
:class:`MetricsSink` (bridges events into a
:class:`~repro.obs.metrics.MetricsRegistry` as counters plus bound-gap
histograms), and :class:`TeeSink` (fan-out to several sinks).
"""

from __future__ import annotations

from typing import Dict, Protocol, Sequence

from .metrics import BOUND_GAP_BUCKETS, MetricsRegistry


class TraceSink(Protocol):
    """Anything that can receive structured search decision events."""

    def record(
        self,
        action: str,
        ref: int,
        is_object: bool,
        count: int,
        q_lo: float,
        q_hi: float,
        knn_lower: float,
        knn_upper: float,
    ) -> None:
        """Receive one decision event (see module docstring for fields)."""
        ...


class CountingSink:
    """A sink that keeps only per-action event tallies.

    The cheapest useful sink: one dict increment per decision, no event
    objects.  Use it when only ``trace.counts()``-style numbers matter
    (e.g. sampling decision mix in production).
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def record(
        self,
        action: str,
        ref: int,
        is_object: bool,
        count: int,
        q_lo: float,
        q_hi: float,
        knn_lower: float,
        knn_upper: float,
    ) -> None:
        """Tally the event's action."""
        self.counts[action] = self.counts.get(action, 0) + 1


class MetricsSink:
    """A sink that feeds decision events into a metrics registry.

    Per event it increments ``trace.events.<action>`` and observes two
    fixed-bucket histograms (:data:`~repro.obs.metrics.BOUND_GAP_BUCKETS`):

    * ``trace.knn_gap`` — ``knn_upper - knn_lower``, the width of the
      entry's group kNN band.  Wide bands mean the contribution bounds
      could not separate the decision and expansion/verification work
      follows.
    * ``trace.query_gap`` — ``q_hi - q_lo``, the width of the
      query-similarity bounds (0 for object entries, whose similarity
      is exact).
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = metrics

    def record(
        self,
        action: str,
        ref: int,
        is_object: bool,
        count: int,
        q_lo: float,
        q_hi: float,
        knn_lower: float,
        knn_upper: float,
    ) -> None:
        """Count the action and observe both bound-gap histograms."""
        metrics = self.metrics
        metrics.counter(f"trace.events.{action}").inc()
        metrics.histogram("trace.knn_gap", BOUND_GAP_BUCKETS).observe(
            max(knn_upper - knn_lower, 0.0)
        )
        metrics.histogram("trace.query_gap", BOUND_GAP_BUCKETS).observe(
            max(q_hi - q_lo, 0.0)
        )


class TeeSink:
    """A sink that forwards every event to several child sinks.

    Compose a full :class:`~repro.core.explain.SearchTrace` with a
    :class:`MetricsSink` to get a rendered decision log *and* registry
    metrics from one search.
    """

    __slots__ = ("sinks",)

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        self.sinks = tuple(sinks)

    def record(
        self,
        action: str,
        ref: int,
        is_object: bool,
        count: int,
        q_lo: float,
        q_hi: float,
        knn_lower: float,
        knn_upper: float,
    ) -> None:
        """Forward the event to every child sink, in order."""
        for sink in self.sinks:
            sink.record(
                action, ref, is_object, count, q_lo, q_hi, knn_lower, knn_upper
            )
