"""The observability layer: metrics, trace sinks, timers, exporters.

Three contracts pinned here:

1. **Cross-engine trace parity** — the seed walk and the snapshot
   engine emit the *same multiset* of decision events for one query
   (same actions, refs, counts, and bounds).
2. **Zero-cost off-switch** — the null registry returns the shared
   no-op instruments for every name, stores nothing, exports nothing.
3. **Exporter fidelity** — the JSON snapshot round-trips and the
   Prometheus text matches the instruments' state.
"""

import json
import subprocess
import sys
from collections import Counter as TallyCounter
from dataclasses import astuple
from pathlib import Path

import pytest

from repro import IURTree, RSTkNNSearcher, STDataset
from repro.approx.sketch import DEFAULT_SKETCH_KMAX
from repro.core.explain import SearchTrace
from repro.errors import ConfigError
from repro.obs import (
    BOUND_GAP_BUCKETS,
    CountingSink,
    MetricsRegistry,
    MetricsSink,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
    PhaseTimer,
    TeeSink,
    registry_or_null,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    latency_percentiles,
    record_approx,
    record_search,
    record_sketch_build,
)
from repro.perf.batch import BatchSearcher
from repro.workloads import sample_queries

from tests.conftest import random_corpus

REPO = Path(__file__).resolve().parents[1]

_STATE = {}


def _env():
    """Shared dataset/tree/queries for the parity sweep (built once)."""
    if not _STATE:
        dataset = STDataset.from_corpus(random_corpus(120, seed=19))
        _STATE.update(
            dataset=dataset,
            tree=IURTree.build(dataset),
            queries=sample_queries(dataset, 4, seed=7),
        )
    return _STATE


def _multiset(trace):
    """The order-independent decision multiset of one trace."""
    return TallyCounter(astuple(event) for event in trace.events)


def _trace_all_engines(tree, query, k):
    """One SearchTrace per engine for the same query."""
    seed = SearchTrace()
    RSTkNNSearcher(tree, engine="seed").search(query, k, trace=seed)

    snap_trace = SearchTrace()
    RSTkNNSearcher(tree, engine="snapshot").search(query, k, trace=snap_trace)
    return seed, snap_trace


class TestCrossEngineTraceParity:
    def test_decision_multisets_identical(self):
        env = _env()
        for query in env["queries"]:
            seed, snap = _trace_all_engines(env["tree"], query, k=3)
            assert seed.events, "seed walk emitted no events"
            assert _multiset(seed) == _multiset(snap)

    def test_counts_match_search_stats(self):
        env = _env()
        query = env["queries"][0]
        trace = SearchTrace()
        searcher = RSTkNNSearcher(env["tree"], engine="snapshot")
        result = searcher.search(query, 3, trace=trace)
        counts = trace.counts()
        stats = result.stats
        assert counts.get("prune", 0) == stats.pruned_entries
        assert counts.get("accept", 0) == stats.accepted_entries
        assert counts.get("expand", 0) == stats.expansions
        verifies = counts.get("verify-in", 0) + counts.get("verify-out", 0)
        assert verifies == stats.verified_objects

    def test_auto_keeps_snapshot_for_traced_requests(self):
        env = _env()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(env["tree"], engine="auto", metrics=reg)
        searcher.search(env["queries"][0], 3, trace=SearchTrace())
        counters = reg.snapshot()["counters"]
        assert counters["search.queries.snapshot"] == 1
        assert "search.queries.seed" not in counters

    def test_counting_sink_matches_reference_trace(self):
        env = _env()
        query = env["queries"][1]
        full = SearchTrace()
        cheap = CountingSink()
        searcher = RSTkNNSearcher(env["tree"], engine="snapshot")
        searcher.search(query, 3, trace=full)
        searcher.search(query, 3, trace=cheap)
        assert cheap.counts == full.counts()

    def test_tee_sink_fans_out(self):
        env = _env()
        query = env["queries"][2]
        full = SearchTrace()
        cheap = CountingSink()
        searcher = RSTkNNSearcher(env["tree"], engine="snapshot")
        searcher.search(query, 3, trace=TeeSink([full, cheap]))
        assert full.events
        assert cheap.counts == full.counts()


class TestNullRegistry:
    def test_shared_noop_instruments_for_every_name(self):
        null = NullRegistry()
        for name in ("a", "b", "search.queries.seed"):
            assert null.counter(name) is NOOP_COUNTER
            assert null.gauge(name) is NOOP_GAUGE
            assert null.histogram(name) is NOOP_HISTOGRAM
        assert NULL_REGISTRY.counter("x") is NOOP_COUNTER

    def test_noops_discard_and_store_nothing(self):
        NOOP_COUNTER.inc(5)
        NOOP_GAUGE.set(3.0)
        NOOP_GAUGE.add(2.0)
        NOOP_HISTOGRAM.observe(0.5)
        assert NOOP_COUNTER.value == 0
        assert NOOP_GAUGE.value == 0.0
        assert NOOP_HISTOGRAM.count == 0
        snap = NULL_REGISTRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert NULL_REGISTRY.to_prometheus() == ""
        assert not NULL_REGISTRY.enabled

    def test_registry_or_null(self):
        assert registry_or_null(None) is NULL_REGISTRY
        real = MetricsRegistry()
        assert registry_or_null(real) is real

    def test_record_search_noop_on_null(self):
        class FakeStats:  # record_search must not even read the stats
            pass

        record_search(None, "seed", FakeStats())
        record_search(NULL_REGISTRY, "seed", FakeStats())


class TestMetricsRegistry:
    def test_instruments_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("metric.name")
        with pytest.raises(ConfigError):
            reg.gauge("metric.name")
        with pytest.raises(ConfigError):
            reg.histogram("metric.name")

    def test_histogram_buckets_validated(self):
        with pytest.raises(ConfigError):
            Histogram(())
        with pytest.raises(ConfigError):
            Histogram((0.5, 0.1))

    def test_histogram_placement_and_overflow(self):
        hist = Histogram((0.1, 0.5, 1.0))
        for value in (0.05, 0.1, 0.3, 2.0):
            hist.observe(value)
        # bisect_left: 0.1 lands in its own bucket (le=0.1), 2.0 overflows.
        assert hist.counts == [2, 1, 0, 1]
        assert hist.count == 4
        assert hist.mean() == pytest.approx((0.05 + 0.1 + 0.3 + 2.0) / 4)

    def test_latency_buckets_cover_minutes_long_queries(self):
        # Exact alpha=0.5 walks at n=10^5 take tens of seconds; they
        # must land in a finite bucket, not the overflow cell.
        hist = Histogram()
        hist.observe(100.0)
        assert hist.counts[-1] == 0
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0001
        assert DEFAULT_LATENCY_BUCKETS[-1] == 300.0

    def test_json_snapshot_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h", (0.1, 1.0)).observe(0.2)
        payload = json.loads(json.dumps(reg.snapshot()))
        assert payload["counters"]["c"] == 3
        assert payload["gauges"]["g"] == 1.5
        assert payload["histograms"]["h"] == {
            "buckets": [0.1, 1.0],
            "counts": [0, 1, 0],
            "sum": 0.2,
            "count": 1,
        }

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("search.queries.seed").inc(2)
        reg.gauge("phase.build.seconds").set(0.5)
        hist = reg.histogram("lat", (0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = reg.to_prometheus()
        assert "repro_search_queries_seed_total 2" in text
        assert "repro_phase_build_seconds 0.5" in text
        # Histogram buckets are cumulative, with the conventional +Inf.
        assert 'repro_lat_bucket{le="0.1"} 1' in text
        assert 'repro_lat_bucket{le="1"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_count 2" in text


class TestSearchMetrics:
    def test_searcher_records_per_engine_counters(self):
        env = _env()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(env["tree"], engine="snapshot", metrics=reg)
        result = searcher.search(env["queries"][0], 3)
        snap = reg.snapshot()
        assert snap["counters"]["search.queries.snapshot"] == 1
        assert (
            snap["counters"]["search.decisions.prune"]
            == result.stats.pruned_entries
        )
        assert (
            snap["counters"]["search.objects.results"]
            == result.stats.result_count
        )
        assert (
            snap["histograms"]["search.latency_seconds.snapshot"]["count"] == 1
        )

    def test_seed_and_snapshot_record_same_decision_totals(self):
        env = _env()
        query = env["queries"][0]
        totals = {}
        for engine in ("seed", "snapshot"):
            reg = MetricsRegistry()
            RSTkNNSearcher(env["tree"], engine=engine, metrics=reg).search(
                query, 3
            )
            counters = reg.snapshot()["counters"]
            totals[engine] = {
                name: value
                for name, value in counters.items()
                if name.startswith("search.decisions.")
            }
        assert totals["seed"] == totals["snapshot"]

    def test_metrics_sink_bridges_trace_events(self):
        env = _env()
        query = env["queries"][0]
        reference = SearchTrace()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(env["tree"], engine="snapshot")
        searcher.search(query, 3, trace=reference)
        searcher.search(query, 3, trace=MetricsSink(reg))
        snap = reg.snapshot()
        for action, count in reference.counts().items():
            assert snap["counters"][f"trace.events.{action}"] == count
        total = len(reference.events)
        for hist_name in ("trace.knn_gap", "trace.query_gap"):
            hist = snap["histograms"][hist_name]
            assert hist["count"] == total
            assert hist["buckets"] == list(BOUND_GAP_BUCKETS)

    def test_batch_searcher_records_metrics_and_phases(self):
        env = _env()
        reg = MetricsRegistry()
        batch = BatchSearcher(env["tree"], metrics=reg)
        out = batch.run(env["queries"], k=3)
        assert len(out.results) == len(env["queries"])
        assert out.stats.phases  # walk phase stamped
        snap = reg.snapshot()
        queries_recorded = sum(
            value
            for name, value in snap["counters"].items()
            if name.startswith("search.queries.")
        )
        assert queries_recorded == len(env["queries"])
        assert "phase.walk.seconds" in snap["gauges"]


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("walk"):
            pass
        timer.add("walk", 1.0)
        timer.add("build", 0.25)
        assert timer.seconds("walk") >= 1.0
        assert timer.as_dict()["build"] == 0.25
        assert timer.seconds("never") == 0.0

    def test_publish_sets_gauges_idempotently(self):
        timer = PhaseTimer()
        timer.add("build", 0.5)
        reg = MetricsRegistry()
        timer.publish(reg)
        timer.publish(reg)  # set, not add: publishing twice is stable
        assert reg.snapshot()["gauges"]["phase.build.seconds"] == 0.5
        timer.publish(None)  # None registry is a no-op


class TestCliObs:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "obs", *args],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_json_output(self):
        result = self._run("--n", "120", "--queries", "3", "--format", "json")
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["counters"]["search.queries.snapshot"] == 3
        assert "phase.build.seconds" in payload["gauges"]
        assert "trace.knn_gap" in payload["histograms"]

    def test_prometheus_output(self):
        result = self._run(
            "--n", "120", "--queries", "2", "--engine", "seed",
            "--format", "prom",
        )
        assert result.returncode == 0, result.stderr
        assert "repro_search_queries_seed_total 2" in result.stdout
        assert 'le="+Inf"' in result.stdout


class TestLatencyPercentiles:
    """The edge contract spelled out in the function's docstring."""

    def test_empty_input_yields_empty_dict(self):
        assert latency_percentiles([]) == {}

    def test_single_sample_repeats_for_every_point(self):
        out = latency_percentiles([0.25])
        assert out == {"p50": 0.25, "p95": 0.25, "p99": 0.25}

    def test_nearest_rank_never_interpolates(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        out = latency_percentiles(samples)
        assert set(out.values()) <= set(samples)
        assert out["p50"] == 0.2
        assert out["p99"] == 0.4

    def test_out_of_range_points_raise(self):
        with pytest.raises(ConfigError):
            latency_percentiles([0.1], points=[0])
        with pytest.raises(ConfigError):
            latency_percentiles([0.1], points=[101])
        # Validation happens before the empty-input check.
        with pytest.raises(ConfigError):
            latency_percentiles([], points=[0])

    def test_custom_points(self):
        out = latency_percentiles([0.1, 0.2], points=[1, 100])
        assert out == {"p1": 0.1, "p100": 0.2}


class TestRecordApprox:
    def test_counters_accumulate_per_key(self):
        reg = MetricsRegistry()
        record_approx(reg, {"candidates": 3, "nodes_pruned": 2})
        record_approx(reg, {"candidates": 1})
        counters = reg.snapshot()["counters"]
        assert counters["approx.candidates"] == 4
        assert counters["approx.nodes_pruned"] == 2

    def test_noop_on_null_none_and_empty(self):
        record_approx(None, {"candidates": 3})
        record_approx(NULL_REGISTRY, {"candidates": 3})
        reg = MetricsRegistry()
        record_approx(reg, {})
        assert reg.snapshot()["counters"] == {}

    def test_approx_searcher_records_metrics(self):
        env = _env()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(env["tree"], engine="approx", metrics=reg)
        searcher.search(env["queries"][0], 3)
        snap = reg.snapshot()
        assert snap["counters"]["search.queries.approx"] == 1
        assert "approx.candidates" in snap["counters"]

    def test_exact_fallbacks_count_queries_beyond_the_sketch(self):
        env = _env()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(env["tree"], engine="approx", metrics=reg)
        query = env["queries"][0]
        kmax = DEFAULT_SKETCH_KMAX
        searcher.search(query, kmax)  # within the sketch: the filter answers
        assert reg.snapshot()["counters"]["approx.exact_fallbacks"] == 0
        searcher.search(query, kmax + 1)  # beyond it: the snapshot walk
        searcher.search(query, kmax + 5)
        counters = reg.snapshot()["counters"]
        assert counters["approx.exact_fallbacks"] == 2
        assert counters["search.queries.approx"] == 3

    def test_exact_fallbacks_cost_nothing_on_a_null_registry(self):
        env = _env()
        searcher = RSTkNNSearcher(
            env["tree"], engine="approx", metrics=NULL_REGISTRY
        )
        searcher.search(env["queries"][0], DEFAULT_SKETCH_KMAX + 1)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestSketchBuildGauges:
    def _tree(self):
        # A private tree: the sketch must not already be memoized on a
        # snapshot another test warmed.
        return IURTree.build(STDataset.from_corpus(random_corpus(60, seed=23)))

    def test_building_search_publishes_cost(self):
        tree = self._tree()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(tree, engine="approx", metrics=reg)
        query = sample_queries(tree.dataset, 1, seed=3)[0]
        searcher.search(query, 3)
        snap = tree.snapshot()
        sketch = snap.sketch_for(
            snap.engine_for(tree, searcher.measure, searcher.alpha,
                            searcher.te_weight)
        )
        gauges = reg.snapshot()["gauges"]
        assert gauges["approx.sketch.build_seconds"] == sketch.build_seconds
        assert gauges["approx.sketch.bytes"] == sketch.nbytes() > 0

    def test_prebuilt_sketch_is_not_republished(self):
        tree = self._tree()
        reg = MetricsRegistry()
        searcher = RSTkNNSearcher(tree, engine="approx", metrics=reg)
        snap = tree.snapshot()
        snap.sketch_for(
            snap.engine_for(tree, searcher.measure, searcher.alpha,
                            searcher.te_weight)
        )
        searcher.search(sample_queries(tree.dataset, 1, seed=3)[0], 3)
        assert "approx.sketch.build_seconds" not in reg.snapshot()["gauges"]

    def test_null_registry_records_nothing(self):
        tree = self._tree()
        searcher = RSTkNNSearcher(tree, engine="approx", metrics=NULL_REGISTRY)
        # This search builds the sketch, so it reaches record_sketch_build.
        searcher.search(sample_queries(tree.dataset, 1, seed=3)[0], 3)
        record_sketch_build(None, None)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert NOOP_GAUGE.value == 0.0
