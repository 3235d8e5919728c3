"""The LSM live-update path: overlay, tombstones, epochs, freezing.

Every parity assertion here leans on the subsystem's anchor: a fold
builds a *brand new* tree over the mutated dataset, so "byte-identical
to a fresh build" is checkable at any point — while dirty (merged walk
over overlay + tombstone-masked frozen tree) and after folds.  The
suite also pins the operational surface: the engine resolver forcing
the merged seed walk while dirty (the approx sketch, snapshots, and
shard admission all carry frozen-side state that deletes invalidate), the
``freeze_fail`` fault point leaving the old generation serving, epoch
pins keeping shm segments alive across a swap, and the ``lsm.*``
metrics.
"""

import time

import pytest

from repro import (
    BruteForceRSTkNN,
    ConfigError,
    IndexConfig,
    IURTree,
    OverlayPendingError,
    QueryService,
    RSTkNNSearcher,
    STDataset,
)
from repro.errors import FaultInjected
from repro.lsm import LiveIndex, LiveScatterGather
from repro.obs import MetricsRegistry
from repro.perf import BatchSearcher
from repro.service.faults import FaultPlan, set_plan
from repro.spatial import Point
from repro.workloads import sample_queries

from tests.conftest import random_corpus


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    set_plan(None, clear=True)
    yield
    set_plan(None, clear=True)


def make_live(n=120, seed=17, **kwargs):
    ds = STDataset.from_corpus(random_corpus(n, seed=seed))
    return ds, LiveIndex(IURTree.build(ds), **kwargs)


def assert_parity(live, ds, k=4, queries=3, seed=5):
    """Live answers == fresh-build seed walk == brute force."""
    fresh = RSTkNNSearcher(IURTree.build(ds), engine="seed")
    searcher = RSTkNNSearcher(live)
    for query in sample_queries(ds, queries, seed=seed):
        expected = BruteForceRSTkNN(ds).search(query, k)
        assert searcher.search(query, k).ids == expected
        assert fresh.search(query, k).ids == expected


def churn(live, ds, inserts=6, deletes=6, seed=99):
    import random

    rng = random.Random(seed)
    for _ in range(inserts):
        donor = ds.objects[rng.randrange(len(ds.objects))]
        live.insert(donor.point, " ".join(donor.keywords))
    for _ in range(deletes):
        victim = ds.objects[rng.randrange(len(ds.objects))].oid
        assert live.delete_object(victim)


class TestLiveParity:
    def test_clean_live_index_is_transparent(self):
        ds, live = make_live()
        try:
            assert not live.overlay_dirty
            assert_parity(live, ds)
        finally:
            live.close()

    def test_inserts_visible_before_any_fold(self):
        ds, live = make_live()
        try:
            churn(live, ds, inserts=8, deletes=0)
            assert live.overlay_dirty and live.pending() == 8
            assert_parity(live, ds)
        finally:
            live.close()

    def test_tombstoned_deletes_masked_everywhere(self):
        ds, live = make_live()
        try:
            churn(live, ds, inserts=0, deletes=10)
            assert live.overlay_dirty
            assert_parity(live, ds)
        finally:
            live.close()

    def test_mixed_churn_then_fold_restores_clean_paths(self):
        ds, live = make_live()
        try:
            churn(live, ds)
            assert_parity(live, ds)
            epoch = live.epoch
            assert live.freeze_step()
            assert live.epoch == epoch + 1
            assert live.pending() == 0 and not live.overlay_dirty
            assert not live.freeze_step()  # already clean
            assert_parity(live, ds)
        finally:
            live.close()

    def test_delete_of_overlay_resident_object(self):
        ds, live = make_live(n=60)
        try:
            obj = live.insert(Point(3.0, 4.0), "alpha beta")
            assert live.delete_object(obj.oid)
            assert live.delete_object(obj.oid) is False  # already gone
            assert_parity(live, ds)
        finally:
            live.close()

    def test_dirty_search_forces_seed_engine(self):
        registry = MetricsRegistry()
        ds, live = make_live(n=60)
        try:
            churn(live, ds, inserts=1, deletes=1)
            searcher = RSTkNNSearcher(live, engine="snapshot", metrics=registry)
            query = sample_queries(ds, 1, seed=2)[0]
            result = searcher.search(query, 3)
            assert result.ids == BruteForceRSTkNN(ds).search(query, 3)
            counters = registry.snapshot()["counters"]
            assert counters["search.queries.seed"] == 1
            assert "search.queries.snapshot" not in counters
            live.freeze_step()
            searcher.search(query, 3)
            counters = registry.snapshot()["counters"]
            assert counters["search.queries.snapshot"] == 1
        finally:
            live.close()

    def test_wrapping_a_live_tree_is_rejected(self):
        _, live = make_live(n=40)
        try:
            with pytest.raises(ConfigError):
                LiveIndex(live)
            with pytest.raises(ConfigError):
                LiveIndex(live.frozen_tree, freeze_threshold=0)
        finally:
            live.close()


class TestStaleSketchHazard:
    def test_stale_sketch_never_touches_dirty_answers(self):
        """Deletes make the frozen kNNL sketch overstate the
        neighborhood: answering from it would drop results.  The
        resolver must route approx searchers through the merged seed
        walk while dirty, and the post-fold sketch is rebuilt from the
        new snapshot."""
        ds, live = make_live(n=150, seed=23)
        try:
            approx = RSTkNNSearcher(live, engine="approx")
            churn(live, ds, inserts=0, deletes=20, seed=7)
            for query in sample_queries(ds, 4, seed=11):
                assert approx.search(query, 4).ids == BruteForceRSTkNN(
                    ds
                ).search(query, 4)
            live.freeze_step()
            for query in sample_queries(ds, 4, seed=11):
                assert approx.search(query, 4).ids == BruteForceRSTkNN(
                    ds
                ).search(query, 4)
        finally:
            live.close()


class TestLiveScatterGather:
    def test_dirty_epoch_bypasses_shard_admission(self):
        ds, live = make_live(n=150, seed=31)
        registry = MetricsRegistry()
        scatter = LiveScatterGather(live, 3, metrics=registry)
        try:
            churn(live, ds, seed=13)
            query = sample_queries(ds, 1, seed=4)[0]
            result = scatter.search(query, 4)
            assert result.stats.shards_searched == 0
            assert list(result.ids) == BruteForceRSTkNN(ds).search(query, 4)
            counters = registry.snapshot()["counters"]
            assert counters["lsm.scatter.merged"] == 1
        finally:
            scatter.close()
            live.close()

    def test_clean_epoch_reshards_once(self):
        ds, live = make_live(n=150, seed=31)
        registry = MetricsRegistry()
        scatter = LiveScatterGather(live, 3, metrics=registry)
        try:
            churn(live, ds, seed=13)
            assert scatter.freeze_step()
            queries = sample_queries(ds, 3, seed=4)
            for query in queries:
                result = scatter.search(query, 4)
                assert result.stats.shards_total == 3
                assert list(result.ids) == BruteForceRSTkNN(ds).search(
                    query, 4
                )
            counters = registry.snapshot()["counters"]
            assert counters["lsm.scatter.rebuilds"] == 1  # one per epoch
        finally:
            scatter.close()
            live.close()


class TestFreezeFailure:
    def test_failed_swap_leaves_old_generation_serving(self):
        ds, live = make_live(n=100, metrics=(registry := MetricsRegistry()))
        try:
            churn(live, ds)
            epoch, pending = live.epoch, live.pending()
            set_plan(FaultPlan(freeze_fail=1))
            with pytest.raises(FaultInjected):
                live.freeze_step()
            # No visible state change: old epoch serving, overlay intact.
            assert live.epoch == epoch
            assert live.pending() == pending and live.overlay_dirty
            assert_parity(live, ds)
            counters = registry.snapshot()["counters"]
            assert counters["lsm.freeze.failures"] == 1
            assert counters["lsm.swaps"] == 0
            # The plan is exhausted; the retried fold succeeds.
            assert live.freeze_step()
            assert live.epoch == epoch + 1 and not live.overlay_dirty
            assert_parity(live, ds)
        finally:
            live.close()

    def test_background_freezer_retries_after_fault(self):
        ds, live = make_live(n=60, freeze_threshold=4)
        try:
            set_plan(FaultPlan(freeze_fail=1))
            churn(live, ds, inserts=4, deletes=2)
            live.start_freezer(interval=0.01)
            deadline = time.monotonic() + 5.0
            while live.pending() > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert live.pending() == 0, "freezer never recovered"
            assert_parity(live, ds)
        finally:
            live.close()


class TestEpochRetirement:
    def test_pinned_epoch_survives_a_swap(self):
        ds, live = make_live(n=80)
        try:
            with live.pin() as view:
                churn(live, ds, inserts=3, deletes=0)
                assert live.freeze_step()
                # The pre-swap view is retired but pinned: still usable.
                assert live._retired == [view]
                assert view is not live._view
            assert live._retired == []  # unpin drained it
        finally:
            live.close()

    def test_snapshot_refused_while_dirty(self):
        ds, live = make_live(n=60)
        try:
            churn(live, ds, inserts=1, deletes=0)
            with live.pin() as view:
                with pytest.raises(OverlayPendingError):
                    view.snapshot()
            with pytest.raises(OverlayPendingError):
                live.export_segment()
            live.freeze_step()
            with live.pin() as view:
                assert view.snapshot() is not None
        finally:
            live.close()

    def test_export_segment_is_memoized_per_epoch(self):
        from repro.perf.shm import shm_available

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm transport unavailable: {why}")
        ds, live = make_live(n=60)
        try:
            first = live.export_segment()
            assert live.export_segment() is first
            churn(live, ds, inserts=1, deletes=0)
            live.freeze_step()
            second = live.export_segment()
            assert second is not first  # new epoch, new segment
        finally:
            live.close()


class TestServiceDegradation:
    def test_dirty_live_tree_degrades_to_merged_seed_walk(self):
        ds, live = make_live(n=100, seed=41)
        registry = MetricsRegistry()
        try:
            churn(live, ds, seed=3)
            service = QueryService(live, metrics=registry)
            queries = sample_queries(ds, 4, seed=9)
            for query in queries:
                service.submit(query, 4)
            batch = service.drain()
            assert len(batch.results) == len(queries)
            for query, result in zip(queries, batch.results):
                assert result.degraded
                assert result.engine == "seed"
                assert result.ids == BruteForceRSTkNN(ds).search(query, 4)
            live.freeze_step()
            for query in queries:
                service.submit(query, 4)
            for result in service.drain().results:
                assert not result.degraded
        finally:
            live.close()


class TestBatchLive:
    def test_dirty_parallel_falls_back_sequential(self):
        ds, live = make_live(n=100, seed=51)
        engine = BatchSearcher(live, workers=2)
        try:
            churn(live, ds, seed=21)
            queries = sample_queries(ds, 4, seed=6)
            batch = engine.run(queries, 4)
            assert batch.stats.workers == 1
            assert batch.stats.fallback_reason.startswith(
                "live_overlay_dirty"
            )
            for query, ids in zip(queries, batch.id_lists()):
                assert ids == BruteForceRSTkNN(ds).search(query, 4)
        finally:
            live.close()

    def test_clean_parallel_reuses_the_epoch_segment(self):
        from repro.perf.shm import shm_available

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm transport unavailable: {why}")
        ds, live = make_live(n=100, seed=51)
        engine = BatchSearcher(live, workers=2, share="shm")
        try:
            queries = sample_queries(ds, 4, seed=6)
            expected = [BruteForceRSTkNN(ds).search(q, 4) for q in queries]
            assert engine.run(queries, 4).id_lists() == expected
            assert len(live._view._segments) == 1
            assert engine.run(queries, 4).id_lists() == expected
            assert len(live._view._segments) == 1  # reused, not recreated
        finally:
            live.close()


class TestMetrics:
    def test_gauges_counters_and_histogram(self):
        registry = MetricsRegistry()
        ds, live = make_live(n=80, metrics=registry)
        try:
            churn(live, ds, inserts=5, deletes=3)
            snap = registry.snapshot()
            assert snap["gauges"]["lsm.overlay.objects"] == 5.0
            assert snap["gauges"]["lsm.tombstones"] == 3.0
            RSTkNNSearcher(live).search(sample_queries(ds, 1, seed=1)[0], 3)
            live.freeze_step()
            snap = registry.snapshot()
            assert snap["counters"]["lsm.reads.merged"] == 1
            assert snap["counters"]["lsm.swaps"] == 1
            assert snap["gauges"]["lsm.overlay.objects"] == 0.0
            assert snap["gauges"]["lsm.tombstones"] == 0.0
            assert registry.histogram("lsm.freeze.seconds").count == 1
        finally:
            live.close()
