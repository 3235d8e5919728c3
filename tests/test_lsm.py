"""The LSM live-update path: overlay, tombstones, epochs, freezing.

Every parity assertion here leans on the subsystem's anchor: a fold
builds a *brand new* tree over the mutated dataset, so "byte-identical
to a fresh build" is checkable at any point — while dirty (the snapshot
walk over the union snapshot frozen from overlay + tombstone-masked
frozen tree) and after folds.  The suite also pins the union snapshot
itself: equal to the seed walk over the same view in ids, decision
counters and I/O, memoized per write, frozen without waiting on a fold
and freed without the GC once a read replaces it.  Around it sits the
operational surface: the resolver sending ``approx`` to the snapshot
walk while dirty (the sketch is a fold-time artifact that deletes
invalidate), the ``freeze_fail`` fault point
leaving the old generation serving, batches shipping the union over
shm, and the ``lsm.*`` metrics.
"""

import gc
import threading
import time
import warnings

import pytest

from repro import (
    BruteForceRSTkNN,
    CIURTree,
    ConfigError,
    IndexConfig,
    IURTree,
    QueryService,
    RSTkNNSearcher,
    SimilarityConfig,
    STDataset,
)
from repro.errors import FaultInjected, QueryError
from repro.lsm import LiveIndex
from repro.obs import MetricsRegistry
from repro.perf import BatchSearcher
from repro.perf.snapshot import IndexSnapshot
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

    def test_dirty_search_runs_snapshot_engine(self):
        registry = MetricsRegistry()
        ds, live = make_live(n=60)
        try:
            churn(live, ds, inserts=1, deletes=1)
            searcher = RSTkNNSearcher(live, engine="snapshot", metrics=registry)
            approx = RSTkNNSearcher(live, engine="approx", metrics=registry)
            query = sample_queries(ds, 1, seed=2)[0]
            expected = BruteForceRSTkNN(ds).search(query, 3)
            assert searcher.search(query, 3).ids == expected
            assert approx.search(query, 3).ids == expected
            counters = registry.snapshot()["counters"]
            # The approx searcher resolves to the snapshot walk while
            # dirty: the sketch is a fold-time artifact.
            assert counters["search.queries.snapshot"] == 2
            assert "search.queries.seed" not in counters
            assert "search.queries.approx" not in counters
            live.freeze_step()
            assert approx.search(query, 3).ids == expected
            counters = registry.snapshot()["counters"]
            assert counters["search.queries.approx"] == 1
            assert counters["search.queries.snapshot"] == 2
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
        resolver must route approx searchers through the snapshot
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_write_after_the_resolve_never_reaches_the_sketch(
        self, monkeypatch, workers
    ):
        """A write landing between engine resolution (clean: approx) and
        the snapshot fetch hands the approx path a union; its dead slots
        are invisible to the sketch tier, so the read must run the
        snapshot walk over it instead."""
        if workers > 1:
            from repro.perf.shm import shm_available

            ok, why = shm_available()
            if not ok:
                pytest.skip(f"shm transport unavailable: {why}")
        ds, live = make_live(n=150, seed=23)
        resolve = RSTkNNSearcher._resolve_engine
        writes = []

        def resolve_then_write(searcher):
            engine = resolve(searcher)
            if not writes:  # the concurrent writer's turn, once
                writes.append(engine)
                for obj in list(ds.objects)[::5]:
                    assert live.delete_object(obj.oid)
            return engine

        queries = sample_queries(ds, 4, seed=11)
        try:
            monkeypatch.setattr(
                RSTkNNSearcher, "_resolve_engine", resolve_then_write
            )
            if workers == 1:
                approx = RSTkNNSearcher(live, engine="approx")
                ids = [approx.search(query, 4).ids for query in queries]
                union = live.snapshot()
                assert union.base is not None
                assert not [key for key in union._engines if key[0] == "approx"]
            else:
                batch = BatchSearcher(
                    live, workers=2, engine="approx"
                ).run(queries, 4)
                assert batch.stats.fallback_reason is None
                ids = batch.id_lists()
            assert writes == ["approx"]  # resolved while clean
            brute = BruteForceRSTkNN(ds)
            assert ids == [brute.search(query, 4) for query in queries]
        finally:
            live.close()


NON_FINITE = ("nan", "inf", "-inf")


class TestNonFiniteInserts:
    @pytest.mark.parametrize(
        "x, y",
        [pytest.param(float(v), 50.0, id=f"x={v}") for v in NON_FINITE]
        + [pytest.param(50.0, float(v), id=f"y={v}") for v in NON_FINITE],
    )
    def test_insert_refuses_non_finite_point(self, x, y):
        # Accepted, a NaN object made the union walk disagree with
        # brute force; the refusal must leave the index untouched.
        ds, live = make_live(n=60, seed=31)
        try:
            pending, size = live.pending(), len(ds)
            with pytest.raises(QueryError, match="finite"):
                live.insert(Point(x, y), "coffee")
            assert live.pending() == pending
            assert len(ds) == size
            assert not live.overlay_dirty
        finally:
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

    def test_failed_fold_discards_its_frozen_snapshot(self, monkeypatch):
        """The fold freezes the rebuilt tree before the fault point, and
        a failed fold leaves the old tree and its snapshot serving."""
        ds, live = make_live(n=100)
        freezes = []
        real_from_tree = IndexSnapshot.from_tree.__func__

        def counting_from_tree(cls, tree):
            freezes.append(tree)
            return real_from_tree(cls, tree)

        try:
            frozen = live.frozen_tree
            snap = frozen.snapshot()
            churn(live, ds)
            monkeypatch.setattr(
                IndexSnapshot, "from_tree", classmethod(counting_from_tree)
            )
            set_plan(FaultPlan(freeze_fail=1))
            with pytest.raises(FaultInjected):
                live.freeze_step()
            assert len(freezes) == 1 and freezes[0] is not frozen
            assert live.frozen_tree is frozen and frozen.snapshot() is snap
            assert live.overlay_dirty
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
            queries = sample_queries(ds, 2, seed=8)
            with live.pin() as view:
                churn(live, ds, inserts=3, deletes=0)
                expected = [BruteForceRSTkNN(ds).search(q, 4) for q in queries]
                assert live.freeze_step()
                assert view is not live._view
                # The pre-swap view is never mutated after the swap, so a
                # reader holding it still answers for the same objects.
                pinned = RSTkNNSearcher(view)
                for query, ids in zip(queries, expected):
                    assert pinned.search(query, 4).ids == ids
            assert_parity(live, ds)
        finally:
            live.close()

    def test_dirty_snapshot_is_the_union_per_generation(self):
        ds, live = make_live(n=60)
        try:
            churn(live, ds, inserts=2, deletes=2)
            with live.pin() as view:
                first = view.snapshot()
                assert first is not view.frozen.snapshot()
                assert _live_objects(first) == {o.oid for o in ds.objects}
                assert view.snapshot() is first  # one union per generation
            live.insert(Point(1.0, 1.0), "alpha")
            second = live.snapshot()
            assert second is not first  # a write replaces the union
            assert len(_live_objects(second)) == len(_live_objects(first)) + 1
            live.freeze_step()
            with live.pin() as view:
                assert view.snapshot() is view.frozen.snapshot()
        finally:
            live.close()


def _live_objects(snap):
    """Object ids of a snapshot's live slots (dead ones read ``cnt == 0``)."""
    return frozenset(
        snap.ref[s]
        for s in range(snap.n_slots)
        if snap.is_obj[s] and snap.cnt[s]
    )


def _write_mix(live, ds, writes, seed):
    """Alternate deletes and donor-cloned inserts through ``live``."""
    import random

    rng = random.Random(seed)
    for i in range(writes):
        if i % 2 == 0:
            victim = ds.objects[rng.randrange(len(ds.objects))].oid
            assert live.delete_object(victim)
        else:
            donor = ds.objects[rng.randrange(len(ds.objects))]
            live.insert(donor.point, " ".join(donor.keywords))


def _decisions(result):
    """``SearchStats`` minus wall time and memo hit counts."""
    stats = result.stats.as_dict()
    for key in ("elapsed_seconds", "cache_hits", "cache_misses"):
        del stats[key]
    return stats


def _last_of_a_cluster(tree, live):
    """A live frozen object that is the last of its cluster under some
    directory entry, so tombstoning it drops that cluster there."""
    dead = live._view.tombstones.oids
    for node in tree.rtree.nodes.values():
        if node.is_leaf:
            continue
        for entry in node.entries:
            child = tree.rtree.node(entry.ref)
            if not child.is_leaf:
                continue
            by_label = {}
            for obj in child.entries:
                if obj.ref not in dead:
                    label = tree.cluster_label(obj.ref)
                    by_label.setdefault(label, []).append(obj.ref)
            if len(by_label) < 2:
                continue
            for oids in by_label.values():
                if len(oids) == 1:
                    return oids[0]
    raise AssertionError("no node holds a single object of a cluster")


class TestUnionSnapshot:
    """The union snapshot against the seed walk over the same view."""

    @pytest.mark.parametrize("kind", ["iur", "ciur"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9, 1.0])
    def test_snapshot_walk_equals_seed_walk_on_dirty_views(self, kind, alpha):
        ds = STDataset.from_corpus(
            random_corpus(150, seed=3), SimilarityConfig(alpha=alpha)
        )
        if kind == "iur":
            tree = IURTree.build(ds)
        else:
            tree = CIURTree.build(
                ds,
                IndexConfig(
                    num_clusters=4,
                    outlier_threshold=0.5,
                    use_entropy_priority=True,
                ),
            )
        live = LiveIndex(tree)
        registry = MetricsRegistry()
        try:
            if kind == "ciur":
                assert tree.outliers, "the OE threshold should extract outliers"
                assert live.delete_object(tree.outliers[0].oid)
            _write_mix(live, ds, 12, seed=5)
            cases = 0
            with live.pin() as view:
                assert view.overlay_dirty
                seed = RSTkNNSearcher(view, engine="seed")
                snap = RSTkNNSearcher(view, engine="snapshot", metrics=registry)
                for query in sample_queries(ds, 3, seed=9):
                    for k in (1, 4, 9):
                        view.reset_io()
                        expected = seed.search(query, k)
                        view.reset_io()
                        got = snap.search(query, k)
                        assert got.ids == expected.ids
                        assert got.ids == BruteForceRSTkNN(ds).search(query, k)
                        assert _decisions(got) == _decisions(expected)
                        assert got.io == expected.io
                        cases += 1
            counters = registry.snapshot()["counters"]
            assert counters["search.queries.snapshot"] == cases
        finally:
            live.close()

    def test_dirty_read_does_not_wait_for_a_fold(self, monkeypatch):
        ds, live = make_live(n=80)
        entered = threading.Event()
        release = threading.Event()
        build = IURTree.build.__func__

        def blocking_build(cls, *args, **kwargs):
            entered.set()
            assert release.wait(30.0), "the test never released the fold"
            return build(cls, *args, **kwargs)

        churn(live, ds, inserts=3, deletes=3)
        monkeypatch.setattr(IURTree, "build", classmethod(blocking_build))
        query = sample_queries(ds, 1, seed=3)[0]
        answers = []

        def read():
            searcher = RSTkNNSearcher(live, engine="snapshot")
            answers.append(searcher.search(query, 4))

        fold = threading.Thread(target=live.freeze_step)
        fold.start()
        try:
            assert entered.wait(10.0), "the fold never started its rebuild"
            reader = threading.Thread(target=read)
            reader.start()
            reader.join(10.0)
            finished = not reader.is_alive()
        finally:
            release.set()
            fold.join(30.0)
        assert finished, "a dirty read waited for the fold's rebuild"
        assert answers[0].ids == BruteForceRSTkNN(ds).search(query, 4)
        assert live.epoch == 1 and not live.overlay_dirty

    def test_concurrent_freezes_never_see_half_a_write(self):
        """Readers freezing while a writer writes see whole writes only:
        every directory count equals the sum of its children's, and
        every object set is one the writer produced."""
        import random
        import sys

        ds, live = make_live(n=80, freeze_threshold=10**9)
        states = [frozenset(o.oid for o in ds.objects)]
        seen = []
        errors = []
        done = threading.Event()

        def write():
            rng = random.Random(5)
            try:
                for i in range(60):
                    if i % 2:
                        victim = ds.objects[rng.randrange(len(ds.objects))]
                        live.delete_object(victim.oid)
                    else:
                        donor = ds.objects[rng.randrange(len(ds.objects))]
                        live.insert(donor.point, " ".join(donor.keywords))
                    states.append(frozenset(o.oid for o in ds.objects))
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    snap = live.snapshot()
                    for s in range(snap.n_slots):
                        if not snap.is_obj[s]:
                            children = range(snap.first_child[s], snap.last_child[s])
                            assert snap.cnt[s] == sum(snap.cnt[c] for c in children)
                    seen.append(_live_objects(snap))
            except Exception as exc:  # reported below, with the thread's name
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert seen and set(seen) <= set(states)

    def test_replaced_unions_are_freed_without_the_gc(self):
        ds, live = make_live(n=80)
        queries = sample_queries(ds, 6, seed=12)
        searcher = RSTkNNSearcher(live, engine="snapshot")
        gc.collect()
        gc.disable()
        try:
            # Snapshots other tests keep alive stay referenced here, so
            # their ids cannot be reused by this test's snapshots.
            before = [o for o in gc.get_objects() if isinstance(o, IndexSnapshot)]
            known = {id(o) for o in before}
            searcher.search(queries[0], 4)  # the frozen snapshot
            for i, query in enumerate(queries[1:]):
                live.insert(Point(float(i), 2.0), "alpha beta")
                searcher.search(query, 4)  # one union per generation
            alive = [
                o
                for o in gc.get_objects()
                if isinstance(o, IndexSnapshot) and id(o) not in known
            ]
            assert len(alive) <= 2
        finally:
            gc.enable()

    def test_write_between_freeze_and_engine_fetch_leaks_nothing(self):
        """A write landing after a reader froze the union but before it
        fetched its engine must not leave an engine memoized on a union
        the view no longer holds (the steps of two threads, in order)."""
        ds, live = make_live(n=80)
        queries = sample_queries(ds, 4, seed=12)
        searcher = RSTkNNSearcher(live, engine="snapshot")
        gc.collect()
        gc.disable()
        try:
            before = [o for o in gc.get_objects() if isinstance(o, IndexSnapshot)]
            known = {id(o) for o in before}
            searcher.search(queries[0], 4)  # the frozen snapshot
            for i, query in enumerate(queries[1:]):
                live.insert(Point(float(i), 2.0), "alpha beta")
                with live.pin() as view:
                    union = view.snapshot()  # reader: freeze
                    live.insert(Point(float(i), 4.0), "beta gamma")  # writer
                    engine = union.engine_for(  # reader: fetch its engine
                        view, searcher.measure, searcher.alpha, searcher.te_weight
                    )
                    engine.search(query, 4)
                del union, engine, view
                searcher.search(query, 4)  # the next read replaces the union
            alive = [
                o
                for o in gc.get_objects()
                if isinstance(o, IndexSnapshot) and id(o) not in known
            ]
            assert len(alive) <= 2
        finally:
            gc.enable()

    def test_fold_frees_the_old_frozen_snapshot_without_the_gc(self):
        ds, live = make_live(n=80)
        queries = sample_queries(ds, 4, seed=12)
        searcher = RSTkNNSearcher(live, engine="snapshot")
        gc.collect()
        gc.disable()
        try:
            before = [o for o in gc.get_objects() if isinstance(o, IndexSnapshot)]
            known = {id(o) for o in before}
            for i in range(3):
                searcher.search(queries[0], 4)  # clean: the frozen snapshot
                live.insert(Point(float(i), 3.0), "alpha beta")
                assert live.delete_object(ds.objects[i].oid)
                searcher.search(queries[1], 4)  # dirty: a union over it
                assert live.freeze_step()
            searcher.search(queries[2], 4)
            live.insert(Point(5.0, 5.0), "gamma")
            searcher.search(queries[3], 4)
            alive = [
                o
                for o in gc.get_objects()
                if isinstance(o, IndexSnapshot) and id(o) not in known
            ]
            # The current frozen snapshot and the current union.
            assert len(alive) <= 2
        finally:
            gc.enable()

    def test_union_never_refreezes_the_view(self, monkeypatch):
        """Once the frozen snapshot exists, writes and dirty reads run no
        O(n) Python freeze: the union derives from the frozen slots."""
        ds, live = make_live(n=120)
        queries = sample_queries(ds, 3, seed=2)
        searcher = RSTkNNSearcher(live, engine="snapshot")
        searcher.search(queries[0], 4)  # freezes the frozen tree once

        def refuse(*_args, **_kwargs):
            raise AssertionError("a dirty read re-froze the tree")

        monkeypatch.setattr(IndexSnapshot, "from_tree", classmethod(refuse))
        monkeypatch.setattr(IURTree, "peek_children", refuse)
        try:
            for round_ in range(3):
                _write_mix(live, ds, 4, seed=round_)
                for query in queries:
                    ids = searcher.search(query, 4).ids
                    assert ids == BruteForceRSTkNN(ds).search(query, 4)
        finally:
            live.close()

    def test_fold_freezes_the_new_snapshot(self, monkeypatch):
        """The fold pays the new tree's O(n) freeze, so the first read
        after it, clean or dirty, runs no ``IndexSnapshot.from_tree``."""
        ds, live = make_live(n=120)
        queries = sample_queries(ds, 2, seed=8)
        searcher = RSTkNNSearcher(live, engine="snapshot")

        def refuse(*_args, **_kwargs):
            raise AssertionError("a read after the fold froze the tree")

        try:
            _write_mix(live, ds, 6, seed=1)
            assert live.freeze_step()
            monkeypatch.setattr(
                IndexSnapshot, "from_tree", classmethod(refuse)
            )
            _write_mix(live, ds, 4, seed=2)
            assert live.overlay_dirty
            for query in queries:
                ids = searcher.search(query, 4).ids
                assert ids == BruteForceRSTkNN(ds).search(query, 4)
        finally:
            live.close()

    def test_next_generation_reuses_the_frozen_memo(self):
        """A read on generation g+1 misses fewer pair bounds than the
        same read on a cold union of the same view: the pairs of stable
        frozen slots were memoized by the read on generation g."""

        def replay(warm):
            ds, live = make_live(n=150, seed=23)
            query = sample_queries(ds, 1, seed=7)[0]
            searcher = RSTkNNSearcher(live, engine="snapshot")
            _write_mix(live, ds, 3, seed=4)
            if warm:
                searcher.search(query, 4)  # generation g
            live.insert(Point(50.0, 50.0), "sushi ramen")
            assert live.delete_object(ds.objects[10].oid)
            result = searcher.search(query, 4)  # generation g + 1
            assert result.ids == BruteForceRSTkNN(ds).search(query, 4)
            live.close()
            return result

        warm, cold = replay(True), replay(False)
        assert warm.ids == cold.ids
        assert _decisions(warm) == _decisions(cold)
        assert warm.stats.cache_misses < cold.stats.cache_misses

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_warm_memo_parity_through_one_fold_generation(
        self, monkeypatch, alpha
    ):
        """Read, write, read, ... on one fold generation: every read
        over the union (its engine reusing the frozen memo) equals the
        seed walk over the same pinned view and brute force."""
        ds = STDataset.from_corpus(
            random_corpus(160, seed=11), SimilarityConfig(alpha=alpha)
        )
        tree = CIURTree.build(
            ds,
            IndexConfig(
                num_clusters=4, outlier_threshold=0.5, use_entropy_priority=True
            ),
        )
        live = LiveIndex(tree, freeze_threshold=10**9)
        queries = sample_queries(ds, 2, seed=3)
        n_slots = tree.snapshot().n_slots
        reads = 0

        def check():
            nonlocal reads
            with live.pin() as view:
                assert view.overlay_dirty
                seed = RSTkNNSearcher(view, engine="seed")
                snap = RSTkNNSearcher(view, engine="snapshot")
                brute = BruteForceRSTkNN(ds)
                for query in queries:
                    for k in (1, 4, 9):
                        view.reset_io()
                        expected = seed.search(query, k)
                        view.reset_io()
                        got = snap.search(query, k)
                        assert got.ids == expected.ids == brute.search(query, k)
                        assert _decisions(got) == _decisions(expected)
                        assert got.io == expected.io
                        reads += 1
                return view.snapshot()

        try:
            # A dead outlier.
            assert tree.outliers, "the OE threshold should extract outliers"
            assert live.delete_object(tree.outliers[0].oid)
            check()
            # A leaf whose objects are all deleted.
            leaf = next(
                node
                for node in tree.rtree.nodes.values()
                if node.is_leaf and node.node_id != tree.rtree.root_id
            )
            for entry in leaf.entries:
                assert live.delete_object(entry.ref)
            union = check()
            dead_leaf = [
                s for s in range(n_slots)
                if not union.is_obj[s] and union.ref[s] == leaf.node_id
            ]
            assert dead_leaf and union.cnt[dead_leaf[0]] == 0
            # A CIUR node losing its last object of one cluster.
            victim = _last_of_a_cluster(tree, live)
            assert live.delete_object(victim)
            union = check()
            assert 0 in union.stable[:n_slots], "no slot was marked changed"
            # An overlay insert whose label raises num_clusters().
            labels = tree.num_clusters()
            with monkeypatch.context() as patch:
                patch.setattr(tree, "assign_cluster", lambda obj: (labels, 1.0))
                donor = ds.objects[5]
                live.insert(donor.point, " ".join(donor.keywords))
            with live.pin() as view:
                assert view.num_clusters() == labels + 1
            check()
            # Mixed churn on top, still on the same fold generation.
            for seed in range(3):
                _write_mix(live, ds, 4, seed=seed)
                check()
            assert live.epoch == 0 and reads == 7 * 6
        finally:
            live.close()


    def test_released_snapshot_memoizes_no_engines(self):
        ds, live = make_live(n=60)
        churn(live, ds, inserts=2, deletes=1)
        searcher = RSTkNNSearcher(live, engine="snapshot")
        query = sample_queries(ds, 1, seed=4)[0]
        searcher.search(query, 3)
        union = live.snapshot()
        assert union._engines
        live.insert(Point(2.0, 2.0), "alpha")
        searcher.search(query, 3)  # this read replaces and releases it
        assert live.snapshot() is not union
        assert not union._engines
        engine = union.engine_for(live, searcher.measure, 0.5, 0.0)
        assert engine.snap is union and not union._engines


class TestServiceDegradation:
    def test_dirty_live_tree_is_served_by_the_snapshot_hop(self):
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
                assert not result.degraded
                assert result.engine == "snapshot"
                assert result.ids == BruteForceRSTkNN(ds).search(query, 4)
            counters = registry.snapshot()["counters"]
            assert counters["search.queries.snapshot"] == len(queries)
            live.freeze_step()
            for query in queries:
                service.submit(query, 4)
            for result in service.drain().results:
                assert not result.degraded
        finally:
            live.close()


class TestBatchLive:
    def test_dirty_parallel_ships_the_union_over_shm(self):
        from repro.perf.shm import shm_available

        ok, why = shm_available()
        if not ok:
            pytest.skip(f"shm transport unavailable: {why}")
        ds, live = make_live(n=100, seed=51)
        engine = BatchSearcher(live, workers=2)
        try:
            # Thirty tombstones leave dead slots all over the union; an
            # attached copy has no frozen base, so its walk must skip
            # them by ``cnt`` alone.
            for obj in list(ds.objects)[::3][:30]:
                assert live.delete_object(obj.oid)
            churn(live, ds, inserts=4, deletes=0, seed=21)
            assert len(live._view.tombstones) == 30
            queries = sample_queries(ds, 10, seed=6)
            for fold in (False, True):
                if fold:
                    assert live.freeze_step()  # clean: the frozen snapshot
                for k in (1, 4, 9):
                    batch = engine.run(queries, k)
                    assert batch.stats.workers == 2
                    assert batch.stats.fallback_reason is None
                    brute = BruteForceRSTkNN(ds)
                    for query, ids in zip(queries, batch.id_lists()):
                        assert ids == brute.search(query, k)
        finally:
            live.close()

    def _run_without_shm(self, monkeypatch, *, fold):
        # Without shared memory a live batch runs in this process, clean
        # or dirty alike: the fallback is recorded and counted, not warned.
        from repro.perf import batch as batch_mod
        from repro.perf import shm as shm_mod

        monkeypatch.setattr(
            shm_mod, "shm_available", lambda: (False, "forced")
        )

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", no_pool)
        registry = MetricsRegistry()
        ds, live = make_live(n=100, seed=51)
        engine = BatchSearcher(live, workers=2, metrics=registry)
        try:
            churn(live, ds, seed=21)
            if fold:
                assert live.freeze_step()
            assert live.overlay_dirty is not fold
            queries = sample_queries(ds, 4, seed=6)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = engine.run(queries, 4)
            assert batch.stats.workers == 1
            assert batch.stats.fallback_reason == "shm_unavailable (forced)"
            brute = BruteForceRSTkNN(ds)
            for query, ids in zip(queries, batch.id_lists()):
                assert ids == brute.search(query, 4)
            counters = registry.snapshot()["counters"]
            fallbacks = {
                c: v for c, v in counters.items()
                if c.startswith("batch.fallback.")
            }
            assert fallbacks == {"batch.fallback.shm_unavailable": 1}
        finally:
            live.close()

    def test_clean_parallel_runs_in_process_without_shm(self, monkeypatch):
        self._run_without_shm(monkeypatch, fold=True)

    def test_dirty_parallel_falls_back_sequential(self, monkeypatch):
        self._run_without_shm(monkeypatch, fold=False)


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
