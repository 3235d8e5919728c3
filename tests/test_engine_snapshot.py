"""Snapshot traversal engine: structure, parity, and staleness.

The ``snapshot`` engine must be indistinguishable from the seed walk in
everything except speed: identical result sets, identical decision
counters, identical simulated I/O.  These tests pin that contract and
the invalidation rules (structural generation, kernel backend,
pickling) that keep a frozen snapshot honest.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CIURTree,
    IndexConfig,
    IURTree,
    RSTkNNSearcher,
    SimilarityConfig,
    STDataset,
)
from repro.bench.harness import build_tree, run_queries
from repro.config import TEXT_MEASURES
from repro.core.rstknn import ENGINE_CHOICES, ENGINE_ENV_VAR
from repro.core.traversal import QueryProbe, SnapshotEngine
from repro.core.explain import SearchTrace
from repro.errors import ConfigError, IndexError_
from repro.obs import MetricsRegistry
from repro.perf.snapshot import IndexSnapshot
from repro.spatial import Point
from repro.text.similarity import make_measure
from repro.workloads import sample_queries

from tests.conftest import FORMS, frozen_form, random_corpus

#: Decision counters that must match bit-for-bit across engines.
#: (``elapsed_seconds`` is wall time; the ``cache_*`` counters describe
#: each engine's own memo, whose hit pattern legitimately differs.)
_TIMING_KEYS = {"elapsed_seconds", "cache_hits", "cache_misses"}


def _decisions(result):
    return {
        key: value
        for key, value in result.stats.as_dict().items()
        if key not in _TIMING_KEYS
    }


def _run(searcher, tree, query, k):
    tree.reset_io(cold=True)
    return searcher.search(query, k)


def assert_parity(tree, queries, k, config=None):
    seed = RSTkNNSearcher(tree, config, engine="seed")
    snap = RSTkNNSearcher(tree, config, engine="snapshot")
    for query in queries:
        a = _run(seed, tree, query, k)
        b = _run(snap, tree, query, k)
        assert b.ids == a.ids
        assert _decisions(b) == _decisions(a)
        assert b.io == a.io


class TestSnapshotStructure:
    def test_slot_partition(self, medium_dataset):
        tree = IURTree.build(medium_dataset)
        snap = tree.snapshot()
        assert isinstance(snap, IndexSnapshot)
        n_objects = sum(snap.is_obj)
        assert n_objects == len(medium_dataset)
        # Every directory slot owns a non-empty, in-range child span;
        # every object slot owns none.
        for slot in range(snap.n_slots):
            first, last = snap.first_child[slot], snap.last_child[slot]
            if snap.is_obj[slot]:
                assert first == last == 0
            else:
                assert 0 < first < last <= snap.n_slots
                assert snap.cnt[slot] == sum(
                    snap.cnt[c] for c in range(first, last)
                )

    def test_counts_and_describe(self, small_dataset):
        tree = IURTree.build(small_dataset)
        snap = tree.snapshot()
        root = snap.root_slots[0]
        assert snap.cnt[root] + (len(snap.root_slots) - 1) == len(small_dataset)
        info = snap.describe()
        assert info["slots"] == snap.n_slots
        assert info["objects"] == len(small_dataset)
        assert info["columnar_bytes"] == snap.nbytes() > 0

    def test_snapshot_memoized(self, small_dataset):
        tree = IURTree.build(small_dataset)
        assert tree.snapshot() is tree.snapshot()

    def test_generation_invalidates(self, small_dataset):
        ds = STDataset.from_corpus(random_corpus(60, seed=11))
        tree = IURTree.build(ds)
        before = tree.snapshot()
        obj = ds.append_record(Point(50.0, 50.0), "sushi wine")
        tree.insert_object(obj)
        after = tree.snapshot()
        assert after is not before
        assert after.generation > before.generation
        assert sum(after.is_obj) == sum(before.is_obj) + 1

    def test_unpersisted_node_fails_the_freeze(self, small_dataset):
        tree = IURTree.build(small_dataset)
        del tree._record_ids[tree.rtree.root_id]
        with pytest.raises(IndexError_, match="never persisted"):
            IndexSnapshot.from_tree(tree)

    def test_pickle_drops_cached_snapshot(self, small_dataset):
        tree = IURTree.build(small_dataset)
        tree.snapshot()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone._snapshot_cache is None
        assert clone.snapshot().n_slots == tree.snapshot().n_slots


class TestEngineResolution:
    def test_invalid_engine_rejected(self, small_dataset):
        tree = IURTree.build(small_dataset)
        with pytest.raises(ConfigError):
            RSTkNNSearcher(tree, engine="warp")

    def test_auto_prefers_snapshot(self, small_dataset):
        tree = IURTree.build(small_dataset)
        searcher = RSTkNNSearcher(tree, engine="auto")
        assert searcher._resolve_engine() == "snapshot"

    def test_traced_requests_stay_on_snapshot(self, small_dataset):
        # Since the TraceSink generalization (repro.obs), tracing works
        # on every engine: a trace never downgrades the request.
        tree = IURTree.build(small_dataset)
        registry = MetricsRegistry()
        searcher = RSTkNNSearcher(tree, engine="snapshot", metrics=registry)
        trace = SearchTrace()
        query = sample_queries(small_dataset, 1, seed=1)[0]
        result = searcher.search(query, 3, trace=trace)
        assert trace.events  # the snapshot walk recorded decisions
        counters = registry.snapshot()["counters"]
        assert counters["search.queries.snapshot"] == 1
        assert "search.queries.seed" not in counters
        assert result.ids == RSTkNNSearcher(tree, engine="seed").search(
            query, 3
        ).ids

    def test_env_var_selects_default(self, small_dataset, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "seed")
        tree = IURTree.build(small_dataset)
        assert RSTkNNSearcher(tree).engine == "seed"

    def test_env_var_typo_warns_and_uses_auto(self, small_dataset, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "snapshto")
        tree = IURTree.build(small_dataset)
        with pytest.warns(RuntimeWarning):
            searcher = RSTkNNSearcher(tree)
        assert searcher.engine == "auto"

    def test_engine_choices_exported(self):
        assert set(ENGINE_CHOICES) == {"seed", "snapshot", "auto", "approx"}


class TestParityAcrossIndexVariants:
    @pytest.mark.parametrize("method", ["iur", "ciur", "ciur-oe-te"])
    def test_methods(self, medium_dataset, method):
        tree = build_tree(medium_dataset, method)
        queries = sample_queries(medium_dataset, 4, seed=13)
        assert_parity(tree, queries, k=4)

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_alphas(self, medium_dataset, alpha):
        tree = build_tree(medium_dataset, "ciur")
        queries = sample_queries(medium_dataset, 3, seed=17)
        assert_parity(tree, queries, k=3, config=SimilarityConfig(alpha=alpha))

    @pytest.mark.parametrize("measure", TEXT_MEASURES)
    def test_measures(self, small_dataset, measure):
        tree = build_tree(small_dataset, "ciur")
        queries = sample_queries(small_dataset, 3, seed=19)
        config = SimilarityConfig(alpha=0.4, text_measure=measure)
        assert_parity(tree, queries, k=3, config=config)

    @pytest.mark.parametrize("k", [1, 7])
    def test_k_values(self, medium_dataset, k):
        tree = build_tree(medium_dataset, "iur")
        queries = sample_queries(medium_dataset, 3, seed=23)
        assert_parity(tree, queries, k=k)

    def test_harness_threads_engine(self, small_dataset):
        tree = build_tree(small_dataset, "iur")
        queries = sample_queries(small_dataset, 3, seed=29)
        a = run_queries(tree, queries, 3, engine="seed")
        b = run_queries(tree, queries, 3, engine="snapshot")
        assert b.mean_result_size == a.mean_result_size
        assert b.mean_reads == a.mean_reads
        assert b.mean_expansions == a.mean_expansions


class TestStalenessAfterUpdates:
    def test_snapshot_engine_sees_inserts(self):
        ds = STDataset.from_corpus(random_corpus(80, seed=31))
        tree = IURTree.build(ds)
        searcher = RSTkNNSearcher(tree, engine="snapshot")
        query = sample_queries(ds, 1, seed=2)[0]
        searcher.search(query, 3)  # freeze the pre-insert snapshot
        obj = ds.append_record(Point(42.0, 58.0), "coffee bakery")
        tree.insert_object(obj)
        assert_parity(tree, sample_queries(ds, 3, seed=3), k=3)

    def test_snapshot_engine_sees_deletes(self):
        ds = STDataset.from_corpus(random_corpus(80, seed=31))
        tree = IURTree.build(ds)
        searcher = RSTkNNSearcher(tree, engine="snapshot")
        query = sample_queries(ds, 1, seed=2)[0]
        searcher.search(query, 3)  # freeze the pre-delete snapshot
        victim = ds.objects[17]
        assert tree.delete_object(victim.oid)
        queries = sample_queries(ds, 3, seed=3)
        for q in queries:
            assert victim.oid not in searcher.search(q, 3).ids
        assert_parity(tree, queries, k=3)


TERMS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    records = []
    for _ in range(n):
        x = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
        y = draw(st.floats(min_value=0, max_value=10, allow_nan=False))
        count = draw(st.integers(min_value=0, max_value=4))
        words = [draw(st.sampled_from(TERMS)) for _ in range(count)]
        records.append((Point(x, y), " ".join(words)))
    return records


@given(
    corpora(),
    st.floats(min_value=-2, max_value=12, allow_nan=False),
    st.floats(min_value=-2, max_value=12, allow_nan=False),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=40, deadline=None)
def test_snapshot_engine_matches_seed(records, qx, qy, k, alpha):
    config = SimilarityConfig(alpha=alpha)
    dataset = STDataset.from_corpus(records, config)
    tree = CIURTree.build(
        dataset, IndexConfig(max_entries=4, min_entries=2, num_clusters=3)
    )
    query = dataset.make_query(Point(qx, qy), "alpha gamma")
    seed = RSTkNNSearcher(tree, engine="seed").search(query, k)
    snap = RSTkNNSearcher(tree, engine="snapshot").search(query, k)
    assert snap.ids == seed.ids
    # The columnar walk may never probe more objects than the seed walk.
    assert snap.stats.verified_objects <= seed.stats.verified_objects


def test_snapshot_engine_used_directly(small_dataset):
    tree = IURTree.build(small_dataset)
    searcher = RSTkNNSearcher(tree, engine="snapshot")
    query = sample_queries(small_dataset, 1, seed=9)[0]
    result = searcher.search(query, 3)
    engines = tree.snapshot()._engines
    assert engines and all(
        isinstance(e, SnapshotEngine) for e in engines.values()
    )
    assert result.stats.result_count == len(result.ids)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("method", ["iur", "ciur"])
def test_query_probe_is_the_pair_bound_of_a_point_slot(form, method):
    # The walk bounds the query as a point with one degenerate cluster,
    # so probing with a resident object must reproduce the engine's own
    # pair bound against that object's slot, bit for bit.
    with frozen_form(form):
        ds = STDataset.from_corpus(random_corpus(40, seed=37))
        tree = build_tree(ds, method)
        snap = tree.snapshot()
    objects = [s for s in range(snap.n_slots) if snap.is_obj[s]]
    assert objects and len(objects) < snap.n_slots
    for name in TEXT_MEASURES:
        measure = make_measure(name)
        for alpha in (0.0, 0.3, 0.5, 0.9, 1.0):
            engine = SnapshotEngine(tree, snap, measure, alpha, 0.0)
            for s in objects:
                probe = QueryProbe(snap, measure, alpha, ds.get(snap.ref[s]))
                for e in range(snap.n_slots):
                    assert probe.bounds(e) == engine._compute_st(s, e)
                    assert probe.text_upper(e) == probe.text_bounds(e)[1]
