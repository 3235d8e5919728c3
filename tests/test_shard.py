"""Sharded scatter–gather engine: parity, pruning soundness, planning.

The sharded engine is only allowed to exist because it is bit-identical
to the unsharded snapshot engine — shard-local answers are a candidate
*superset* (fewer within-shard competitors can only shrink counts) and
the merge re-verifies every candidate against all shards.  These tests
pin that contract:

* **merge determinism** (hypothesis) — the gathered id list is
  byte-identical to the unsharded engine across shard counts, alphas,
  and ``k``, including corpora built entirely of duplicated objects so
  similarity ties are everywhere;
* **pruned shards stay exact** — on the clustered workload with a
  spatial-heavy alpha, admission genuinely prunes shards (empty partial
  results) and the merged answer still matches the unsharded engine;
* **count soundness** — ``repro.shard.merge.count_better`` agrees with a
  brute-force competitor count via ``exact_similarity``, and the
  admission upper bound dominates every object's exact similarity;
* **planning** — Morton partitions are balanced, disjoint, complete,
  and deterministic; config knobs validate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import STDataset, SimilarityConfig
from repro.core.traversal import QueryProbe
from repro.errors import ConfigError, QueryError
from repro.index.iurtree import IURTree
from repro.shard import (
    DEFAULT_KMAX,
    ScatterGatherSearcher,
    ShardPlanner,
    build_sharded_index,
    build_summary,
    exact_similarity,
    query_upper,
)
from repro.shard.merge import count_better
from repro.shard.planner import locality_order
from repro.spatial import Point
from repro.text.similarity import make_measure
from repro.workloads import gn_like, sample_queries

_STATE = {}


def _env():
    if not _STATE:
        dataset = gn_like(n=240)
        tree = IURTree.build(dataset)
        tree.snapshot()
        queries = sample_queries(dataset, 8, seed=41)
        indexes = {s: build_sharded_index(dataset, s) for s in (1, 2, 3, 4)}
        _STATE.update(
            dataset=dataset, tree=tree, queries=queries, indexes=indexes
        )
    return _STATE


def _unsharded_ids(env, alpha: float, query, k: int):
    measure = make_measure(env["dataset"].config.text_measure)
    engine = env["tree"].snapshot().engine_for(
        env["tree"], measure, alpha, 0.0
    )
    return list(engine.search(query, k).ids)


def _searcher(env, shard_count: int, alpha: float) -> ScatterGatherSearcher:
    config = SimilarityConfig(
        alpha=alpha, text_measure=env["dataset"].config.text_measure
    )
    return ScatterGatherSearcher(env["indexes"][shard_count], config)


# ----------------------------------------------------------------------
# Merge determinism (hypothesis)
# ----------------------------------------------------------------------


class TestMergeDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        shard_count=st.sampled_from([1, 2, 3, 4]),
        alpha=st.sampled_from([0.2, 0.5, 0.9]),
        k=st.integers(min_value=1, max_value=8),
        query_index=st.integers(min_value=0, max_value=7),
    )
    def test_gather_matches_unsharded_engine(
        self, shard_count, alpha, k, query_index
    ):
        env = _env()
        query = env["queries"][query_index]
        reference = _unsharded_ids(env, alpha, query, k)
        result = _searcher(env, shard_count, alpha).search(query, k)
        assert list(result.ids) == reference
        stats = result.stats
        assert stats.shards_total == shard_count
        assert stats.shards_searched + stats.shards_pruned == shard_count

    @settings(max_examples=15, deadline=None)
    @given(
        shard_count=st.sampled_from([1, 2, 4]),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_tie_heavy_corpus_is_deterministic(self, shard_count, k):
        # Every object duplicated at identical coordinates with identical
        # text: similarity ties everywhere, so any nondeterminism in the
        # merge ordering would surface as a flipped id list.
        records = []
        for i in range(12):
            point = Point(float(i % 4) * 10.0, float(i // 4) * 10.0)
            text = ["sushi ramen", "pizza pasta", "tacos wine"][i % 3]
            records.append((point, text))
            records.append((point, text))
        dataset = STDataset.from_corpus(records)
        tree = IURTree.build(dataset)
        measure = make_measure(dataset.config.text_measure)
        engine = tree.snapshot().engine_for(
            tree, measure, dataset.config.alpha, 0.0
        )
        index = build_sharded_index(dataset, shard_count)
        searcher = ScatterGatherSearcher(index)
        for query in sample_queries(dataset, 4, seed=7):
            reference = list(engine.search(query, k).ids)
            assert list(searcher.search(query, k).ids) == reference


# ----------------------------------------------------------------------
# Admission pruning
# ----------------------------------------------------------------------


class TestPruning:
    def test_pruned_shards_preserve_parity(self):
        # Spatial-only similarity on the clustered workload: shards far
        # from the query's cluster fall below the local competitor floor
        # and are admission-pruned (their partial result is empty), yet
        # the merged answer must not move.
        dataset = gn_like(n=600)
        tree = IURTree.build(dataset)
        config = SimilarityConfig(
            alpha=1.0, text_measure=dataset.config.text_measure
        )
        measure = make_measure(config.text_measure)
        engine = tree.snapshot().engine_for(tree, measure, 1.0, 0.0)
        index = build_sharded_index(dataset, 6)
        searcher = ScatterGatherSearcher(index, config)
        pruned_total = 0
        for query in sample_queries(dataset, 10, seed=13):
            for k in (1, 3, 5):
                result = searcher.search(query, k)
                pruned_total += result.stats.shards_pruned
                assert list(result.ids) == list(engine.search(query, k).ids)
        assert pruned_total > 0, (
            "expected nonzero shard pruning on the clustered workload "
            "with spatial-only similarity"
        )

    def test_admission_split_is_exhaustive(self):
        env = _env()
        searcher = _searcher(env, 4, 0.9)
        admitted, pruned = searcher._admit(env["queries"][0], 3)
        assert sorted(admitted + pruned) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Bound / count soundness
# ----------------------------------------------------------------------


class TestSoundness:
    def test_query_upper_dominates_exact_similarity(self):
        env = _env()
        dataset = env["dataset"]
        maxD = dataset.proximity.max_distance
        for alpha in (0.2, 0.5, 0.9):
            searcher = _searcher(env, 3, alpha)
            for query in env["queries"][:4]:
                for sid, shard in enumerate(searcher.index.shards):
                    snap = shard.snapshot()
                    probe = QueryProbe(
                        snap, searcher.measure, alpha, query
                    )
                    upper = query_upper(probe, searcher._summaries[sid])
                    for obj in shard.dataset:
                        exact = exact_similarity(
                            query, obj, alpha, searcher.measure, maxD
                        )
                        assert upper >= exact - 1e-12

    def test_count_better_matches_brute_force(self):
        env = _env()
        dataset = env["dataset"]
        maxD = dataset.proximity.max_distance
        searcher = _searcher(env, 3, 0.5)
        budget = 10
        for query in env["queries"][:4]:
            q_sim = exact_similarity(
                query,
                next(iter(dataset)),
                0.5,
                searcher.measure,
                maxD,
            )
            for shard in searcher.index.shards:
                probe = QueryProbe(
                    shard.snapshot(), searcher.measure, 0.5, query
                )
                got = count_better(probe, shard.tree, q_sim, budget)
                truth = sum(
                    1
                    for obj in shard.dataset
                    if obj.oid != query.oid
                    and exact_similarity(
                        query, obj, 0.5, searcher.measure, maxD
                    )
                    > q_sim
                )
                if got < budget:
                    assert got == truth
                else:
                    assert truth >= budget

    def test_summary_knnl_is_non_increasing(self):
        env = _env()
        searcher = _searcher(env, 3, 0.5)
        for sid, shard in enumerate(searcher.index.shards):
            summary = build_summary(sid, searcher._engines[sid])
            assert summary.n_objects == len(shard.dataset)
            assert list(summary.knnl) == sorted(summary.knnl, reverse=True)
            assert all(value >= 0.0 for value in summary.knnl)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


class TestPlanner:
    def test_partition_is_balanced_disjoint_complete(self):
        env = _env()
        dataset = env["dataset"]
        for s in (1, 2, 3, 4, 7):
            plan = ShardPlanner(dataset, s).plan()
            sizes = [len(oids) for oids in plan.assignments]
            assert len(sizes) == s
            assert max(sizes) - min(sizes) <= 1
            flat = [oid for oids in plan.assignments for oid in oids]
            assert sorted(flat) == sorted(obj.oid for obj in dataset)

    def test_plan_is_deterministic(self):
        env = _env()
        a = ShardPlanner(env["dataset"], 4).plan()
        b = ShardPlanner(env["dataset"], 4).plan()
        assert a.assignments == b.assignments
        assert a.method == "morton"

    def test_shard_datasets_share_parent_geometry(self):
        env = _env()
        index = env["indexes"][3]
        parent = env["dataset"]
        for shard in index.shards:
            assert (
                shard.dataset.proximity.max_distance
                == parent.proximity.max_distance
            )
            assert shard.dataset.vocabulary is parent.vocabulary

    def test_shard_count_validation(self):
        env = _env()
        with pytest.raises(ConfigError):
            ShardPlanner(env["dataset"], 0)
        with pytest.raises(ConfigError):
            ShardPlanner(env["dataset"], len(env["dataset"]) + 1)


class TestLocalityOrder:
    def test_order_is_permutation_and_deterministic(self):
        queries = _env()["queries"]
        order = locality_order(queries)
        assert sorted(order) == list(range(len(queries)))
        assert order == locality_order(queries)

    def test_empty_workload(self):
        assert locality_order([]) == []


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------


class TestConfig:
    def test_constructors_validate_shard_knobs(self):
        env = _env()
        with pytest.raises(ConfigError):
            build_sharded_index(env["dataset"], 0)
        for bad in (0, -2):
            with pytest.raises(ConfigError):
                ScatterGatherSearcher(env["indexes"][2], kmax=bad)
        assert ScatterGatherSearcher(env["indexes"][2]).kmax == DEFAULT_KMAX

    def test_constructor_honors_kmax(self):
        env = _env()
        searcher = ScatterGatherSearcher(env["indexes"][2], kmax=4)
        assert searcher.kmax == 4
        query = env["queries"][0]
        reference = _unsharded_ids(
            env, env["dataset"].config.alpha, query, 3
        )
        assert list(searcher.search(query, 3).ids) == reference

    @pytest.mark.parametrize("k", [0, -1])
    def test_search_rejects_k_below_one(self, k):
        # Same contract as RSTkNNSearcher.search and BatchSearcher.run:
        # an answer of [] for k < 1 would be silently wrong.
        env = _env()
        searcher = ScatterGatherSearcher(env["indexes"][2])
        with pytest.raises(QueryError):
            searcher.search(env["queries"][0], k)

    def test_searcher_validation(self):
        # Both rounds run in-process, so the searcher takes no worker
        # count; passing one is an error, not a no-op.
        env = _env()
        with pytest.raises(TypeError):
            ScatterGatherSearcher(env["indexes"][2], workers=2)


# ----------------------------------------------------------------------
# Degenerate shards and sketch-tightened admission
# ----------------------------------------------------------------------


class TestSingleObjectShards:
    """A shard holding one object has zero within-shard competitors, so
    admission must never prune it — pinned explicitly rather than left
    to the 0.0 rows ``_kth_largest`` happens to produce."""

    def _tiny(self):
        dataset = gn_like(n=6)
        index = build_sharded_index(dataset, 6)
        return dataset, index

    def test_can_prune_never_true(self):
        _dataset, index = self._tiny()
        searcher = ScatterGatherSearcher(index)
        for summary in searcher._summaries:
            assert summary.n_objects == 1
            for k in range(1, 10):
                # Even an impossible query bound below every table value
                # must not prune a competitor-free shard.
                assert not summary.can_prune(-1.0, k)

    def test_parity_with_unsharded_engine(self):
        dataset, index = self._tiny()
        tree = IURTree.build(dataset)
        measure = make_measure(dataset.config.text_measure)
        searcher = ScatterGatherSearcher(index)
        engine = tree.snapshot().engine_for(
            tree, measure, dataset.config.alpha, 0.0
        )
        for query in sample_queries(dataset, 3, seed=5):
            for k in (1, 3, 8):
                assert searcher.search(query, k).ids == list(
                    engine.search(query, k).ids
                )


# ----------------------------------------------------------------------
# Walk counters
# ----------------------------------------------------------------------


class TestWalkCounters:
    @pytest.mark.parametrize("path", ["search", "serve"])
    def test_cold_walks_report_pair_memo_misses(self, path):
        # A sharded query's stats fold every shard walk's pair-memo
        # counters, on the direct read path and the per-shard service one.
        from repro.shard.http import ShardQueryService

        dataset = gn_like(n=160)
        index = build_sharded_index(dataset, 2)  # fresh: every memo cold
        searcher = ScatterGatherSearcher(index)
        query = sample_queries(dataset, 1, seed=5)[0]
        if path == "search":
            result = searcher.search(query, 3)
        else:
            result, _degraded = ShardQueryService(searcher).serve(query, 3)
        assert result.stats.shards_searched > 0
        assert result.stats.search.cache_misses > 0
