"""Batch engine parity: identical results to per-query runs, any mode."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import ThresholdBaseline
from repro.core.rstknn import ENGINE_ENV_VAR, RSTkNNSearcher
from repro.errors import ConfigError
from repro.index.iurtree import IURTree
from repro.perf import BatchSearcher
from repro.perf.shm import shm_available
from repro.spatial.point import Point
from repro.workloads import gn_like, sample_queries

_STATE = {}


def _fixture():
    """Dataset/tree/reference shared by the property tests (built once)."""
    if not _STATE:
        dataset = gn_like(n=120)
        tree = IURTree.build(dataset)
        queries = sample_queries(dataset, 5, seed=17)
        _STATE.update(dataset=dataset, tree=tree, queries=queries)
    return _STATE


def _reference_ids(tree, queries, k):
    return [RSTkNNSearcher(tree).search(q, k).ids for q in queries]


@settings(max_examples=8, deadline=None)
@given(k=st.integers(min_value=1, max_value=6), count=st.integers(1, 5))
def test_sequential_batch_matches_per_query(k, count):
    env = _fixture()
    queries = env["queries"][:count]
    engine = BatchSearcher(env["tree"], workers=1)
    batch = engine.run(queries, k)
    assert batch.id_lists() == _reference_ids(env["tree"], queries, k)
    assert len(batch) == count
    assert batch.stats.workers == 1
    assert batch.stats.queries == count


def test_parallel_batch_matches_per_query():
    env = _fixture()
    queries = env["queries"]
    engine = BatchSearcher(env["tree"], workers=2)
    batch = engine.run(queries, 4)
    assert batch.id_lists() == _reference_ids(env["tree"], queries, 4)
    # A seed batch, or one without shared memory, runs in this process.
    pooled = engine.engine != "seed" and shm_available()[0]
    assert batch.stats.workers == (2 if pooled else 1)


def test_sequential_default_runs_snapshot_engine(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    env = _fixture()
    tree, queries = env["tree"], env["queries"]
    engine = BatchSearcher(tree, workers=1)
    assert engine._searcher._resolve_engine() == "snapshot"
    seed = RSTkNNSearcher(tree, engine="seed")
    baseline = ThresholdBaseline(tree)
    for _ in range(2):  # the second run reads a warm pair memo
        batch = engine.run(queries, 3)
        assert batch.id_lists() == [seed.search(q, 3).ids for q in queries]
        assert batch.id_lists() == [baseline.search(q, 3) for q in queries]


def _decisions(result):
    stats = result.stats
    return (
        stats.expansions,
        stats.pruned_entries,
        stats.pruned_objects,
        stats.accepted_entries,
        stats.accepted_objects,
        stats.verified_objects,
    )


def test_parallel_run_follows_env_seed_engine(monkeypatch):
    # REPRO_ENGINE=seed must reach the pool choice: the seed walk reads
    # the object graph, so there is no snapshot to share and the batch
    # runs in this process.
    monkeypatch.setenv(ENGINE_ENV_VAR, "seed")
    env = _fixture()
    engine = BatchSearcher(env["tree"], workers=2)
    batch = engine.run(env["queries"], 3)
    assert engine.engine == "seed"
    assert batch.stats.workers == 1
    assert batch.stats.fallback_reason is None
    assert batch.id_lists() == _reference_ids(env["tree"], env["queries"], 3)


def test_parallel_run_follows_env_approx_engine(monkeypatch):
    # REPRO_ENGINE=approx must reach the workers: every query's decision
    # counters equal a sequential engine="approx" run's.
    monkeypatch.setenv(ENGINE_ENV_VAR, "approx")
    env = _fixture()
    queries = env["queries"]
    parallel = BatchSearcher(env["tree"], workers=2).run(queries, 3)
    sequential = BatchSearcher(env["tree"], engine="approx").run(queries, 3)
    assert parallel.id_lists() == sequential.id_lists()
    assert [_decisions(r) for r in parallel.results] == [
        _decisions(r) for r in sequential.results
    ]


def _memo_counts(batch):
    hits = sum(r.stats.cache_hits for r in batch.results)
    misses = sum(r.stats.cache_misses for r in batch.results)
    return hits, misses


def test_sequential_cache_warms_across_runs():
    # A private tree: the insert below must not leak into the fixture.
    dataset = gn_like(n=120)
    tree = IURTree.build(dataset)
    queries = sample_queries(dataset, 5, seed=17)
    engine = BatchSearcher(tree, workers=1, engine="snapshot")
    first = engine.run(queries, 3)
    again = engine.run(queries, 3)
    assert again.id_lists() == first.id_lists()
    first_hits, first_misses = _memo_counts(first)
    again_hits, again_misses = _memo_counts(again)
    assert first_misses > 0
    assert again_hits > first_hits
    assert again_misses == 0  # every pair bound was memoized by run one
    # An index update retires the memo with its snapshot.
    tree.insert_object(dataset.append_record(Point(42.0, 58.0), "coffee"))
    after = engine.run(queries, 3)
    assert _memo_counts(after)[1] > 0
    assert after.id_lists() == [
        RSTkNNSearcher(tree, engine="seed").search(q, 3).ids for q in queries
    ]


def test_batch_stats_as_dict_flattens_cache_counters():
    env = _fixture()
    engine = BatchSearcher(env["tree"], workers=1, engine="snapshot")
    batch = engine.run(env["queries"][:2], 3)
    flat = batch.stats.as_dict()
    assert flat["queries"] == 2
    assert "phase_walk_seconds" in flat and "latency_p50_ms" in flat
    # Memo counters are per query; the batch-level dict carries none.
    assert not [key for key in flat if key.startswith("cache_")]
    per_query = [r.stats.as_dict() for r in batch.results]
    assert all("cache_hits" in d and "cache_misses" in d for d in per_query)
    assert sum(d["cache_hits"] + d["cache_misses"] for d in per_query) > 0


def test_rejects_nonpositive_workers():
    env = _fixture()
    with pytest.raises(ConfigError):
        BatchSearcher(env["tree"], workers=0)


def test_picklable_run_reports_no_fallback():
    env = _fixture()
    batch = BatchSearcher(env["tree"], workers=1).run(env["queries"][:2], 3)
    assert batch.stats.fallback_reason is None
    assert "fallback_reason" not in batch.stats.as_dict()


def test_cli_batch_smoke(capsys):
    from repro.cli import main

    assert main(["batch", "--n", "100", "--queries", "2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out and "mean latency" in out
