"""Scatter–gather RSTkNN search over a Morton-sharded index.

One query runs in two exact rounds over the shards of a
:class:`~repro.shard.planner.ShardedIndex`, both in this process:

1. **Scatter** — the query's optimistic bound against each shard's
   summary frontier is compared with the shard's precomputed
   within-shard competitor floor (:mod:`repro.shard.summaries`);
   shards that cannot host an answer are skipped (``shard.pruned``),
   the rest run an *unmodified*
   :class:`~repro.core.traversal.SnapshotEngine` search
   (``shard.searched``).  Because a shard-local search sees fewer
   competitors than the global index, its answer set is a **superset**
   of the global answer restricted to that shard — no true answer is
   lost, and pruned shards provably contribute none.
2. **Gather/merge** — every round-1 candidate is re-judged globally:
   its exact ``SimST`` against the query is computed once, then
   strictly-better competitors are counted shard by shard with
   :func:`~repro.shard.merge.count_better` over a
   :class:`~repro.core.traversal.QueryProbe`, capped at the
   remaining budget and stopped as soon as the running total reaches
   ``k`` (pruned shards are probed here too, since their objects still
   *compete*).  A candidate survives iff the global competitor count is
   at most ``k - 1`` — the same tie-inclusive rule as the unsharded
   engines — so the merged, ascending-id answer list is bit-identical
   to the unsharded snapshot engine's, which the bench and test suites
   hard-gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SimilarityConfig
from ..core.rstknn import SearchStats
from ..core.traversal import QueryProbe
from ..errors import ConfigError, QueryError
from ..model.objects import STObject
from ..obs import NULL_REGISTRY, MetricsRegistry
from ..text.similarity import make_measure
from .merge import count_better, exact_similarity
from .planner import ShardedIndex
from .summaries import DEFAULT_FRONTIER, DEFAULT_KMAX, query_upper

#: Fan-out histogram buckets: how many shards one query searched.
SHARD_FANOUT_BUCKETS = (1, 2, 4, 8, 16, 32)


@dataclass
class ShardQueryStats:
    """Per-query scatter–gather accounting.

    ``shards_pruned`` counts admission rejections (no round-1 walk);
    ``merge_probes`` counts round-2 ``count_better`` walks;
    ``candidates`` is the round-1 union size the merge had to judge.
    """

    shards_total: int = 0
    shards_searched: int = 0
    shards_pruned: int = 0
    candidates: int = 0
    merge_probes: int = 0
    elapsed_seconds: float = 0.0
    search: SearchStats = field(default_factory=SearchStats)

    def add_walk(self, walk: SearchStats) -> None:
        """Fold one shard-local walk's decision and pair-memo counters
        into ``search``."""
        agg = self.search
        agg.expansions += walk.expansions
        agg.pruned_entries += walk.pruned_entries
        agg.pruned_objects += walk.pruned_objects
        agg.accepted_entries += walk.accepted_entries
        agg.accepted_objects += walk.accepted_objects
        agg.verified_objects += walk.verified_objects
        agg.verify_node_reads += walk.verify_node_reads
        agg.cache_hits += walk.cache_hits
        agg.cache_misses += walk.cache_misses

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for experiment logging (engine stats nested)."""
        return {
            "shards_total": self.shards_total,
            "shards_searched": self.shards_searched,
            "shards_pruned": self.shards_pruned,
            "candidates": self.candidates,
            "merge_probes": self.merge_probes,
            "elapsed_seconds": self.elapsed_seconds,
            "search": self.search.as_dict(),
        }


@dataclass
class ShardSearchResult:
    """Merged answer ids (ascending) plus scatter–gather statistics."""

    ids: List[int]
    stats: ShardQueryStats


class ScatterGatherSearcher:
    """Exact RSTkNN over shards: admission-prune, scatter, merge.

    Args:
        index: A built :class:`~repro.shard.planner.ShardedIndex`.
        config: Similarity configuration (defaults to the parent
            dataset's — shards share it by construction).
        te_weight: Entropy-priority weight, honored exactly as the
            unsharded searcher does (inert when the shard trees were
            built without ``use_entropy_priority``).
        kmax: Largest ``k`` admission pruning covers
            (:data:`~repro.shard.summaries.DEFAULT_KMAX`; must be
            ``>= 1``).
        frontier_size: Summary frontier width per shard.
        metrics: Optional :class:`~repro.obs.MetricsRegistry` receiving
            the ``shard.*`` instruments (see ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        index: ShardedIndex,
        config: Optional[SimilarityConfig] = None,
        te_weight: float = 0.05,
        *,
        kmax: int = DEFAULT_KMAX,
        frontier_size: int = DEFAULT_FRONTIER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if kmax < 1:
            raise ConfigError(f"kmax must be >= 1, got {kmax}")
        self.index = index
        cfg = config if config is not None else index.dataset.config
        self.config = cfg
        self.measure = make_measure(cfg.text_measure)
        self.alpha = cfg.alpha
        tree0 = index.shards[0].tree
        self.te_weight = (
            te_weight if tree0.config.use_entropy_priority else 0.0
        )
        self.kmax = kmax
        self.frontier_size = frontier_size
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._engines = index.engines(self.measure, self.alpha, self.te_weight)
        self._summaries = index.summaries(
            self.measure,
            self.alpha,
            self.te_weight,
            kmax=kmax,
            frontier_size=frontier_size,
        )
        self._maxD = index.dataset.proximity.max_distance

    def _admit(
        self, query: STObject, k: int
    ) -> Tuple[List[int], List[int]]:
        """Split shard ids into (admitted, pruned) for this query."""
        admitted: List[int] = []
        pruned: List[int] = []
        for sid, summary in enumerate(self._summaries):
            probe = QueryProbe(
                self._engines[sid].snap, self.measure, self.alpha, query
            )
            if summary.can_prune(query_upper(probe, summary), k):
                pruned.append(sid)
            else:
                admitted.append(sid)
        return admitted, pruned

    def _scatter(
        self, query: STObject, k: int, admitted: List[int], stats: ShardQueryStats
    ) -> List[Tuple[int, int]]:
        """Round 1: shard-local searches; returns ``(sid, oid)`` candidates."""
        candidates: List[Tuple[int, int]] = []
        for sid in admitted:
            result = self._engines[sid].search(query, k)
            stats.add_walk(result.stats)
            candidates.extend((sid, oid) for oid in result.ids)
        return candidates

    def _merge(
        self,
        query: STObject,
        k: int,
        candidates: List[Tuple[int, int]],
        stats: ShardQueryStats,
    ) -> List[int]:
        """Round 2: global competitor counting; returns the answer ids."""
        dataset = self.index.dataset
        shards = self.index.shards
        answers: List[int] = []
        for _sid, oid in candidates:
            obj = dataset.get(oid)
            q_sim = exact_similarity(
                query, obj, self.alpha, self.measure, self._maxD
            )
            total = 0
            for engine, shard in zip(self._engines, shards):
                probe = QueryProbe(engine.snap, self.measure, self.alpha, obj)
                stats.merge_probes += 1
                total += count_better(
                    probe, shard.tree, q_sim, k - total, stats=stats.search
                )
                if total >= k:
                    break
            if total <= k - 1:
                answers.append(oid)
        return sorted(answers)

    def gather(
        self,
        query: STObject,
        k: int,
        candidates: List[Tuple[int, int]],
        stats: ShardQueryStats,
        started: float,
    ) -> ShardSearchResult:
        """Round 2 and the bookkeeping every sharded read path shares.

        ``candidates`` are the round-1 ``(sid, oid)`` pairs of the
        admitted shards, ``stats`` already carries the admission counts
        and ``started`` is the query's ``time.perf_counter()`` start.
        Fills the candidate, result and timing fields of ``stats`` and
        publishes the ``shard.*`` instruments.
        """
        stats.candidates = len(candidates)
        ids = self._merge(query, k, candidates, stats)
        stats.search.result_count = len(ids)
        stats.elapsed_seconds = time.perf_counter() - started
        m = self.metrics
        m.counter("shard.queries").inc()
        m.counter("shard.searched").inc(stats.shards_searched)
        m.counter("shard.pruned").inc(stats.shards_pruned)
        m.counter("shard.candidates").inc(stats.candidates)
        m.counter("shard.merge.probes").inc(stats.merge_probes)
        m.histogram("shard.fanout", SHARD_FANOUT_BUCKETS).observe(
            stats.shards_searched
        )
        return ShardSearchResult(ids=ids, stats=stats)

    def search(self, query: STObject, k: int) -> ShardSearchResult:
        """All objects counting ``query`` among their top-k, exactly.

        The returned id list is ascending and bit-identical to
        ``SnapshotEngine.search(query, k).ids`` on the unsharded index
        (hard-gated by ``benchmarks/bench_shard.py`` and the shard test
        suite).

        Raises:
            QueryError: ``k < 1``, as every unsharded searcher does.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        admitted, pruned = self._admit(query, k)
        stats = ShardQueryStats(
            shards_total=len(self.index),
            shards_searched=len(admitted),
            shards_pruned=len(pruned),
        )
        candidates = self._scatter(query, k, admitted, stats)
        return self.gather(query, k, candidates, stats, started)
