"""Sharded scatter–gather RSTkNN: horizontal scale for one query.

The package lifts the paper's subtree pruning one level up, to whole
shards of a Morton partition:

* :mod:`repro.shard.planner` — :func:`build_sharded_index` cuts the
  dataset along a Morton order into balanced, spatially coherent
  shards, each an ordinary (C)IUR-tree over a sub-dataset that shares
  the parent's region/vocabulary/config (the bit-parity keystone);
* :mod:`repro.shard.summaries` — precomputed per-shard competitor
  floors (`kNNL` tables over a node frontier) for admission-time shard
  pruning;
* :mod:`repro.shard.merge` — the exact gather: global membership by
  capped cross-shard competitor counting
  (:func:`~repro.shard.merge.count_better`, bounding through the
  snapshot walk's :class:`~repro.core.traversal.QueryProbe`);
* :mod:`repro.shard.scatter` — :class:`ScatterGatherSearcher`, the two
  exact in-process rounds (admit+scatter, gather+merge) and the one
  sharded read path, whose ``search`` takes a cancellation token;
* :mod:`repro.shard.http` — the asyncio HTTP front door
  (``repro-rstknn serve-http``), which calls that ``search`` with a
  per-request deadline.

Answers are hard-gated bit-identical to the unsharded snapshot engine
(`benchmarks/bench_shard.py`, ``tests/test_shard.py``).
"""

from .merge import exact_similarity
from .planner import Shard, ShardedIndex, build_sharded_index
from .scatter import (
    SHARD_FANOUT_BUCKETS,
    ScatterGatherSearcher,
    ShardQueryStats,
    ShardSearchResult,
)
from .summaries import (
    DEFAULT_FRONTIER,
    DEFAULT_KMAX,
    ShardSummary,
    build_summary,
    query_upper,
)

__all__ = [
    "DEFAULT_FRONTIER",
    "DEFAULT_KMAX",
    "SHARD_FANOUT_BUCKETS",
    "ScatterGatherSearcher",
    "Shard",
    "ShardQueryStats",
    "ShardSearchResult",
    "ShardSummary",
    "ShardedIndex",
    "build_sharded_index",
    "build_summary",
    "exact_similarity",
    "query_upper",
]
