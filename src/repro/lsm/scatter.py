"""Live updates in front of the sharded scatter–gather searcher.

Shard admission (:mod:`repro.shard.summaries`) prunes whole shards with
freeze-time upper bounds; after a delete those bounds describe objects
that no longer exist, and after an insert they miss objects that do —
both directions are unsound for admission against the live union.
:class:`LiveScatterGather` therefore serves two regimes:

* **clean epoch** — an inner :class:`~repro.shard.ScatterGatherSearcher`
  over a sharded index built from the epoch's dataset, rebuilt lazily
  whenever the frozen epoch advances (the shard build is freeze-time
  work, not query-time work);
* **dirty epoch** — one unsharded searcher over the epoch view
  (overlay + tombstone-masked frozen tree), which walks the view's
  union snapshot; shard admission is bypassed entirely, because its
  summaries are fold-time artifacts too.  Counted by
  ``lsm.scatter.merged``.

Both regimes return :class:`~repro.shard.ShardSearchResult`, so callers
keep one result shape across folds.
"""

from __future__ import annotations

import time
from typing import Optional

from ..core.rstknn import RSTkNNSearcher
from ..obs.metrics import registry_or_null
from ..shard import (
    ScatterGatherSearcher,
    ShardQueryStats,
    ShardSearchResult,
    build_sharded_index,
)
from .live import LiveIndex


class LiveScatterGather:
    """Scatter–gather serving over a :class:`~repro.lsm.LiveIndex`."""

    def __init__(
        self,
        live: LiveIndex,
        shard_count: int,
        *,
        index_config=None,
        config=None,
        te_weight: float = 0.05,
        metrics=None,
    ) -> None:
        """``live`` absorbs the writes; ``shard_count`` and the remaining
        knobs configure the inner sharded searcher built per clean
        epoch (see :class:`~repro.shard.ScatterGatherSearcher`)."""
        self.live = live
        self.shard_count = int(shard_count)
        self._index_config = index_config
        self._config = config
        self._te_weight = te_weight
        self.metrics = registry_or_null(metrics)
        self._ctr_merged = self.metrics.counter("lsm.scatter.merged")
        self._ctr_rebuilds = self.metrics.counter("lsm.scatter.rebuilds")
        self._inner: Optional[ScatterGatherSearcher] = None
        self._inner_epoch = -1

    # -- writes (delegated) --------------------------------------------

    def insert(self, point, text: str):
        """Absorb an insert through the live index; returns the object."""
        return self.live.insert(point, text)

    def delete_object(self, oid: int) -> bool:
        """Delete through the live index (tombstone or overlay)."""
        return self.live.delete_object(oid)

    def freeze_step(self) -> bool:
        """Fold the overlay; the next search re-shards the new epoch."""
        return self.live.freeze_step()

    # -- reads ---------------------------------------------------------

    def search(self, query, k: int) -> ShardSearchResult:
        """Scatter–gather when the epoch is clean, the union when not.

        The dirty-path result reports ``shards_searched = 0`` — no shard
        admission ran, because freeze-time admission bounds are unsound
        against the live union.
        """
        with self.live.pin() as view:
            if view.overlay_dirty:
                self._ctr_merged.inc()
                started = time.perf_counter()
                result = RSTkNNSearcher(
                    view, config=self._config, te_weight=self._te_weight
                ).search(query, k)
                stats = ShardQueryStats(
                    shards_total=self.shard_count,
                    shards_searched=0,
                    shards_pruned=0,
                    candidates=len(result.ids),
                    merge_probes=0,
                    elapsed_seconds=time.perf_counter() - started,
                    search=result.stats,
                )
                return ShardSearchResult(ids=result.ids, stats=stats)
        return self._inner_for_epoch().search(query, k)

    # -- internal ------------------------------------------------------

    def _inner_for_epoch(self) -> ScatterGatherSearcher:
        epoch = self.live.epoch
        if self._inner is None or self._inner_epoch != epoch:
            sharded = build_sharded_index(
                self.live.dataset,
                self.shard_count,
                index_config=self._index_config,
                tree_cls=type(self.live.frozen_tree),
            )
            self._inner = ScatterGatherSearcher(
                sharded,
                self._config,
                self._te_weight,
                metrics=self.metrics,
            )
            self._inner_epoch = epoch
            self._ctr_rebuilds.inc()
        return self._inner
