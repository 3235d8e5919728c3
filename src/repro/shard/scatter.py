"""Scatter–gather RSTkNN search over a Morton-sharded index.

One query runs in two exact rounds over the shards of a
:class:`~repro.shard.planner.ShardedIndex`:

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
   :meth:`~repro.shard.merge.ShardProbe.count_better` (budget-capped;
   pruned shards are probed here too, since their objects still
   *compete*).  A candidate survives iff the global competitor count is
   at most ``k - 1`` — the same tie-inclusive rule as the unsharded
   engines — so the merged, ascending-id answer list is bit-identical
   to the unsharded snapshot engine's, which the bench and test suites
   hard-gate.

With ``workers > 0`` both rounds fan out over a persistent process
pool whose workers attach **all** shard snapshots zero-copy through
:class:`~repro.perf.shm.SharedSnapshotSegment` (one segment per shard;
pickle transport is the recorded fallback when shared memory is
unavailable).  Any worker failure falls back to in-process execution
of the affected task — the parent keeps the live shard trees — so
results never depend on pool health.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SimilarityConfig
from ..core.rstknn import SearchStats
from ..errors import ConfigError
from ..model.objects import STObject
from ..obs import NULL_REGISTRY, MetricsRegistry
from ..text.similarity import make_measure
from .merge import ShardProbe, exact_similarity
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


# ----------------------------------------------------------------------
# Worker-side state and tasks (module level: picklable by name)
# ----------------------------------------------------------------------

_WORKER: Dict[str, object] = {}


def _init_shard_worker(payloads, config, te_weight: float) -> None:
    """Pool initializer: attach/build every shard once per worker.

    ``payloads[sid]`` is ``("shm", name, generation)`` — attach the
    segment zero-copy — or ``("pickle", tree)`` — the shipped tree is
    snapshotted locally.  Engines are built eagerly so the first query
    pays no lazy-initialization latency.
    """
    measure = make_measure(config.text_measure)
    alpha = config.alpha
    snaps = []
    trees = []
    engines = []
    for payload in payloads:
        if payload[0] == "shm":
            from ..perf import shm as shm_mod  # noqa: PLC0415

            _tag, name, generation = payload
            attached = shm_mod.attach(name, expected_generation=generation)
            snap = attached.snapshot
            tree = attached.tree
            te = te_weight if attached.header["use_entropy_priority"] else 0.0
        else:
            _tag, tree = payload
            snap = tree.snapshot()
            te = te_weight if tree.config.use_entropy_priority else 0.0
        snaps.append(snap)
        trees.append(tree)
        engines.append(snap.engine_for(tree, measure, alpha, te))
    _WORKER["measure"] = measure
    _WORKER["alpha"] = alpha
    _WORKER["snaps"] = snaps
    _WORKER["trees"] = trees
    _WORKER["engines"] = engines


def _task_search(sid: int, query: STObject, k: int) -> List[int]:
    """Round-1 worker task: shard-local snapshot-engine search."""
    engine = _WORKER["engines"][sid]
    return list(engine.search(query, k).ids)


def _task_count(
    sid: int, items: Sequence[Tuple[int, int, float]], budget: int
) -> List[int]:
    """Round-2 worker task: competitor counts of candidates vs shard ``sid``.

    ``items`` are ``(owner_sid, owner_slot, q_sim)`` triples; the probe
    is reconstructed from the owning shard's attached columns
    (:meth:`ShardProbe.from_slot`), so no object pickling happens per
    query.
    """
    snaps = _WORKER["snaps"]
    measure = _WORKER["measure"]
    alpha = _WORKER["alpha"]
    target_snap = snaps[sid]
    tree = _WORKER["trees"][sid]
    counts = []
    for owner_sid, owner_slot, q_sim in items:
        probe = ShardProbe.from_slot(
            target_snap, measure, alpha, snaps[owner_sid], owner_slot
        )
        counts.append(probe.count_better(tree, q_sim, budget))
    return counts


class ScatterGatherSearcher:
    """Exact RSTkNN over shards: admission-prune, scatter, merge.

    Args:
        index: A built :class:`~repro.shard.planner.ShardedIndex`.
        config: Similarity configuration (defaults to the parent
            dataset's — shards share it by construction).
        te_weight: Entropy-priority weight, honored exactly as the
            unsharded searcher does (inert when the shard trees were
            built without ``use_entropy_priority``).
        workers: ``0`` runs both rounds in-process; ``N > 0`` keeps a
            persistent ``N``-process pool with every shard attached
            over shared memory (pickled shard trees, with the reason in
            :attr:`fallback_reason` and a warning, where shared memory
            is unavailable).
        kmax: Largest ``k`` admission pruning covers
            (:data:`~repro.shard.summaries.DEFAULT_KMAX`; must be
            ``>= 1``).
        frontier_size: Summary frontier width per shard.
        metrics: Optional :class:`~repro.obs.MetricsRegistry` receiving
            the ``shard.*`` instruments (see ``docs/OBSERVABILITY.md``).

    Use as a context manager (or call :meth:`close`) when ``workers >
    0`` so segments are unlinked deterministically.
    """

    def __init__(
        self,
        index: ShardedIndex,
        config: Optional[SimilarityConfig] = None,
        te_weight: float = 0.05,
        *,
        workers: int = 0,
        kmax: int = DEFAULT_KMAX,
        frontier_size: int = DEFAULT_FRONTIER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
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
        self.workers = workers
        self.kmax = kmax
        self.frontier_size = frontier_size
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.fallback_reason: Optional[str] = None
        self._engines = index.engines(self.measure, self.alpha, self.te_weight)
        self._summaries = index.summaries(
            self.measure,
            self.alpha,
            self.te_weight,
            kmax=kmax,
            frontier_size=frontier_size,
        )
        self._maxD = index.dataset.proximity.max_distance
        self._slot_maps: List[Optional[Dict[int, int]]] = [None] * len(index)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._segments: List = []
        self._closed = False

    # ------------------------------------------------------------------
    # Pool / transport lifecycle
    # ------------------------------------------------------------------

    def _build_payloads(self) -> List[Tuple]:
        """One transport payload per shard; shm unless unavailable."""
        from ..perf import shm as shm_mod  # noqa: PLC0415

        ok, why = shm_mod.shm_available()
        if ok:
            try:
                payloads: List[Tuple] = []
                for shard in self.index.shards:
                    seg = shm_mod.SharedSnapshotSegment.create(
                        shard.tree, self.config, self.te_weight
                    )
                    self._segments.append(seg)
                    payloads.append(("shm", seg.name, seg.generation))
                return payloads
            except Exception as exc:  # noqa: BLE001 — record + fall back
                self._release_segments()
                why = f"{type(exc).__name__}: {exc}"
        self.fallback_reason = f"shm_unavailable ({why})"
        warnings.warn(
            "shard pool falling back to pickle transport: "
            f"{self.fallback_reason}",
            RuntimeWarning,
            stacklevel=3,
        )
        return [("pickle", shard.tree) for shard in self.index.shards]

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            payloads = self._build_payloads()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_shard_worker,
                initargs=(payloads, self.config, self.te_weight),
            )
        return self._pool

    def _release_segments(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except Exception:  # noqa: BLE001 — teardown is best-effort
                pass
        self._segments = []

    def close(self) -> None:
        """Shut the pool down and unlink any exported segments."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._release_segments()

    def __enter__(self) -> "ScatterGatherSearcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _slot_of(self, sid: int, oid: int) -> int:
        """The object slot holding ``oid`` in shard ``sid``'s snapshot."""
        slots = self._slot_maps[sid]
        if slots is None:
            snap = self._engines[sid].snap
            slots = {
                snap.ref[s]: s
                for s in range(snap.n_slots)
                if snap.is_obj[s]
            }
            self._slot_maps[sid] = slots
        return slots[oid]

    def _admit(
        self, query: STObject, k: int
    ) -> Tuple[List[int], List[int]]:
        """Split shard ids into (admitted, pruned) for this query."""
        admitted: List[int] = []
        pruned: List[int] = []
        for sid, summary in enumerate(self._summaries):
            probe = ShardProbe(
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
        remote: Dict[int, object] = {}
        if self.workers > 0 and len(admitted) > 1:
            pool = self._ensure_pool()
            for sid in admitted:
                remote[sid] = pool.submit(_task_search, sid, query, k)
        for sid in admitted:
            ids: Optional[List[int]] = None
            future = remote.get(sid)
            if future is not None:
                try:
                    ids = future.result()
                except Exception:  # noqa: BLE001 — worker died: run local
                    ids = None
            if ids is None:
                engine = self._engines[sid]
                result = engine.search(query, k)
                ids = list(result.ids)
                s = result.stats
                agg = stats.search
                agg.expansions += s.expansions
                agg.pruned_entries += s.pruned_entries
                agg.pruned_objects += s.pruned_objects
                agg.accepted_entries += s.accepted_entries
                agg.accepted_objects += s.accepted_objects
                agg.verified_objects += s.verified_objects
                agg.verify_node_reads += s.verify_node_reads
            candidates.extend((sid, oid) for oid in ids)
        return candidates

    def _merge(
        self,
        query: STObject,
        k: int,
        candidates: List[Tuple[int, int]],
        stats: ShardQueryStats,
    ) -> List[int]:
        """Round 2: global competitor counting; returns the answer ids."""
        if not candidates:
            return []
        dataset = self.index.dataset
        shard_count = len(self.index)
        q_sims = [
            exact_similarity(
                query, dataset.get(oid), self.alpha, self.measure, self._maxD
            )
            for _sid, oid in candidates
        ]
        totals = [0] * len(candidates)
        if self.workers > 0 and shard_count > 1:
            pool = self._ensure_pool()
            items = [
                (sid, self._slot_of(sid, oid), q_sims[i])
                for i, (sid, oid) in enumerate(candidates)
            ]
            futures = {
                target: pool.submit(_task_count, target, items, k)
                for target in range(shard_count)
            }
            for target in range(shard_count):
                try:
                    counts = futures[target].result()
                except Exception:  # noqa: BLE001 — worker died: run local
                    counts = self._count_local(query, candidates, q_sims, target, k)
                stats.merge_probes += len(counts)
                for i, c in enumerate(counts):
                    totals[i] += c
        else:
            for i, (sid, oid) in enumerate(candidates):
                obj = dataset.get(oid)
                total = 0
                for target in range(shard_count):
                    probe = ShardProbe(
                        self._engines[target].snap,
                        self.measure,
                        self.alpha,
                        obj,
                    )
                    stats.merge_probes += 1
                    total += probe.count_better(
                        self.index.shards[target].tree,
                        q_sims[i],
                        k - total,
                        stats=stats.search,
                    )
                    if total >= k:
                        break
                totals[i] = total
        return sorted(
            oid
            for i, (_sid, oid) in enumerate(candidates)
            if totals[i] <= k - 1
        )

    def _count_local(
        self,
        query: STObject,
        candidates: List[Tuple[int, int]],
        q_sims: List[float],
        target: int,
        k: int,
    ) -> List[int]:
        """In-process fallback for one failed round-2 worker task."""
        del query  # probes are built from the candidates, not the query
        dataset = self.index.dataset
        snap = self._engines[target].snap
        tree = self.index.shards[target].tree
        counts = []
        for i, (_sid, oid) in enumerate(candidates):
            probe = ShardProbe(snap, self.measure, self.alpha, dataset.get(oid))
            counts.append(probe.count_better(tree, q_sims[i], k))
        return counts

    def search(self, query: STObject, k: int) -> ShardSearchResult:
        """All objects counting ``query`` among their top-k, exactly.

        The returned id list is ascending and bit-identical to
        ``SnapshotEngine.search(query, k).ids`` on the unsharded index
        (hard-gated by ``benchmarks/bench_shard.py`` and the shard test
        suite).
        """
        started = time.perf_counter()
        stats = ShardQueryStats(shards_total=len(self.index))
        admitted, pruned_ids = self._admit(query, k)
        stats.shards_searched = len(admitted)
        stats.shards_pruned = len(pruned_ids)
        candidates = self._scatter(query, k, admitted, stats)
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
