"""Batch query engine: run a workload of RSTkNN queries over one index.

Query *streams* are where the shared-cache and kernel work pays off:

* **Sequential mode** (``workers=1``) runs every query through one
  :class:`~repro.core.rstknn.RSTkNNSearcher` wired to a shared
  :class:`~repro.perf.cache.BoundCache`, so tree-pair bounds computed by
  early queries are hits for later ones (the per-query caches of the
  seed recomputed them every time).
* **Parallel mode** (``workers > 1``) fans the workload out over a
  ``concurrent.futures.ProcessPoolExecutor``.  The index reaches the
  workers through one of two transports (``share=``): the default
  ``auto`` exports the frozen snapshot into a shared-memory segment
  (:mod:`repro.perf.shm`) that every worker maps zero-copy — the pool
  initializer ships only the segment *name* — and falls back to
  pickling the whole object graph when shared memory is unavailable
  (``BatchStats.fallback_reason`` records why, e.g.
  ``"shm_unavailable (numpy is not importable)"``).  Either way each
  worker keeps its own searcher for the queries routed to it, so no
  mutable state is shared and results are bit-identical to sequential
  runs.  When the tree cannot be pickled either, the engine falls back
  to sequential execution rather than failing the workload (reason
  recorded, and a :class:`RuntimeWarning` is emitted once per
  searcher).
* **Fused mode** (``mode="fused"``) groups the workload by spatial
  locality (Morton order, ``group_size`` queries per group) and walks
  the index snapshot once per group through
  :class:`repro.core.fused.FusedBatchEngine`, amortizing node-level
  bound work across the group.  Results are bit-identical to the
  per-query ``snapshot`` engine by construction.

Results come back in query order regardless of mode, with aggregate
throughput and cache statistics in :class:`BatchStats`.
"""

from __future__ import annotations

import bisect
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import BATCH_MODES, BATCH_SHARE_MODES, PerfConfig, SimilarityConfig
from ..core.rstknn import RSTkNNSearcher, SearchResult
from ..errors import QueryError
from ..index.iurtree import IURTree
from ..model.objects import STObject
from ..obs.metrics import MetricsRegistry, latency_percentiles, record_search
from ..obs.timers import PhaseTimer
from ..service.faults import maybe_fail_worker
from ..service.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .cache import DEFAULT_BOUND_CACHE_ENTRIES, BoundCache

#: Per-process worker state: the index handle (unpickled tree or
#: shared-memory attachment) and the searcher built over it.
_WORKER: Dict[str, object] = {}

#: Metric counted once per re-enqueued chunk (see ``docs/RELIABILITY.md``).
RETRIES_COUNTER = "service.retries"

#: Bucket bounds of the ``engine.frontier.batch_size`` histogram —
#: nodes per batched frontier kernel call; the lookahead default is 4
#: and ``REPRO_FRONTIER_BATCH`` rarely exceeds a few dozen.
FRONTIER_HIST_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this worker's private index handle.

    ``payload`` is a pickled, tagged tuple.  ``("pickle", ...)``
    carries the whole object graph; ``("shm", name, generation, ...)``
    carries only the name of a :mod:`repro.perf.shm` segment that this
    worker maps zero-copy (generation-checked, so a segment exported
    from a since-mutated index is refused rather than served).
    """
    spec = pickle.loads(payload)
    if spec[0] == "shm":
        (_tag, name, generation, config, te_weight,
         engine, warm_floors) = spec
        from .shm import attach  # noqa: PLC0415 — worker-side only

        attached = attach(name, expected_generation=generation)
        _WORKER["attached"] = attached
        _WORKER["searcher"] = attached.searcher(
            config,
            te_weight=te_weight,
            engine=engine,
            warm_floors=warm_floors,
        )
    else:
        (_tag, tree, config, te_weight, cache_entries,
         engine, warm_floors) = spec
        _WORKER["searcher"] = RSTkNNSearcher(
            tree,
            config,
            te_weight=te_weight,
            bound_cache=BoundCache(cache_entries),
            engine=engine,
            warm_floors=warm_floors,
        )


def _worker_rss_bytes() -> Optional[int]:
    """This process's peak RSS in bytes (``None`` where unsupported)."""
    try:
        import resource  # noqa: PLC0415 — unix-only stdlib module

        # ru_maxrss is KiB on Linux (bytes on macOS; close enough for a
        # relative shm-vs-pickle comparison, and benches run on Linux).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return None


def _run_chunk(
    chunk: Sequence[Tuple[int, STObject, int, int]],
) -> Tuple[List[Tuple[int, SearchResult]], Optional[int]]:
    """Execute one chunk of ``(index, query, k, attempt)`` tasks.

    ``attempt`` exists for :mod:`repro.service.faults`: armed worker
    faults fire only on first attempts, so a retried chunk runs clean
    and the batch result is byte-identical to a fault-free run.
    Returns the results plus this worker's peak RSS, so the parent can
    report how much memory the fan-out actually cost per process.
    """
    searcher = _WORKER["searcher"]
    out: List[Tuple[int, SearchResult]] = []
    for i, query, k, attempt in chunk:
        maybe_fail_worker(i, attempt)
        out.append((i, searcher.search(query, k)))
    return out, _worker_rss_bytes()


@dataclass
class BatchStats:
    """Aggregate outcome of one batch run."""

    queries: int
    k: int
    workers: int
    elapsed_seconds: float
    queries_per_second: float
    mean_ms: float
    total_result_ids: int
    cache: Dict[str, float] = field(default_factory=dict)
    #: Execution mode that actually ran (one of ``BATCH_MODES``).
    mode: str = "per-query"
    #: Queries per fused group (``None`` outside fused mode).
    group_size: Optional[int] = None
    #: Number of fused groups executed (``None`` outside fused mode).
    groups: Optional[int] = None
    #: Why a requested execution strategy was downgraded (``None`` when
    #: the run executed as requested) — e.g. parallel mode shipping a
    #: pickled tree because shared memory was unavailable
    #: (``"shm_unavailable (...)"``), or degrading to sequential
    #: because the index could not be pickled.
    fallback_reason: Optional[str] = None
    #: Index transport parallel mode actually used (``"shm"`` or
    #: ``"pickle"``; ``None`` outside parallel runs).
    share: Optional[str] = None
    #: Peak RSS of the busiest pool worker, in bytes (``None`` outside
    #: parallel runs or where ``getrusage`` is unavailable).  Under the
    #: shm transport this stays near the query working set; under
    #: pickle it grows by a full private index copy per worker.
    worker_rss_bytes: Optional[int] = None
    #: Query chunks re-enqueued after transient worker failures
    #: (crashed or erroring pool workers); 0 on clean runs.
    retries: int = 0
    #: Per-phase wall-clock breakdown (seconds): ``walk`` always; fused
    #: runs add ``freeze`` (snapshot + engine setup) and ``group``
    #: (locality ordering).  Schema documented in ``docs/TUNING.md``.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Per-query latency percentiles in milliseconds (``p50``/``p95``/
    #: ``p99``, nearest-rank over each query's own ``elapsed_seconds``)
    #: — the tail-latency companion to the throughput figures above.
    #: Fused runs report group-walk time per member query.
    latency_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict of the counters, for experiment logging."""
        out: Dict[str, float] = {
            "queries": self.queries,
            "k": self.k,
            "workers": self.workers,
            "mode": self.mode,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "mean_ms": self.mean_ms,
            "total_result_ids": self.total_result_ids,
        }
        if self.group_size is not None:
            out["group_size"] = self.group_size
        if self.groups is not None:
            out["groups"] = self.groups
        if self.fallback_reason is not None:
            out["fallback_reason"] = self.fallback_reason
        if self.share is not None:
            out["share"] = self.share
        if self.worker_rss_bytes is not None:
            out["worker_rss_bytes"] = self.worker_rss_bytes
        if self.retries:
            out["retries"] = self.retries
        for key, value in self.cache.items():
            out[f"cache_{key}"] = value
        for name, seconds in self.phases.items():
            out[f"phase_{name}_seconds"] = seconds
        for point, ms in self.latency_ms.items():
            out[f"latency_{point}_ms"] = ms
        return out


@dataclass
class BatchResult:
    """Per-query results (in input order) plus aggregate statistics."""

    results: List[SearchResult]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.results)

    def id_lists(self) -> List[List[int]]:
        """The sorted result-id list of every query, in input order."""
        return [r.ids for r in self.results]


class BatchSearcher:
    """Runs query workloads over one (C)IUR-tree, amortizing shared work.

    One instance owns a long-lived searcher with a shared
    :class:`~repro.perf.cache.BoundCache`; call :meth:`run` as many
    times as needed — the cache keeps warming across runs.  Clear it
    with :meth:`invalidate` after index updates.
    """

    def __init__(
        self,
        tree: IURTree,
        config: Optional[SimilarityConfig] = None,
        workers: int = 1,
        cache_entries: int = DEFAULT_BOUND_CACHE_ENTRIES,
        te_weight: float = 0.05,
        warm: bool = True,
        engine: Optional[str] = None,
        mode: str = "per-query",
        group_size: int = 8,
        share: str = "auto",
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        warm_floors: Optional[bool] = None,
        sketch_kmax: Optional[int] = None,
    ) -> None:
        """``workers=1`` runs sequentially with the shared bound cache;
        ``workers>1`` fans out over that many processes, each holding its
        own index handle.  ``warm=True`` pre-freezes the tree's kernel
        forms so the first query does not pay freezing costs.  ``engine``
        picks the traversal implementation per query (see
        :data:`repro.core.rstknn.ENGINE_CHOICES`); note that under
        ``auto`` the attached bound cache selects the seed walk — pass
        ``engine="snapshot"`` explicitly to batch over the columnar
        engine (whose snapshot-resident memo replaces the bound cache).
        ``mode="fused"`` runs the workload through the fused group
        engine instead of one query at a time: spatial-locality groups
        of ``group_size`` queries share one snapshot walk (sequential
        only — fused mode is incompatible with ``workers>1`` and with
        ``engine="seed"``, since it is by construction a batch form of
        the snapshot engine).  ``share`` picks parallel mode's index
        transport (one of :data:`repro.config.BATCH_SHARE_MODES`):
        ``auto`` ships a zero-copy shared-memory snapshot segment when
        numpy and ``multiprocessing.shared_memory`` are present and the
        engine is not the seed walk, recording
        ``fallback_reason="shm_unavailable (...)"`` when it has to
        pickle instead; ``shm`` does the same but warns on fallback;
        ``pickle`` always ships the pickled object graph (workers under
        shm run the snapshot engine, which is bit-identical on results
        and decision counters by the engine parity contract).
        ``metrics`` attaches a
        :class:`repro.obs.MetricsRegistry`: each run then records
        per-query counters/latencies, phase-timer gauges, and bound
        cache gauges (``None`` records nothing).  ``retry_policy``
        governs how parallel mode re-enqueues the query chunks a
        crashed or erroring pool worker lost (``None`` uses
        :data:`repro.service.retry.DEFAULT_RETRY_POLICY`); an exhausted
        budget runs the surviving chunks sequentially in the parent, so
        a batch always completes.

        ``warm_floors`` arms the frozen kNNL floor sketch
        (:mod:`repro.approx`) on exact snapshot/fused walks — results
        stay bit-identical; ``None`` defers to ``REPRO_WARM_FLOORS``.
        ``sketch_kmax`` overrides the sketch's largest covered ``k``
        for the sequential searcher and pickled workers (shm workers
        use the segment's exported sketch or the
        :mod:`repro.approx.sketch` default)."""
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if mode not in BATCH_MODES:
            raise QueryError(
                f"unknown batch mode {mode!r}; expected one of {BATCH_MODES}"
            )
        if share not in BATCH_SHARE_MODES:
            raise QueryError(
                f"unknown batch share mode {share!r}; "
                f"expected one of {BATCH_SHARE_MODES}"
            )
        if mode == "fused":
            if workers > 1:
                raise QueryError(
                    "fused batch mode is sequential; it is incompatible "
                    f"with workers={workers}"
                )
            if engine == "seed":
                raise QueryError(
                    "fused batch mode runs over the index snapshot; it is "
                    "incompatible with engine='seed'"
                )
            if engine == "approx":
                raise QueryError(
                    "fused batch mode runs the exact fused engine; it is "
                    "incompatible with engine='approx' (use "
                    "mode='per-query', or warm_floors=True to accelerate "
                    "fused walks exactly)"
                )
            if group_size < 1:
                raise QueryError(
                    f"group_size must be >= 1, got {group_size}"
                )
        self.tree = tree
        self.config = config
        self.workers = workers
        self.cache_entries = cache_entries
        self.te_weight = te_weight
        self.engine = engine
        self.mode = mode
        self.group_size = group_size
        self.share = share
        self.metrics = metrics
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.sketch_kmax = sketch_kmax
        self.bound_cache = BoundCache(cache_entries)
        self._pickle_error: Optional[str] = None
        self._last_retries = 0
        self._retry_note: Optional[str] = None
        self._share_used: Optional[str] = None
        self._share_note: Optional[str] = None
        self._seg_owned = True
        self._worker_rss: Optional[int] = None
        self._warned_reasons: Set[str] = set()
        self._searcher = RSTkNNSearcher(
            tree,
            config,
            te_weight=te_weight,
            bound_cache=self.bound_cache,
            engine=engine,
            warm_floors=warm_floors,
            sketch_kmax=sketch_kmax,
        )
        # Resolved (env applied) on the inner searcher; workers reuse it.
        self.warm_floors = self._searcher.warm_floors
        if warm:
            tree.warm_kernels()

    @classmethod
    def from_perf_config(
        cls,
        tree: IURTree,
        perf: PerfConfig,
        config: Optional[SimilarityConfig] = None,
        te_weight: float = 0.05,
        warm: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "BatchSearcher":
        """Build a batch searcher from a :class:`~repro.config.PerfConfig`.

        Applies the bundle's engine, worker, cache-size, and batch-mode
        knobs; when ``perf.observability`` is true and no ``metrics``
        registry is passed, a live
        :class:`~repro.obs.metrics.MetricsRegistry` is created and
        exposed as ``searcher.metrics`` for export after the run.
        ``perf.kernel_backend`` is process-wide state — apply it
        separately with :func:`repro.perf.set_backend`.  When
        ``perf.live_updates`` is true (or ``REPRO_LIVE_UPDATES`` arms
        it), the tree is first wrapped in a
        :class:`repro.lsm.LiveIndex` so the returned searcher serves
        mixed read/write traffic without per-write re-freezes.
        """
        if metrics is None and perf.observability:
            metrics = MetricsRegistry()
        from ..lsm import maybe_wrap_live  # noqa: PLC0415 — avoid cycle

        tree = maybe_wrap_live(tree, perf, metrics=metrics)
        return cls(
            tree,
            config,
            workers=perf.batch_workers,
            cache_entries=perf.bound_cache_entries,
            te_weight=te_weight,
            warm=warm,
            engine=perf.engine,
            mode=perf.batch_mode,
            group_size=perf.fused_group_size,
            share=perf.batch_share,
            metrics=metrics,
            retry_policy=RetryPolicy(
                max_attempts=perf.retry_attempts,
                base_delay=perf.retry_base_delay,
            ),
            # False (the default) defers to REPRO_WARM_FLOORS, so the
            # env knob can arm floors fleet-wide without config edits.
            warm_floors=perf.warm_floors or None,
            sketch_kmax=perf.sketch_kmax,
        )

    def invalidate(self) -> None:
        """Drop shared bounds (call after inserting/deleting objects)."""
        self.bound_cache.clear()

    def run(self, queries: Sequence[STObject], k: int) -> BatchResult:
        """Execute the workload; results align with ``queries`` order.

        Live trees (:class:`repro.lsm.LiveIndex`) run under one epoch
        pin, so a background fold cannot retire the epoch — or the shm
        segment parallel workers are attached to — mid-batch.  While
        the overlay is dirty, fused and parallel dispatch degrade to
        the sequential merged seed walk (recorded as
        ``fallback_reason="live_overlay_dirty (...)"``); clean live
        trees run every mode, shipping the epoch's frozen tree.
        """
        pin = getattr(self.tree, "pin", None)
        if pin is None:
            return self._run_impl(queries, k)
        with pin():
            return self._run_impl(queries, k)

    def _run_impl(self, queries: Sequence[STObject], k: int) -> BatchResult:
        queries = list(queries)
        started = time.perf_counter()
        timer = PhaseTimer()
        workers_used = self.workers
        fallback_reason: Optional[str] = None
        groups: Optional[int] = None
        self._last_retries = 0
        self._retry_note = None
        self._share_used = None
        self._share_note = None
        self._worker_rss = None
        live_dirty = bool(getattr(self.tree, "overlay_dirty", False))
        if live_dirty and queries and (
            self.mode == "fused" or (self.workers > 1 and len(queries) > 1)
        ):
            # Fused and shm/pickle-parallel dispatch all run over the
            # frozen snapshot, which cannot represent pending overlay
            # writes; the merged seed walk is the only sound executor
            # until the next fold.
            workers_used = 1
            fallback_reason = (
                "live_overlay_dirty (merged seed walk; fold the overlay "
                "to restore fused/parallel dispatch)"
            )
            self._count_fallback("live_overlay_dirty")
            with timer.phase("walk"):
                results = self._run_sequential(queries, k)
        elif self.mode == "fused" and queries:
            workers_used = 1
            results, groups = self._run_fused(queries, k, timer)
        elif self.workers > 1 and len(queries) > 1:
            results = self._run_parallel(queries, k, timer)
            if results is None:  # unpicklable index — degrade gracefully
                workers_used = 1
                fallback_reason = (
                    self._pickle_error or "index not picklable"
                )
                self._count_fallback("unpicklable")
                self._warn_once(
                    "BatchSearcher parallel mode fell back to sequential "
                    f"execution: {fallback_reason}"
                )
                with timer.phase("walk"):
                    results = self._run_sequential(queries, k)
            else:
                if self._share_note is not None:
                    # shm was requested (or the default) but pickle ran;
                    # the reason is recorded either way and the warning
                    # fires only on an explicit share="shm" request.
                    fallback_reason = self._share_note
                    self._count_fallback("shm_unavailable")
                    if self.share == "shm":
                        self._warn_once(
                            "BatchSearcher shm transport unavailable; "
                            f"shipped a pickled index: {fallback_reason}"
                        )
                if self._retry_note is not None:
                    # Retries ran out for some chunks; they completed
                    # sequentially in the parent (see _run_parallel).
                    fallback_reason = (
                        f"{fallback_reason}; {self._retry_note}"
                        if fallback_reason
                        else self._retry_note
                    )
                    self._count_fallback("retry_exhausted")
                    self._warn_once(
                        "BatchSearcher parallel mode exhausted its retry "
                        f"budget: {self._retry_note}"
                    )
        else:
            workers_used = 1
            with timer.phase("walk"):
                results = self._run_sequential(queries, k)
        elapsed = time.perf_counter() - started
        n = len(queries)
        fused = self.mode == "fused"
        stats = BatchStats(
            queries=n,
            k=k,
            workers=workers_used,
            elapsed_seconds=elapsed,
            queries_per_second=(n / elapsed) if elapsed > 0 else 0.0,
            mean_ms=(elapsed * 1000.0 / n) if n else 0.0,
            total_result_ids=sum(len(r.ids) for r in results),
            cache=self.bound_cache.stats().as_dict()
            if workers_used == 1 and not fused
            else {},
            mode=self.mode,
            group_size=self.group_size if fused else None,
            groups=groups,
            fallback_reason=fallback_reason,
            share=self._share_used,
            worker_rss_bytes=self._worker_rss,
            retries=self._last_retries,
            phases=timer.as_dict(),
            latency_ms={
                point: seconds * 1000.0
                for point, seconds in latency_percentiles(
                    [r.stats.elapsed_seconds for r in results]
                ).items()
            },
        )
        self._record_run(results, timer, fused, workers_used)
        return BatchResult(results=results, stats=stats)

    def _record_run(
        self,
        results: List[SearchResult],
        timer: PhaseTimer,
        fused: bool,
        workers_used: int,
    ) -> None:
        """Mirror one run's outcome into the attached metrics registry."""
        metrics = self.metrics
        if metrics is None or not metrics.enabled:
            return
        if fused:
            engine_label = "fused"
        else:
            engine_label = self._searcher._resolve_engine(None)
        for result in results:
            record_search(metrics, engine_label, result.stats)
        timer.publish(metrics)
        if workers_used == 1 and not fused:
            self.bound_cache.publish(metrics)
        self._publish_frontier(metrics)

    def _publish_frontier(self, metrics: MetricsRegistry) -> None:
        """Drain engine frontier-batch histograms into the registry.

        The snapshot/fused engines count how many node expansions each
        batched kernel call covered (``engine.frontier_hist``); this
        folds those counts into the ``engine.frontier.batch_size``
        histogram and resets them, so repeated runs don't double-count.
        """
        snap = getattr(self.tree, "_snapshot_cache", None)
        if snap is None:
            return
        hist = metrics.histogram(
            "engine.frontier.batch_size", FRONTIER_HIST_BUCKETS
        )
        for engine in getattr(snap, "_engines", {}).values():
            counts = getattr(engine, "frontier_hist", None)
            if not counts:
                continue
            for size, times in counts.items():
                # Bulk fold (observe() per expansion would loop over
                # hundreds of thousands of events at bench scale).
                hist.counts[bisect.bisect_left(hist.buckets, size)] += times
                hist.sum += size * times
                hist.count += times
            counts.clear()

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def _run_sequential(
        self, queries: Sequence[STObject], k: int
    ) -> List[SearchResult]:
        return [self._searcher.search(query, k) for query in queries]

    def _run_fused(
        self, queries: Sequence[STObject], k: int, timer: PhaseTimer
    ) -> Tuple[List[SearchResult], int]:
        """Run locality groups through the fused engine; input order."""
        from ..core.fused import make_groups

        searcher = self._searcher
        with timer.phase("freeze"):
            snap = self.tree.snapshot()
            if self.warm_floors:
                engine = snap.warm_fused_engine_for(
                    self.tree,
                    searcher.measure,
                    searcher.alpha,
                    searcher.te_weight,
                    kmax=self.sketch_kmax,
                )
            else:
                engine = snap.fused_engine_for(
                    self.tree,
                    searcher.measure,
                    searcher.alpha,
                    searcher.te_weight,
                )
        results: List[Optional[SearchResult]] = [None] * len(queries)
        with timer.phase("group"):
            groups = make_groups(queries, self.group_size)
        with timer.phase("walk"):
            for member_ids in groups:
                group = [queries[i] for i in member_ids]
                for i, result in zip(member_ids, engine.run_group(group, k)):
                    results[i] = result
        return [r for r in results if r is not None], len(groups)

    def _count_fallback(self, reason: str) -> None:
        """Publish a ``batch.fallback.<reason>`` counter increment."""
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter(f"batch.fallback.{reason}").inc()

    def _warn_once(self, message: str) -> None:
        """Emit a degradation RuntimeWarning once per searcher.

        A long-lived searcher re-running a workload (or retrying chunk
        after chunk) would otherwise repeat the identical warning; the
        reason stays recorded on every run's ``BatchStats`` regardless.
        """
        if message in self._warned_reasons:
            return
        self._warned_reasons.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _share_eligibility(self) -> Tuple[bool, str]:
        """Whether the shm transport can serve this searcher's setup."""
        from .shm import shm_available  # noqa: PLC0415 — lazy perf layer

        if self.engine == "seed":
            return False, "engine 'seed' walks the object graph, not a snapshot"
        return shm_available()

    def _prepare_payload(self, timer: PhaseTimer):
        """Build the worker payload; segment-backed when possible.

        Returns ``(payload, segment)`` — ``segment`` is the live
        :class:`~repro.perf.shm.SharedSnapshotSegment` to unlink after
        the pool drains (``None`` under the pickle transport), and
        ``payload`` is ``None`` when even pickling failed (the caller
        degrades to sequential).  Export/pickle time lands in the
        ``share`` phase so it is visible next to ``walk``.
        """
        seg = None
        why = ""
        self._seg_owned = True
        if self.share != "pickle":
            ok, why = self._share_eligibility()
            if ok:
                from .shm import SharedSnapshotSegment  # noqa: PLC0415

                try:
                    with timer.phase("share"):
                        if self.warm_floors or self.engine == "approx":
                            # Bake the floor sketch into the segment so
                            # workers attach it zero-copy instead of
                            # rebuilding it once per process.
                            s = self._searcher
                            snap = self.tree.snapshot()
                            snap.sketch_for(
                                snap.engine_for(
                                    self.tree, s.measure, s.alpha,
                                    s.te_weight,
                                ),
                                kmax=self.sketch_kmax,
                            )
                        exporter = getattr(
                            self.tree, "export_segment", None
                        )
                        if exporter is not None:
                            # Live trees own their segment per epoch:
                            # it is reused across runs and released by
                            # the refcounted epoch retirement, not at
                            # the end of this run.
                            seg = exporter(
                                config=self.config,
                                te_weight=self.te_weight,
                            )
                            self._seg_owned = False
                        else:
                            seg = SharedSnapshotSegment.create(
                                self.tree,
                                config=self.config,
                                te_weight=self.te_weight,
                            )
                        payload = pickle.dumps(
                            (
                                "shm",
                                seg.name,
                                seg.generation,
                                self.config,
                                self.te_weight,
                                "approx"
                                if self.engine == "approx"
                                else "snapshot",
                                self.warm_floors,
                            )
                        )
                    self._share_used = "shm"
                    self._record_shm_created(seg)
                    return payload, seg
                except Exception as exc:  # degrade to pickle, loudly
                    if seg is not None and self._seg_owned:
                        seg.release()
                    seg = None
                    why = f"{type(exc).__name__}: {exc}"
            self._share_note = f"shm_unavailable ({why})"
        try:
            with timer.phase("share"):
                payload = pickle.dumps(
                    (
                        "pickle",
                        # Clean live trees ship their epoch's frozen
                        # tree — the LiveIndex itself holds locks and a
                        # freezer thread, which do not pickle.
                        getattr(self.tree, "frozen_tree", self.tree),
                        self.config,
                        self.te_weight,
                        self.cache_entries,
                        self.engine,
                        self.warm_floors,
                    )
                )
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            self._pickle_error = (
                f"index not picklable ({type(exc).__name__}: {exc})"
            )
            return None, None
        self._share_used = "pickle"
        return payload, None

    def _record_shm_created(self, seg) -> None:
        """Publish ``batch.shm.*`` instruments for one segment export."""
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter("batch.shm.created").inc()
            metrics.gauge("batch.shm.bytes").set(seg.nbytes)

    def _run_parallel(
        self, queries: Sequence[STObject], k: int, timer: PhaseTimer
    ) -> Optional[List[SearchResult]]:
        """Fan the workload out over a process pool, retrying failures.

        The index reaches the pool via :meth:`_prepare_payload` — a
        shared-memory snapshot segment whose *name* is the payload, or
        a pickled tree when shm is unavailable.  The workload is cut
        into index-contiguous chunks (one future each).  A chunk whose
        worker raises — or whose worker process dies, breaking the
        whole pool — is re-enqueued with a bumped attempt number under
        :attr:`retry_policy` (backoff + jitter, one ``service.retries``
        tick per re-enqueue); chunks that already completed keep their
        results, and a broken pool is rebuilt before the retry round (a
        rebuilt pool re-attaches the same still-linked segment).  A
        chunk that exhausts its attempts runs sequentially in the
        parent, so the batch always completes with results
        byte-identical to a clean run.
        """
        payload, seg = self._prepare_payload(timer)
        if payload is None:
            return None
        n = len(queries)
        workers = min(self.workers, n)
        results: List[Optional[SearchResult]] = [None] * n
        # Chunking keeps per-task IPC overhead low while still spreading
        # the workload; each worker's bound cache warms on its own chunk.
        chunksize = max(1, n // (workers * 4))
        pending: List[Tuple[List[Tuple[int, STObject, int, int]], int]] = [
            (
                [(i, queries[i], k, 0) for i in range(lo, min(lo + chunksize, n))],
                0,
            )
            for lo in range(0, n, chunksize)
        ]
        policy = self.retry_policy
        exhausted: List[List[Tuple[int, STObject, int, int]]] = []
        retries = 0

        def new_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(payload,),
            )

        pool = new_pool()
        try:
            with timer.phase("walk"):
                while pending:
                    round_chunks, pending = pending, []
                    futures = [
                        (pool.submit(_run_chunk, chunk), chunk, attempt)
                        for chunk, attempt in round_chunks
                    ]
                    broken = False
                    failed: List[
                        Tuple[List[Tuple[int, STObject, int, int]], int]
                    ] = []
                    for future, chunk, attempt in futures:
                        try:
                            chunk_results, rss = future.result()
                        except BrokenProcessPool:
                            broken = True
                            failed.append((chunk, attempt))
                            continue
                        except Exception:  # worker-side error; pool survives
                            failed.append((chunk, attempt))
                            continue
                        for i, result in chunk_results:
                            results[i] = result
                        if rss is not None and rss > (self._worker_rss or 0):
                            self._worker_rss = rss
                    if broken:
                        pool.shutdown(wait=False)
                        pool = new_pool()
                    for chunk, attempt in failed:
                        next_attempt = attempt + 1
                        retried = [
                            (i, query, k_, next_attempt)
                            for i, query, k_, _ in chunk
                        ]
                        if next_attempt >= policy.max_attempts:
                            exhausted.append(retried)
                            continue
                        retries += 1
                        delay = policy.delay(next_attempt, salt=chunk[0][0])
                        if delay > 0.0:
                            time.sleep(delay)
                        pending.append((retried, next_attempt))
        finally:
            pool.shutdown()
            if seg is not None and self._seg_owned:
                # Workers' mappings died with their processes; the
                # parent's unlink is the last reference to the segment.
                # (Epoch-owned segments of a live tree are released by
                # epoch retirement instead, so later runs re-attach.)
                seg.release()
        if seg is not None:
            metrics = self.metrics
            if metrics is not None and metrics.enabled:
                metrics.counter("batch.shm.attach_workers").inc(workers)
        if exhausted:
            searcher = self._searcher
            with timer.phase("walk"):
                for chunk in exhausted:
                    for i, query, k_, _ in chunk:
                        results[i] = searcher.search(query, k_)
            self._retry_note = (
                f"retry budget exhausted ({policy.max_attempts} attempts); "
                f"{sum(len(c) for c in exhausted)} queries ran sequentially"
            )
        self._last_retries = retries
        if retries and self.metrics is not None and self.metrics.enabled:
            self.metrics.counter(RETRIES_COUNTER).inc(retries)
        return [r for r in results if r is not None]
