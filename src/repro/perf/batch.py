"""Batch query engine: run a workload of RSTkNN queries over one index.

Query *streams* are where the snapshot memo and kernel work pay off:

* **Sequential mode** (``workers=1``) runs every query through one
  long-lived :class:`~repro.core.rstknn.RSTkNNSearcher`.  Under the
  default ``engine="auto"`` that is the snapshot engine
  (:mod:`repro.core.traversal`), whose snapshot-resident pair memo
  turns tree-pair bounds computed by early queries into hits for later
  ones.
* **Parallel mode** (``workers > 1``) fans the workload out over a
  ``concurrent.futures.ProcessPoolExecutor`` along one path: the parent
  exports the index's snapshot into a shared-memory segment
  (:mod:`repro.perf.shm`), the pool initializer ships only the segment
  *name*, and every worker maps the segment zero-copy and keeps its own
  searcher for the queries routed to it, so no mutable state is shared
  and results are bit-identical to sequential runs.  A run that path
  cannot serve runs in this process instead: a seed-engine batch (the
  seed walk reads the object graph, so there is no snapshot to share;
  nothing is recorded), and a run where
  :func:`~repro.perf.shm.shm_available` says no or the export fails
  (``BatchStats.fallback_reason`` records why, e.g.
  ``"shm_unavailable (numpy not importable)"``).

A live index (:class:`repro.lsm.LiveIndex`) is batched like any tree.
Each run exports the snapshot current at dispatch — the union snapshot
while writes are pending — into a segment it owns and releases.

Results come back in query order regardless of mode, with aggregate
throughput and latency statistics in :class:`BatchStats`.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..config import SimilarityConfig
from ..core.rstknn import RSTkNNSearcher, SearchResult
from ..errors import ConfigError
from ..index.iurtree import IURTree
from ..model.objects import STObject
from ..obs.metrics import MetricsRegistry, latency_percentiles, record_search
from ..obs.timers import PhaseTimer
from ..service.faults import maybe_fail_worker

#: Per-process worker state: the shared-memory attachment and the
#: searcher built over it.
_WORKER: Dict[str, object] = {}

#: Metric counted once per re-enqueued chunk (see ``docs/RELIABILITY.md``).
RETRIES_COUNTER = "service.retries"

#: Tries per query chunk, the first included.  A failed chunk is
#: resubmitted at once; one that fails this often runs in the parent.
RETRY_ATTEMPTS = 3


def _init_worker(
    name: str,
    generation: int,
    config: Optional[SimilarityConfig],
    engine: str,
) -> None:
    """Pool initializer: attach the parent's segment and build a searcher.

    ``name`` and ``generation`` identify the :mod:`repro.perf.shm`
    segment; the attach is generation-checked, so a segment exported
    from a since-mutated index is refused rather than served.  The
    parent's resolved ``engine`` rides along, so an approx worker finds
    the sketch the parent baked into the segment.
    """
    from .shm import attach  # noqa: PLC0415 — worker-side only

    attached = attach(name, expected_generation=generation)
    _WORKER["attached"] = attached
    _WORKER["searcher"] = attached.searcher(config, engine=engine)


def _worker_rss_bytes() -> Optional[int]:
    """This process's peak RSS in bytes (``None`` where unsupported)."""
    try:
        import resource  # noqa: PLC0415 — unix-only stdlib module

        # ru_maxrss is KiB on Linux (bytes on macOS; close enough for a
        # relative comparison, and benches run on Linux).
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
    #: Why a requested parallel run was downgraded (``None`` when it
    #: executed as requested) — e.g. ``"shm_unavailable (...)"`` when
    #: it ran in this process because the segment could not be
    #: exported, or a note that retries ran out for some chunks.
    fallback_reason: Optional[str] = None
    #: Peak RSS of the busiest pool worker, in bytes (``None`` outside
    #: parallel runs or where ``getrusage`` is unavailable).  It stays
    #: near the query working set: workers map the index, not copy it.
    worker_rss_bytes: Optional[int] = None
    #: Query chunks re-enqueued after transient worker failures
    #: (crashed or erroring pool workers); 0 on clean runs.
    retries: int = 0
    #: Per-phase wall-clock breakdown (seconds): ``walk`` always;
    #: parallel runs add ``share`` (segment export).
    #: Schema documented in ``docs/TUNING.md``.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Per-query latency percentiles in milliseconds (``p50``/``p95``/
    #: ``p99``, nearest-rank over each query's own ``elapsed_seconds``)
    #: — the tail-latency companion to the throughput figures above.
    latency_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flat dict of the counters, for experiment logging."""
        out: Dict[str, float] = {
            "queries": self.queries,
            "k": self.k,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "queries_per_second": self.queries_per_second,
            "mean_ms": self.mean_ms,
            "total_result_ids": self.total_result_ids,
        }
        if self.fallback_reason is not None:
            out["fallback_reason"] = self.fallback_reason
        if self.worker_rss_bytes is not None:
            out["worker_rss_bytes"] = self.worker_rss_bytes
        if self.retries:
            out["retries"] = self.retries
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

    One instance owns a long-lived searcher; call :meth:`run` as many
    times as needed.  Under the snapshot engine the pair memo keeps
    warming across runs, and an index update retires it with the
    snapshot.
    """

    def __init__(
        self,
        tree: IURTree,
        config: Optional[SimilarityConfig] = None,
        workers: int = 1,
        engine: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """``workers=1`` runs sequentially in this process;
        ``workers>1`` fans out over that many processes, each attached
        to one shared-memory snapshot segment.  The constructor
        pre-freezes the tree's kernel forms
        (:meth:`~repro.index.iurtree.IURTree.warm_kernels`; on a tree
        warmed already, that pass only hits memoized frozen forms), so
        the first query does not pay freezing costs.  ``engine`` picks
        the traversal implementation per query (see
        :data:`repro.core.rstknn.ENGINE_CHOICES`; ``None`` defers to
        ``REPRO_ENGINE`` and then ``auto``, and :attr:`engine` holds the
        name that applied); ``auto`` runs the snapshot engine.  A
        parallel run needs numpy and ``multiprocessing.shared_memory``;
        without them it runs in this process and records
        ``fallback_reason="shm_unavailable (...)"``.
        A seed-engine batch always runs in this process, with nothing
        recorded.  Workers run the snapshot engine, which is
        bit-identical on results and decision counters by the engine
        parity contract.  ``workers < 1`` raises
        :class:`~repro.errors.ConfigError`.
        ``metrics`` attaches a
        :class:`repro.obs.MetricsRegistry`: each run then records
        per-query counters/latencies and phase-timer gauges (``None``
        records nothing).  A query chunk lost to a crashed or erroring
        pool worker is resubmitted at once, up to
        :data:`RETRY_ATTEMPTS` tries; a chunk that exhausts them runs in
        the parent, so a batch always completes.

        Under ``engine="approx"`` parallel mode bakes the kNNL sketch
        into the shm segment once, and every worker reads it."""
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.tree = tree
        self.config = config
        self.workers = workers
        self.metrics = metrics
        self._last_retries = 0
        self._worker_rss: Optional[int] = None
        self._warned_reasons: Set[str] = set()
        self._searcher = RSTkNNSearcher(tree, config, engine=engine)
        # Resolved (env applied) on the inner searcher: whether a pool
        # runs, the baked sketch and the workers all follow it.
        self.engine = self._searcher.engine
        tree.warm_kernels()

    def run(self, queries: Sequence[STObject], k: int) -> BatchResult:
        """Execute the workload; results align with ``queries`` order."""
        queries = list(queries)
        started = time.perf_counter()
        timer = PhaseTimer()
        workers_used = 1
        results: Optional[List[SearchResult]] = None
        fallback_reason: Optional[str] = None
        self._last_retries = 0
        self._worker_rss = None
        if self.workers > 1 and len(queries) > 1:
            results, fallback_reason = self._run_parallel(queries, k, timer)
            if results is not None:
                workers_used = self.workers
        if results is None:
            with timer.phase("walk"):
                results = self._run_sequential(queries, k)
        elapsed = time.perf_counter() - started
        n = len(queries)
        stats = BatchStats(
            queries=n,
            k=k,
            workers=workers_used,
            elapsed_seconds=elapsed,
            queries_per_second=(n / elapsed) if elapsed > 0 else 0.0,
            mean_ms=(elapsed * 1000.0 / n) if n else 0.0,
            total_result_ids=sum(len(r.ids) for r in results),
            fallback_reason=fallback_reason,
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
        self._record_run(results, timer)
        return BatchResult(results=results, stats=stats)

    def _record_run(
        self, results: List[SearchResult], timer: PhaseTimer
    ) -> None:
        """Mirror one run's outcome into the attached metrics registry."""
        metrics = self.metrics
        if metrics is None or not metrics.enabled:
            return
        engine_label = self._searcher._resolve_engine()
        for result in results:
            record_search(metrics, engine_label, result.stats)
        timer.publish(metrics)

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def _run_sequential(
        self, queries: Sequence[STObject], k: int
    ) -> List[SearchResult]:
        return [self._searcher.search(query, k) for query in queries]

    def _count_fallback(self, reason: str) -> None:
        """Publish a ``batch.fallback.<reason>`` counter increment."""
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter(f"batch.fallback.{reason}").inc()

    def _warn_once(self, message: str) -> None:
        """Emit a degradation RuntimeWarning once per searcher.

        A long-lived searcher re-running a workload would otherwise
        repeat the identical warning; the reason stays recorded on every
        run's ``BatchStats`` regardless.
        """
        if message in self._warned_reasons:
            return
        self._warned_reasons.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    def _export(self, engine: str, timer: PhaseTimer):
        """Export this run's snapshot into a shared-memory segment.

        Returns ``(segment, engine)``: the live
        :class:`~repro.perf.shm.SharedSnapshotSegment` the workers
        attach (the caller releases it once the pool drains) and the
        engine they run (a dirty live index resolves ``approx`` to
        ``snapshot``).  Export time lands in the ``share`` phase so it
        is visible next to ``walk``; a failed export raises.
        """
        from . import shm  # noqa: PLC0415 — lazy perf layer

        with timer.phase("share"):
            if engine == "approx":
                # Bake the sketch into the segment so workers attach it
                # zero-copy instead of rebuilding it once per process.
                s = self._searcher
                snap = self.tree.snapshot()
                if snap.base is None:
                    snap.sketch_for(
                        snap.engine_for(
                            self.tree, s.measure, s.alpha, s.te_weight
                        )
                    )
            seg = shm.SharedSnapshotSegment.create(
                self.tree, config=self.config
            )
            if engine == "approx" and (
                snap.base is not None or self.tree.snapshot() is not snap
            ):
                # A write landed after the resolve, so the segment may
                # hold a union: only the exact walk skips its dead slots.
                engine = "snapshot"
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter("batch.shm.created").inc()
            metrics.gauge("batch.shm.bytes").set(seg.nbytes)
        return seg, engine

    def _run_parallel(
        self, queries: Sequence[STObject], k: int, timer: PhaseTimer
    ) -> Tuple[Optional[List[SearchResult]], Optional[str]]:
        """Fan the workload out over a pool attached to one segment.

        Returns ``(results, fallback_reason)``; ``results`` is ``None``
        when no pool ran (a seed-engine batch, or no segment could be
        exported) and the caller runs the workload in this process.
        The workload is cut into index-contiguous chunks (one future
        each).  A chunk whose worker raises — or whose worker process
        dies, breaking the whole pool — is resubmitted at once with a
        bumped attempt number (one ``service.retries`` tick per
        resubmission); chunks that already completed keep their
        results, and a broken pool is rebuilt before the retry round (a
        rebuilt pool re-attaches the same still-linked segment).  A
        chunk that fails :data:`RETRY_ATTEMPTS` times runs in the
        parent, so the batch always completes with results
        byte-identical to a clean run.
        """
        engine = self._searcher._resolve_engine()
        if engine == "seed":
            # The seed walk reads the object graph: no snapshot to share.
            return None, None
        from . import shm  # noqa: PLC0415 — lazy perf layer

        ok, why = shm.shm_available()
        seg = None
        if ok:
            try:
                seg, engine = self._export(engine, timer)
            except Exception as exc:  # run in this process, recorded
                why = f"{type(exc).__name__}: {exc}"
        if seg is None:
            self._count_fallback("shm_unavailable")
            return None, f"shm_unavailable ({why})"
        n = len(queries)
        workers = min(self.workers, n)
        results: List[Optional[SearchResult]] = [None] * n
        # Chunking keeps per-task IPC overhead low while still spreading
        # the workload; each worker's pair memo warms on its own chunk.
        chunksize = max(1, n // (workers * 4))
        pending: List[Tuple[List[Tuple[int, STObject, int, int]], int]] = [
            (
                [(i, queries[i], k, 0) for i in range(lo, min(lo + chunksize, n))],
                0,
            )
            for lo in range(0, n, chunksize)
        ]
        exhausted: List[List[Tuple[int, STObject, int, int]]] = []
        retries = 0
        spec = (seg.name, seg.generation, self.config, engine)

        def new_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=spec,
            )

        pool = None
        try:
            pool = new_pool()
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
                        if next_attempt >= RETRY_ATTEMPTS:
                            exhausted.append(retried)
                            continue
                        retries += 1
                        pending.append((retried, next_attempt))
        finally:
            if pool is not None:
                pool.shutdown()
            # Workers' mappings died with their processes; the parent's
            # unlink is the last reference to the segment.
            seg.release()
        metrics = self.metrics
        if metrics is not None and metrics.enabled:
            metrics.counter("batch.shm.attach_workers").inc(workers)
            if retries:
                metrics.counter(RETRIES_COUNTER).inc(retries)
        self._last_retries = retries
        reason = None
        if exhausted:
            searcher = self._searcher
            with timer.phase("walk"):
                for chunk in exhausted:
                    for i, query, k_, _ in chunk:
                        results[i] = searcher.search(query, k_)
            reason = (
                f"retry budget exhausted ({RETRY_ATTEMPTS} attempts); "
                f"{sum(len(c) for c in exhausted)} queries ran sequentially"
            )
            self._count_fallback("retry_exhausted")
            self._warn_once(
                f"BatchSearcher parallel mode exhausted its retry budget: {reason}"
            )
        return [r for r in results if r is not None], reason
