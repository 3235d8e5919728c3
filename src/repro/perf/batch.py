"""Batch query engine: run a workload of RSTkNN queries over one index.

Query *streams* are where the snapshot memo and kernel work pay off:

* **Sequential mode** (``workers=1``) runs every query through one
  long-lived :class:`~repro.core.rstknn.RSTkNNSearcher`.  Under the
  default ``engine="auto"`` that is the snapshot engine
  (:mod:`repro.core.traversal`), whose snapshot-resident pair memo
  turns tree-pair bounds computed by early queries into hits for later
  ones.
* **Parallel mode** (``workers > 1``) fans the workload out over a
  ``concurrent.futures.ProcessPoolExecutor``.  The index reaches the
  workers through one of two transports, picked by one rule: a batch
  whose engine walks a snapshot exports it into a shared-memory segment
  (:mod:`repro.perf.shm`) that every worker maps zero-copy — the pool
  initializer ships only the segment *name* — when
  :func:`~repro.perf.shm.shm_available` says it can, and pickles the
  whole object graph otherwise (``BatchStats.fallback_reason`` records
  why, e.g. ``"shm_unavailable (numpy not importable)"``).  A
  seed-engine batch ships pickle without a recorded fallback: the seed
  walk reads the object graph, so pickle is its only transport.  Either
  way each worker keeps its own searcher for the queries routed to it,
  so no mutable state is shared and results are bit-identical to
  sequential runs.  When the tree cannot be pickled either, the engine
  falls back to sequential execution rather than failing the workload
  (reason recorded, and a :class:`RuntimeWarning` is emitted once per
  searcher).

A live index (:class:`repro.lsm.LiveIndex`) is batched like any tree.
Each run exports the snapshot current at dispatch — the union snapshot
while writes are pending — into a segment it owns and releases.  A
dirty index does not pickle (it names the pending overlay), so where
shared memory is unavailable a dirty batch runs sequentially.

Results come back in query order regardless of mode, with aggregate
throughput and latency statistics in :class:`BatchStats`.
"""

from __future__ import annotations

import pickle
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
from ..service.retry import DEFAULT_RETRY_POLICY, RetryPolicy

#: Per-process worker state: the index handle (unpickled tree or
#: shared-memory attachment) and the searcher built over it.
_WORKER: Dict[str, object] = {}

#: Metric counted once per re-enqueued chunk (see ``docs/RELIABILITY.md``).
RETRIES_COUNTER = "service.retries"


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this worker's private index handle.

    ``payload`` is a pickled, tagged tuple.  ``("pickle", ...)``
    carries the whole object graph; ``("shm", name, generation, ...)``
    carries only the name of a :mod:`repro.perf.shm` segment that this
    worker maps zero-copy (generation-checked, so a segment exported
    from a since-mutated index is refused rather than served).  Both
    carry the parent's resolved engine and ``sketch_kmax``, so a worker
    finds the sketch the parent baked into the segment.
    """
    spec = pickle.loads(payload)
    if spec[0] == "shm":
        (_tag, name, generation, config, te_weight,
         engine, sketch_kmax) = spec
        from .shm import attach  # noqa: PLC0415 — worker-side only

        attached = attach(name, expected_generation=generation)
        _WORKER["attached"] = attached
        _WORKER["searcher"] = attached.searcher(
            config,
            te_weight=te_weight,
            engine=engine,
            sketch_kmax=sketch_kmax,
        )
    else:
        _tag, tree, config, te_weight, engine, sketch_kmax = spec
        _WORKER["searcher"] = RSTkNNSearcher(
            tree,
            config,
            te_weight=te_weight,
            engine=engine,
            sketch_kmax=sketch_kmax,
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
    #: Per-phase wall-clock breakdown (seconds): ``walk`` always;
    #: parallel runs add ``share`` (segment export or pickling).
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
        if self.share is not None:
            out["share"] = self.share
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
        te_weight: float = 0.05,
        warm: bool = True,
        engine: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        sketch_kmax: Optional[int] = None,
    ) -> None:
        """``workers=1`` runs sequentially in this process;
        ``workers>1`` fans out over that many processes, each holding its
        own index handle.  ``warm=True`` pre-freezes the tree's kernel
        forms so the first query does not pay freezing costs.  ``engine``
        picks the traversal implementation per query (see
        :data:`repro.core.rstknn.ENGINE_CHOICES`; ``None`` defers to
        ``REPRO_ENGINE`` and then ``auto``, and :attr:`engine` holds the
        name that applied); ``auto`` runs the snapshot engine whenever
        the tree can freeze one.  Parallel mode ships a zero-copy
        shared-memory snapshot segment when numpy and
        ``multiprocessing.shared_memory`` are present, recording
        ``fallback_reason="shm_unavailable (...)"`` when it has to
        pickle instead, and ships a seed-engine batch by pickle with
        nothing recorded (pickle is the seed walk's only transport);
        workers under shm run the snapshot engine, which is
        bit-identical on results and decision counters by the engine
        parity contract.  ``workers < 1`` raises
        :class:`~repro.errors.ConfigError`.
        ``metrics`` attaches a
        :class:`repro.obs.MetricsRegistry`: each run then records
        per-query counters/latencies and phase-timer gauges (``None``
        records nothing).  ``retry_policy``
        governs how parallel mode re-enqueues the query chunks a
        crashed or erroring pool worker lost (``None`` uses
        :data:`repro.service.retry.DEFAULT_RETRY_POLICY`); an exhausted
        budget runs the surviving chunks sequentially in the parent, so
        a batch always completes.

        ``sketch_kmax`` overrides the largest ``k`` the kNNL sketch of
        ``engine="approx"`` covers (values below 1 raise
        :class:`~repro.errors.ConfigError`); parallel mode bakes that
        sketch into the shm segment once, and every worker reads it."""
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.tree = tree
        self.config = config
        self.workers = workers
        self.te_weight = te_weight
        self.metrics = metrics
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.sketch_kmax = sketch_kmax
        self._pickle_error: Optional[str] = None
        self._last_retries = 0
        self._retry_note: Optional[str] = None
        self._share_used: Optional[str] = None
        self._share_note: Optional[str] = None
        self._worker_rss: Optional[int] = None
        self._warned_reasons: Set[str] = set()
        self._searcher = RSTkNNSearcher(
            tree,
            config,
            te_weight=te_weight,
            engine=engine,
            sketch_kmax=sketch_kmax,
        )
        # Resolved (env applied) on the inner searcher: the transport
        # choice, the baked sketch and the workers all follow it.
        self.engine = self._searcher.engine
        if warm:
            tree.warm_kernels()

    def run(self, queries: Sequence[STObject], k: int) -> BatchResult:
        """Execute the workload; results align with ``queries`` order."""
        queries = list(queries)
        started = time.perf_counter()
        timer = PhaseTimer()
        workers_used = self.workers
        fallback_reason: Optional[str] = None
        self._last_retries = 0
        self._retry_note = None
        self._share_used = None
        self._share_note = None
        self._worker_rss = None
        if self.workers > 1 and len(queries) > 1:
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
                    # A snapshot engine pickled because shm could not run.
                    fallback_reason = self._share_note
                    self._count_fallback("shm_unavailable")
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
        stats = BatchStats(
            queries=n,
            k=k,
            workers=workers_used,
            elapsed_seconds=elapsed,
            queries_per_second=(n / elapsed) if elapsed > 0 else 0.0,
            mean_ms=(elapsed * 1000.0 / n) if n else 0.0,
            total_result_ids=sum(len(r.ids) for r in results),
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
        self._record_run(results, timer)
        return BatchResult(results=results, stats=stats)

    def _record_run(
        self, results: List[SearchResult], timer: PhaseTimer
    ) -> None:
        """Mirror one run's outcome into the attached metrics registry."""
        metrics = self.metrics
        if metrics is None or not metrics.enabled:
            return
        engine_label = self._searcher._resolve_engine(None)
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

        A long-lived searcher re-running a workload (or retrying chunk
        after chunk) would otherwise repeat the identical warning; the
        reason stays recorded on every run's ``BatchStats`` regardless.
        """
        if message in self._warned_reasons:
            return
        self._warned_reasons.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _prepare_payload(self, timer: PhaseTimer):
        """Build the worker payload; segment-backed when possible.

        Returns ``(payload, segment)`` — ``segment`` is the live
        :class:`~repro.perf.shm.SharedSnapshotSegment` to unlink after
        the pool drains (``None`` under the pickle transport), and
        ``payload`` is ``None`` when even pickling failed (the caller
        degrades to sequential).  Export/pickle time lands in the
        ``share`` phase so it is visible next to ``walk``.  Both
        payloads carry the engine this run resolves to (a dirty live
        index resolves ``approx`` to ``snapshot``).
        """
        engine = self._searcher._resolve_engine(None)
        seg = None
        if engine != "seed":
            from . import shm  # noqa: PLC0415 — lazy perf layer

            ok, why = shm.shm_available()
            if ok:
                try:
                    with timer.phase("share"):
                        if engine == "approx":
                            # Bake the sketch into the segment so workers
                            # attach it zero-copy instead of rebuilding
                            # it once per process.
                            s = self._searcher
                            snap = self.tree.snapshot()
                            if snap.base is None:
                                snap.sketch_for(
                                    snap.engine_for(
                                        self.tree, s.measure, s.alpha,
                                        s.te_weight,
                                    ),
                                    kmax=self.sketch_kmax,
                                )
                        seg = shm.SharedSnapshotSegment.create(
                            self.tree,
                            config=self.config,
                            te_weight=self.te_weight,
                        )
                        if engine == "approx" and (
                            snap.base is not None
                            or self.tree.snapshot() is not snap
                        ):
                            # A write landed after the resolve, so the
                            # segment may hold a union: only the exact
                            # walk skips its dead slots.
                            engine = "snapshot"
                        payload = pickle.dumps(
                            (
                                "shm",
                                seg.name,
                                seg.generation,
                                self.config,
                                self.te_weight,
                                engine,
                                self.sketch_kmax,
                            )
                        )
                    self._share_used = "shm"
                    self._record_shm_created(seg)
                    return payload, seg
                except Exception as exc:  # degrade to pickle, recorded
                    if seg is not None:
                        seg.release()
                    seg = None
                    why = f"{type(exc).__name__}: {exc}"
            self._share_note = f"shm_unavailable ({why})"
        try:
            with timer.phase("share"):
                payload = pickle.dumps(
                    (
                        "pickle",
                        self.tree,
                        self.config,
                        self.te_weight,
                        engine,
                        self.sketch_kmax,
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
        # the workload; each worker's pair memo warms on its own chunk.
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
            if seg is not None:
                # Workers' mappings died with their processes; the
                # parent's unlink is the last reference to the segment.
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
