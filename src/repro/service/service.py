"""The fault-tolerant query service facade (:class:`QueryService`).

:class:`QueryService` fronts the search engines with the reliability
behaviours a long-running index server needs:

* **Per-query deadlines.**  ``serve(..., deadline_seconds=...)`` builds
  a :class:`~repro.service.deadline.Deadline` and threads it through
  whichever engine runs; expiry surfaces as
  :class:`~repro.errors.DeadlineExceeded` within one node expansion,
  carrying the partial stats.
* **Graceful degradation.**  Each query walks
  :data:`DEGRADATION_CHAIN` — ``snapshot -> seed`` — falling back
  when an engine fails transiently (snapshot freeze failure, numpy
  kernel trouble, injected faults).  Every hop is an
  :class:`~repro.core.rstknn.RSTkNNSearcher` pinned to its engine, so
  a live index is pinned on every hop (a dirty one is served from its
  union snapshot) and every hop records ``search.*``.  The engines
  return identical ids by construction, so a degraded answer is
  *correct*, just slower; the hops taken are recorded in
  :attr:`ServiceResult.degraded_path`.  Deadlines and invalid-query
  errors are never degraded away: a ``DeadlineExceeded`` or
  ``QueryError`` re-raises immediately.
* **Bounded admission.**  ``submit``/``drain`` route requests through an
  :class:`~repro.service.queue.AdmissionQueue`; beyond ``max_pending``
  the service sheds with :class:`~repro.errors.QueueFull` instead of
  queueing toward certain deadline expiry.

Every outcome is observable through :mod:`repro.obs`:
``service.served``, ``service.degraded``, ``service.deadline_exceeded``,
``service.failed``, ``service.shed`` counters, the
``service.queue_depth`` gauge, and the ``service.latency_seconds``
end-to-end histogram (engine-level ``search.*`` metrics keep flowing
underneath).  Deterministic failures for exercising all of this come
from :mod:`repro.service.faults` (``REPRO_FAULTS``).

Layering note: this module imports the engines; the engines never
import it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.rstknn import RSTkNNSearcher, SearchResult
from ..errors import ConfigError, DeadlineExceeded, QueryError, ServiceError
from ..model.objects import STObject
from ..obs import MetricsRegistry, registry_or_null
from .deadline import CancelToken, token_for
from .faults import FaultPlan, check_freeze, current_plan, wrap_token
from .queue import AdmissionQueue

#: Engine fallback order: fastest first, most robust last.  The seed
#: walk needs neither a snapshot freeze nor numpy, so it terminates the
#: chain as the always-available engine of last resort.
DEGRADATION_CHAIN: Tuple[str, ...] = ("snapshot", "seed")

#: Every engine a custom ``chain=`` may name.  ``approx`` is opt-in
#: (never in the default chain); it returns exact ids like the others.
CHAIN_ENGINE_CHOICES: Tuple[str, ...] = ("approx",) + DEGRADATION_CHAIN

#: Metric names this module emits (see ``docs/OBSERVABILITY.md``).
SERVED_COUNTER = "service.served"
DEGRADED_COUNTER = "service.degraded"
DEADLINE_COUNTER = "service.deadline_exceeded"
FAILED_COUNTER = "service.failed"
LATENCY_HISTOGRAM = "service.latency_seconds"


@dataclass(frozen=True)
class ServiceResult:
    """One served query: the engine answer plus its reliability story.

    Attributes:
        result: The engine's :class:`~repro.core.rstknn.SearchResult`
            (identical ids whichever engine produced it).
        engine: Name of the engine that answered.
        degraded_path: Engines that failed before ``engine`` answered,
            in attempt order — empty on the happy path,
            ``("snapshot",)`` when the seed walk had to answer.
        failures: ``(engine, reason)`` per failed hop, for diagnostics.
        elapsed_seconds: End-to-end service latency, including failed
            hops (the engine's own ``stats.elapsed_seconds`` covers only
            the winning walk).
    """

    result: SearchResult
    engine: str
    degraded_path: Tuple[str, ...] = ()
    failures: Tuple[Tuple[str, str], ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def ids(self) -> List[int]:
        """The reverse k-NN object ids (delegates to ``result``)."""
        return self.result.ids

    @property
    def degraded(self) -> bool:
        """Whether any fallback hop was taken."""
        return bool(self.degraded_path)


@dataclass(frozen=True)
class ServiceBatchResult:
    """Results of draining the admission queue (input order)."""

    results: Tuple[ServiceResult, ...] = ()

    @property
    def id_lists(self) -> List[List[int]]:
        """Per-query result ids, aligned with the drained order."""
        return [r.ids for r in self.results]

    @property
    def degraded_count(self) -> int:
        """How many of the served queries took at least one fallback."""
        return sum(1 for r in self.results if r.degraded)

    @property
    def latency_percentiles(self) -> Dict[str, float]:
        """Service-level latency percentiles in seconds (``p50``/``p95``/
        ``p99``, nearest-rank over each query's ``elapsed_seconds``,
        failed hops included) — empty on an empty drain."""
        from ..obs.metrics import latency_percentiles  # noqa: PLC0415

        return latency_percentiles([r.elapsed_seconds for r in self.results])


class QueryService:
    """Deadline-aware, degrading, load-shedding front end to the engines.

    Args:
        tree: The (C)IUR-tree to serve, or a :class:`repro.lsm.LiveIndex`
            (while writes are pending, the snapshot hop walks its union
            snapshot and an ``approx`` hop resolves to ``snapshot``).
        config: Similarity configuration (defaults to the dataset's).
        chain: Engine fallback order; a subset/reordering of
            :data:`DEGRADATION_CHAIN` (must be non-empty, names from
            that chain).
        deadline_seconds: Default per-query deadline (``None`` = no
            deadline unless ``serve`` passes one).
        max_pending: Admission-queue capacity for ``submit``.
        metrics: Shared :class:`repro.obs.MetricsRegistry` (``None`` =
            no-op instruments).
        clock: Monotonic time source for deadlines — injectable for
            deterministic tests.
    """

    def __init__(
        self,
        tree,
        config=None,
        *,
        chain: Sequence[str] = DEGRADATION_CHAIN,
        deadline_seconds: Optional[float] = None,
        max_pending: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        chain = tuple(chain)
        if not chain:
            raise ConfigError("degradation chain must name at least one engine")
        for name in chain:
            if name not in CHAIN_ENGINE_CHOICES:
                raise ConfigError(
                    f"unknown engine {name!r} in chain; expected names "
                    f"from {CHAIN_ENGINE_CHOICES}"
                )
        if deadline_seconds is not None and not deadline_seconds > 0.0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        self.tree = tree
        self.chain = chain
        self.deadline_seconds = deadline_seconds
        self.metrics = registry_or_null(metrics)
        self._clock = clock
        self._searchers = {
            name: RSTkNNSearcher(tree, config, engine=name, metrics=metrics)
            for name in chain
        }
        self.queue = AdmissionQueue(max_pending, metrics=self.metrics)
        self._served = self.metrics.counter(SERVED_COUNTER)
        self._degraded = self.metrics.counter(DEGRADED_COUNTER)
        self._deadline_hit = self.metrics.counter(DEADLINE_COUNTER)
        self._failed = self.metrics.counter(FAILED_COUNTER)
        self._latency = self.metrics.histogram(LATENCY_HISTOGRAM)

    # ------------------------------------------------------------------
    # Engine hops
    # ------------------------------------------------------------------

    def _attempt(
        self,
        engine: str,
        query: STObject,
        k: int,
        token: Optional[CancelToken],
        plan: Optional[FaultPlan],
    ) -> SearchResult:
        """Run one engine of the chain (fault hooks live here, not in
        the engines: freezes are the service's to request and fail)."""
        if engine != "seed":
            check_freeze(plan)
        return self._searchers[engine].search(query, k, cancel=token)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serve(
        self,
        query: STObject,
        k: int,
        *,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> ServiceResult:
        """Serve one query through the degradation chain.

        ``deadline_seconds`` overrides the service default for this
        query; ``cancel`` attaches a caller-held token instead.  The
        deadline spans the *whole* chain — fallback hops spend the same
        budget, so a degraded query is likelier to hit its deadline,
        which is the honest accounting.

        Raises:
            DeadlineExceeded: the deadline expired (never degraded away;
                carries partial stats from the interrupted walk).
            QueryError: invalid ``k`` (never degraded away).
            QueueFull: not from here — only ``submit`` sheds.
            ServiceError: every engine in the chain failed; the last
                failure is chained as ``__cause__``.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        started = time.perf_counter()
        plan = current_plan()
        if deadline_seconds is None:
            deadline_seconds = self.deadline_seconds
        token = wrap_token(plan, token_for(deadline_seconds, cancel, self._clock))

        attempted: List[str] = []
        failures: List[Tuple[str, str]] = []
        last_exc: Optional[Exception] = None
        for engine in self.chain:
            try:
                result = self._attempt(engine, query, k, token, plan)
            except DeadlineExceeded:
                self._deadline_hit.inc()
                self._latency.observe(time.perf_counter() - started)
                raise
            except (QueryError, ConfigError):
                raise
            except Exception as exc:  # transient: degrade to the next hop
                attempted.append(engine)
                failures.append((engine, f"{type(exc).__name__}: {exc}"))
                self._degraded.inc()
                self.metrics.counter(f"service.degraded.{engine}").inc()
                last_exc = exc
                continue
            elapsed = time.perf_counter() - started
            self._served.inc()
            self._latency.observe(elapsed)
            return ServiceResult(
                result=result,
                engine=engine,
                degraded_path=tuple(attempted),
                failures=tuple(failures),
                elapsed_seconds=elapsed,
            )
        self._failed.inc()
        self._latency.observe(time.perf_counter() - started)
        raise ServiceError(
            f"every engine failed for this query (chain={self.chain}): "
            + "; ".join(f"{e}: {r}" for e, r in failures)
        ) from last_exc

    # ------------------------------------------------------------------
    # Admission queue
    # ------------------------------------------------------------------

    def submit(
        self,
        query: STObject,
        k: int,
        *,
        deadline_seconds: Optional[float] = None,
    ) -> int:
        """Admit a query for the next :meth:`drain`.

        Returns the queue depth after admission; raises
        :class:`~repro.errors.QueueFull` (and bumps ``service.shed``)
        when ``max_pending`` requests are already waiting.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        return self.queue.offer((query, k, deadline_seconds))

    def drain(self) -> ServiceBatchResult:
        """Serve every pending request in admission order.

        Per-request failures are *not* raised — a drained batch must not
        lose later requests to an earlier one's deadline.  Failed
        requests are omitted from ``results`` and show up in the
        ``service.failed`` / ``service.deadline_exceeded`` counters;
        callers needing per-request errors should ``serve`` directly.
        """
        results: List[ServiceResult] = []
        for query, k, deadline_seconds in self.queue.drain():
            try:
                results.append(
                    self.serve(query, k, deadline_seconds=deadline_seconds)
                )
            except (DeadlineExceeded, ServiceError):
                continue
        return ServiceBatchResult(tuple(results))
