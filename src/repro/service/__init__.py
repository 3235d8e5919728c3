"""Fault-tolerant query serving in front of the RSTkNN engines.

The engines of :mod:`repro.core` answer queries fast but assume a
perfect world: no slow nodes, no crashed workers, no snapshot-freeze
failures, no overload.  This package adds the reliability layer a
production index service needs, without touching the engines' parity
contracts:

* :mod:`repro.service.deadline` — per-query **deadlines** and
  cooperative :class:`CancelToken`\\ s, checked by every engine at
  node-expansion granularity (an expired deadline raises
  :class:`repro.errors.DeadlineExceeded` carrying partial stats).
* :mod:`repro.service.service` — the :class:`QueryService` facade with
  its **graceful-degradation chain** ``snapshot -> seed``
  (recorded per query in :attr:`ServiceResult.degraded_path`) and the
  bounded **admission queue** (:class:`repro.service.queue.AdmissionQueue`,
  shedding with :class:`repro.errors.QueueFull`).
* :mod:`repro.service.faults` — a deterministic **fault-injection
  harness** (environment variable ``REPRO_FAULTS``) so every
  degradation path, and :class:`repro.perf.BatchSearcher`'s immediate
  resubmission of the query chunks a crashed pool worker lost, is
  testable on demand.

Everything emits through :mod:`repro.obs` (``service.*`` counters,
queue-depth gauge, end-to-end latency histogram); see
``docs/RELIABILITY.md`` for the semantics and knobs.
"""

from __future__ import annotations

from ..errors import DeadlineExceeded, FaultInjected, QueueFull, ServiceError
from .deadline import CancelToken, Deadline
from .faults import FaultPlan, current_plan, set_plan
from .queue import AdmissionQueue
from .service import (
    CHAIN_ENGINE_CHOICES,
    DEGRADATION_CHAIN,
    QueryService,
    ServiceBatchResult,
    ServiceResult,
)

__all__ = [
    "AdmissionQueue",
    "CancelToken",
    "Deadline",
    "DeadlineExceeded",
    "CHAIN_ENGINE_CHOICES",
    "DEGRADATION_CHAIN",
    "FaultInjected",
    "FaultPlan",
    "QueryService",
    "QueueFull",
    "ServiceBatchResult",
    "ServiceError",
    "ServiceResult",
    "current_plan",
    "set_plan",
]
