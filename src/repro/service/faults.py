"""Deterministic fault injection for the query service (``REPRO_FAULTS``).

Reliability code that only runs when something breaks is untested code.
This module arms *deterministic* failures so the retry, degradation,
and deadline paths of :mod:`repro.service` and
:class:`repro.perf.BatchSearcher` are exercised on demand:

``REPRO_FAULTS`` is a comma-separated list of ``fault=value`` terms:

=========================  =================================================
``worker_crash=I[+J...]``  Pool workers hard-exit (``os._exit``) while
                           running batch task index ``I`` (and ``J``...) on
                           the **first** attempt — the retried slice runs
                           clean, so results must match the fault-free run.
``worker_error=I[+J...]``  Same indices, but the worker raises
                           :class:`repro.errors.FaultInjected` instead of
                           dying (the soft-failure retry path; the pool
                           survives).
``freeze_fail=N``          The next ``N`` snapshot freezes requested by the
                           service raise, forcing the degradation chain
                           ``snapshot -> seed`` (each failure degrades one
                           hop; ``N=1`` lands on the seed walk).
``slow_node=SECONDS``      Every cancellation poll — one per node expansion
                           — sleeps ``SECONDS`` first, simulating slow node
                           reads for wall-clock deadline tests.
=========================  =================================================

Example: ``REPRO_FAULTS="worker_crash=2,freeze_fail=2,slow_node=0.002"``.

Faults only exist where the serving layer consults this module (batch
workers, the service's freeze step, tokens built by the service); the
engines themselves stay fault-free, so parity tests and benchmarks are
unaffected even with the variable set.  Parsing is memoized against the
raw environment string and can be overridden in-process with
:func:`set_plan` (tests) — both the parent process and forked pool
workers resolve the same plan.
"""

from __future__ import annotations

import os
import time
from typing import FrozenSet, Optional, Tuple

from ..errors import ConfigError, FaultInjected
from .deadline import CancelToken

#: Environment variable holding the fault specification.
FAULTS_ENV_VAR = "REPRO_FAULTS"

_KNOWN_FAULTS = ("worker_crash", "worker_error", "freeze_fail", "slow_node")

#: Exit status of hard-crashed workers (recognizable in pool tracebacks).
WORKER_CRASH_EXIT_CODE = 23


class FaultPlan:
    """One parsed ``REPRO_FAULTS`` specification.

    The plan is immutable except for the freeze-failure budget, which
    counts down as :meth:`take_freeze_failure` consumes injections —
    that is what makes ``freeze_fail=N`` mean "the next N freezes",
    giving tests exact control over how far the degradation chain runs.
    """

    __slots__ = ("worker_crash", "worker_error", "slow_node", "_freeze_left")

    def __init__(
        self,
        worker_crash: FrozenSet[int] = frozenset(),
        worker_error: FrozenSet[int] = frozenset(),
        freeze_fail: int = 0,
        slow_node: float = 0.0,
    ) -> None:
        self.worker_crash = frozenset(worker_crash)
        self.worker_error = frozenset(worker_error)
        self.slow_node = float(slow_node)
        self._freeze_left = int(freeze_fail)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` string (raises ``ConfigError``)."""
        worker_crash: set = set()
        worker_error: set = set()
        freeze_fail = 0
        slow_node = 0.0
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            name, sep, value = term.partition("=")
            name = name.strip()
            if not sep or name not in _KNOWN_FAULTS:
                raise ConfigError(
                    f"bad {FAULTS_ENV_VAR} term {term!r}; expected "
                    f"name=value with name in {_KNOWN_FAULTS}"
                )
            try:
                if name == "worker_crash":
                    worker_crash.update(int(i) for i in value.split("+"))
                elif name == "worker_error":
                    worker_error.update(int(i) for i in value.split("+"))
                elif name == "freeze_fail":
                    freeze_fail = int(value)
                else:
                    slow_node = float(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad {FAULTS_ENV_VAR} value in {term!r}: {exc}"
                ) from exc
        if freeze_fail < 0:
            raise ConfigError(f"freeze_fail must be >= 0, got {freeze_fail}")
        if slow_node < 0.0:
            raise ConfigError(f"slow_node must be >= 0, got {slow_node}")
        return cls(
            frozenset(worker_crash),
            frozenset(worker_error),
            freeze_fail,
            slow_node,
        )

    @property
    def freeze_failures_left(self) -> int:
        """Remaining snapshot-freeze injections."""
        return self._freeze_left

    def take_freeze_failure(self) -> bool:
        """Consume one freeze-failure injection if any remain."""
        if self._freeze_left > 0:
            self._freeze_left -= 1
            return True
        return False

    def describe(self) -> dict:
        """Flat dict of the armed faults (logging / CLI output)."""
        return {
            "worker_crash": sorted(self.worker_crash),
            "worker_error": sorted(self.worker_error),
            "freeze_fail": self._freeze_left,
            "slow_node": self.slow_node,
        }


#: Memoized (raw env string, parsed plan); ``set_plan`` overrides it.
_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)
_override: Optional[FaultPlan] = None
_override_set = False


def current_plan() -> Optional[FaultPlan]:
    """The active fault plan, or ``None`` when no faults are armed.

    Resolution order: an explicit :func:`set_plan` override, then the
    ``REPRO_FAULTS`` environment variable (re-parsed only when the raw
    string changes, so polling this per search is cheap).
    """
    global _cache
    if _override_set:
        return _override
    spec = os.environ.get(FAULTS_ENV_VAR)
    if spec is None or not spec.strip():
        return None
    cached_spec, cached_plan = _cache
    if spec == cached_spec:
        return cached_plan
    plan = FaultPlan.parse(spec)
    _cache = (spec, plan)
    return plan


def set_plan(plan: Optional[FaultPlan], *, clear: bool = False) -> None:
    """Override (or with ``clear=True`` un-override) the active plan.

    Tests use this to arm faults without touching the environment;
    ``set_plan(None)`` forces "no faults" even when ``REPRO_FAULTS`` is
    set, while ``set_plan(None, clear=True)`` restores env resolution.
    """
    global _override, _override_set, _cache
    if clear:
        _override, _override_set = None, False
        _cache = (None, None)
    else:
        _override, _override_set = plan, True


def maybe_fail_worker(index: int, attempt: int) -> None:
    """Batch-worker fault point, called per task ``(index, attempt)``.

    First-attempt tasks whose index is armed either hard-exit the
    worker process (``worker_crash`` — the pool breaks and the parent
    retries the slice) or raise :class:`FaultInjected`
    (``worker_error`` — the pool survives, the slice is retried).
    Retried tasks (``attempt > 0``) always run clean, which is what
    makes the injected outcome deterministic.
    """
    if attempt > 0:
        return
    plan = current_plan()
    if plan is None:
        return
    if index in plan.worker_crash:
        os._exit(WORKER_CRASH_EXIT_CODE)
    if index in plan.worker_error:
        raise FaultInjected(
            f"injected worker error for batch task {index} (attempt 0)"
        )


def check_freeze(plan: Optional[FaultPlan]) -> None:
    """Service-side freeze fault point: raise if an injection is armed."""
    if plan is not None and plan.take_freeze_failure():
        raise FaultInjected("injected snapshot-freeze failure")


class SlowToken(CancelToken):
    """Wraps a cancellation token, sleeping on every poll.

    Engines poll ``cancel.expired()`` once per node expansion, so a
    ``slow_node=SECONDS`` fault materializes as exactly one sleep per
    expansion — a faithful stand-in for slow node reads that lets
    wall-clock deadline behaviour be tested with real time.
    """

    __slots__ = ("seconds", "inner", "polls")

    def __init__(self, seconds: float, inner: Optional[CancelToken] = None) -> None:
        super().__init__()
        self.seconds = float(seconds)
        self.inner = inner
        self.polls = 0

    def cancel(self) -> None:
        """Cancel the wrapped token (or this one when standalone)."""
        if self.inner is not None:
            self.inner.cancel()
        super().cancel()

    def expired(self) -> bool:
        """Sleep the injected latency, then delegate."""
        self.polls += 1
        if self.seconds > 0.0:
            time.sleep(self.seconds)
        if self.inner is not None:
            return self.inner.expired()
        return self._cancelled

    def describe(self) -> str:
        """Delegates to the wrapped token's reason."""
        if self.inner is not None:
            return self.inner.describe()
        return super().describe()


def wrap_token(
    plan: Optional[FaultPlan], token: Optional[CancelToken]
) -> Optional[CancelToken]:
    """Apply a ``slow_node`` fault to a service token (no-op otherwise)."""
    if plan is not None and plan.slow_node > 0.0:
        return SlowToken(plan.slow_node, token)
    return token
