"""Per-query deadlines and cooperative cancellation tokens.

A :class:`CancelToken` is the cooperative-cancellation handle every
engine understands: :meth:`RSTkNNSearcher.search
<repro.core.rstknn.RSTkNNSearcher.search>` and
:meth:`SnapshotEngine.search <repro.core.traversal.SnapshotEngine.search>`
both accept one as ``cancel`` and poll :meth:`CancelToken.expired`
once per **node expansion** — the unit of work that dominates query
cost — so an expired token stops the walk within one expansion, raising
:class:`repro.errors.DeadlineExceeded` with the partial
:class:`~repro.core.rstknn.SearchStats` accumulated so far.

:class:`Deadline` is the wall-clock specialization.  Its clock is
injectable, which is what makes the "within one node-expansion of the
limit" guarantee *testable*: a fake clock that advances one tick per
poll turns the deadline into an exact expansion budget
(``tests/test_service.py`` pins this).
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import ConfigError


class CancelToken:
    """Manually triggered cooperative cancellation.

    Engines never act on a token other than polling :meth:`expired`;
    cancelling a token therefore stops an in-flight search at its next
    node expansion, not instantly.  Tokens are single-use: once
    cancelled they stay cancelled.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    def expired(self) -> bool:
        """Polled by engines once per node expansion."""
        return self._cancelled

    def describe(self) -> str:
        """Human-readable reason used in ``DeadlineExceeded`` messages."""
        return "query cancelled"


class Deadline(CancelToken):
    """A cancellation token that also expires after a wall-clock budget.

    Args:
        seconds: Time budget from construction; must be positive.
        clock: Monotonic time source (seconds).  Injectable so tests can
            drive expiry deterministically; defaults to
            :func:`time.monotonic`.
    """

    __slots__ = ("_clock", "_seconds", "_at")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not seconds > 0.0:
            raise ConfigError(f"deadline seconds must be > 0, got {seconds}")
        super().__init__()
        self._clock = clock
        self._seconds = float(seconds)
        self._at = clock() + float(seconds)

    @property
    def seconds(self) -> float:
        """The time budget the deadline was created with."""
        return self._seconds

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past it)."""
        return self._at - self._clock()

    def expired(self) -> bool:
        """True once cancelled or past the wall-clock budget."""
        return self._cancelled or self._clock() >= self._at

    def describe(self) -> str:
        """Reason string: distinguishes cancellation from expiry."""
        if self._cancelled:
            return "query cancelled"
        return f"deadline of {self._seconds:g}s exceeded"


def token_for(
    deadline_seconds: Optional[float],
    cancel: Optional[CancelToken] = None,
    clock: Callable[[], float] = time.monotonic,
) -> Optional[CancelToken]:
    """Normalize (deadline, token) service arguments into one token.

    ``deadline_seconds`` wins when both are given (the explicit token is
    then unused — the service API treats them as alternatives); ``None``
    for both means no cancellation is threaded through the engines at
    all, keeping the hot path free of polls.
    """
    if deadline_seconds is not None:
        return Deadline(deadline_seconds, clock=clock)
    return cancel
