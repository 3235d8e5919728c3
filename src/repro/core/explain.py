"""Query explanation: a structured trace of the searcher's decisions.

:class:`SearchTrace` is the reference implementation of the
:class:`repro.obs.TraceSink` protocol — both traversal engines (the seed
walk and the snapshot engine) emit the same stream of group-level
decision events, so a trace can be attached to either of them;
:meth:`RSTkNNSearcher.search` no longer changes engines when a
trace is passed.  Every decision — prune, accept, expand, verify — is
recorded with the bounds that justified it, and the multiset of events
one query produces is identical across engines (see
``docs/OBSERVABILITY.md``).  ``render()`` produces a human-readable
account, which the docs and the ``explain`` example use to show *why* an
object is (not) a reverse neighbor.  For cheaper sinks (tallies only,
or metrics bridging) see :mod:`repro.obs.trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One decision about one entry."""

    action: str  # "prune" | "accept" | "expand" | "verify-in" | "verify-out"
    ref: int
    is_object: bool
    count: int
    q_lo: float
    q_hi: float
    knn_lower: float
    knn_upper: float

    def describe(self) -> str:
        """One human-readable line for this decision."""
        kind = "object" if self.is_object else f"node({self.count} objs)"
        band = f"q∈[{self.q_lo:.3f},{self.q_hi:.3f}] kNN∈[{self.knn_lower:.3f},{self.knn_upper:.3f}]"
        reason = {
            "prune": "MaxST(q,E) < kNNL(E): no object here can rank q in its top-k",
            "accept": "MinST(q,E) >= kNNU(E): every object here ranks q in its top-k",
            "expand": "bounds straddle the decision band; descending",
            "verify-in": "exact probe: fewer than k objects beat q",
            "verify-out": "exact probe: k objects already beat q",
        }[self.action]
        return f"{self.action:<10} {kind:<16} #{self.ref:<6} {band}  — {reason}"


@dataclass
class SearchTrace:
    """Accumulates :class:`TraceEvent` records during one search."""

    events: List[TraceEvent] = field(default_factory=list)
    max_events: Optional[int] = None

    def record(
        self,
        action: str,
        ref: int,
        is_object: bool,
        count: int,
        q_lo: float,
        q_hi: float,
        knn_lower: float,
        knn_upper: float,
    ) -> None:
        """Append one decision event (drops events past max_events)."""
        if self.max_events is not None and len(self.events) >= self.max_events:
            return
        self.events.append(
            TraceEvent(
                action, ref, is_object, count, q_lo, q_hi, knn_lower, knn_upper
            )
        )

    def counts(self) -> Dict[str, int]:
        """Events per action kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.action] = out.get(event.action, 0) + 1
        return out

    def events_for(self, ref: int) -> List[TraceEvent]:
        """All decisions touching one entry/object id."""
        return [e for e in self.events if e.ref == ref]

    def render(self, limit: int = 40) -> str:
        """A readable decision log (truncated to ``limit`` lines)."""
        lines = [e.describe() for e in self.events[:limit]]
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        summary = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        lines.append(f"summary: {summary}")
        return "\n".join(lines)
