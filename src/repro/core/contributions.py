"""Contribution lists: group-level kNN bounds for frontier entries.

For a frontier entry ``E``, every other entry ``F`` of some (possibly
historical) partition of the dataset *contributes* ``F.count`` objects
whose similarity to any ``o ∈ E`` lies within ``[MinST(E,F), MaxST(E,F)]``;
``E`` itself contributes ``E.count - 1`` objects within its self-bounds.
From the multiset of contributions:

* ``kNNL(E)`` — the k-th largest value counting every contribution at its
  **lower** bound.  Every object in ``E`` is guaranteed at least ``k``
  neighbors at similarity >= ``kNNL(E)``, so its true k-th NN similarity
  is >= ``kNNL(E)``.
* ``kNNU(E)`` — the k-th largest value counting **upper** bounds.
  Provided the contributions cover the *entire* dataset (an invariant the
  searchers maintain: lists start from a full partition and every edit
  replaces a contribution by an equal-coverage refinement), at most
  ``k - 1`` objects can beat ``kNNU(E)``, so every object's true k-th NN
  similarity is <= ``kNNU(E)``.

The bounds drive the two decision rules: prune ``E`` when
``MaxST(q,E) < kNNL(E)``; accept all of ``E`` when ``MinST(q,E) >= kNNU(E)``.

**The rules are decided by counting** (:func:`decide_by_count`), not by
selecting the two k-th largest values.  Every contribution carries
``count >= 1`` and every query bound lies in ``[0, 1]``, so with ``q_hi
= MaxST(q,E)`` and ``q_lo = MinST(q,E)``:

* ``q_hi < kNNL(E)`` iff the contributions with ``min_st > q_hi`` cover
  at least ``k`` objects.  When the list covers ``k`` or more objects,
  the k-th largest lower end exceeds ``q_hi`` exactly when the ``k``
  largest all do.  When it covers fewer, ``kNNL`` is 0 and
  ``q_hi >= 0`` keeps the rule silent, as does the count (< k).
* ``q_lo >= kNNU(E)`` iff the contributions with ``max_st > q_lo`` cover
  fewer than ``k`` objects — the negation of the same statement for the
  upper ends, with ``q_lo >= 0`` making a short list accept on both
  sides.

Counts only grow, so the pass stops as soon as ``k`` objects beat
``q_hi``; it builds no lists, and it returns the same -1/0/+1 as the
two selections.  The band values themselves (:func:`_kth_largest`,
:meth:`ContributionList.knn_lower`/``knn_upper``) are still computed
where they are reported: trace events, ``explain`` and shard summaries.

Lists support the paper's *lazy effect-list refinement*: a contribution
records the entry that produced it, so an inherited (loose but valid)
contribution can later be tightened in place — either by recomputing the
bounds directly against its entry, or by substituting the entry's
recorded children.  Only the few contributions that actually gate a
decision ever get tightened; :func:`_top_by` picks them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Set,
    Tuple,
    TypeVar,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..index.entry import Entry

#: A live-entry key: (ref, is_object).
SourceKey = Tuple[int, bool]

_T = TypeVar("_T")


@dataclass(frozen=True)
class Contribution:
    """``count`` objects with pairwise SimST within [min_st, max_st].

    ``entry`` is the summarizing tree entry the bounds were derived from
    (possibly via a looser ancestor of the list's owner); it is kept so
    the bounds can be tightened lazily.
    """

    source: SourceKey
    entry: "Entry"
    min_st: float
    max_st: float
    count: int


_by_min = attrgetter("min_st")
_by_max = attrgetter("max_st")


class ContributionList:
    """The mutable contribution set of one frontier entry.

    Tracks which sources are *tight* (bounds computed directly between
    the owner and ``contribution.entry``); inherited copies reset the
    tight set because the inherited bounds were computed for an ancestor.
    """

    __slots__ = ("_by_source", "_tight")

    def __init__(self) -> None:
        self._by_source: Dict[SourceKey, Contribution] = {}
        self._tight: Set[SourceKey] = set()

    def copy(self) -> "ContributionList":
        """Copy for an heir: same contributions, nothing tight."""
        out = ContributionList()
        out._by_source = dict(self._by_source)
        return out

    def set(self, contribution: Contribution, tight: bool = False) -> None:
        """Insert or replace the contribution from one source."""
        if contribution.count <= 0:
            self.remove(contribution.source)
            return
        self._by_source[contribution.source] = contribution
        if tight:
            self._tight.add(contribution.source)
        else:
            self._tight.discard(contribution.source)

    def remove(self, source: SourceKey) -> None:
        """Drop a source (expanded into children, or self on expansion)."""
        self._by_source.pop(source, None)
        self._tight.discard(source)

    def is_tight(self, source: SourceKey) -> bool:
        """Whether this source's bounds were computed directly."""
        return source in self._tight

    def __len__(self) -> int:
        return len(self._by_source)

    def __contains__(self, source: SourceKey) -> bool:
        return source in self._by_source

    def contributions(self) -> Iterable[Contribution]:
        """Iterate over the stored contributions."""
        return self._by_source.values()

    def total_count(self) -> int:
        """Objects covered by the list (coverage invariant)."""
        return sum(c.count for c in self._by_source.values())

    def top_by_min(self, m: int) -> List[Contribution]:
        """The ``m`` contributions with the largest lower bounds."""
        return _top_by(self._by_source.values(), m, _by_min)

    def top_by_max(self, m: int) -> List[Contribution]:
        """The ``m`` contributions with the largest upper bounds."""
        return _top_by(self._by_source.values(), m, _by_max)

    def decide(self, q_lo: float, q_hi: float, k: int) -> int:
        """The two decision rules: -1 prune, +1 accept, 0 undecided.

        See :func:`decide_by_count`; newest contributions are read
        first, because the ones an expansion adds end most prunes.
        """
        # A generator, not ``map(attrgetter(...))``: on CPython 3.11 the
        # specialized attribute loads here run faster than the C getter.
        return decide_by_count(
            (
                (c.min_st, c.max_st, c.count)
                for c in reversed(self._by_source.values())
            ),
            q_lo,
            q_hi,
            k,
        )

    # ------------------------------------------------------------------
    # kNN bounds
    # ------------------------------------------------------------------

    def knn_lower(self, k: int) -> float:
        """k-th largest guaranteed similarity (0 when < k objects)."""
        return _kth_largest(
            [(c.min_st, c.count) for c in self._by_source.values()], k
        )

    def knn_upper(self, k: int) -> float:
        """k-th largest possible similarity (0 when < k objects).

        Only an upper bound on the true k-th NN similarity when the list
        covers the whole dataset; the searchers maintain that invariant.
        """
        return _kth_largest(
            [(c.max_st, c.count) for c in self._by_source.values()], k
        )


def decide_by_count(
    contributions: Iterable[Tuple[float, float, int]],
    q_lo: float,
    q_hi: float,
    k: int,
) -> int:
    """Prune (-1), accept (+1) or leave undecided (0) one frontier entry.

    ``contributions`` yields ``(min_st, max_st, count)`` triples with
    ``count >= 1``; ``0 <= q_lo`` and ``0 <= q_hi`` bound the query's
    similarity to the entry, and ``k >= 1``.  Returns exactly
    ``-1 if q_hi < kNNL else (1 if q_lo >= kNNU else 0)`` (proof in the
    module docstring) in one pass that stops once ``k`` objects are
    certain to beat ``q_hi``.
    """
    beat_hi = 0  # objects certainly more similar than q_hi
    beat_lo = 0  # objects possibly more similar than q_lo
    for lo, hi, count in contributions:
        if lo > q_hi:
            beat_hi += count
            if beat_hi >= k:
                return -1
        if hi > q_lo:
            beat_lo += count
    return 1 if beat_lo < k else 0


def _top_by(items: Iterable[_T], m: int, key: Callable[[_T], float]) -> List[_T]:
    """The ``m`` items with the largest keys, ties in iteration order.

    ``sorted(..., reverse=True)[:m]`` is what the :mod:`heapq` docs
    define ``heapq.nlargest(m, items, key=key)`` to equal, tie order
    included (the sort is stable), and it runs in C.
    """
    return sorted(items, key=key, reverse=True)[:m]


def _kth_largest(weighted: List[Tuple[float, int]], k: int) -> float:
    """The k-th largest value of a multiset given as (value, count) pairs.

    Returns 0.0 when the multiset holds fewer than ``k`` values, which
    encodes "the k-th neighbor does not exist": a query is then trivially
    within the top-k, and 0 makes the accept rule fire (every SimST >= 0)
    while keeping the prune rule silent.

    The searchers decide with :func:`decide_by_count`; this selection
    serves where the band value itself is reported (trace events,
    ``explain``, shard summaries) and is the oracle the tests hold the
    counting rule to.
    """
    if k <= 0:
        raise ValueError(f"k must be >= 1, got {k}")
    # Every pair carries count >= 1, so the k-th largest element lies
    # within the k largest pairs by value — partial selection suffices.
    remaining = k
    for value, count in heapq.nlargest(k, weighted):
        if count <= 0:
            continue
        remaining -= count
        if remaining <= 0:
            return value
    return 0.0
