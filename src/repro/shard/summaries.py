"""Precomputed per-shard bound tables for admission-time shard pruning.

The paper prunes a *subtree* when the query's optimistic similarity
cannot reach the subtree's pessimistic k-NN band (``MaxST < kNNL``).
Sharding lifts the same rule one level: a whole shard can be skipped in
the scatter round when, for **every** object ``s`` it holds, at least
``k`` within-shard competitors are provably more similar to ``s`` than
the query can possibly be.  Then no object of the shard is a global
answer — competitors from other shards could only raise the counts —
so the shard contributes nothing to the candidate set and the scatter
never visits it.  (Its objects still *compete* against other shards'
candidates, so the merge round probes pruned shards too; admission
pruning saves the expensive branch-and-bound walk, not the cheap count
probes.)

The pessimistic side is precomputed once per shard and similarity
setting as :class:`ShardSummary`: a *frontier* of directory slots is
peeled off the shard snapshot (largest-count nodes first, so the
frontier tracks the shard's real cluster structure), and for each
frontier node ``f`` the engine's own root contribution template is
evaluated — pairwise ``MinST(f, g)`` lower bounds against every other
frontier node (weight ``cnt[g]``) plus the self term ``MinST(f, f)``
(weight ``cnt[f] - 1``).  The weighted k-th largest of those lower
bounds (:func:`repro.core.contributions._kth_largest`) lower-bounds the
k-th best within-shard competitor similarity of *every* object under
``f``; the table entry ``knnl[k-1]`` takes the minimum over the
frontier, making it valid for every object of the shard.  Tables cover
``k = 1 .. kmax`` (:data:`DEFAULT_KMAX`); larger ``k`` simply never
prunes.

At query time the optimistic side is one
:class:`~repro.core.traversal.QueryProbe` upper bound per frontier node
(the snapshot walk's own query bound): ``q_hi = max_f MaxST(q, f)``.  The shard
is pruned iff ``q_hi < knnl[k-1]`` — strict, because membership counts
only *strictly* better competitors: each of the k guaranteed
competitors has similarity ``>= knnl[k-1] > q_hi >= SimST(q, s)``.

Pair bounds are evaluated through the shard engine's memoized ``_st``
table, so summary construction also warms the bounds the scatter walk
will reuse.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

from ..core.contributions import _kth_largest
from ..core.traversal import QueryProbe

#: Largest ``k`` the admission tables cover; queries with ``k`` beyond
#: this scatter to every shard (correct, just unpruned).
DEFAULT_KMAX = 16

#: Target frontier width per shard: more nodes tighten the pessimistic
#: bound (deeper, smaller MBRs) at linear summary-build cost.
DEFAULT_FRONTIER = 16


@dataclass(frozen=True)
class ShardSummary:
    """One shard's admission-pruning table for one similarity setting.

    Attributes:
        shard_id: Position of the shard in its :class:`~repro.shard.planner.ShardedIndex`.
        n_objects: Objects resident in the shard.
        frontier: Snapshot slots the summary was computed over; query
            upper bounds are evaluated against these same slots.
        knnl: ``knnl[k-1]`` lower-bounds, for every object in the
            shard, the similarity of its k-th best within-shard
            competitor (``k = 1 .. len(knnl)``).
    """

    shard_id: int
    n_objects: int
    frontier: Tuple[int, ...]
    knnl: Tuple[float, ...]

    def can_prune(self, q_upper: float, k: int) -> bool:
        """Whether the whole shard is skippable for a query bounded by
        ``q_upper`` at this ``k`` (strict comparison; see module doc).

        Count-aware: an object in a shard of ``n_objects`` has at most
        ``n_objects - 1`` within-shard competitors, so ``k`` beyond
        that can never assemble k provably-better competitors and the
        shard is never pruned.  (The ``knnl`` math already degrades to
        a 0.0 bound there — :func:`_kth_largest` runs out of weighted
        competitors — but the guard keeps soundness explicit rather
        than an artifact of the table values; ``tests/test_shard.py``
        pins it with single-object shards.)"""
        if k > self.n_objects - 1:
            return False
        return 1 <= k <= len(self.knnl) and q_upper < self.knnl[k - 1]


def _peel_frontier(snap, frontier_size: int) -> List[int]:
    """Descend the snapshot's largest directory nodes until up to
    ``frontier_size`` slots cover the shard (objects stay as-is).

    The peel is adaptive: a zero-fanout directory slot (degenerate
    empty node) becomes its own frontier slot and the peel continues — it must not dump the whole heap and
    leave the frontier far under budget with correspondingly loose
    floors — and a node whose expansion would overflow the budget is
    likewise kept while smaller nodes may still be refined.
    """
    frontier: List[int] = []
    heap: List[Tuple[int, int]] = []  # (-cnt, slot) for directory slots
    for r in snap.root_slots:
        if snap.is_obj[r]:
            frontier.append(r)
        else:
            heapq.heappush(heap, (-snap.cnt[r], r))
    while heap:
        _neg_cnt, slot = heapq.heappop(heap)
        children = range(snap.first_child[slot], snap.last_child[slot])
        fanout = len(children)
        if fanout == 0:
            frontier.append(slot)
            continue
        if len(frontier) + len(heap) + fanout > frontier_size:
            frontier.append(slot)
            continue
        for c in children:
            if snap.is_obj[c]:
                frontier.append(c)
            else:
                heapq.heappush(heap, (-snap.cnt[c], c))
    return frontier


def build_summary(
    shard_id: int,
    engine,
    kmax: int = DEFAULT_KMAX,
    frontier_size: int = DEFAULT_FRONTIER,
) -> ShardSummary:
    """Compute one shard's :class:`ShardSummary` from its snapshot engine.

    ``engine`` is the shard's :class:`~repro.core.traversal.SnapshotEngine`
    for the similarity setting being served — its memoized pair-bound
    table supplies every ``MinST`` the template needs (and keeps the
    values it computes for the scatter walk to reuse).
    """
    snap = engine.snap
    frontier = _peel_frontier(snap, frontier_size)
    cnt = snap.cnt
    st = engine._st
    knnl = [float("inf")] * kmax
    for f in frontier:
        contribs: List[Tuple[float, int]] = []
        for g in frontier:
            if g == f:
                continue
            lo, _hi = st(f, g)
            contribs.append((lo, cnt[g]))
        cf = cnt[f]
        if cf >= 2:
            lo, _hi = st(f, f)
            contribs.append((lo, cf - 1))
        for k in range(1, kmax + 1):
            bound = _kth_largest(contribs, k)
            if bound < knnl[k - 1]:
                knnl[k - 1] = bound
    n_objects = sum(cnt[r] for r in snap.root_slots)
    table = [0.0 if b == float("inf") else b for b in knnl]
    return ShardSummary(
        shard_id=shard_id,
        n_objects=int(n_objects),
        frontier=tuple(frontier),
        knnl=tuple(table),
    )


def query_upper(probe: QueryProbe, summary: ShardSummary) -> float:
    """Optimistic ``SimST`` of a query against anything in the shard.

    The maximum of the probe's ``MaxST`` upper bounds over the summary
    frontier — every shard object lies under some frontier slot, whose
    upper bound dominates it.  An empty frontier (a shard snapshot with
    no slots, i.e. no objects) yields ``0.0``: nothing to reach, and a
    zero upper bound never satisfies the strict ``can_prune``
    comparison against a non-negative floor incorrectly, since an empty
    shard has nothing to over-prune.
    """
    if not summary.frontier:
        return 0.0
    return max(probe.bounds(f)[1] for f in summary.frontier)
