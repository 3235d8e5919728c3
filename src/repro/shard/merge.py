"""Exact cross-shard merge: membership by global competitor counting.

A shard-local RSTkNN search under-counts competitors — objects in
*other* shards can also be more similar to a candidate than the query
is — so shard-local answers are a **candidate superset** of the global
answer (fewer competitors can only keep an object in, never push it
out).  This module supplies the second, exact round: for each candidate
``s`` the scatter layer computes ``q_sim = SimST(q, s)`` once and then
sums, shard by shard, how many objects beat it:

    count_X(s) = |{ e in shard X : oid(e) != oid(s),  SimST(s, e) > q_sim }|

``s`` is a global answer iff ``sum_X count_X(s) <= k - 1`` — exactly
the tie-inclusive membership rule of
:class:`~repro.core.rstknn.RSTkNNSearcher` (strictly fewer than ``k``
strictly-better competitors).

Each per-shard count is produced by :func:`count_better`, the snapshot
engine's verification probe
(:meth:`~repro.core.traversal.SnapshotEngine._verify`) without its pair
memo, bounding through a :class:`~repro.core.traversal.QueryProbe` so
the probe object need not be resident in the probed shard: subtrees
whose optimistic bound cannot beat ``q_sim`` are skipped, subtrees whose
pessimistic bound already beats it are counted wholesale (``cnt``
objects at once, valid because ``MinST`` lower-bounds the similarity of
the probe to *every* object underneath), and only straddling subtrees
descend.  Counts are capped at the remaining budget ``k - total``: once
``total`` reaches ``k`` the candidate is out regardless of the exact
tally, the same early exit ``_verify`` takes — capping never changes
the ``<= k - 1`` decision, because a capped shard implies the true sum
is at least ``k`` too.

Bit-parity note: the membership decision compares exact object-level
similarities against ``q_sim`` through :meth:`QueryProbe.exact
<repro.core.traversal.QueryProbe.exact>`, which equals the unsharded
engine's ``_exact(s, e)`` bit for bit (``tests/test_engine_snapshot.py``
pins it), and every input float — coordinates, ``maxD``, frozen
vectors — is shared with the unsharded index because shard datasets
share the parent's region, vocabulary, and config (see
:mod:`repro.shard.planner`).  Directory-level bounds differ per shard
tree shape, but they only steer the walk; the counted quantities are
exact either way, so the merged id set is bit-identical to the
unsharded snapshot engine's.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.rstknn import SearchStats
from ..core.traversal import QueryProbe
from ..model.objects import STObject
from ..text.similarity import ExtendedJaccard


def exact_similarity(a: STObject, b: STObject, alpha: float, measure, maxD: float) -> float:
    """Exact ``SimST(a, b)`` between two objects (seed operand order).

    The object-against-object form of :meth:`QueryProbe.exact
    <repro.core.traversal.QueryProbe.exact>` with ``a`` as the probe:
    the spatial distance is ``hypot(a - b)`` with ``a`` first, the text
    term calls ``a``'s frozen form (or the measure) with ``a`` first,
    and the proximity clamp divides by the dataset-wide ``maxD`` —
    bit-identical to the value the unsharded engine compares against,
    because shard datasets share the parent's region and vectors.
    """
    am = a.mbr()
    bm = b.mbr()
    score = 0.0
    if alpha > 0.0:
        dist = math.hypot(am.xlo - bm.xlo, am.ylo - bm.ylo)
        fd = 1.0 - dist / maxD
        if fd < 0.0:
            fd = 0.0
        elif fd > 1.0:
            fd = 1.0
        score += alpha * fd
    if alpha < 1.0:
        if isinstance(measure, ExtendedJaccard):
            sim = a.vector.frozen().ext_jaccard(b.vector.frozen())
        else:
            sim = measure.similarity(a.vector, b.vector)
        score += (1.0 - alpha) * sim
    return score


def count_better(
    probe: QueryProbe,
    tree,
    q_sim: float,
    budget: int,
    stats: Optional[SearchStats] = None,
) -> int:
    """Objects in the probe's snapshot strictly more similar to the
    probe object than ``q_sim``, capped at ``budget``.

    ``tree`` is the snapshot's tree, whose buffer the node reads are
    charged to.  The walk is :meth:`SnapshotEngine._verify
    <repro.core.traversal.SnapshotEngine._verify>` without the pair
    memo (the probe object need not be resident): spatial-only
    optimistic bounds first (a subtree that cannot beat ``q_sim`` even
    with text similarity 1 is skipped without paying for a text bound),
    wholesale group counts for subtrees whose pessimistic bound already
    beats ``q_sim`` — guarded, as in the engine, by the probe point
    lying outside the subtree MBR so the probe can never count itself —
    and descent otherwise.  Object slots whose ``ref`` equals the
    probe's oid are excluded, so probing the candidate's home shard is
    exact too.  Node descents charge ``tree.buffer`` and
    ``stats.verify_node_reads`` like the engine's probe.
    """
    snap = probe.snap
    alpha = probe.alpha
    is_obj = snap.is_obj
    ref = snap.ref
    cnt = snap.cnt
    xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
    px, py = probe.px, probe.py
    oid = probe.oid
    fd = probe._fd
    count = 0
    stack = list(snap.root_slots)
    while stack and count < budget:
        e = stack.pop()
        if is_obj[e]:
            if ref[e] == oid:
                continue
            if probe.exact(e) > q_sim:
                count += 1
            continue
        if alpha > 0.0:
            dx = max(px - xhi[e], 0.0, xlo[e] - px)
            dy = max(py - yhi[e], 0.0, ylo[e] - py)
            s_hi = fd(math.hypot(dx, dy))
            opt_hi = alpha * s_hi + (1.0 - alpha)
            if opt_hi <= q_sim:
                # Even with text similarity 1 nothing under this
                # subtree can beat the query's score.
                continue
            dx = max(abs(px - xlo[e]), abs(xhi[e] - px))
            dy = max(abs(py - ylo[e]), abs(yhi[e] - py))
            s_lo = fd(math.hypot(dx, dy))
            if (
                alpha * s_lo > q_sim
                and not (xlo[e] <= px <= xhi[e] and ylo[e] <= py <= yhi[e])
            ):
                # Beats the query on space alone and the probe lies
                # elsewhere: every object below is a competitor.
                count += cnt[e]
                continue
            if alpha == 1.0:
                lo, hi = alpha * s_lo, alpha * s_hi
            else:
                t_lo, t_hi = probe.text_bounds(e)
                lo = alpha * s_lo + (1.0 - alpha) * t_lo
                hi = alpha * s_hi + (1.0 - alpha) * t_hi
        else:
            lo, hi = probe.text_bounds(e)
        if hi <= q_sim:
            continue
        if lo > q_sim and not (
            xlo[e] <= px <= xhi[e] and ylo[e] <= py <= yhi[e]
        ):
            count += cnt[e]
            continue
        if stats is not None:
            stats.verify_node_reads += 1
        tree.buffer.get(snap.record_id[e], "verify")
        stack.extend(range(snap.first_child[e], snap.last_child[e]))
    return count
