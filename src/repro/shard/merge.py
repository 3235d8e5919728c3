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

Each per-shard count is produced by :meth:`ShardProbe.count_better`, a
line-faithful analogue of the snapshot engine's verification probe
(:meth:`~repro.core.traversal.SnapshotEngine._verify`) generalized to a
probe object that need not be resident in the probed shard: subtrees
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
similarities against ``q_sim`` with the *seed engine's* operand order
(probe first), and every input float — coordinates, ``maxD``, frozen
vectors — is shared with the unsharded index because shard datasets
share the parent's region, vocabulary, and config (see
:mod:`repro.shard.planner`).  Directory-level bounds differ per shard
tree shape, but they only steer the walk; the counted quantities are
exact either way, so the merged id set is bit-identical to the
unsharded snapshot engine's.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..core.rstknn import SearchStats
from ..model.objects import STObject
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard


def exact_similarity(a: STObject, b: STObject, alpha: float, measure, maxD: float) -> float:
    """Exact ``SimST(a, b)`` between two objects (seed operand order).

    Mirrors the snapshot engine's ``q_exact`` closure term by term:
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


class ShardProbe:
    """Similarity bounds between one external object and a shard snapshot.

    The probe object (a merge candidate, or the query itself during
    shard admission) is generally *not* resident in the probed shard,
    so the snapshot engine's slot-pair machinery does not apply; this
    class re-derives the same bound formulas — spatial min/max distance
    against slot MBRs, Extended-Jaccard (or measure) cluster bounds,
    exact object-level scores — from the probe's own point and frozen
    vector, in the engine's operand order (probe first).

    One probe is built per ``(object, shard)`` pair; construction cost
    is one frozen-form lookup (memoized on the vector), so probes are
    cheap enough to build per query.
    """

    __slots__ = (
        "snap", "measure", "alpha", "oid", "px", "py",
        "_ej", "_vec", "_frozen", "_nsq", "_iv",
    )

    def __init__(self, snap, measure, alpha: float, obj: STObject) -> None:
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.oid = obj.oid
        m = obj.mbr()
        # Degenerate object MBRs make the center equal xlo/ylo exactly.
        self.px = (m.xlo + m.xhi) / 2.0
        self.py = (m.ylo + m.yhi) / 2.0
        self._ej = isinstance(measure, ExtendedJaccard)
        self._vec = obj.vector
        self._frozen = obj.vector.frozen()
        self._nsq = obj.vector.norm_squared
        self._iv = None if self._ej else IntervalVector.from_document(obj.vector)

    def _fd(self, distance: float) -> float:
        score = 1.0 - distance / self.snap.maxD
        if score < 0.0:
            return 0.0
        if score > 1.0:
            return 1.0
        return score

    def text_bounds(self, slot: int) -> Tuple[float, float]:
        """``(MinSimT, MaxSimT)`` of the probe against a slot's clusters.

        The probe contributes a single degenerate cluster (its own
        vector as both intersection and union), exactly like the query
        entry in the engines' ``q_text`` closures.
        """
        lo: Optional[float] = None
        hi = 0.0
        if self._ej:
            frozen = self._frozen
            nsq = self._nsq
            for _iv, int_b, uni_b, insq_b, unsq_b in self.snap.clusters[slot]:
                d_min = frozen.dot(int_b)
                if d_min == 0.0:
                    pair_lo = 0.0
                else:
                    s_max = nsq + unsq_b
                    pair_lo = d_min / (s_max - d_min)
                    if pair_lo > 1.0:
                        pair_lo = 1.0
                d_max = frozen.dot(uni_b)
                if d_max == 0.0:
                    pair_hi = 0.0
                elif 2.0 * d_max >= nsq + insq_b:
                    pair_hi = 1.0
                else:
                    s_min = nsq + insq_b
                    pair_hi = d_max / (s_min - d_max)
                lo = pair_lo if lo is None else min(lo, pair_lo)
                hi = max(hi, pair_hi)
        else:
            measure = self.measure
            iv_a = self._iv
            for ivb, *_ in self.snap.clusters[slot]:
                pair_lo = measure.min_similarity(iv_a, ivb)
                pair_hi = measure.max_similarity(iv_a, ivb)
                lo = pair_lo if lo is None else min(lo, pair_lo)
                hi = max(hi, pair_hi)
        return (lo if lo is not None else 0.0, hi)

    def exact(self, slot: int) -> float:
        """Exact SimST of the probe against an object slot."""
        snap = self.snap
        alpha = self.alpha
        score = 0.0
        if alpha > 0.0:
            dist = math.hypot(self.px - snap.xlo[slot], self.py - snap.ylo[slot])
            score += alpha * self._fd(dist)
        if alpha < 1.0:
            if self._ej:
                sim = self._frozen.ext_jaccard(snap.obj_frozen[slot])
            else:
                sim = self.measure.similarity(self._vec, snap.obj_vec[slot])
            score += (1.0 - alpha) * sim
        return score

    def bounds(self, slot: int) -> Tuple[float, float]:
        """Blended ``(MinST, MaxST)`` of the probe against any slot."""
        snap = self.snap
        if snap.is_obj[slot]:
            score = self.exact(slot)
            return score, score
        alpha = self.alpha
        if alpha == 0.0:
            return self.text_bounds(slot)
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        px, py = self.px, self.py
        dx = max(px - xhi[slot], 0.0, xlo[slot] - px)
        dy = max(py - yhi[slot], 0.0, ylo[slot] - py)
        s_hi = self._fd(math.hypot(dx, dy))
        dx = max(abs(px - xlo[slot]), abs(xhi[slot] - px))
        dy = max(abs(py - ylo[slot]), abs(yhi[slot] - py))
        s_lo = self._fd(math.hypot(dx, dy))
        if alpha == 1.0:
            return alpha * s_lo, alpha * s_hi
        t_lo, t_hi = self.text_bounds(slot)
        return (
            alpha * s_lo + (1.0 - alpha) * t_lo,
            alpha * s_hi + (1.0 - alpha) * t_hi,
        )

    def upper(self, slot: int) -> float:
        """``MaxST`` of the probe against a slot (admission bound side)."""
        return self.bounds(slot)[1]

    def count_better(
        self,
        tree,
        q_sim: float,
        budget: int,
        stats: Optional[SearchStats] = None,
    ) -> int:
        """Objects in this shard strictly more similar to the probe than
        ``q_sim``, capped at ``budget``.

        The walk mirrors :meth:`SnapshotEngine._verify
        <repro.core.traversal.SnapshotEngine._verify>`: spatial-only
        optimistic bounds first (a subtree that cannot beat ``q_sim``
        even with text similarity 1 is skipped without paying for a text
        bound), wholesale group counts for subtrees whose pessimistic
        bound already beats ``q_sim`` — guarded, as in the engine, by
        the probe point lying outside the subtree MBR so the probe can
        never count itself — and descent otherwise.  Object slots whose
        ``ref`` equals the probe's oid are excluded, so probing the
        candidate's home shard is exact too.  Node descents charge
        ``tree.buffer`` and ``stats.verify_node_reads`` like the
        engine's probe.
        """
        snap = self.snap
        alpha = self.alpha
        is_obj = snap.is_obj
        ref = snap.ref
        cnt = snap.cnt
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        px, py = self.px, self.py
        oid = self.oid
        fd = self._fd
        count = 0
        stack = list(snap.root_slots)
        while stack and count < budget:
            e = stack.pop()
            if is_obj[e]:
                if ref[e] == oid:
                    continue
                if self.exact(e) > q_sim:
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
                    t_lo, t_hi = self.text_bounds(e)
                    lo = alpha * s_lo + (1.0 - alpha) * t_lo
                    hi = alpha * s_hi + (1.0 - alpha) * t_hi
            else:
                lo, hi = self.text_bounds(e)
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

