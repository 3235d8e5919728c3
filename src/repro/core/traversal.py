"""Snapshot-based RSTkNN traversal: the ``engine="snapshot"`` hot path.

A :class:`SnapshotEngine` runs the exact branch-and-bound algorithm of
:class:`~repro.core.rstknn.RSTkNNSearcher` over an
:class:`~repro.perf.snapshot.IndexSnapshot` instead of the live tree
objects.  The algorithm is a line-faithful port — same decision rules,
same lazy effect-list tightening, same heap discipline (stale entries
are skipped by a status check, never re-keyed), same verification probe,
and the same buffer-pool charges in the same order — so its result sets
and decision counters are identical to the seed engine *by
construction*, not by tolerance.  What changes is the representation:

* entries are integer *slots* into flat coordinate arrays, so the
  similarity bounds read four floats instead of chasing
  ``Entry -> Rect`` attribute pairs;
* when a node is expanded, the spatial parts of the query bounds for
  all of its children come from one vectorized array pass (numpy when
  available) over the snapshot's coordinate columns, finished with
  scalar ``math.hypot`` so every value is bit-identical to the seed's;
* the two decision rules are one early-exit counting pass over the
  slot dict, newest contribution first, and tightening candidates come
  from one C-level sort per bound — the seed walk's helpers
  ``decide_by_count`` and ``_top_by`` from
  :mod:`repro.core.contributions`, whose docstrings prove them equal to
  the paper's k-th-largest selections and to ``heapq.nlargest``;
* textual bounds are evaluated from the snapshot's pre-frozen kernel
  forms, with the Extended Jaccard formulas inlined over precomputed
  squared norms (the production default measure);
* the verification probe orders its work so text bounds are evaluated
  lazily: children whose purely spatial optimistic bounds already
  decide them (group-pruned or group-counted) never pay for a text
  bound at all — provably the same decision the full bound reaches;
* pair bounds are memoized in a snapshot-resident symmetric table, so
  later queries reuse earlier queries' work; the memo cannot go stale,
  because snapshots are generation-tagged and rebuilt on index
  mutation.  A plain snapshot's memo lives and dies with it.  A live
  index's *union* snapshot (:meth:`IndexSnapshot.union
  <repro.perf.snapshot.IndexSnapshot.union>`) keeps the frozen slots of
  its base at their offsets, so its engine serves every pair of frozen
  slots the tombstones left *stable* from the base engine's memo —
  which therefore survives writes until the next fold — and keeps only
  pairs touching the overlay or a slot that lost a cluster in its own;
  bounds read MBRs, interval vectors and object vectors, which a
  tombstone leaves unchanged (``docs/UPDATES.md``); and
* dead slots (``cnt == 0``: a union's tombstoned objects and dead
  subtrees) are skipped wherever a child range is read — the
  verification probe counts them as no competitor and never descends
  into them — exactly as the seed walk never sees them.

Floating-point parity notes: every arithmetic expression (clamps,
blends, hypot finishes, kernel reductions) is copied from the seed call
sites with the same operand order, so values match bit-for-bit within a
query.  The persistent pair memo may serve a value first computed by
an *earlier* query with the operands in the other order; that is exact
because every bound kernel is bitwise symmetric (the python kernels sum
shared terms with correctly rounded ``math.fsum``, so set-iteration
order cannot matter, and ``tests/test_perf_kernels.py`` checks the
symmetry).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import TraceSink

from ..model.objects import STObject
from ..perf import kernels
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard
from ..errors import DeadlineExceeded
from .cancel import cancel_message
from .contributions import _kth_largest, _top_by, decide_by_count
from .rstknn import SearchResult, SearchStats

_UNDECIDED = "undecided"
_PRUNED = "pruned"
_ACCEPTED = "accepted"
_EXPANDED = "expanded"
_RESULT = "result"
_NONRESULT = "nonresult"

#: Contributions are ``slot -> (min_st, max_st, count)`` tuples; the
#: per-entry list is a plain dict (insertion-ordered like the seed's
#: ContributionList) plus the set of directly-computed sources.
_Contrib = Tuple[float, float, int]

#: Snapshot-resident pair-memo size cap; beyond it new pairs are simply
#: recomputed (the memo never evicts, so no churn).
_PAIR_MEMO_CAP = 1 << 21

#: Vectorize the query-vs-children spatial pass only above this fanout;
#: tiny nodes are faster scalar.
_VECTOR_MIN_CHILDREN = 4


class _CList:
    """Slot-keyed contribution list (dict + tight set), seed-ordered."""

    __slots__ = ("d", "tight")

    def __init__(self, d: Dict[int, _Contrib], tight: Set[int]) -> None:
        self.d = d
        self.tight = tight


class SnapshotEngine:
    """Branch-and-bound RSTkNN search over one :class:`IndexSnapshot`.

    One engine exists per ``(measure, alpha, te_weight)`` setting of a
    snapshot (see :meth:`IndexSnapshot.engine_for`); it owns the
    persistent pair-bound memo for that setting.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
    ) -> None:
        self.tree = tree
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.te_weight = te_weight
        self._ej = isinstance(measure, ExtendedJaccard)
        #: Symmetric tree-pair memo: canonical key ``min*n + max`` over
        #: slots -> blended ``(MinST, MaxST)`` (exact pairs store
        #: ``(s, s)``).  Persistent across queries.
        self._memo: Dict[int, Tuple[float, float]] = {}
        #: Set by :class:`UnionEngine` (the pair-owner mask of a union).
        self._stable: Optional[bytearray] = None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Pair bounds
    # ------------------------------------------------------------------

    def _st(self, a: int, b: int) -> Tuple[float, float]:
        """Memoized ``(MinST, MaxST)`` between two slots (seed call order
        preserved by every caller: ``a`` is the owning entry)."""
        n = self.snap.n_slots
        key = a * n + b if a <= b else b * n + a
        memo = self._memo
        cached = memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._compute_st(a, b)
        if len(memo) < _PAIR_MEMO_CAP:
            memo[key] = result
        return result

    def _compute_st(self, a: int, b: int) -> Tuple[float, float]:
        snap = self.snap
        if snap.is_obj[a] and snap.is_obj[b]:
            score = self._exact(a, b)
            return score, score
        alpha = self.alpha
        if alpha == 0.0:
            return self._text(a, b)
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        dx = max(xlo[a] - xhi[b], 0.0, xlo[b] - xhi[a])
        dy = max(ylo[a] - yhi[b], 0.0, ylo[b] - yhi[a])
        min_dist = math.hypot(dx, dy)
        dx = max(abs(xhi[a] - xlo[b]), abs(xhi[b] - xlo[a]))
        dy = max(abs(yhi[a] - ylo[b]), abs(yhi[b] - ylo[a]))
        max_dist = math.hypot(dx, dy)
        s_lo = self._fd(max_dist)
        s_hi = self._fd(min_dist)
        if alpha == 1.0:
            return alpha * s_lo, alpha * s_hi
        t_lo, t_hi = self._text(a, b)
        return (
            alpha * s_lo + (1.0 - alpha) * t_lo,
            alpha * s_hi + (1.0 - alpha) * t_hi,
        )

    def _fd(self, distance: float) -> float:
        """``SpatialProximity.from_distance`` inlined (clamped 1 - d/maxD)."""
        score = 1.0 - distance / self.snap.maxD
        if score < 0.0:
            return 0.0
        if score > 1.0:
            return 1.0
        return score

    def _exact(self, a: int, b: int) -> float:
        """Exact SimST of two object slots (seed ``exact_score`` inlined)."""
        snap = self.snap
        alpha = self.alpha
        score = 0.0
        if alpha > 0.0:
            dist = math.hypot(
                snap.xlo[a] - snap.xlo[b], snap.ylo[a] - snap.ylo[b]
            )
            score += alpha * self._fd(dist)
        if alpha < 1.0:
            if self._ej:
                sim = snap.obj_frozen[a].ext_jaccard(snap.obj_frozen[b])
            else:
                sim = self.measure.similarity(snap.obj_vec[a], snap.obj_vec[b])
            score += (1.0 - alpha) * sim
        return score

    def _text(self, a: int, b: int) -> Tuple[float, float]:
        """``(MinSimT, MaxSimT)`` over the cluster pairs of two slots."""
        ca = self.snap.clusters[a]
        cb = self.snap.clusters[b]
        lo: Optional[float] = None
        hi = 0.0
        if self._ej:
            # Extended Jaccard bounds inlined over the pre-frozen forms
            # and precomputed squared norms (same formulas and operand
            # order as ExtendedJaccard.min/max_similarity).
            for _iva, int_a, uni_a, insq_a, unsq_a in ca:
                for _ivb, int_b, uni_b, insq_b, unsq_b in cb:
                    d_min = int_a.dot(int_b)
                    if d_min == 0.0:
                        pair_lo = 0.0
                    else:
                        s_max = unsq_a + unsq_b
                        pair_lo = d_min / (s_max - d_min)
                        if pair_lo > 1.0:
                            pair_lo = 1.0
                    d_max = uni_a.dot(uni_b)
                    if d_max == 0.0:
                        pair_hi = 0.0
                    elif 2.0 * d_max >= insq_a + insq_b:
                        pair_hi = 1.0
                    else:
                        s_min = insq_a + insq_b
                        pair_hi = d_max / (s_min - d_max)
                    lo = pair_lo if lo is None else min(lo, pair_lo)
                    hi = max(hi, pair_hi)
        else:
            min_sim = self.measure.min_similarity
            max_sim = self.measure.max_similarity
            for iva, *_ in ca:
                for ivb, *_ in cb:
                    pair_lo = min_sim(iva, ivb)
                    pair_hi = max_sim(iva, ivb)
                    lo = pair_lo if lo is None else min(lo, pair_lo)
                    hi = max(hi, pair_hi)
        return (lo if lo is not None else 0.0, hi)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(
        self,
        query: STObject,
        k: int,
        trace: Optional["TraceSink"] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """Seed-identical RSTkNN search (see module docstring).

        ``trace`` is any :class:`repro.obs.TraceSink`; the engine emits
        the same decision events (action, ref, bounds) the seed walk
        does — the multiset of events per query is identical across
        engines, which ``tests/test_obs.py`` asserts.

        ``cancel`` is polled once at start and once per node expansion
        (same protocol as :meth:`RSTkNNSearcher.search
        <repro.core.rstknn.RSTkNNSearcher.search>`); expiry raises
        :class:`~repro.errors.DeadlineExceeded` with partial stats.
        """
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        hits0, misses0 = self.hits, self.misses
        snap = self.snap
        tree = self.tree
        alpha = self.alpha
        te = self.te_weight
        st = self._st
        fd = self._fd
        is_obj = snap.is_obj
        cnt = snap.cnt
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi

        roots = snap.root_slots
        if not roots:
            stats.elapsed_seconds = time.perf_counter() - started
            return SearchResult([], stats, tree.io.snapshot())

        # Query-side data (the seed's synthetic ref -1 entry, unpacked).
        qm = query.mbr()
        qxlo, qylo, qxhi, qyhi = qm.xlo, qm.ylo, qm.xhi, qm.yhi
        qvec = query.vector
        q_frozen = qvec.frozen()
        q_nsq = qvec.norm_squared
        q_iv = IntervalVector.from_document(qvec) if not self._ej else None
        measure = self.measure
        ej = self._ej

        def q_text(slot: int) -> Tuple[float, float]:
            # text_bounds(q_entry, slot): the query contributes a single
            # degenerate cluster (int == uni == qvec).
            lo: Optional[float] = None
            hi = 0.0
            if ej:
                for _iv, int_b, uni_b, insq_b, unsq_b in snap.clusters[slot]:
                    d_min = q_frozen.dot(int_b)
                    if d_min == 0.0:
                        pair_lo = 0.0
                    else:
                        s_max = q_nsq + unsq_b
                        pair_lo = d_min / (s_max - d_min)
                        if pair_lo > 1.0:
                            pair_lo = 1.0
                    d_max = q_frozen.dot(uni_b)
                    if d_max == 0.0:
                        pair_hi = 0.0
                    elif 2.0 * d_max >= q_nsq + insq_b:
                        pair_hi = 1.0
                    else:
                        s_min = q_nsq + insq_b
                        pair_hi = d_max / (s_min - d_max)
                    lo = pair_lo if lo is None else min(lo, pair_lo)
                    hi = max(hi, pair_hi)
            else:
                for ivb, *_ in snap.clusters[slot]:
                    pair_lo = measure.min_similarity(q_iv, ivb)
                    pair_hi = measure.max_similarity(q_iv, ivb)
                    lo = pair_lo if lo is None else min(lo, pair_lo)
                    hi = max(hi, pair_hi)
            return (lo if lo is not None else 0.0, hi)

        def q_exact(slot: int) -> float:
            # exact_score(q_entry, slot) for an object slot.
            score = 0.0
            if alpha > 0.0:
                dist = math.hypot(qxlo - xlo[slot], qylo - ylo[slot])
                score += alpha * fd(dist)
            if alpha < 1.0:
                if ej:
                    sim = q_frozen.ext_jaccard(snap.obj_frozen[slot])
                else:
                    sim = measure.similarity(qvec, snap.obj_vec[slot])
                score += (1.0 - alpha) * sim
            return score

        def q_st(slot: int) -> Tuple[float, float]:
            # st_bounds(q_entry, slot), scalar form.
            if is_obj[slot]:
                score = q_exact(slot)
                return score, score
            if alpha == 0.0:
                return q_text(slot)
            dx = max(qxlo - xhi[slot], 0.0, xlo[slot] - qxhi)
            dy = max(qylo - yhi[slot], 0.0, ylo[slot] - qyhi)
            s_hi = fd(math.hypot(dx, dy))
            dx = max(abs(qxhi - xlo[slot]), abs(xhi[slot] - qxlo))
            dy = max(abs(qyhi - ylo[slot]), abs(yhi[slot] - qylo))
            s_lo = fd(math.hypot(dx, dy))
            if alpha == 1.0:
                return alpha * s_lo, alpha * s_hi
            t_lo, t_hi = q_text(slot)
            return (
                alpha * s_lo + (1.0 - alpha) * t_lo,
                alpha * s_hi + (1.0 - alpha) * t_hi,
            )

        lists: Dict[int, _CList] = {}
        status: Dict[int, str] = {}
        qbounds: Dict[int, Tuple[float, float]] = {}
        expanded: Dict[int, List[int]] = {}
        counter = itertools.count()
        heap: List[Tuple[float, int, int]] = []

        for r in roots:
            status[r] = _UNDECIDED
        for r in roots:
            qb = q_st(r)
            d: Dict[int, _Contrib] = {}
            tight: Set[int] = set()
            for o in roots:
                if o == r:
                    continue
                lo, hi = st(r, o)
                d[o] = (lo, hi, cnt[o])
                tight.add(o)
            if cnt[r] >= 2:
                lo, hi = st(r, r)
                d[r] = (lo, hi, cnt[r] - 1)
                tight.add(r)
            lists[r] = _CList(d, tight)
            qbounds[r] = qb
            # Root-site priority: the seed's default num_clusters=1 makes
            # the entropy divisor 2 (ent_root); objects get no boost.
            if te == 0.0 or is_obj[r]:
                prio = qb[1]
            else:
                prio = qb[1] + te * snap.ent_root[r]
            heapq.heappush(heap, (-prio, next(counter), r))

        # The seed walk's width: both refine the same candidate prefix
        # per pass, so their decisions stay identical.
        tighten_width = max(16, 4 * k)
        np_cols = snap.np_xlo
        np = kernels._numpy() if np_cols is not None else None

        ref_col = snap.ref

        def t_record(action: str, key: int, q_lo: float, q_hi: float) -> None:
            # Mirrors the seed's RSTkNNSearcher._record: same fields,
            # same kNN-band expressions (the slot-dict analogue of
            # ContributionList.knn_lower/knn_upper).
            d = lists[key].d
            trace.record(
                action,
                int(ref_col[key]),
                bool(is_obj[key]),
                int(cnt[key]),
                q_lo,
                q_hi,
                _kth_largest([(c[0], c[2]) for c in d.values()], k),
                _kth_largest([(c[1], c[2]) for c in d.values()], k),
            )

        while heap:
            _, _, key = heapq.heappop(heap)
            if status.get(key) != _UNDECIDED:
                continue
            q_lo, q_hi = qbounds[key]
            clist = lists[key]
            decision = self._decide(clist.d, q_lo, q_hi, k)
            while decision == 0 and self._tighten(
                key, clist, expanded, tighten_width
            ):
                decision = self._decide(clist.d, q_lo, q_hi, k)
            if decision < 0:
                status[key] = _PRUNED
                stats.pruned_entries += 1
                stats.pruned_objects += cnt[key]
                if trace is not None:
                    t_record("prune", key, q_lo, q_hi)
                del lists[key]
                continue
            if decision > 0:
                status[key] = _ACCEPTED
                stats.accepted_entries += 1
                stats.accepted_objects += cnt[key]
                if trace is not None:
                    t_record("accept", key, q_lo, q_hi)
                del lists[key]
                continue
            if is_obj[key]:
                member = self._verify(key, q_hi, k, stats)
                status[key] = _RESULT if member else _NONRESULT
                stats.verified_objects += 1
                if trace is not None:
                    t_record(
                        "verify-in" if member else "verify-out", key, q_lo, q_hi
                    )
                del lists[key]
                continue

            # Expand: children inherit the parent's list; sibling/self
            # terms are computed fresh (same order as the seed).
            if cancel is not None and cancel.expired():
                stats.elapsed_seconds = time.perf_counter() - started
                raise DeadlineExceeded(cancel_message(cancel), stats=stats)
            if trace is not None:
                t_record("expand", key, q_lo, q_hi)
            fc, lc = snap.first_child[key], snap.last_child[key]
            rid = snap.record_id[key]
            if rid >= 0:  # -1: a live overlay node, charged nothing
                tree.buffer.get(rid, "node")
            stats.expansions += 1
            status[key] = _EXPANDED
            children = [c for c in range(fc, lc) if cnt[c]]  # skip dead
            expanded[key] = children
            parent = lists.pop(key)
            parent.d.pop(key, None)
            for c in children:
                status[c] = _UNDECIDED

            # One array pass derives the spatial components of every
            # child's query bound; hypot/clamp/blend finish per child in
            # scalar float so values match the seed bit-for-bit.
            sp = None
            if np is not None and alpha > 0.0 and (
                lc - fc >= _VECTOR_MIN_CHILDREN
            ):
                sp = kernels.frontier_spatial_components(
                    qxlo, qylo, qxhi, qyhi,
                    np_cols[fc:lc], snap.np_ylo[fc:lc],
                    snap.np_xhi[fc:lc], snap.np_yhi[fc:lc], np,
                )

            parent_d = parent.d
            for c in children:
                i = c - fc
                # ``q_st`` and the sp finishes never touch the pair memo,
                # so evaluating the query bound ahead of the sibling pass
                # leaves every value and counter as in the seed order.
                if sp is None:
                    qb = q_st(c)
                elif is_obj[c]:
                    score = 0.0
                    if alpha > 0.0:
                        score += alpha * fd(math.hypot(sp[4][i], sp[5][i]))
                    if alpha < 1.0:
                        if ej:
                            sim = q_frozen.ext_jaccard(snap.obj_frozen[c])
                        else:
                            sim = measure.similarity(qvec, snap.obj_vec[c])
                        score += (1.0 - alpha) * sim
                    qb = (score, score)
                else:
                    s_hi = fd(math.hypot(sp[0][i], sp[1][i]))
                    s_lo = fd(math.hypot(sp[2][i], sp[3][i]))
                    if alpha == 1.0:
                        qb = (alpha * s_lo, alpha * s_hi)
                    else:
                        t_lo, t_hi = q_text(c)
                        qb = (
                            alpha * s_lo + (1.0 - alpha) * t_lo,
                            alpha * s_hi + (1.0 - alpha) * t_hi,
                        )
                d = dict(parent_d)
                tight = set()
                for sib in children:
                    if sib == c:
                        continue
                    lo, hi = st(c, sib)
                    d[sib] = (lo, hi, cnt[sib])
                    tight.add(sib)
                cc = cnt[c]
                if cc >= 2:
                    lo, hi = st(c, c)
                    d[c] = (lo, hi, cc - 1)
                    tight.add(c)
                lists[c] = _CList(d, tight)
                qbounds[c] = qb
                # Child-site priority uses the tree-wide cluster divisor.
                if te == 0.0 or is_obj[c]:
                    prio = qb[1]
                else:
                    prio = qb[1] + te * snap.ent_child[c]
                heapq.heappush(heap, (-prio, next(counter), c))

        ids: List[int] = []
        for key, state in status.items():
            if state == _ACCEPTED:
                charges, sub_ids = snap.collect_plan(key)
                for rid in charges:
                    tree.buffer.get(rid, "collect")
                ids.extend(sub_ids)
            elif state == _RESULT:
                ids.append(snap.ref[key])
        ids.sort()
        stats.result_count = len(ids)
        stats.cache_hits = self.hits - hits0
        stats.cache_misses = self.misses - misses0
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(ids, stats, tree.io.snapshot())

    # ------------------------------------------------------------------
    # Decision pieces
    # ------------------------------------------------------------------

    @staticmethod
    def _decide(d: Dict[int, _Contrib], q_lo: float, q_hi: float, k: int) -> int:
        """Seed decision rules over the slot contribution dict.

        Newest contribution first: the sibling and self terms an
        expansion adds end most prunes early.
        """
        return decide_by_count(reversed(d.values()), q_lo, q_hi, k)

    def _tighten(
        self,
        key: int,
        clist: _CList,
        expanded: Dict[int, List[int]],
        width: int,
    ) -> bool:
        """Lazy effect-list refinement (seed ``_tighten`` over slots)."""
        d = clist.d
        tight = clist.tight
        candidates = _tighten_candidates(d, width)
        changed = False
        seen: Set[int] = set()
        st = self._st
        cnt = self.snap.cnt
        for slot, contrib in candidates:
            if slot in seen or slot not in d:
                continue
            seen.add(slot)
            children = expanded.get(slot)
            if children is not None and slot != key:
                del d[slot]
                tight.discard(slot)
                for child in children:
                    lo, hi = st(key, child)
                    d[child] = (lo, hi, cnt[child])
                    tight.add(child)
                changed = True
            elif slot not in tight:
                lo, hi = st(key, slot)
                d[slot] = (lo, hi, contrib[2])
                tight.add(slot)
                changed = True
        return changed

    def _verify(self, s: int, q_sim: float, k: int, stats: SearchStats) -> bool:
        """Exact membership probe with lazy text evaluation.

        Children whose *optimistic* spatial-only bounds already decide
        them are handled without computing a text bound: an upper bound
        built with text similarity 1 failing the "can beat the query"
        test, or a lower bound built with text 0 already beating it,
        forces the same branch the full bound takes (the full upper
        bound is <= the optimistic one; the full lower bound is >= the
        pessimistic one).  Undecided children fall back to the full
        blended bounds, which are memoized for later queries.
        """
        snap = self.snap
        tree = self.tree
        alpha = self.alpha
        st = self._st
        fd = self._fd
        is_obj = snap.is_obj
        ref = snap.ref
        cnt = snap.cnt
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        memo = own_memo = self._memo
        n = own_n = snap.n_slots
        stable = self._stable
        stable_s = stable is not None and stable[s]
        px = (xlo[s] + xhi[s]) / 2.0
        py = (ylo[s] + yhi[s]) / 2.0
        ref_s = ref[s]
        count = 0
        stack = [r for r in snap.root_slots if r != s]
        while stack and count < k:
            e = stack.pop()
            if is_obj[e]:
                if ref[e] == ref_s:
                    continue
                if st(s, e)[1] > q_sim and cnt[e]:  # a dead object: 0
                    count += 1
                continue
            if stable is not None:  # the memo that owns the pair
                if stable_s and stable[e]:
                    memo, n = self._base_memo, self._base_n
                else:
                    memo, n = own_memo, own_n
            pair_key = s * n + e if s <= e else e * n + s
            cached = memo.get(pair_key)
            if cached is not None:
                self.hits += 1
                lo, hi = cached
            elif alpha > 0.0:
                self.misses += 1
                dx = max(xlo[s] - xhi[e], 0.0, xlo[e] - xhi[s])
                dy = max(ylo[s] - yhi[e], 0.0, ylo[e] - yhi[s])
                s_hi = fd(math.hypot(dx, dy))
                dx = max(abs(xhi[s] - xlo[e]), abs(xhi[e] - xlo[s]))
                dy = max(abs(yhi[s] - ylo[e]), abs(yhi[e] - ylo[s]))
                s_lo = fd(math.hypot(dx, dy))
                opt_hi = alpha * s_hi + (1.0 - alpha)
                if opt_hi <= q_sim:
                    # Even with text similarity 1 nothing here can beat
                    # the query; the full bound prunes this subtree too.
                    continue
                if (
                    alpha * s_lo > q_sim
                    and not (xlo[e] <= px <= xhi[e] and ylo[e] <= py <= yhi[e])
                ):
                    # Already beats the query on space alone, and the
                    # target object lies elsewhere: group-count it, as
                    # the full lower bound (>= alpha * s_lo) would.
                    count += cnt[e]
                    continue
                if alpha == 1.0:
                    lo, hi = alpha * s_lo, alpha * s_hi
                else:
                    t_lo, t_hi = self._text(s, e)
                    lo = alpha * s_lo + (1.0 - alpha) * t_lo
                    hi = alpha * s_hi + (1.0 - alpha) * t_hi
                if len(memo) < _PAIR_MEMO_CAP:
                    memo[pair_key] = (lo, hi)
            else:
                self.misses += 1
                lo, hi = self._text(s, e)
                if len(memo) < _PAIR_MEMO_CAP:
                    memo[pair_key] = (lo, hi)
            if hi <= q_sim:
                continue
            if lo > q_sim and not (
                xlo[e] <= px <= xhi[e] and ylo[e] <= py <= yhi[e]
            ):
                count += cnt[e]
                continue
            if not cnt[e]:  # a dead subtree: nothing to read
                continue
            stats.verify_node_reads += 1
            rid = snap.record_id[e]
            if rid >= 0:
                tree.buffer.get(rid, "verify")
            stack.extend(range(snap.first_child[e], snap.last_child[e]))
        return count <= k - 1


class UnionEngine(SnapshotEngine):
    """:class:`SnapshotEngine` over a live index's union snapshot whose
    pair bounds between stable frozen slots live in the base engine's
    memo (see the module docstring), so they survive writes.

    :meth:`IndexSnapshot.engine_for
    <repro.perf.snapshot.IndexSnapshot.engine_for>` builds one for every
    union; a plain engine over a union is as exact, only colder.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
    ) -> None:
        super().__init__(tree, snap, measure, alpha, te_weight)
        base = snap.base
        self._stable = snap.stable
        self._base_memo = base.engine_for(tree, measure, alpha, te_weight)._memo
        self._base_n = base.n_slots

    def _st(self, a: int, b: int) -> Tuple[float, float]:
        """:meth:`SnapshotEngine._st` with one probe of the memo that
        owns the pair: the base's for two stable frozen slots, else
        this engine's own."""
        stable = self._stable
        if stable[a] and stable[b]:
            n = self._base_n
            memo = self._base_memo
        else:
            n = self.snap.n_slots
            memo = self._memo
        key = a * n + b if a <= b else b * n + a
        cached = memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._compute_st(a, b)
        if len(memo) < _PAIR_MEMO_CAP:
            memo[key] = result
        return result


def _tighten_candidates(
    d: Dict[int, _Contrib], width: int
) -> List[Tuple[int, _Contrib]]:
    """The seed's ``top_by_min(width) + top_by_max(width)`` over slots."""
    items = list(d.items())
    return _top_by(items, width, _cand_min) + _top_by(items, width, _cand_max)


def _cand_min(item: Tuple[int, _Contrib]) -> float:
    return item[1][0]


def _cand_max(item: Tuple[int, _Contrib]) -> float:
    return item[1][1]
