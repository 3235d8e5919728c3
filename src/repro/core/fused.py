"""Fused multi-query traversal: batch RSTkNN search over one snapshot.

A :class:`FusedBatchEngine` runs a *group* of queries over one
:class:`~repro.perf.snapshot.IndexSnapshot`, amortizing every piece of
per-node work that the per-query :class:`~repro.core.traversal.SnapshotEngine`
repeats for each query in a batch:

* **Group block tables** — when any query in the group expands a node,
  the spatial components of the query bounds for *all* of the group's
  queries against all of that node's children come from one vectorized
  ``(G, C)`` array pass (:func:`repro.perf.kernels.group_spatial_components`,
  numpy when available, pure-python fallback otherwise), finished with
  scalar ``math.hypot``/clamps per cell so each value is bit-identical
  to the scalar engine's.  Later queries in the group that reach the
  same node find their bounds precomputed.
* **Columnar text-bound tables** — the textual side of those bounds
  evaluates against the snapshot's
  :class:`~repro.perf.snapshot.SnapshotTextMatrix`: one sparse
  accumulation per query produces the query-vs-row dot products for
  *every* cluster and object summary at once
  (:func:`repro.perf.kernels.group_text_dots`).  Rows with at most two
  shared terms are bit-identical to the frozen-kernel reduction by IEEE
  commutativity; the few heavier rows are recomputed through the exact
  scalar kernel, so every Extended Jaccard bound matches the per-query
  engine bit for bit.
* **Sibling templates** — the mutual sibling/self contribution rows
  created at each expansion are identical for every query (they do not
  depend on the query at all), so they are built once per group as
  columnar row batches and bulk-appended into each query's candidate
  book.
* **Columnar candidate books** — each query's per-entry contribution
  list is a struct-of-arrays *book* (slot/lo/hi/count columns plus
  alive/tight masks and a slot->row position table) instead of a dict
  of tuples.  The prune/accept decision is the seed's counting rule
  (:func:`repro.core.contributions.decide_by_count`), summed over the
  live columns by numpy, and the lazy tightening pass selects its
  candidates with a stable argsort — value-identical to the seed's
  ``heapq.nlargest`` over insertion-ordered items (stability
  reproduces the tie-breaks).
* **Bitset frontiers** — per-query entry statuses live in integer
  bitsets over snapshot slots (plus one append-only discovery-order
  list that replays the seed's result-gathering and page-charge order).

The engine wraps the per-query snapshot engine of the same
``(measure, alpha, te_weight)`` setting and shares its persistent pair
memo and verification probe, so pair bounds, verify decisions, and
simulated I/O are the same values and the same charge sequences by
construction.  Result ids and decision counters are asserted identical
to the per-query engine in tests and in the fused benchmark's parity
gate.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import TraceSink

from ..model.objects import STObject
from ..perf import kernels
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard
from ..errors import DeadlineExceeded
from .cancel import cancel_message
from .contributions import _kth_largest, decide_by_count
from .rstknn import SearchResult, SearchStats
from .traversal import _frontier_lookahead_from_env, tighten_width_for

#: Default number of queries fused into one group walk.
DEFAULT_GROUP_SIZE = 8

#: Pseudo-node key for the root-entry "block" (the initial live set).
_ROOT_BLOCK = -1

_c_lo = itemgetter(1)
_c_hi = itemgetter(2)


def _group_numpy():
    """numpy for the fused group structures, or None.

    A separate seam from :func:`repro.perf.kernels._numpy` so tests can
    force the pure-python fused path without unfreezing kernel forms.
    """
    return kernels._numpy()


def _interleave16(v: int) -> int:
    """Spread the low 16 bits of ``v`` into the even bit positions."""
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def locality_order(queries: Sequence[STObject]) -> List[int]:
    """Workload indices sorted by Morton code of the query centers.

    Groups cut from this order hold spatially close queries, which is
    what makes fused walks effective: nearby queries expand nearly the
    same frontier, so the group's shared block tables and templates are
    computed once and reused by every member.  Deterministic (stable on
    code ties) so batch runs are reproducible.
    """
    pts = []
    for q in queries:
        m = q.mbr()
        pts.append(((m.xlo + m.xhi) / 2.0, (m.ylo + m.yhi) / 2.0))
    if not pts:
        return []
    xmin = min(p[0] for p in pts)
    xmax = max(p[0] for p in pts)
    ymin = min(p[1] for p in pts)
    ymax = max(p[1] for p in pts)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    coded = []
    for i, (x, y) in enumerate(pts):
        xi = int((x - xmin) / xspan * 0xFFFF)
        yi = int((y - ymin) / yspan * 0xFFFF)
        coded.append((_interleave16(xi) | (_interleave16(yi) << 1), i))
    coded.sort()
    return [i for _, i in coded]


def make_groups(queries: Sequence[STObject], group_size: int) -> List[List[int]]:
    """Locality-ordered index groups of at most ``group_size`` queries."""
    order = locality_order(queries)
    return [
        order[i : i + group_size] for i in range(0, len(order), group_size)
    ]


class _NpBook:
    """Columnar contribution book over numpy arrays.

    Rows are stored in insertion order (exactly the insertion order of
    the seed's contribution dict); deletions flip the ``alive`` mask so
    surviving rows keep their relative order, which is what makes the
    stable-argsort candidate selection reproduce ``heapq.nlargest``
    tie-breaking.  The reduction columns (``lo``/``hi``/``cnt``/
    ``alive``) are numpy arrays because :meth:`decide` consumes them
    whole; ``pos`` (slot -> row + 1, 0 = absent) and ``tight`` are
    plain lists because the tightening pass reads them one element at
    a time, where numpy scalar indexing is the dominant cost.
    """

    __slots__ = ("np", "slots", "lo", "hi", "cnt", "alive", "tight", "pos", "n")

    def __init__(self, np, n_slots: int, cap: int) -> None:
        self.np = np
        cap = max(cap, 8)
        self.slots = np.empty(cap, dtype=np.intp)
        self.lo = np.empty(cap, dtype=np.float64)
        self.hi = np.empty(cap, dtype=np.float64)
        self.cnt = np.empty(cap, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.tight: List[bool] = []
        self.pos = [0] * n_slots
        self.n = 0

    def _ensure(self, extra: int) -> None:
        need = self.n + extra
        cap = self.slots.shape[0]
        if need <= cap:
            return
        np = self.np
        cap = max(cap * 2, need + 8)
        for name in ("slots", "lo", "hi", "cnt", "alive"):
            src = getattr(self, name)
            dst = np.empty(cap, dtype=src.dtype)
            dst[: self.n] = src[: self.n]
            setattr(self, name, dst)

    def clone(self, extra: int) -> "_NpBook":
        """Copy for a child book: values inherited, tight flags cleared
        (the seed starts every child's tight-set empty)."""
        np = self.np
        book = _NpBook.__new__(_NpBook)
        book.np = np
        n = self.n
        cap = n + extra + 8
        for name in ("slots", "lo", "hi", "cnt", "alive"):
            src = getattr(self, name)
            dst = np.empty(cap, dtype=src.dtype)
            dst[:n] = src[:n]
            setattr(book, name, dst)
        book.tight = [False] * n
        book.pos = self.pos[:]
        book.n = n
        return book

    def extend(self, batch) -> None:
        """Bulk-append a template/substitution row batch (rows tight)."""
        slots_a, lo_a, hi_a, cnt_a = batch
        m = len(slots_a)
        if m == 0:
            return
        self._ensure(m)
        n0 = self.n
        n1 = n0 + m
        self.slots[n0:n1] = slots_a
        self.lo[n0:n1] = lo_a
        self.hi[n0:n1] = hi_a
        self.cnt[n0:n1] = cnt_a
        self.alive[n0:n1] = True
        self.tight.extend([True] * m)
        pos = self.pos
        for i, slot in enumerate(slots_a, n0 + 1):
            pos[slot] = i
        self.n = n1

    def kill(self, slot: int) -> None:
        p = self.pos[slot]
        if p:
            self.alive[p - 1] = False
            self.pos[slot] = 0

    def has(self, slot: int) -> bool:
        return bool(self.pos[slot])

    def is_tight(self, slot: int) -> bool:
        return self.tight[self.pos[slot] - 1]

    def retighten(self, slot: int, lo: float, hi: float) -> None:
        """Replace a loose inherited row with its direct pair bound
        (the count is unchanged, as in the seed's recompute branch)."""
        p = self.pos[slot] - 1
        self.lo[p] = lo
        self.hi[p] = hi
        self.tight[p] = True

    def decide(self, q_lo: float, q_hi: float, k: int) -> int:
        """:func:`decide_by_count` over the live rows, its two object
        counts summed by numpy (feeding the rows through the scalar
        pass would cost more in ``tolist()`` than the count itself)."""
        n = self.n
        live = self.alive[:n]
        cnt = self.cnt[:n]
        if cnt[live & (self.lo[:n] > q_hi)].sum() >= k:
            return -1
        return 1 if cnt[live & (self.hi[:n] > q_lo)].sum() < k else 0

    def knn_bounds(self, k: int) -> Tuple[float, float]:
        """Current ``(kNNL, kNNU)`` band over the live rows (for trace
        events)."""
        n = self.n
        mask = self.alive[:n]
        counts = self.cnt[:n][mask].tolist()
        return (
            _kth_largest(list(zip(self.lo[:n][mask].tolist(), counts)), k),
            _kth_largest(list(zip(self.hi[:n][mask].tolist(), counts)), k),
        )

    def candidate_slots(self, width: int) -> List[int]:
        """Slots of the top-``width`` live rows by lo, then by hi —
        the same sequence ``heapq.nlargest`` yields over the seed's
        insertion-ordered items (stable sort reproduces the tie-breaks)."""
        np = self.np
        n = self.n
        rows = np.flatnonzero(self.alive[:n])
        slots = self.slots[rows]
        by_lo = np.argsort(-self.lo[rows], kind="stable")[:width]
        by_hi = np.argsort(-self.hi[rows], kind="stable")[:width]
        return slots[np.concatenate((by_lo, by_hi))].tolist()


class _PyBook:
    """Pure-python columnar book (numpy-absent fallback), same contract."""

    __slots__ = ("slots", "lo", "hi", "cnt", "alive", "tight", "pos", "n")

    def __init__(self, n_slots: int, cap: int = 0) -> None:
        self.slots: List[int] = []
        self.lo: List[float] = []
        self.hi: List[float] = []
        self.cnt: List[int] = []
        self.alive: List[bool] = []
        self.tight: List[bool] = []
        self.pos = [0] * n_slots
        self.n = 0

    def clone(self, extra: int) -> "_PyBook":
        book = _PyBook.__new__(_PyBook)
        book.slots = self.slots[:]
        book.lo = self.lo[:]
        book.hi = self.hi[:]
        book.cnt = self.cnt[:]
        book.alive = self.alive[:]
        book.tight = [False] * self.n
        book.pos = self.pos[:]
        book.n = self.n
        return book

    def extend(self, batch) -> None:
        slots_a, lo_a, hi_a, cnt_a = batch
        m = len(slots_a)
        if m == 0:
            return
        n0 = self.n
        self.slots.extend(slots_a)
        self.lo.extend(lo_a)
        self.hi.extend(hi_a)
        self.cnt.extend(cnt_a)
        self.alive.extend([True] * m)
        self.tight.extend([True] * m)
        pos = self.pos
        for i, slot in enumerate(slots_a, n0 + 1):
            pos[slot] = i
        self.n = n0 + m

    def kill(self, slot: int) -> None:
        p = self.pos[slot]
        if p:
            self.alive[p - 1] = False
            self.pos[slot] = 0

    def has(self, slot: int) -> bool:
        return bool(self.pos[slot])

    def is_tight(self, slot: int) -> bool:
        return self.tight[self.pos[slot] - 1]

    def retighten(self, slot: int, lo: float, hi: float) -> None:
        p = self.pos[slot] - 1
        self.lo[p] = lo
        self.hi[p] = hi
        self.tight[p] = True

    def decide(self, q_lo: float, q_hi: float, k: int) -> int:
        """:func:`decide_by_count` over the live rows, newest first."""
        lo, hi, cnt, alive = self.lo, self.hi, self.cnt, self.alive
        return decide_by_count(
            (
                (lo[i], hi[i], cnt[i])
                for i in range(self.n - 1, -1, -1)
                if alive[i]
            ),
            q_lo,
            q_hi,
            k,
        )

    def knn_bounds(self, k: int) -> Tuple[float, float]:
        """Current ``(kNNL, kNNU)`` band over the live rows (for trace
        events)."""
        lows: List[Tuple[float, int]] = []
        highs: List[Tuple[float, int]] = []
        lo, hi, cnt, alive = self.lo, self.hi, self.cnt, self.alive
        for i in range(self.n):
            if alive[i]:
                lows.append((lo[i], cnt[i]))
                highs.append((hi[i], cnt[i]))
        return (_kth_largest(lows, k), _kth_largest(highs, k))

    def candidate_slots(self, width: int) -> List[int]:
        items = []
        slots, lo, hi, alive = self.slots, self.lo, self.hi, self.alive
        for i in range(self.n):
            if alive[i]:
                items.append((slots[i], lo[i], hi[i]))
        return [
            item[0] for item in heapq.nlargest(width, items, key=_c_lo)
        ] + [item[0] for item in heapq.nlargest(width, items, key=_c_hi)]


class _GroupState:
    """Shared per-group context: stacked query data and lazy tables."""

    __slots__ = (
        "G",
        "queries",
        "qxlo",
        "qylo",
        "qxhi",
        "qyhi",
        "q_ids",
        "q_ws",
        "q_frozen",
        "q_nsq",
        "q_iv",
        "blocks",
        "templates",
        "text_tables",
    )

    def __init__(self, eng: "FusedBatchEngine", queries: List[STObject]) -> None:
        self.queries = queries
        self.G = len(queries)
        qxlo: List[float] = []
        qylo: List[float] = []
        qxhi: List[float] = []
        qyhi: List[float] = []
        self.q_ids: List[Tuple[int, ...]] = []
        self.q_ws: List[Tuple[float, ...]] = []
        self.q_frozen: List = []
        self.q_nsq: List[float] = []
        for q in queries:
            m = q.mbr()
            qxlo.append(m.xlo)
            qylo.append(m.ylo)
            qxhi.append(m.xhi)
            qyhi.append(m.yhi)
            vec = q.vector
            self.q_ids.append(vec.term_ids())
            self.q_ws.append(tuple(w for _, w in vec.items()))
            self.q_frozen.append(vec.frozen())
            self.q_nsq.append(vec.norm_squared)
        np = eng._np
        if np is not None:
            self.qxlo = np.asarray(qxlo)
            self.qylo = np.asarray(qylo)
            self.qxhi = np.asarray(qxhi)
            self.qyhi = np.asarray(qyhi)
        else:
            self.qxlo, self.qylo, self.qxhi, self.qyhi = qxlo, qylo, qxhi, qyhi
        self.q_iv = (
            None
            if eng._ej
            else [IntervalVector.from_document(q.vector) for q in queries]
        )
        #: node key -> [g][child index] = (lo, hi) query bounds.
        self.blocks: Dict[int, List[List[Tuple[float, float]]]] = {}
        #: node key -> [child index] = columnar sibling/self row batch.
        self.templates: Dict[int, List] = {}
        #: per-query (int_dots, uni_dots, obj_sims) vs the text matrix.
        self.text_tables: Optional[List[Tuple]] = None


class FusedBatchEngine:
    """Group-at-a-time RSTkNN search over one snapshot (see module doc).

    One engine exists per ``(measure, alpha, te_weight)`` setting of a
    snapshot (:meth:`IndexSnapshot.fused_engine_for`); it wraps the
    per-query :class:`~repro.core.traversal.SnapshotEngine` of the same
    setting, sharing its pair memo and verification probe.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
        floors=None,
    ) -> None:
        self.tree = tree
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.te_weight = te_weight
        #: Optional frozen :class:`~repro.approx.sketch.KnnlSketch`
        #: (same warm-start floor contract as
        #: :class:`~repro.core.traversal.SnapshotEngine`: ids unchanged,
        #: decision counters differ, memoized separately via
        #: :meth:`IndexSnapshot.warm_fused_engine_for`).
        self.floors = floors
        self.base = snap.engine_for(tree, measure, alpha, te_weight)
        self._ej = isinstance(measure, ExtendedJaccard)
        #: (key, expanded slot) -> columnar substitution row batch;
        #: persistent across groups (pair bounds are query-independent).
        self._sub_batches: Dict[Tuple[int, int], object] = {}
        np = _group_numpy()
        if np is not None and snap.np_xlo is None and snap.n_slots:
            np = None  # snapshot was frozen without numpy views
        self._np = np
        #: Frontier nodes whose block tables share one spatial kernel
        #: call (same knob/contract as the per-query engine's
        #: :data:`~repro.core.traversal.DEFAULT_FRONTIER_LOOKAHEAD`).
        self.frontier_lookahead = _frontier_lookahead_from_env()
        #: batch size -> kernel calls (observability, never in stats).
        self.frontier_hist: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_group(
        self,
        queries: Sequence[STObject],
        k: int,
        traces: Optional[Sequence[Optional["TraceSink"]]] = None,
        cancel: Optional[object] = None,
    ) -> List[SearchResult]:
        """Search every query of one group; results in input order.

        ``traces`` optionally attaches one :class:`repro.obs.TraceSink`
        per query (``None`` entries skip tracing for that query); each
        traced walk emits the same decision-event multiset the other
        engines produce for that query.

        ``cancel`` is one cooperative cancellation token for the whole
        group — group members share bound tables, so a finer grain would
        tear shared state mid-build.  It is polled once per node
        expansion of whichever member is walking; expiry raises
        :class:`~repro.errors.DeadlineExceeded` with that member's
        partial stats (completed members' results are discarded with the
        group).  The service keeps per-query deadlines exact by serving
        deadline-bearing queries as singleton groups.
        """
        gs = _GroupState(self, list(queries))
        if traces is None:
            return [
                self._search_one(gs, g, k, cancel=cancel)
                for g in range(gs.G)
            ]
        return [
            self._search_one(gs, g, k, trace=traces[g], cancel=cancel)
            for g in range(gs.G)
        ]

    # ------------------------------------------------------------------
    # Group-shared structures
    # ------------------------------------------------------------------

    def _new_book(self, cap: int):
        if self._np is not None:
            return _NpBook(self._np, self.snap.n_slots, cap)
        return _PyBook(self.snap.n_slots)

    def _block_slots(self, key: int) -> List[int]:
        snap = self.snap
        if key == _ROOT_BLOCK:
            return list(snap.root_slots)
        return list(range(snap.first_child[key], snap.last_child[key]))

    def _template(self, gs: _GroupState, key: int) -> List:
        """Per-child sibling/self contribution row batches for one node.

        Query-independent, so built once per group; the ``_st`` calls
        run in exactly the per-query engine's expansion order (each
        child's siblings in span order, then its self pair), so a cold
        pair memo is populated with the same owner-first operand order
        the per-query engine would use.
        """
        tmpl = gs.templates.get(key)
        if tmpl is not None:
            return tmpl
        slots = self._block_slots(key)
        st = self.base._st
        cnt = self.snap.cnt
        np = self._np
        tmpl = []
        for c in slots:
            t_slots: List[int] = []
            t_lo: List[float] = []
            t_hi: List[float] = []
            t_cnt: List[int] = []
            for sib in slots:
                if sib == c:
                    continue
                lo, hi = st(c, sib)
                t_slots.append(sib)
                t_lo.append(lo)
                t_hi.append(hi)
                t_cnt.append(cnt[sib])
            cc = cnt[c]
            if cc >= 2:
                lo, hi = st(c, c)
                t_slots.append(c)
                t_lo.append(lo)
                t_hi.append(hi)
                t_cnt.append(cc - 1)
            if np is not None:
                batch = (
                    np.asarray(t_slots, dtype=np.intp),
                    np.asarray(t_lo, dtype=np.float64),
                    np.asarray(t_hi, dtype=np.float64),
                    np.asarray(t_cnt, dtype=np.int64),
                )
            else:
                batch = (t_slots, t_lo, t_hi, t_cnt)
            tmpl.append(batch)
        gs.templates[key] = tmpl
        return tmpl

    def _text_tables_for(self, gs: _GroupState) -> List[Tuple]:
        tables = gs.text_tables
        if tables is None:
            tables = self._build_text_tables(gs)
            gs.text_tables = tables
        return tables

    def _build_text_tables(self, gs: _GroupState) -> List[Tuple]:
        """Per-query dot/similarity rows against the whole text matrix.

        One sparse accumulation per (query, postings family); rows with
        three or more shared terms are recomputed through the scalar
        frozen kernel so every value matches the per-query engine's
        frozen-set-order reduction bit for bit (see
        :func:`repro.perf.kernels.group_text_dots`).
        """
        tm = self.snap.text_matrix()
        np = self._np
        tables = []
        for g in range(gs.G):
            fro = gs.q_frozen[g]
            ids = gs.q_ids[g]
            ws = gs.q_ws[g]
            int_d = self._dots_with_fixup(
                tm.int_postings, ids, ws, tm.n_rows, fro, tm.int_frozen, np
            )
            uni_d = self._dots_with_fixup(
                tm.uni_postings, ids, ws, tm.n_rows, fro, tm.uni_frozen, np
            )
            obj_sim = [0.0] * tm.n_obj_rows
            res = kernels.group_text_dots(
                tm.obj_postings, ids, ws, tm.n_obj_rows, np
            )
            if res is not None:
                dots, overlaps = res
                if np is not None:
                    dots = dots.tolist()
                    overlaps = overlaps.tolist()
                q_nsq = gs.q_nsq[g]
                obj_nsq = tm.obj_nsq
                for r in range(tm.n_obj_rows):
                    ov = overlaps[r]
                    if ov == 0:
                        continue
                    if ov >= 3:
                        obj_sim[r] = fro.ext_jaccard(tm.obj_frozen[r])
                    else:
                        d = dots[r]
                        if d != 0.0:
                            sim = d / (q_nsq + obj_nsq[r] - d)
                            obj_sim[r] = sim if sim < 1.0 else 1.0
            tables.append((int_d, uni_d, obj_sim))
        return tables

    @staticmethod
    def _dots_with_fixup(postings, ids, ws, n_rows, fro, frozen_rows, np):
        res = kernels.group_text_dots(postings, ids, ws, n_rows, np)
        if res is None:
            return [0.0] * n_rows
        dots, overlaps = res
        if np is not None:
            heavy = np.flatnonzero(overlaps >= 3).tolist()
            dots = dots.tolist()
            for r in heavy:
                dots[r] = fro.dot(frozen_rows[r])
        else:
            for r in range(n_rows):
                if overlaps[r] >= 3:
                    dots[r] = fro.dot(frozen_rows[r])
        return dots

    def _q_text(
        self, gs: _GroupState, g: int, slot: int, tables, tm
    ) -> Tuple[float, float]:
        """``(MinSimT, MaxSimT)`` of query ``g`` vs a directory slot —
        the fused twin of the scalar engine's ``q_text`` closure."""
        lo: Optional[float] = None
        hi = 0.0
        if self._ej:
            int_d, uni_d, _ = tables[g]
            q_nsq = gs.q_nsq[g]
            insq = tm.insq
            unsq = tm.unsq
            for r in range(tm.indptr[slot], tm.indptr[slot + 1]):
                d_min = int_d[r]
                if d_min == 0.0:
                    pair_lo = 0.0
                else:
                    s_max = q_nsq + unsq[r]
                    pair_lo = d_min / (s_max - d_min)
                    if pair_lo > 1.0:
                        pair_lo = 1.0
                d_max = uni_d[r]
                if d_max == 0.0:
                    pair_hi = 0.0
                elif 2.0 * d_max >= q_nsq + insq[r]:
                    pair_hi = 1.0
                else:
                    s_min = q_nsq + insq[r]
                    pair_hi = d_max / (s_min - d_max)
                lo = pair_lo if lo is None else min(lo, pair_lo)
                hi = max(hi, pair_hi)
        else:
            measure = self.measure
            q_iv = gs.q_iv[g]
            for ivb, *_ in self.snap.clusters[slot]:
                pair_lo = measure.min_similarity(q_iv, ivb)
                pair_hi = measure.max_similarity(q_iv, ivb)
                lo = pair_lo if lo is None else min(lo, pair_lo)
                hi = max(hi, pair_hi)
        return (lo if lo is not None else 0.0, hi)

    def _block(self, gs: _GroupState, key: int) -> List[List[Tuple[float, float]]]:
        """Query bounds of every group member vs one node's children.

        Built lazily the first time any member expands ``key`` (or at
        root setup); the spatial components for all (query, child) cells
        come from one vectorized pass, the textual parts from the
        group's columnar text tables, and each cell is finished with the
        scalar engine's exact clamp/blend expressions.  Multi-key builds
        go through :meth:`_build_blocks`, which shares the spatial pass
        across several frontier nodes.
        """
        table = gs.blocks.get(key)
        if table is None:
            self._build_blocks(gs, [key])
            table = gs.blocks[key]
        return table

    def _build_blocks(self, gs: _GroupState, keys: Sequence[int]) -> None:
        """Build the block tables of several nodes in one spatial pass.

        The concatenated child slots of every not-yet-built key feed a
        single :func:`~repro.perf.kernels.group_spatial_components`
        call; each key's ``(G, C)`` component tables are column slices
        of the result (elementwise expressions, so every cell is
        bit-identical to a per-key pass).  The textual side already
        amortizes globally through the group's text tables.
        """
        pending = [key for key in keys if key not in gs.blocks]
        if not pending:
            return
        snap = self.snap
        alpha = self.alpha
        np = self._np
        slot_lists = [self._block_slots(key) for key in pending]
        comps: List[Optional[Tuple]] = [None] * len(pending)
        if alpha > 0.0:
            self.frontier_hist[len(pending)] = (
                self.frontier_hist.get(len(pending), 0) + 1
            )
            if np is not None and len(pending) > 1:
                all_slots = [s for sl in slot_lists for s in sl]
                if all_slots:
                    idx = np.asarray(all_slots, dtype=np.intp)
                    comp_all = kernels.group_spatial_components(
                        gs.qxlo, gs.qylo, gs.qxhi, gs.qyhi,
                        snap.np_xlo[idx], snap.np_ylo[idx],
                        snap.np_xhi[idx], snap.np_yhi[idx], np,
                    )
                    off = 0
                    for i, sl in enumerate(slot_lists):
                        C = len(sl)
                        if C:
                            comps[i] = tuple(
                                t[:, off : off + C] for t in comp_all
                            )
                        off += C
            else:
                for i, sl in enumerate(slot_lists):
                    if sl:
                        comps[i] = self._comp_for(gs, sl)

        tables = tm = None
        if alpha < 1.0 and self._ej and any(slot_lists):
            tables = self._text_tables_for(gs)
            tm = snap.text_matrix()
        for key, sl, comp in zip(pending, slot_lists, comps):
            gs.blocks[key] = self._finish_block(gs, sl, comp, tables, tm)

    def _comp_for(self, gs: _GroupState, slots: List[int]):
        """Single-node spatial component tables (both array backends)."""
        snap = self.snap
        np = self._np
        if np is not None:
            idx = np.asarray(slots, dtype=np.intp)
            bxlo = snap.np_xlo[idx]
            bylo = snap.np_ylo[idx]
            bxhi = snap.np_xhi[idx]
            byhi = snap.np_yhi[idx]
        else:
            bxlo = [snap.xlo[s] for s in slots]
            bylo = [snap.ylo[s] for s in slots]
            bxhi = [snap.xhi[s] for s in slots]
            byhi = [snap.yhi[s] for s in slots]
        return kernels.group_spatial_components(
            gs.qxlo, gs.qylo, gs.qxhi, gs.qyhi, bxlo, bylo, bxhi, byhi, np
        )

    def _finish_block(
        self, gs: _GroupState, slots: List[int], comp, tables, tm
    ) -> List[List[Tuple[float, float]]]:
        """Scalar clamp/blend finish of one node's block table."""
        snap = self.snap
        alpha = self.alpha
        ej = self._ej
        G = gs.G
        fd = self.base._fd
        is_obj = snap.is_obj
        if tables is None and alpha < 1.0 and ej and slots:
            tables = self._text_tables_for(gs)
            tm = snap.text_matrix()
        measure = self.measure
        obj_vec = snap.obj_vec
        table = []
        for g in range(G):
            if comp is not None:
                dxm, dym, dxM, dyM, pdx, pdy = (
                    comp[0][g],
                    comp[1][g],
                    comp[2][g],
                    comp[3][g],
                    comp[4][g],
                    comp[5][g],
                )
            row: List[Tuple[float, float]] = []
            for i, s in enumerate(slots):
                if is_obj[s]:
                    score = 0.0
                    if alpha > 0.0:
                        score += alpha * fd(math.hypot(pdx[i], pdy[i]))
                    if alpha < 1.0:
                        if ej:
                            sim = tables[g][2][tm.obj_row[s]]
                        else:
                            sim = measure.similarity(
                                gs.queries[g].vector, obj_vec[s]
                            )
                        score += (1.0 - alpha) * sim
                    row.append((score, score))
                elif alpha == 0.0:
                    row.append(self._q_text(gs, g, s, tables, tm))
                else:
                    s_hi = fd(math.hypot(dxm[i], dym[i]))
                    s_lo = fd(math.hypot(dxM[i], dyM[i]))
                    if alpha == 1.0:
                        row.append((alpha * s_lo, alpha * s_hi))
                    else:
                        t_lo, t_hi = self._q_text(gs, g, s, tables, tm)
                        row.append(
                            (
                                alpha * s_lo + (1.0 - alpha) * t_lo,
                                alpha * s_hi + (1.0 - alpha) * t_hi,
                            )
                        )
            table.append(row)
        return table

    # ------------------------------------------------------------------
    # Per-query walk
    # ------------------------------------------------------------------

    def _search_one(
        self,
        gs: _GroupState,
        g: int,
        k: int,
        trace: Optional["TraceSink"] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """One query's branch-and-bound walk over the shared group state.

        Line-faithful to :meth:`SnapshotEngine.search`: same heap
        discipline, decision rules, lazy tightening, verification probe
        and buffer charges in the same order — only the representation
        of bounds (group tables) and contribution lists (columnar
        books) differs, with value parity argued piecewise above.
        ``trace`` receives the engine-parity decision events.
        """
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        base = self.base
        hits0, misses0 = base.hits, base.misses
        snap = self.snap
        tree = self.tree
        te = self.te_weight
        is_obj = snap.is_obj
        cnt = snap.cnt

        roots = snap.root_slots
        if not roots:
            stats.elapsed_seconds = time.perf_counter() - started
            return SearchResult([], stats, tree.io.snapshot())

        undecided = 0
        accepted_bits = 0
        result_bits = 0
        order: List[int] = []
        books: Dict[int, object] = {}
        qbounds: Dict[int, Tuple[float, float]] = {}
        expanded: Dict[int, Tuple[int, int]] = {}
        counter = itertools.count()
        heap: List[Tuple[float, int, int]] = []

        # Warm-start floors (see SnapshotEngine.search): slots whose
        # query upper bound cannot reach the frozen kNNL floor are
        # dropped before any book is built; they keep contributing to
        # their siblings' books through the full-range group template.
        floors = self.floors
        use_floors = floors is not None and k <= floors.kmax
        if use_floors:
            f_idx = floors.floor_idx
            f_tbl = floors.floor_table
            f_prof = floors.obj_profile
            f_kmax = floors.kmax
            f_koff = k - 1

            def floor_of(slot: int) -> float:
                if is_obj[slot]:
                    # The object's own exact k-distance profile, which
                    # is never below the global row it points at.
                    return f_prof[slot * f_kmax + f_koff]
                return f_tbl[f_idx[slot] * f_kmax + f_koff]

        root_tmpl = self._template(gs, _ROOT_BLOCK)
        root_qb = self._block(gs, _ROOT_BLOCK)[g]
        for i, r in enumerate(roots):
            qb = root_qb[i]
            if use_floors and qb[1] < floor_of(r):
                stats.pruned_entries += 1
                stats.pruned_objects += cnt[r]
                continue
            undecided |= 1 << r
            order.append(r)
            book = self._new_book(len(roots) + 1)
            book.extend(root_tmpl[i])
            books[r] = book
            qbounds[r] = qb
            if te == 0.0 or is_obj[r]:
                prio = qb[1]
            else:
                prio = qb[1] + te * snap.ent_root[r]
            heapq.heappush(heap, (-prio, next(counter), r))

        tighten_width = tighten_width_for(k)
        ref_col = snap.ref

        def t_record(action: str, key: int, q_lo: float, q_hi: float) -> None:
            # Engine-parity event: same fields and same kNN-band values
            # as RSTkNNSearcher._record / SnapshotEngine's t_record.
            knn_lo, knn_hi = books[key].knn_bounds(k)
            trace.record(
                action,
                int(ref_col[key]),
                bool(is_obj[key]),
                int(cnt[key]),
                q_lo,
                q_hi,
                knn_lo,
                knn_hi,
            )

        while heap:
            _, _, key = heapq.heappop(heap)
            if not (undecided >> key) & 1:
                continue
            q_lo, q_hi = qbounds[key]
            book = books[key]
            decision = book.decide(q_lo, q_hi, k)
            while decision == 0 and self._tighten_book(
                key, book, expanded, tighten_width
            ):
                decision = book.decide(q_lo, q_hi, k)
            undecided &= ~(1 << key)
            if decision < 0:
                stats.pruned_entries += 1
                stats.pruned_objects += cnt[key]
                if trace is not None:
                    t_record("prune", key, q_lo, q_hi)
                del books[key]
                continue
            if decision > 0:
                accepted_bits |= 1 << key
                stats.accepted_entries += 1
                stats.accepted_objects += cnt[key]
                if trace is not None:
                    t_record("accept", key, q_lo, q_hi)
                del books[key]
                continue
            if is_obj[key]:
                member = base._verify(key, q_hi, k, stats)
                if member:
                    result_bits |= 1 << key
                stats.verified_objects += 1
                if trace is not None:
                    t_record(
                        "verify-in" if member else "verify-out", key, q_lo, q_hi
                    )
                del books[key]
                continue

            # Expand: children inherit the parent's book; sibling/self
            # rows come from the group template, query bounds from the
            # group block table.
            if cancel is not None and cancel.expired():
                stats.elapsed_seconds = time.perf_counter() - started
                raise DeadlineExceeded(cancel_message(cancel), stats=stats)
            if trace is not None:
                t_record("expand", key, q_lo, q_hi)
            fc, lc = snap.first_child[key], snap.last_child[key]
            tree.buffer.get(snap.record_id[key], "node")
            stats.expansions += 1
            expanded[key] = (fc, lc)
            parent = books.pop(key)
            parent.kill(key)
            tmpl = self._template(gs, key)
            if key not in gs.blocks and self.frontier_lookahead > 1:
                batch_keys = [key]
                for _p, _c, cand in heapq.nsmallest(
                    self.frontier_lookahead, heap
                ):
                    if len(batch_keys) >= self.frontier_lookahead:
                        break
                    if (
                        (undecided >> cand) & 1
                        and not is_obj[cand]
                        and cand not in gs.blocks
                    ):
                        batch_keys.append(cand)
                self._build_blocks(gs, batch_keys)
            block_qb = self._block(gs, key)[g]
            span = lc - fc
            for i, c in enumerate(range(fc, lc)):
                qb = block_qb[i]
                if use_floors and qb[1] < floor_of(c):
                    # Floored child: no bit, no book, no heap entry —
                    # still a contributor in its siblings' templates.
                    stats.pruned_entries += 1
                    stats.pruned_objects += cnt[c]
                    continue
                undecided |= 1 << c
                order.append(c)
                book = parent.clone(span)
                book.extend(tmpl[i])
                books[c] = book
                qbounds[c] = qb
                if te == 0.0 or is_obj[c]:
                    prio = qb[1]
                else:
                    prio = qb[1] + te * snap.ent_child[c]
                heapq.heappush(heap, (-prio, next(counter), c))

        ids: List[int] = []
        for key in order:
            if (accepted_bits >> key) & 1:
                charges, sub_ids = snap.collect_plan(key)
                for rid in charges:
                    tree.buffer.get(rid, "collect")
                ids.extend(sub_ids)
            elif (result_bits >> key) & 1:
                ids.append(snap.ref[key])
        ids.sort()
        stats.result_count = len(ids)
        stats.cache_hits = base.hits - hits0
        stats.cache_misses = base.misses - misses0
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(ids, stats, tree.io.snapshot())

    def _sub_batch(self, key: int, slot: int, span: Tuple[int, int]):
        """Columnar substitution rows: ``slot``'s children vs ``key``.

        Query- and group-independent (pair bounds depend only on the
        two slots), so the batch is built once per (key, expanded slot)
        pair and bulk-extended into every book that still holds the
        parent — this is where the per-child ``_st`` calls of the
        per-query engine's tightening pass get amortized away.
        """
        cache_key = (key, slot)
        batch = self._sub_batches.get(cache_key)
        if batch is not None:
            return batch
        st = self.base._st
        cnt = self.snap.cnt
        children = range(span[0], span[1])
        lo_a: List[float] = []
        hi_a: List[float] = []
        for child in children:
            lo, hi = st(key, child)
            lo_a.append(lo)
            hi_a.append(hi)
        slots_a: List[int] = list(children)
        cnt_a = [cnt[c] for c in children]
        np = self._np
        if np is not None:
            batch = (
                np.asarray(slots_a, dtype=np.intp),
                np.asarray(lo_a, dtype=np.float64),
                np.asarray(hi_a, dtype=np.float64),
                np.asarray(cnt_a, dtype=np.int64),
            )
        else:
            batch = (slots_a, lo_a, hi_a, cnt_a)
        self._sub_batches[cache_key] = batch
        return batch

    def _tighten_book(
        self,
        key: int,
        book,
        expanded: Dict[int, Tuple[int, int]],
        width: int,
    ) -> bool:
        """Lazy effect-list refinement over the columnar book — the
        twin of :meth:`SnapshotEngine._tighten`."""
        changed = False
        seen: Set[int] = set()
        st = self.base._st
        for slot in book.candidate_slots(width):
            if slot in seen or not book.has(slot):
                continue
            seen.add(slot)
            span = expanded.get(slot)
            if span is not None and slot != key:
                book.kill(slot)
                book.extend(self._sub_batch(key, slot, span))
                changed = True
            elif not book.is_tight(slot):
                lo, hi = st(key, slot)
                book.retighten(slot, lo, hi)
                changed = True
        return changed
