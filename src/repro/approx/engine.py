"""The ``engine="approx"`` tier: RSTkNN answers read off the kNNL sketch.

:class:`ApproxEngine` answers reverse spatial–textual k-NN queries
against a frozen :class:`~repro.approx.sketch.KnnlSketch` instead of
maintaining per-entry contribution lists.  For ``k <= kmax`` a
depth-first walk compares the query's optimistic similarity against
each subtree's kNNL floor, descends only where the query could still
be within some object's top-k, and at each object compares the query's
exact similarity against that object's own k-distance profile; the
objects that survive *are* the answer, with no verification probe.
Larger ``k`` has no floors, so the engine hands the query to the exact
snapshot engine (:attr:`ApproxEngine.base`) and counts it under
``exact_fallbacks``.

**Survivors equal members for** ``k <= kmax``.  Write ``s_k(o)`` for
the k-th largest ``SimST(o, e)`` over the other objects ``e`` (0.0 when
fewer than ``k`` exist).  Three facts:

1. *Profile entry* ``k - 1`` *is* ``s_k(o)``.  The sketch's all-kNN
   pass stores the exact top-``kmax`` of
   :meth:`SnapshotEngine._exact <repro.core.traversal.SnapshotEngine._exact>`
   bit for bit (:mod:`repro.approx.sketch`).  ``_exact`` is bitwise
   symmetric: the text kernels sum shared terms with correctly rounded
   ``math.fsum``, and ``hypot`` of negated differences is exact, so the
   stored ``_exact(o, e)`` is the very value the exact engines compare,
   whichever operand comes first.
2. ``SimST(q, o) >= s_k(o)`` *iff at most* ``k - 1`` *competitors
   strictly beat the query.*  If the query reaches ``s_k(o)``, only the
   ``k - 1`` profile entries above it can exceed it; if it falls short,
   the ``k`` competitors at or above ``s_k(o)`` all strictly beat it.
   The strict count is the tie-inclusive membership test of every exact
   engine (:meth:`SnapshotEngine._verify
   <repro.core.traversal.SnapshotEngine._verify>` counts competitors
   with ``SimST(o, e) > SimST(q, o)``), and the query similarity here is
   the snapshot engine's ``q_exact`` formula, term for term.  So an
   object reached by the walk survives iff it is a member.
3. *Node prunes are sound.*  A directory slot is skipped only when the
   query's upper bound ``q_hi`` on it is below its floor, the minimum
   of profile entry ``k - 1`` over the objects beneath it, so every
   such object has ``SimST(q, o) <= q_hi < floor <= s_k(o)`` and fails
   fact 2.  ``q_hi`` is built from the exact engines' own bounds
   (box distance finished by the same ``hypot`` and clamp, the
   Extended Jaccard union-vector bound or the measure's
   ``max_similarity``), each monotone in floating point.

Hence the survivors are exactly the members, and the ids are
byte-identical to the exact engines.  Node bounds are staged: a
spatial-only optimistic bound (text similarity capped at 1) is tried
first and the blended text upper bound is only computed when the
spatial stage cannot already prune.

The filter walk accepts ``trace`` for interface compatibility but emits
no events: it makes no accept/prune/verify decisions in the exact
engines' sense, so an event stream would be misleading rather than
comparable.  A fallback query is traced by the snapshot engine.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from ..core.cancel import cancel_message
from ..core.rstknn import SearchResult, SearchStats
from ..errors import DeadlineExceeded
from ..model.objects import STObject
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard
from .sketch import KnnlSketch

#: Keys of :attr:`ApproxEngine.last_filter`: one query's counters.
_QUERY_KEYS = (
    "nodes_pruned",
    "objects_pruned",
    "spatial_shortcuts",
    "candidates",
    "answers",
    "exact_fallbacks",
)


class ApproxEngine:
    """Sketch-filtered search over one snapshot (see module docstring).

    One engine exists per ``(measure, alpha, te_weight, kmax)`` setting
    of a snapshot (see
    :meth:`~repro.perf.snapshot.IndexSnapshot.approx_engine_for`);
    :attr:`base` is that setting's exact snapshot engine, which answers
    every ``k > kmax`` query.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
        sketch: KnnlSketch,
    ) -> None:
        self.tree = tree
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.te_weight = te_weight
        self.sketch = sketch
        self.base = snap.engine_for(tree, measure, alpha, te_weight)
        self._ej = isinstance(measure, ExtendedJaccard)
        #: Cumulative filter counters since engine creation; published
        #: by :func:`repro.obs.record_approx` as ``approx.*`` metrics
        #: (key semantics documented in ``docs/OBSERVABILITY.md``).
        self.counters: Dict[str, int] = dict.fromkeys(
            ("searches",) + _QUERY_KEYS, 0
        )
        #: The last query's counters (the same keys minus ``searches``).
        self.last_filter: Dict[str, int] = {}

    def _publish(self, last: Dict[str, int]) -> None:
        """Fold one query's counters into :attr:`counters`."""
        counters = self.counters
        counters["searches"] += 1
        for key, value in last.items():
            counters[key] += value
        self.last_filter = last

    def search(
        self,
        query: STObject,
        k: int,
        trace: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """One RSTkNN query (see module docstring).

        ``cancel`` is polled at start and per node expansion, the same
        protocol as the exact engines; ``trace`` is ignored by the
        filter walk and passed on to a ``k > kmax`` fallback.
        """
        sketch = self.sketch
        if k > sketch.kmax:
            result = self.base.search(query, k, trace=trace, cancel=cancel)
            last = dict.fromkeys(_QUERY_KEYS, 0)
            last["exact_fallbacks"] = 1
            self._publish(last)
            return result
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        snap = self.snap
        tree = self.tree
        alpha = self.alpha
        is_obj = snap.is_obj
        cnt = snap.cnt
        ref = snap.ref
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        fd = self.base._fd
        measure = self.measure
        ej = self._ej

        qm = query.mbr()
        qxlo, qylo, qxhi, qyhi = qm.xlo, qm.ylo, qm.xhi, qm.yhi
        qvec = query.vector
        q_frozen = qvec.frozen()
        q_nsq = qvec.norm_squared
        q_iv = IntervalVector.from_document(qvec) if not ej else None

        def q_text_hi(slot: int) -> float:
            # Upper text bound of the query against a slot's clusters
            # (the optimistic half of the exact engines' q_text).
            hi = 0.0
            if ej:
                for _iv, _int_b, uni_b, insq_b, _unsq_b in snap.clusters[slot]:
                    d_max = q_frozen.dot(uni_b)
                    if d_max == 0.0:
                        pair_hi = 0.0
                    elif 2.0 * d_max >= q_nsq + insq_b:
                        pair_hi = 1.0
                    else:
                        pair_hi = d_max / (q_nsq + insq_b - d_max)
                    if pair_hi > hi:
                        hi = pair_hi
            else:
                for ivb, *_ in snap.clusters[slot]:
                    pair_hi = measure.max_similarity(q_iv, ivb)
                    if pair_hi > hi:
                        hi = pair_hi
            return hi

        def q_exact(slot: int) -> float:
            # The snapshot engine's q_exact, term for term (fact 2).
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

        nodes_pruned = objects_pruned = spatial_shortcuts = 0
        ids: List[int] = []

        stack = list(snap.root_slots)
        while stack:
            slot = stack.pop()
            if is_obj[slot]:
                if q_exact(slot) < sketch.obj_floor(slot, k):
                    objects_pruned += 1
                    stats.pruned_entries += 1
                    stats.pruned_objects += 1
                else:
                    stats.accepted_entries += 1
                    stats.accepted_objects += 1
                    ids.append(ref[slot])
                continue
            floor = sketch.node_floor(slot, k)
            if floor > 0.0:
                pruned = False
                spatial_only = False
                if alpha > 0.0:
                    dx = max(qxlo - xhi[slot], 0.0, xlo[slot] - qxhi)
                    dy = max(qylo - yhi[slot], 0.0, ylo[slot] - qyhi)
                    s_hi = fd(math.hypot(dx, dy))
                    # Stage 1: text capped at 1; dominates the full
                    # upper bound, so failing it prunes exactly.  For
                    # alpha == 1.0 this *is* the full bound — the text
                    # term is skipped by construction, so every prune
                    # on that path is also a spatial shortcut.
                    if alpha * s_hi + (1.0 - alpha) < floor:
                        pruned = True
                        spatial_only = True
                    elif alpha < 1.0:
                        q_hi = alpha * s_hi + (1.0 - alpha) * q_text_hi(slot)
                        pruned = q_hi < floor
                else:
                    pruned = q_text_hi(slot) < floor
                if pruned:
                    nodes_pruned += 1
                    if spatial_only:
                        spatial_shortcuts += 1
                    stats.pruned_entries += 1
                    stats.pruned_objects += cnt[slot]
                    continue
            if cancel is not None and cancel.expired():
                stats.elapsed_seconds = time.perf_counter() - started
                raise DeadlineExceeded(cancel_message(cancel), stats=stats)
            tree.buffer.get(snap.record_id[slot], "node")
            stats.expansions += 1
            stack.extend(range(snap.first_child[slot], snap.last_child[slot]))
        ids.sort()

        self._publish({
            "nodes_pruned": nodes_pruned,
            "objects_pruned": objects_pruned,
            "spatial_shortcuts": spatial_shortcuts,
            "candidates": len(ids),
            "answers": len(ids),
            "exact_fallbacks": 0,
        })
        stats.result_count = len(ids)
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(ids, stats, tree.io.snapshot())
