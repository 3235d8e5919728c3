"""The ``engine="approx"`` tier: sketch-filtered RSTkNN search.

:class:`ApproxEngine` answers reverse spatial–textual k-NN queries by
*filtering* against a frozen :class:`~repro.approx.sketch.KnnlSketch`
instead of maintaining per-entry contribution lists: a depth-first walk
compares the query's optimistic similarity against each subtree's
conservative kNNL floor and descends only where the query could still
be within some object's top-k.  Surviving objects are the candidate
set — provably a *superset* of the exact answer, because a pruned slot
satisfies ``q_hi < floor <= s_k(o)`` for every object ``o`` under it
(at least ``k`` competitors strictly beat the query there).

Two modes:

* ``verify=True`` (default): every candidate runs the snapshot
  engine's exact membership probe
  (:meth:`~repro.core.traversal.SnapshotEngine._verify`), so the result
  ids are byte-identical to the exact engines — the sketch only
  replaces candidate *generation*, never the decision.
* ``verify=False``: the raw filter output is returned.  Because the
  filter is conservative the output contains every exact answer
  (recall 1.0 by construction); precision is whatever the sketch
  earns, and :mod:`benchmarks.bench_approx` measures both against
  exact ground truth.

Node bounds are staged: a spatial-only optimistic bound (text
similarity capped at 1) is tried first and the blended text upper bound
is only computed when the spatial stage cannot already prune — the same
lazy-text trick the exact verification probe uses.

Between the floor DFS and verification sits an optional **LSH
pre-filter stage** (after Arthur & Oudot, arXiv:1011.4955): the
sketch's frozen 64-bit term signatures are banded into eight 8-bit
buckets, and each candidate probes the objects sharing one of its
bands — its likeliest strong competitors — with *exact* pairwise
similarities.  A candidate is dropped only once ``k`` distinct
competitors are proven strictly more similar to it than the query,
the same strict count the exact membership probe uses, so the stage is
conservative by construction (the banding only chooses *which*
competitors to try first; every drop is backed by exact similarities
and recall stays 1.0).  In verified mode the stage cheaply refutes
non-members before the expensive full membership probe; in raw mode it
directly raises precision.

The engine accepts the ``trace`` argument for interface compatibility
but emits no events: its walk makes no accept/prune/verify decisions in
the exact engines' sense, so an event stream would be misleading
rather than comparable.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from ..core.cancel import cancel_message
from ..core.rstknn import SearchResult, SearchStats
from ..errors import DeadlineExceeded
from ..model.objects import STObject
from ..text.interval import IntervalVector
from ..text.similarity import ExtendedJaccard
from .sketch import KnnlSketch

#: Number of 8-bit bands the 64-bit term signature is split into.
LSH_BANDS = 8

#: Per-candidate cap on exact competitor probes in the LSH stage: the
#: stage must stay far cheaper than the full membership probe it
#: tries to avoid, so it gives up (keeps the candidate) after this
#: many similarity evaluations.
LSH_PROBE_CAP = 64


class ApproxEngine:
    """Sketch-filtered search over one snapshot (see module docstring).

    One engine exists per ``(measure, alpha, te_weight, verify, kmax,
    lsh)`` setting of a snapshot (see
    :meth:`~repro.perf.snapshot.IndexSnapshot.approx_engine_for`); it
    shares the exact snapshot engine's memoized pair-bound table
    through :attr:`base`, so verification work warms the exact paths
    and vice versa.
    """

    def __init__(
        self,
        tree,
        snap,
        measure,
        alpha: float,
        te_weight: float,
        sketch: KnnlSketch,
        verify: bool = True,
        lsh: bool = True,
    ) -> None:
        self.tree = tree
        self.snap = snap
        self.measure = measure
        self.alpha = alpha
        self.te_weight = te_weight
        self.sketch = sketch
        self.verify = verify
        self.lsh = lsh and len(sketch.lsh_sig) > 0
        self._lsh_buckets: Optional[Dict[int, List[int]]] = None
        self.base = snap.engine_for(tree, measure, alpha, te_weight)
        self._ej = isinstance(measure, ExtendedJaccard)
        #: Cumulative filter counters since engine creation; published
        #: by :func:`repro.obs.record_approx` as ``approx.*`` metrics
        #: (key semantics documented in ``docs/OBSERVABILITY.md``).
        self.counters: Dict[str, int] = {
            "searches": 0,
            "nodes_pruned": 0,
            "objects_pruned": 0,
            "spatial_shortcuts": 0,
            "lsh_pruned": 0,
            "candidates": 0,
            "verified": 0,
            "answers": 0,
        }
        #: The last query's filter counters (same keys), for reporting.
        self.last_filter: Dict[str, int] = {}

    def _bands(self) -> Dict[int, List[int]]:
        """Lazily built LSH band buckets over the sketch signatures.

        Bucket key ``(band << 8) | byte`` maps to the object slots
        whose signature carries that byte in that band; all-zero bands
        (no term hashed there) are skipped, as they would bucket
        textually unrelated objects together.
        """
        buckets = self._lsh_buckets
        if buckets is None:
            buckets = {}
            sig_arr = self.sketch.lsh_sig
            is_obj = self.snap.is_obj
            for slot in range(len(sig_arr)):
                if not is_obj[slot]:
                    continue
                sig = sig_arr[slot]
                for band in range(LSH_BANDS):
                    byte = (sig >> (band * 8)) & 0xFF
                    if byte:
                        buckets.setdefault((band << 8) | byte, []).append(slot)
            self._lsh_buckets = buckets
        return buckets

    def search(
        self,
        query: STObject,
        k: int,
        trace: Optional[object] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """One sketch-filtered RSTkNN query (see module docstring).

        ``cancel`` is polled at start and per node expansion, the same
        protocol as the exact engines; ``trace`` is accepted but
        ignored (no comparable event stream exists for this walk).
        """
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        snap = self.snap
        tree = self.tree
        base = self.base
        sketch = self.sketch
        alpha = self.alpha
        hits0, misses0 = base.hits, base.misses
        is_obj = snap.is_obj
        cnt = snap.cnt
        ref = snap.ref
        xlo, ylo, xhi, yhi = snap.xlo, snap.ylo, snap.xhi, snap.yhi
        fd = base._fd
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

        counters = self.counters
        counters["searches"] += 1
        nodes_pruned = objects_pruned = spatial_shortcuts = lsh_pruned = 0
        candidates: List[Tuple[int, float]] = []
        use_floors = k <= sketch.kmax

        stack = list(snap.root_slots)
        while stack:
            slot = stack.pop()
            if is_obj[slot]:
                sim = q_exact(slot)
                if use_floors and sim < sketch.obj_floor(slot, k):
                    objects_pruned += 1
                    stats.pruned_entries += 1
                    stats.pruned_objects += 1
                    continue
                candidates.append((slot, sim))
                continue
            if use_floors:
                floor = sketch.node_floor(slot, k)
                if floor > 0.0:
                    pruned = False
                    spatial_only = False
                    if alpha > 0.0:
                        dx = max(qxlo - xhi[slot], 0.0, xlo[slot] - qxhi)
                        dy = max(qylo - yhi[slot], 0.0, ylo[slot] - qyhi)
                        s_hi = fd(math.hypot(dx, dy))
                        # Stage 1: text capped at 1; dominates the full
                        # upper bound, so failing it prunes exactly.
                        # For alpha == 1.0 this *is* the full bound —
                        # the text term is skipped by construction, so
                        # every prune on that path is also a spatial
                        # shortcut (no text bound was ever computed).
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

        n_candidates = len(candidates)
        if self.lsh and use_floors and candidates:
            # LSH pre-filter: for each candidate, probe the objects
            # sharing one of its signature bands — its likeliest strong
            # competitors — with exact similarities, and drop it once k
            # distinct competitors strictly beat the query (the same
            # strict count the membership probe uses, so drops are
            # provably correct and recall stays 1.0).
            buckets = self._bands()
            sig_arr = sketch.lsh_sig
            exact_pair = base._exact
            kept: List[Tuple[int, float]] = []
            for slot, sim in candidates:
                sig = sig_arr[slot]
                rslot = ref[slot]
                beaten = 0
                probes = 0
                seen = {slot}
                refuted = False
                for band in range(LSH_BANDS):
                    byte = (sig >> (band * 8)) & 0xFF
                    if not byte:
                        continue
                    for other in buckets.get((band << 8) | byte, ()):
                        if other in seen:
                            continue
                        seen.add(other)
                        if ref[other] == rslot:
                            continue
                        probes += 1
                        if exact_pair(slot, other) > sim:
                            beaten += 1
                            if beaten >= k:
                                refuted = True
                                break
                        if probes >= LSH_PROBE_CAP:
                            break
                    if refuted or probes >= LSH_PROBE_CAP:
                        break
                if refuted:
                    lsh_pruned += 1
                    stats.pruned_entries += 1
                    stats.pruned_objects += 1
                else:
                    kept.append((slot, sim))
            candidates = kept

        ids: List[int] = []
        if self.verify:
            for slot, sim in candidates:
                member = base._verify(slot, sim, k, stats)
                stats.verified_objects += 1
                if member:
                    ids.append(ref[slot])
        else:
            ids = [ref[slot] for slot, _sim in candidates]
        ids.sort()

        counters["nodes_pruned"] += nodes_pruned
        counters["objects_pruned"] += objects_pruned
        counters["spatial_shortcuts"] += spatial_shortcuts
        counters["lsh_pruned"] += lsh_pruned
        counters["candidates"] += n_candidates
        counters["verified"] += len(candidates) if self.verify else 0
        counters["answers"] += len(ids)
        self.last_filter = {
            "nodes_pruned": nodes_pruned,
            "objects_pruned": objects_pruned,
            "spatial_shortcuts": spatial_shortcuts,
            "lsh_pruned": lsh_pruned,
            "candidates": n_candidates,
            "verified": len(candidates) if self.verify else 0,
            "answers": len(ids),
        }

        stats.result_count = len(ids)
        stats.cache_hits = base.hits - hits0
        stats.cache_misses = base.misses - misses0
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(ids, stats, tree.io.snapshot())
