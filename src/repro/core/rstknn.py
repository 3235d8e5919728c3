"""The branch-and-bound RSTkNN searcher over IUR/CIUR trees.

Algorithm sketch (Section 3.3 of DESIGN.md):

1. Maintain a set of **live entries** that always partitions the dataset
   (initially the tree root plus any OE outliers); each live entry is
   undecided, pruned, accepted, or a verified object.
2. Every *undecided* entry owns a :class:`ContributionList` holding, per
   live entry, the SimST bounds and object count — from which its group
   kNN bounds ``kNNL`` / ``kNNU`` derive.
3. Pop entries best-first (largest ``MaxST(q, E)``, optionally boosted by
   cluster entropy — the TE optimization).  Apply the decision rules:

   * ``MaxST(q, E) < kNNL(E)`` → **prune** ``E`` (no object in it can have
     ``q`` among its k most similar);
   * ``MinST(q, E) >= kNNU(E)`` → **accept** ``E`` (every object in it has
     ``q`` among its top-k);
   * otherwise **expand** a directory entry (children inherit the
     frontier and contribute mutually), or **verify** an object entry
     exactly with a bounded count probe over the same tree.

Pruned and accepted entries stay live — they keep contributing to other
entries' kNN bounds — but are never expanded; only the verification probe
descends into pruned regions when an individual object needs an exact
answer.  Membership semantics are tie-inclusive and shared with every
baseline: ``q`` is in the reverse set of ``o`` iff strictly fewer than
``k`` dataset objects (excluding ``o``) are strictly more similar to
``o`` than ``q`` is.

This object-graph walk is the reference; reads, a dirty live index's
included, run its columnar port (:mod:`repro.core.traversal`).  It runs
for ``engine="seed"``, as ``QueryService``'s last hop and as the oracle
of the parity tests.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import TraceSink

from ..config import SimilarityConfig
from ..errors import ConfigError, DeadlineExceeded, QueryError
from .cancel import cancel_message
from ..index.entry import Entry
from ..index.iurtree import IURTree
from ..model.objects import STObject
from ..obs.metrics import record_approx, record_search, record_sketch_build
from ..text import make_measure
from ..text.entropy import normalized_cluster_entropy
from .bounds import BoundComputer
from .contributions import Contribution, ContributionList, SourceKey

_UNDECIDED = "undecided"
_PRUNED = "pruned"
_ACCEPTED = "accepted"
_EXPANDED = "expanded"
_RESULT = "result"
_NONRESULT = "nonresult"

#: Traversal engine knob values: ``seed`` is the reference object-graph
#: walk below; ``snapshot`` runs the columnar SnapshotEngine
#: (:mod:`repro.core.traversal`); ``auto`` picks snapshot (a dirty live
#: index freezes its union view); ``approx`` runs the kNNL sketch filter
#: (:mod:`repro.approx`), exact by construction for ``k`` within the
#: sketch and the snapshot walk above it.  Every engine emits decision
#: events through the TraceSink protocol (:mod:`repro.obs`), so a trace
#: never forces ``seed``.
ENGINE_CHOICES = ("seed", "snapshot", "auto", "approx")

#: Environment override for the default engine.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Weight of the text-entropy (TE) boost in the best-first priority
#: (DESIGN.md §2).  TE is an index switch, so the weight follows the
#: tree's ``IndexConfig.use_entropy_priority``: :func:`te_weight_for`.
TE_WEIGHT = 0.05


def te_weight_for(use_entropy_priority: bool) -> float:
    """The TE weight a walk over an index with this switch runs:
    :data:`TE_WEIGHT` when on, ``0.0`` when off."""
    return TE_WEIGHT if use_entropy_priority else 0.0


def _default_engine() -> str:
    """Engine named by ``REPRO_ENGINE``, else ``auto`` (warn on typos)."""
    name = os.environ.get(ENGINE_ENV_VAR)
    if name is None:
        return "auto"
    name = name.strip().lower()
    if name not in ENGINE_CHOICES:
        warnings.warn(
            f"{ENGINE_ENV_VAR}={name!r} is not one of {ENGINE_CHOICES}; "
            "using 'auto'",
            RuntimeWarning,
            stacklevel=3,
        )
        return "auto"
    return name


@dataclass
class SearchStats:
    """Counters describing how one search decided the dataset."""

    expansions: int = 0
    pruned_entries: int = 0
    pruned_objects: int = 0
    accepted_entries: int = 0
    accepted_objects: int = 0
    verified_objects: int = 0
    verify_node_reads: int = 0
    result_count: int = 0
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def group_decided_objects(self) -> int:
        """Objects decided purely by bounds (no per-object probe)."""
        return self.pruned_objects + self.accepted_objects

    def as_dict(self) -> Dict[str, float]:
        """Flat dict of the counters, for experiment logging."""
        return {
            "expansions": self.expansions,
            "pruned_entries": self.pruned_entries,
            "pruned_objects": self.pruned_objects,
            "accepted_entries": self.accepted_entries,
            "accepted_objects": self.accepted_objects,
            "verified_objects": self.verified_objects,
            "verify_node_reads": self.verify_node_reads,
            "result_count": self.result_count,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass
class SearchResult:
    """Sorted result ids plus the search's decision and I/O statistics."""

    ids: List[int]
    stats: SearchStats
    io: Dict[str, int] = field(default_factory=dict)
    _id_set: Optional[set] = field(
        default=None, repr=False, compare=False
    )

    def __contains__(self, oid: int) -> bool:
        # Built lazily on the first membership test and reused; the
        # length check catches the supported mutation (removing the
        # member id in search_for_member) without hashing every id again.
        cached = self._id_set
        if cached is None or len(cached) != len(self.ids):
            cached = set(self.ids)
            self._id_set = cached
        return oid in cached

    def __len__(self) -> int:
        return len(self.ids)


class RSTkNNSearcher:
    """Reverse spatial-textual kNN search over a (C)IUR-tree."""

    #: Always ``False``: the approx tier's LSH stage is gone.  Kept only
    #: because ``perfbench`` still reads it (marked for deletion).
    approx_lsh = False

    def __init__(
        self,
        tree: IURTree,
        config: Optional[SimilarityConfig] = None,
        engine: Optional[str] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        """``engine`` picks the traversal implementation
        (:data:`ENGINE_CHOICES`); ``None`` defers to ``REPRO_ENGINE``
        and then ``auto``.  ``metrics`` attaches a
        :class:`repro.obs.MetricsRegistry`: each search then records
        per-engine query counters, decision counters, and a latency
        histogram (``None`` records nothing — see
        ``docs/OBSERVABILITY.md``).

        The TE weight follows the tree's ``use_entropy_priority``
        (:func:`te_weight_for`).  ``engine="approx"`` reads the kNNL
        sketch for ``k`` up to
        :data:`~repro.approx.sketch.DEFAULT_SKETCH_KMAX`; larger ``k``
        is answered by the snapshot walk."""
        self.tree = tree
        cfg = config if config is not None else tree.dataset.config
        self.config = cfg
        self.measure = make_measure(cfg.text_measure)
        self.alpha = cfg.alpha
        self.te_weight = te_weight_for(tree.config.use_entropy_priority)
        if engine is None:
            engine = _default_engine()
        elif engine not in ENGINE_CHOICES:
            raise ConfigError(
                f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
            )
        self.engine = engine
        self.metrics = metrics

    def _bound_computer(self) -> BoundComputer:
        """A fresh per-query bound computer."""
        return BoundComputer(
            self.tree.dataset.proximity, self.measure, self.alpha
        )

    def _resolve_engine(self) -> str:
        """The engine one search call will actually run.

        ``auto`` runs ``snapshot``.  While a live index
        (:mod:`repro.lsm`) has writes pending, ``approx`` runs
        ``snapshot``: a sketch is a fold-time artifact, and rebuilding
        it per write would cost far more than the walk it saves.  Any
        other engine runs as asked; every engine emits decision events
        through the TraceSink protocol (:mod:`repro.obs.trace`), so a
        trace never changes the engine.
        """
        engine = self.engine
        if engine == "auto":
            return "snapshot"
        if engine == "approx" and getattr(self.tree, "overlay_dirty", False):
            return "snapshot"
        return engine

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def search(
        self,
        query: STObject,
        k: int,
        trace: Optional["TraceSink"] = None,
        cancel: Optional[object] = None,
    ) -> SearchResult:
        """All objects that count ``query`` among their top-k by SimST.

        Pass any :class:`repro.obs.TraceSink` — typically a
        :class:`repro.core.explain.SearchTrace` — as ``trace`` to capture
        every group-level decision with its justifying bounds.  Tracing
        works on every engine and does not change engine resolution.

        ``cancel`` is a cooperative cancellation token (anything with an
        ``expired() -> bool`` method, e.g. a
        :class:`repro.service.Deadline`), polled once per node expansion;
        expiry raises :class:`~repro.errors.DeadlineExceeded` carrying
        the partial :class:`SearchStats`.  ``None`` skips the polls
        entirely.
        """
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        pin = getattr(self.tree, "pin", None)
        if pin is not None:
            # Live trees (repro.lsm.LiveIndex) are searched through one
            # pinned epoch view, so a concurrent fold cannot swap the
            # union out mid-walk.  The view has no ``pin`` of its own,
            # so the recursion runs the normal path exactly once.
            with pin() as view:
                pinned = copy.copy(self)
                pinned.tree = view
                return pinned.search(query, k, trace=trace, cancel=cancel)
        resolved = self._resolve_engine()
        if resolved != "seed":
            snap = self.tree.snapshot()
            if resolved == "approx" and snap.base is not None:
                # A union: a write landed after the resolve.  Sketches
                # are fold-time artifacts, so the exact walk serves it.
                resolved = "snapshot"
        if resolved == "snapshot":
            runner = snap.engine_for(
                self.tree, self.measure, self.alpha, self.te_weight
            )
            result = runner.search(query, k, trace=trace, cancel=cancel)
            record_search(self.metrics, "snapshot", result.stats)
            return result
        if resolved == "approx":
            sketches = len(snap._sketches)
            runner = snap.approx_engine_for(
                self.tree, self.measure, self.alpha, self.te_weight
            )
            if len(snap._sketches) != sketches:
                # This call built the sketch (an attached segment's
                # sketch is pre-populated and never counts).
                record_sketch_build(self.metrics, runner.sketch)
            result = runner.search(query, k, trace=trace, cancel=cancel)
            record_search(self.metrics, "approx", result.stats)
            record_approx(self.metrics, runner.last_filter)
            return result
        started = time.perf_counter()
        stats = SearchStats()
        if cancel is not None and cancel.expired():
            raise DeadlineExceeded(cancel_message(cancel), stats=stats)
        bounds = self._bound_computer()
        q_entry = Entry.for_object(-1, query.mbr(), query.vector)

        roots = self._initial_entries()
        if not roots:
            stats.elapsed_seconds = time.perf_counter() - started
            record_search(self.metrics, "seed", stats)
            return SearchResult([], stats, self.tree.io.snapshot())

        live: Dict[SourceKey, Entry] = {}
        lists: Dict[SourceKey, ContributionList] = {}
        status: Dict[SourceKey, str] = {}
        qbounds: Dict[SourceKey, Tuple[float, float]] = {}
        expanded_children: Dict[SourceKey, List[Entry]] = {}
        counter = itertools.count()
        heap: List[Tuple[float, int, SourceKey]] = []

        for entry in roots:
            key = _key(entry)
            live[key] = entry
            status[key] = _UNDECIDED
        for key, entry in live.items():
            lists[key] = self._fresh_list(entry, key, live, bounds)
            qbounds[key] = bounds.st_bounds(q_entry, entry)
            heapq.heappush(
                heap, (-self._priority(entry, qbounds[key][1]), next(counter), key)
            )

        num_clusters = max(self.tree.num_clusters(), 1)
        tighten_width = max(16, 4 * k)

        while heap:
            _, _, key = heapq.heappop(heap)
            if status.get(key) != _UNDECIDED:
                continue
            entry = live[key]
            q_lo, q_hi = qbounds[key]
            decision = self._decide(lists[key], q_lo, q_hi, k)
            while decision == 0 and self._tighten(
                entry, lists[key], bounds, expanded_children, tighten_width
            ):
                # Lazily refine the decisive contributions (the paper's
                # effect-list update) before paying for an expansion or a
                # probe.
                decision = self._decide(lists[key], q_lo, q_hi, k)
            if decision < 0:
                status[key] = _PRUNED
                stats.pruned_entries += 1
                stats.pruned_objects += entry.count
                if trace is not None:
                    self._record(trace, "prune", entry, q_lo, q_hi, lists[key], k)
                del lists[key]
                continue
            if decision > 0:
                status[key] = _ACCEPTED
                stats.accepted_entries += 1
                stats.accepted_objects += entry.count
                if trace is not None:
                    self._record(trace, "accept", entry, q_lo, q_hi, lists[key], k)
                del lists[key]
                continue
            if entry.is_object:
                member = self._verify(entry, q_hi, k, bounds, roots, stats)
                status[key] = _RESULT if member else _NONRESULT
                stats.verified_objects += 1
                if trace is not None:
                    self._record(
                        trace,
                        "verify-in" if member else "verify-out",
                        entry,
                        q_lo,
                        q_hi,
                        lists[key],
                        k,
                    )
                del lists[key]
                continue

            # Expand: replace the entry by its children.  Children inherit
            # the parent's contribution list — every inherited bound stays
            # valid for the sub-region, just looser — and only the mutual
            # sibling and self terms are computed fresh.  Other entries'
            # lists keep the parent's (valid) contribution and are only
            # rebuilt if they later pop undecided.
            if cancel is not None and cancel.expired():
                stats.elapsed_seconds = time.perf_counter() - started
                raise DeadlineExceeded(cancel_message(cancel), stats=stats)
            if trace is not None:
                self._record(trace, "expand", entry, q_lo, q_hi, lists[key], k)
            children = self.tree.children(entry)
            stats.expansions += 1
            status[key] = _EXPANDED
            expanded_children[key] = children
            parent_list = lists.pop(key)
            parent_list.remove(key)  # parent's self-contribution
            del live[key]
            child_items: List[Tuple[SourceKey, Entry]] = []
            for child in children:
                ckey = _key(child)
                live[ckey] = child
                status[ckey] = _UNDECIDED
                child_items.append((ckey, child))
            for ckey, child in child_items:
                clist = parent_list.copy()
                for skey, sibling in child_items:
                    if skey == ckey:
                        continue
                    lo, hi = bounds.st_bounds(child, sibling)
                    clist.set(
                        Contribution(skey, sibling, lo, hi, sibling.count),
                        tight=True,
                    )
                if child.count >= 2:
                    lo, hi = bounds.self_bounds(child)
                    clist.set(
                        Contribution(ckey, child, lo, hi, child.count - 1),
                        tight=True,
                    )
                lists[ckey] = clist
                qb = bounds.st_bounds(q_entry, child)
                qbounds[ckey] = qb
                prio = self._priority(child, qb[1], num_clusters)
                heapq.heappush(heap, (-prio, next(counter), ckey))

        # Gather results: accepted subtrees enumerate their objects.
        ids: List[int] = []
        for key, st in status.items():
            if st == _ACCEPTED:
                ids.extend(self._collect(live[key]))
            elif st == _RESULT:
                ids.append(key[0])
        ids.sort()
        stats.result_count = len(ids)
        stats.cache_hits = bounds.hits
        stats.cache_misses = bounds.misses
        stats.elapsed_seconds = time.perf_counter() - started
        record_search(self.metrics, "seed", stats)
        return SearchResult(ids, stats, self.tree.io.snapshot())

    def search_for_member(self, oid: int, k: int) -> SearchResult:
        """Reverse neighbors of an object already *in* the dataset.

        Uses the member's own location and text as the query; the member
        itself is excluded from the result (it trivially ranks itself
        first).  Everything else keeps the standard semantics: for every
        other object ``o``, the member competes against ``D \\ {o}`` —
        which contains the member — so no special-casing is needed
        beyond dropping ``oid`` from the output.
        """
        obj = self.tree.object(oid)
        query = self.tree.dataset.make_query_from_object(obj)
        result = self.search(query, k)
        if oid in result.ids:
            result.ids.remove(oid)
            result.stats.result_count = len(result.ids)
        return result

    def search_ranked(
        self, query: STObject, k: int
    ) -> List[Tuple[int, int, float]]:
        """Reverse neighbors with the query's rank in each one's list.

        Returns ``(oid, rank, sim)`` triples sorted by ``(rank, oid)``:
        ``rank`` is 1 + the number of dataset objects strictly more
        similar to ``oid`` than the query is (so rank 1 means the query
        would be the object's single most similar neighbor).  Useful for
        applications that care *how prominently* a new facility would
        surface, not just whether it makes the top-k.
        """
        result = self.search(query, k)
        bounds = self._bound_computer()
        q_entry = Entry.for_object(-1, query.mbr(), query.vector)
        roots = self._initial_entries()
        ranked: List[Tuple[int, int, float]] = []
        for oid in result.ids:
            obj = self.tree.object(oid)
            o_entry = Entry.for_object(oid, obj.mbr(), obj.vector)
            _, q_sim = bounds.st_bounds(q_entry, o_entry)
            stronger = self._count_stronger(o_entry, q_sim, bounds, roots)
            ranked.append((oid, stronger + 1, q_sim))
        ranked.sort(key=lambda t: (t[1], t[0]))
        return ranked

    def _count_stronger(
        self,
        obj_entry: Entry,
        q_sim: float,
        bounds: BoundComputer,
        roots: List[Entry],
    ) -> int:
        """Exact count of objects strictly more similar than the query
        (no early exit — ranks need the true count)."""
        target_point = obj_entry.mbr.center()
        count = 0
        stack = [e for e in roots if _key(e) != _key(obj_entry)]
        while stack:
            entry = stack.pop()
            if entry.is_object:
                if entry.ref == obj_entry.ref:
                    continue
                _, sim = bounds.st_bounds(obj_entry, entry)
                if sim > q_sim:
                    count += 1
                continue
            lo, hi = bounds.st_bounds(obj_entry, entry)
            if hi <= q_sim:
                continue
            if lo > q_sim and not entry.mbr.contains_point(target_point):
                count += entry.count
                continue
            stack.extend(self.tree.children(entry, tag="rank"))
        return count

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    @staticmethod
    def _record(
        trace: "TraceSink",
        action: str,
        entry: Entry,
        q_lo: float,
        q_hi: float,
        clist: ContributionList,
        k: int,
    ) -> None:
        trace.record(
            action,
            entry.ref,
            entry.is_object,
            entry.count,
            q_lo,
            q_hi,
            clist.knn_lower(k),
            clist.knn_upper(k),
        )

    @staticmethod
    def _decide(clist: ContributionList, q_lo: float, q_hi: float, k: int) -> int:
        """Apply the two decision rules: -1 prune, +1 accept, 0 undecided."""
        return clist.decide(q_lo, q_hi, k)

    def _initial_entries(self) -> List[Entry]:
        roots: List[Entry] = []
        root = self.tree.root_entry()
        if root is not None:
            roots.append(root)
        roots.extend(self.tree.outlier_entries())
        return roots

    def _priority(
        self, entry: Entry, q_hi: float, num_clusters: int = 1
    ) -> float:
        """Best-first key: promise vs the query, plus the TE boost."""
        if self.te_weight == 0.0 or entry.is_object:
            return q_hi
        histogram = {cid: iv.doc_count for cid, iv in entry.clusters.items()}
        return q_hi + self.te_weight * normalized_cluster_entropy(
            histogram, max(num_clusters, 2)
        )

    def _fresh_list(
        self,
        entry: Entry,
        key: SourceKey,
        live: Dict[SourceKey, Entry],
        bounds: BoundComputer,
    ) -> ContributionList:
        """Build a full contribution list over every live entry."""
        clist = ContributionList()
        for okey, other in live.items():
            if okey == key:
                continue
            lo, hi = bounds.st_bounds(entry, other)
            clist.set(Contribution(okey, other, lo, hi, other.count), tight=True)
        if entry.count >= 2:
            lo, hi = bounds.self_bounds(entry)
            clist.set(Contribution(key, entry, lo, hi, entry.count - 1), tight=True)
        return clist

    def _tighten(
        self,
        entry: Entry,
        clist: ContributionList,
        bounds: BoundComputer,
        expanded_children: Dict[SourceKey, List[Entry]],
        width: int,
    ) -> bool:
        """Refine the contributions that gate this entry's decision.

        Only the ``width`` largest lower-bound contributions (they decide
        ``kNNL``) and largest upper-bound contributions (``kNNU``) are
        touched.  A loose contribution is either recomputed directly
        against its summarizing entry, or — when that entry has already
        been expanded — substituted by per-child contributions, which
        preserves coverage exactly while strictly refining the bounds.

        Returns True when anything changed (so the caller re-checks the
        decision rules), False at a local fixpoint.
        """
        candidates = clist.top_by_min(width) + clist.top_by_max(width)
        changed = False
        seen: set = set()
        for contribution in candidates:
            skey = contribution.source
            if skey in seen or skey not in clist:
                continue
            seen.add(skey)
            children = expanded_children.get(skey)
            if children is not None and skey != _key(entry):
                clist.remove(skey)
                for child in children:
                    lo, hi = bounds.st_bounds(entry, child)
                    clist.set(
                        Contribution(_key(child), child, lo, hi, child.count),
                        tight=True,
                    )
                changed = True
            elif not clist.is_tight(skey):
                lo, hi = bounds.st_bounds(entry, contribution.entry)
                count = contribution.count
                if skey == _key(entry):
                    lo, hi = bounds.self_bounds(entry)
                clist.set(
                    Contribution(skey, contribution.entry, lo, hi, count),
                    tight=True,
                )
                changed = True
        return changed

    def _verify(
        self,
        obj_entry: Entry,
        q_sim: float,
        k: int,
        bounds: BoundComputer,
        roots: List[Entry],
        stats: SearchStats,
    ) -> bool:
        """Exact membership probe for one undecided object.

        Counts dataset objects strictly more similar to ``o`` than the
        query is, descending the tree with bound pruning and stopping as
        soon as ``k`` are found.  Subtrees whose MinST already exceeds the
        query similarity are counted wholesale unless they might contain
        ``o`` itself.
        """
        target_point = obj_entry.mbr.center()
        count = 0
        stack: List[Entry] = [e for e in roots if _key(e) != _key(obj_entry)]
        while stack and count < k:
            entry = stack.pop()
            if entry.is_object:
                if entry.ref == obj_entry.ref:
                    continue
                _, sim = bounds.st_bounds(obj_entry, entry)
                if sim > q_sim:
                    count += 1
                continue
            lo, hi = bounds.st_bounds(obj_entry, entry)
            if hi <= q_sim:
                continue
            if lo > q_sim and not entry.mbr.contains_point(target_point):
                # Every object here beats the query, and o is elsewhere.
                count += entry.count
                continue
            stats.verify_node_reads += 1
            stack.extend(self.tree.children(entry, tag="verify"))
        return count <= k - 1

    def _collect(self, entry: Entry) -> List[int]:
        """Enumerate the object ids beneath an accepted entry."""
        if entry.is_object:
            return [entry.ref]
        out: List[int] = []
        stack = [entry]
        while stack:
            e = stack.pop()
            if e.is_object:
                out.append(e.ref)
            else:
                stack.extend(self.tree.children(e, tag="collect"))
        return out


def _key(entry: Entry) -> SourceKey:
    return (entry.ref, entry.is_object)
