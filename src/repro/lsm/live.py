"""LSM-style live updates: a delta overlay + tombstones over a frozen tree.

Every structural write to a plain :class:`~repro.index.iurtree.IURTree`
bumps its generation and invalidates the whole frozen stack — snapshot,
text matrix, kNNL sketch, shm segments — so a write-heavy tenant never
keeps a warm snapshot.  :class:`LiveIndex` is the standard LSM answer:

* **inserts** land in a small in-memory :class:`DeltaOverlay` IUR-tree;
* **deletes** of frozen objects become :class:`Tombstones` that mask the
  frozen entries (the frozen structure is never touched);
* **queries** run the unmodified branch-and-bound walk over the *union*
  of both sources through an :class:`EpochView` that implements the tree
  traversal protocol; and
* a **freezer** (:meth:`LiveIndex.freeze_step`, or the background thread
  started by :meth:`LiveIndex.start_freezer`) folds the overlay into a
  freshly built frozen generation and atomically swaps it behind a
  read-side epoch pin, retiring the old generation's shm segments only
  once the last pinned reader drains.

Why pruning stays sound against the union
-----------------------------------------

The searcher's group bounds (``kNNL``/``kNNU``) combine two ingredients
per live entry: similarity *bounds* (from MBRs and interval vectors) and
object *counts*.  Bounds may be loose in either direction without
breaking correctness — but counts must be **exact**: an overstated count
inflates ``kNNL`` (wrongful prunes, missing results), an understated
count deflates ``kNNU`` (wrongful accepts, false positives).  The view
therefore

* serves frozen directory entries with their per-cluster ``doc_count``
  *exactly decremented* along every tombstoned object's root-to-leaf
  path (:func:`adjust_entry`) while keeping the frozen MBR and interval
  vectors — those only summarize a superset, which keeps the similarity
  bounds loose-but-sound;
* drops tombstoned object entries at the leaf level and fully-dead
  subtrees outright; and
* exposes the overlay as one extra pre-expanded root entry whose
  summaries are built from the live overlay R-tree, so overlay objects
  participate in every contribution list with exact counts.

Frozen-side *floors* (the approx sketch tier, shard admission
summaries) are derived from the pre-write snapshot and are **not**
re-derived per write; while the overlay is dirty the searcher resolves
to the seed walk (see ``RSTkNNSearcher._resolve_engine``), which uses
none of them.  After a freeze the view is clean again and the frozen
fast paths (snapshot / approx / shm) all re-apply.

See ``docs/UPDATES.md`` for the end-to-end lifecycle.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import (
    ConfigError,
    DatasetError,
    IndexError_,
    OverlayPendingError,
)
from ..index.entry import Entry
from ..index.rtree import RTree
from ..model.objects import STObject
from ..obs.metrics import registry_or_null
from ..service.faults import check_freeze, current_plan
from ..text import IntervalVector

#: Overlay directory refs are remapped into this range so they can never
#: collide with frozen node ids or object ids — the searcher keys live
#: entries by ``(ref, is_object)``, so both sources must stay disjoint.
OVERLAY_REF_BASE = 1 << 40

#: Buckets for the ``lsm.freeze.seconds`` histogram: freezes run
#: 0.07-0.09 s at n=400 and superlinearly above, so the range spans
#: milliseconds (tests) to tens of seconds (n=10^6 folds).
FREEZE_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Default overlay size (objects + tombstones) at which the background
#: freezer folds; explicit :meth:`LiveIndex.freeze_step` ignores it.
DEFAULT_FREEZE_THRESHOLD = 256


def adjust_entry(entry: Entry, decrements: Dict[int, int]) -> Optional[Entry]:
    """A frozen directory entry with tombstoned doc counts removed.

    ``decrements`` maps cluster id to the number of tombstoned objects
    under this node with that label.  The MBR and interval vectors are
    kept as-is (they summarize a superset — loose but sound); only the
    per-cluster ``doc_count`` values change, which is exactly what the
    searcher's group-bound counts consume.  Returns ``None`` when every
    object beneath the entry is tombstoned (the subtree is dead).
    """
    if not decrements:
        return entry
    clusters: Dict[int, IntervalVector] = {}
    for cid, iv in entry.clusters.items():
        removed = decrements.get(cid, 0)
        remaining = iv.doc_count - removed
        if remaining < 0:  # pragma: no cover - defensive
            raise IndexError_(
                f"node {entry.ref} cluster {cid}: {removed} tombstones "
                f"exceed doc_count {iv.doc_count}"
            )
        if remaining > 0:
            clusters[cid] = (
                IntervalVector(iv.intersection, iv.union, remaining)
                if removed
                else iv
            )
    if not clusters:
        return None
    return Entry(
        ref=entry.ref, mbr=entry.mbr, is_object=False, clusters=clusters
    )


def frozen_path(rtree: RTree, oid: int, location) -> Optional[List[int]]:
    """Node ids from the root to the leaf holding ``oid``, else ``None``.

    Mirrors ``RTree._find_leaf``'s descent (``contains_rect``) but keeps
    the whole path — tombstoning decrements every node on it.
    """
    if rtree.root_id is None:
        return None
    path: List[int] = []

    def descend(node) -> bool:
        path.append(node.node_id)
        if node.is_leaf:
            if any(e.ref == oid for e in node.entries):
                return True
            path.pop()
            return False
        for entry in node.entries:
            if entry.mbr.contains_rect(location):
                if descend(rtree.node(entry.ref)):
                    return True
        path.pop()
        return False

    return path if descend(rtree.root) else None


class DeltaOverlay:
    """Small in-memory mutable IUR-tree absorbing inserts.

    Structurally a plain :class:`~repro.index.rtree.RTree` of object
    entries; it is never persisted (no page I/O is charged for overlay
    node visits — the overlay is bounded by the freeze threshold and
    lives in memory by design).  Directory refs are remapped by
    :data:`OVERLAY_REF_BASE` on the way out so frozen and overlay entry
    keys stay disjoint in one search.
    """

    def __init__(self, max_entries: int, min_entries: int) -> None:
        self._rtree = RTree(max_entries, min_entries)
        self._labels: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, oid: int) -> bool:
        return oid in self._labels

    def oids(self) -> List[int]:
        """Object ids currently absorbed by the overlay."""
        return sorted(self._labels)

    def max_label(self) -> int:
        """Largest cluster label present (``-1`` when empty)."""
        return max(self._labels.values(), default=-1)

    def insert(self, obj: STObject, label: int) -> None:
        """Absorb a new dataset object under cluster ``label``."""
        self._labels[obj.oid] = label
        self._rtree.insert(
            Entry.for_object(obj.oid, obj.mbr(), obj.vector, label)
        )

    def delete(self, obj: STObject) -> bool:
        """Remove an overlay-resident object (no tombstone needed)."""
        if obj.oid not in self._labels:
            return False
        removed = self._rtree.delete(obj.oid, obj.mbr())
        if removed:
            del self._labels[obj.oid]
        return removed

    def root_entry(self) -> Optional[Entry]:
        """Directory entry covering the whole overlay (ref remapped)."""
        if self._rtree.root_id is None:
            return None
        root = self._rtree.root
        base = Entry.for_subtree(root.node_id, root.mbr(), root.entries)
        return Entry(
            ref=OVERLAY_REF_BASE + base.ref,
            mbr=base.mbr,
            is_object=False,
            clusters=base.clusters,
        )

    def children(self, ref: int) -> List[Entry]:
        """Children of a remapped overlay directory entry."""
        node = self._rtree.node(ref - OVERLAY_REF_BASE)
        out: List[Entry] = []
        for entry in node.entries:
            if entry.is_object:
                out.append(entry)
            else:
                out.append(
                    Entry(
                        ref=OVERLAY_REF_BASE + entry.ref,
                        mbr=entry.mbr,
                        is_object=False,
                        clusters=entry.clusters,
                    )
                )
        return out


class Tombstones:
    """Deleted frozen oids plus exact per-node per-cluster decrements.

    Each tombstone records the deleted object's root-to-leaf path at
    delete time; serving a frozen directory entry subtracts the node's
    accumulated decrements (:func:`adjust_entry`), which keeps every
    group-bound count exact without touching the frozen structure.
    """

    def __init__(self) -> None:
        self.oids: Set[int] = set()
        self.node_decrements: Dict[int, Dict[int, int]] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def __contains__(self, oid: int) -> bool:
        return oid in self.oids

    def add(self, oid: int, label: int, path: List[int]) -> None:
        """Mask ``oid`` (cluster ``label``) along its frozen path."""
        self.oids.add(oid)
        for node_id in path:
            per_cluster = self.node_decrements.setdefault(node_id, {})
            per_cluster[label] = per_cluster.get(label, 0) + 1

    def add_outlier(self, oid: int) -> None:
        """Mask a frozen outlier (side list — no tree path to adjust)."""
        self.oids.add(oid)


class EpochView:
    """One immutable epoch: frozen tree + overlay + tombstones.

    Implements the tree traversal protocol (``root_entry`` /
    ``outlier_entries`` / ``children`` / ``object`` / ``num_clusters`` /
    ``snapshot`` / ...) so the unmodified seed walk — and every consumer
    that duck-types a tree — runs over the union of both sources.
    Readers obtain a view via :meth:`LiveIndex.pin`, which keeps the
    freezer from retiring the epoch (and its shm segments) mid-walk.
    """

    def __init__(self, owner: "LiveIndex", frozen) -> None:
        self._owner = owner
        self.frozen = frozen
        self.overlay = DeltaOverlay(
            frozen.config.max_entries, frozen.config.min_entries
        )
        self.tombstones = Tombstones()
        #: Memoized tombstone-adjusted directory entries, keyed by frozen
        #: node id; cleared by every delete (decrements change).
        self._adjust_memo: Dict[int, Optional[Entry]] = {}
        self._pins = 0
        self._segments: Dict[Tuple[str, float], object] = {}

    # -- traversal protocol (delegating reads) -------------------------

    @property
    def dataset(self):
        """The live dataset shared with the owning :class:`LiveIndex`."""
        return self._owner.dataset

    @property
    def config(self):
        """The frozen tree's :class:`~repro.config.IndexConfig`."""
        return self.frozen.config

    @property
    def io(self):
        """Frozen-side I/O counters (overlay visits charge nothing)."""
        return self.frozen.io

    @property
    def buffer(self):
        """The frozen tree's buffer pool."""
        return self.frozen.buffer

    @property
    def kind(self) -> str:
        """The frozen tree's kind tag (``"iur"`` / ``"ciur"``)."""
        return self.frozen.kind

    @property
    def generation(self) -> int:
        """The owner's write generation (bumped by every write)."""
        return self._owner.generation

    @property
    def overlay_dirty(self) -> bool:
        """True while any overlay object or tombstone is pending."""
        return bool(self.overlay._labels) or bool(self.tombstones.oids)

    def root_entry(self) -> Optional[Entry]:
        """The frozen root entry with tombstoned counts removed."""
        base = self.frozen.root_entry()
        if base is None:
            return None
        return self._adjusted(base)

    def outlier_entries(self) -> List[Entry]:
        """Unmasked frozen outliers plus the overlay root entry.

        The overlay root rides along here because the searcher seeds its
        live set from ``root_entry() + outlier_entries()`` and handles
        directory entries anywhere in that set.
        """
        dead = self.tombstones.oids
        out = [
            e for e in self.frozen.outlier_entries() if e.ref not in dead
        ]
        overlay_root = self.overlay.root_entry()
        if overlay_root is not None:
            out.append(overlay_root)
        return out

    def children(self, entry: Entry, tag: str = "node") -> List[Entry]:
        """Expand either source; frozen children are tombstone-masked."""
        if entry.is_object:
            raise IndexError_(f"cannot expand object entry {entry.ref}")
        if entry.ref >= OVERLAY_REF_BASE:
            return self.overlay.children(entry.ref)
        dead = self.tombstones.oids
        out: List[Entry] = []
        for child in self.frozen.children(entry, tag):
            if child.is_object:
                if child.ref not in dead:
                    out.append(child)
            else:
                adjusted = self._adjusted(child)
                if adjusted is not None:
                    out.append(adjusted)
        return out

    def object(self, oid: int) -> STObject:
        """Fetch the concrete object from the shared dataset."""
        return self.dataset.get(oid)

    def num_clusters(self) -> int:
        """Cluster count across both sources."""
        return max(self.frozen.num_clusters(), self.overlay.max_label() + 1)

    def warm_kernels(self) -> int:
        """Pre-freeze kernel forms on both sources; returns the count."""
        frozen = self.frozen.warm_kernels()
        for oid in self.overlay.oids():
            self.dataset.get(oid).vector.frozen()
            frozen += 1
        return frozen

    def snapshot(self):
        """The frozen snapshot — only legal while the view is clean.

        Raises :class:`~repro.errors.OverlayPendingError` while overlay
        objects or tombstones are pending: the columnar snapshot cannot
        represent the union, and silently serving the stale frozen one
        would drop live writes.  ``QueryService`` catches this and
        degrades the snapshot hop to the merged seed walk.
        """
        if self.overlay_dirty:
            raise OverlayPendingError(
                f"live overlay has {len(self.overlay)} objects and "
                f"{len(self.tombstones)} tombstones pending; run "
                "freeze_step() (or let the background freezer fold) "
                "before taking a frozen snapshot"
            )
        return self.frozen.snapshot()

    def reset_io(self, cold: bool = True) -> None:
        """Zero the frozen tree's I/O counters."""
        self.frozen.reset_io(cold)

    # -- internal ------------------------------------------------------

    def _adjusted(self, entry: Entry) -> Optional[Entry]:
        decrements = self.tombstones.node_decrements.get(entry.ref)
        if not decrements:
            return entry
        memo = self._adjust_memo
        if entry.ref in memo:
            return memo[entry.ref]
        adjusted = adjust_entry(entry, decrements)
        memo[entry.ref] = adjusted
        return adjusted

    def _release_segments(self) -> None:
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            segment.release()


class LiveIndex:
    """A frozen (C)IUR-tree behind an LSM-style live-update front.

    Wrap any built tree::

        live = LiveIndex(IURTree.build(dataset))
        obj = live.insert(Point(1.0, 2.0), "coffee wifi")
        live.delete_object(victim_oid)
        searcher = RSTkNNSearcher(live)       # merged walk while dirty
        live.freeze_step()                    # fold -> clean fast paths

    Concurrency model: **one writer** (inserts/deletes, possibly the
    application thread) plus the **background freezer** plus any number
    of **readers**.  Readers never take the writer lock — :meth:`pin`
    touches only a small pin lock, so queries stay off the freeze path;
    writers and the freezer serialize on the writer lock (a writer
    blocks for the duration of a fold, which is the LSM trade).
    Concurrent writers, or a reader mutating the dataset mid-walk, are
    not supported — the same contract as the underlying tree.
    """

    #: Duck-typing marker consumed by the serving layers.
    is_live = True

    def __init__(
        self,
        tree,
        *,
        metrics=None,
        freeze_threshold: int = DEFAULT_FREEZE_THRESHOLD,
        build_method: str = "str",
    ) -> None:
        """``tree`` is a built :class:`~repro.index.iurtree.IURTree` (or
        CIURTree); ``freeze_threshold`` is the overlay size (objects +
        tombstones) at which the background freezer folds;
        ``build_method`` is handed to ``type(tree).build`` on every
        fold.  ``metrics`` attaches the ``lsm.*`` instruments (see
        ``docs/OBSERVABILITY.md``)."""
        if getattr(tree, "is_live", False):
            raise ConfigError("tree is already a LiveIndex")
        if freeze_threshold < 1:
            raise ConfigError(
                f"freeze_threshold must be >= 1, got {freeze_threshold}"
            )
        self.dataset = tree.dataset
        self.freeze_threshold = int(freeze_threshold)
        self._build_method = build_method
        self._lock = threading.RLock()  # writers + freezer
        self._pin_lock = threading.Lock()  # readers (epoch pin/retire)
        self.generation = getattr(tree, "generation", 0)
        self.epoch = 0
        self._view = EpochView(self, tree)
        self._retired: List[EpochView] = []
        self._freezer: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.metrics = registry_or_null(metrics)
        self._gauge_overlay = self.metrics.gauge("lsm.overlay.objects")
        self._gauge_tombstones = self.metrics.gauge("lsm.tombstones")
        self._hist_freeze = self.metrics.histogram(
            "lsm.freeze.seconds", FREEZE_BUCKETS
        )
        self._ctr_swaps = self.metrics.counter("lsm.swaps")
        self._ctr_failures = self.metrics.counter("lsm.freeze.failures")
        self._ctr_merged = self.metrics.counter("lsm.reads.merged")

    # -- traversal protocol (delegated to the current epoch) -----------

    @property
    def config(self):
        """The frozen tree's :class:`~repro.config.IndexConfig`."""
        return self._view.config

    @property
    def io(self):
        """Frozen-side I/O counters of the current epoch."""
        return self._view.io

    @property
    def buffer(self):
        """The current epoch's buffer pool."""
        return self._view.buffer

    @property
    def kind(self) -> str:
        """The frozen tree's kind tag."""
        return self._view.kind

    @property
    def frozen_tree(self):
        """The current epoch's frozen tree (shm/pickle transports)."""
        return self._view.frozen

    @property
    def overlay_dirty(self) -> bool:
        """True while overlay objects or tombstones are pending."""
        return self._view.overlay_dirty

    def root_entry(self) -> Optional[Entry]:
        """Current epoch's (tombstone-adjusted) root entry."""
        return self._view.root_entry()

    def outlier_entries(self) -> List[Entry]:
        """Current epoch's outliers + overlay root."""
        return self._view.outlier_entries()

    def children(self, entry: Entry, tag: str = "node") -> List[Entry]:
        """Expand through the current epoch."""
        return self._view.children(entry, tag)

    def object(self, oid: int) -> STObject:
        """Fetch the concrete object."""
        return self.dataset.get(oid)

    def num_clusters(self) -> int:
        """Cluster count across both sources of the current epoch."""
        return self._view.num_clusters()

    def warm_kernels(self) -> int:
        """Warm both sources of the current epoch."""
        return self._view.warm_kernels()

    def snapshot(self):
        """Frozen snapshot of the current epoch (clean epochs only)."""
        return self._view.snapshot()

    def reset_io(self, cold: bool = True) -> None:
        """Zero the current epoch's I/O counters."""
        self._view.reset_io(cold)

    # -- reads ---------------------------------------------------------

    @contextlib.contextmanager
    def pin(self) -> Iterator[EpochView]:
        """Pin the current epoch for one read and yield its view.

        While pinned, :meth:`freeze_step` may swap in a new epoch but
        will not retire this one (its shm segments stay mapped); the
        last unpin releases retired epochs.  The yielded view has no
        ``pin`` of its own, so searchers recurse through it exactly
        once.
        """
        with self._pin_lock:
            view = self._view
            view._pins += 1
            if view.overlay_dirty:
                self._ctr_merged.inc()
        try:
            yield view
        finally:
            with self._pin_lock:
                view._pins -= 1
                self._drain_retired()

    # -- writes --------------------------------------------------------

    def insert(self, point, text: str) -> STObject:
        """Append a new record to the dataset and absorb it; returns it."""
        with self._lock:
            obj = self.dataset.append_record(point, text)
            self.insert_object(obj)
            return obj

    def insert_object(self, obj: STObject) -> None:
        """Absorb a dataset object into the overlay (no re-freeze).

        The object must already be part of :attr:`dataset` (use
        :meth:`insert` or ``STDataset.append_record``).  Its cluster
        label comes from the frozen tree's assignment
        (``IURTree.assign_cluster``); outlier extraction is deferred to
        the next fold — the overlay is bounded by the freeze threshold,
        so holding a few low-cohesion objects in-tree is harmless.
        """
        with self._lock:
            if self.dataset.get(obj.oid) is not obj:
                raise IndexError_(
                    f"object {obj.oid} is not the dataset's instance; "
                    "append it to the dataset first"
                )
            view = self._view
            label, _ = view.frozen.assign_cluster(obj)
            view.overlay.insert(obj, label)
            self.generation += 1
            self._publish_sizes(view)

    def delete_object(self, oid: int) -> bool:
        """Delete from overlay or tombstone the frozen object.

        Overlay-resident objects are removed directly; frozen objects
        (tree or outlier side list) are masked by a tombstone whose
        root-to-leaf path decrements keep every group-bound count exact.
        Returns False when the object is unknown.
        """
        with self._lock:
            try:
                obj = self.dataset.get(oid)
            except DatasetError:
                return False
            view = self._view
            if oid in view.overlay:
                if not view.overlay.delete(obj):  # pragma: no cover
                    return False
                self.dataset.remove_object(oid)
                self.generation += 1
                self._publish_sizes(view)
                return True
            if any(o.oid == oid for o in view.frozen.outliers):
                view.tombstones.add_outlier(oid)
            else:
                path = frozen_path(view.frozen.rtree, oid, obj.mbr())
                if path is None:
                    return False
                view.tombstones.add(
                    oid, view.frozen.cluster_label(oid), path
                )
                view._adjust_memo.clear()
            self.dataset.remove_object(oid)
            self.generation += 1
            self._publish_sizes(view)
            return True

    # -- freezing ------------------------------------------------------

    def freeze_step(self) -> bool:
        """Fold the overlay into a fresh frozen generation and swap.

        Deterministic single-step freezer for tests and explicit control
        (the background thread calls the same method).  Builds a brand
        new tree over the current logical dataset — the parity anchor:
        post-fold trees *are* freshly built — warms it, then atomically
        swaps the epoch.  Readers pinned to the old epoch keep serving
        it; its shm segments are released when the last pin drains.

        The ``REPRO_FAULTS`` ``freeze_fail`` fault point sits after the
        rebuild and **before** any visible state change, so an injected
        mid-swap failure leaves the old generation serving (overlay,
        tombstones, and epoch untouched) and the fold retries later.
        Returns True when a swap happened, False when already clean.
        """
        with self._lock:
            view = self._view
            if not view.overlay_dirty:
                return False
            started = time.perf_counter()
            frozen = view.frozen
            try:
                rebuilt = type(frozen).build(
                    self.dataset, frozen.config, method=self._build_method
                )
                rebuilt.warm_kernels()
                check_freeze(current_plan())
            except Exception:
                self._ctr_failures.inc()
                raise
            new_view = EpochView(self, rebuilt)
            with self._pin_lock:
                self._view = new_view
                self.epoch += 1
                self.generation += 1
                self._retired.append(view)
                self._drain_retired()
            self._hist_freeze.observe(time.perf_counter() - started)
            self._ctr_swaps.inc()
            self._publish_sizes(new_view)
            return True

    def start_freezer(self, interval: float = 0.25) -> None:
        """Start the background freezer (daemon thread).

        Every ``interval`` seconds it folds iff the overlay size
        (objects + tombstones) has reached :attr:`freeze_threshold`.
        Injected freeze failures are counted (``lsm.freeze.failures``)
        and retried on the next tick; the old generation keeps serving
        throughout.  Idempotent.
        """
        with self._lock:
            if self._freezer is not None:
                return
            self._stop.clear()
            thread = threading.Thread(
                target=self._freeze_loop,
                args=(interval,),
                name="repro-lsm-freezer",
                daemon=True,
            )
            self._freezer = thread
            thread.start()

    def stop_freezer(self) -> None:
        """Stop the background freezer and join it. Idempotent."""
        thread = self._freezer
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._freezer = None

    def close(self) -> None:
        """Stop the freezer and release every epoch's shm segments."""
        self.stop_freezer()
        with self._pin_lock:
            retired, self._retired = self._retired, []
            current = self._view
        for view in retired:
            view._release_segments()
        current._release_segments()

    def pending(self) -> int:
        """Overlay objects + tombstones awaiting the next fold."""
        view = self._view
        return len(view.overlay) + len(view.tombstones)

    # -- transports ----------------------------------------------------

    def export_segment(self, config=None, te_weight: float = 0.05):
        """Epoch-owned shm segment over the frozen snapshot (memoized).

        Reused across batch runs of the same epoch and released by the
        refcounted epoch retirement instead of per-run — callers must
        *not* call ``release()`` themselves.  Raises
        :class:`~repro.errors.OverlayPendingError` while dirty.
        """
        with self._lock:
            view = self._view
            if view.overlay_dirty:
                raise OverlayPendingError(
                    "cannot export a shared segment while the overlay "
                    "is dirty; freeze first"
                )
            key = (repr(config), te_weight)
            segment = view._segments.get(key)
            if segment is None:
                from ..perf.shm import SharedSnapshotSegment

                segment = SharedSnapshotSegment.create(
                    view.frozen, config=config, te_weight=te_weight
                )
                view._segments[key] = segment
            return segment

    # -- internal ------------------------------------------------------

    def _freeze_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                if self.pending() >= self.freeze_threshold:
                    self.freeze_step()
            except Exception:
                # Counted via lsm.freeze.failures inside freeze_step;
                # the old generation keeps serving and the next tick
                # retries the fold.
                continue

    def _drain_retired(self) -> None:
        # Caller holds _pin_lock.
        keep: List[EpochView] = []
        for view in self._retired:
            if view._pins > 0:
                keep.append(view)
            else:
                view._release_segments()
        self._retired = keep

    def _publish_sizes(self, view: EpochView) -> None:
        self._gauge_overlay.set(float(len(view.overlay)))
        self._gauge_tombstones.set(float(len(view.tombstones)))
