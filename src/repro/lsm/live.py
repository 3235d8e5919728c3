"""LSM-style live updates: a delta overlay + tombstones over a frozen tree.

Every structural write to a plain :class:`~repro.index.iurtree.IURTree`
bumps its generation and invalidates the whole frozen stack — snapshot,
text matrix, kNNL sketch, shm segments — so a write-heavy tenant never
keeps a warm snapshot.  :class:`LiveIndex` is the standard LSM answer:

* **inserts** land in a small in-memory :class:`DeltaOverlay` IUR-tree;
* **deletes** of frozen objects become :class:`Tombstones` that mask the
  frozen entries (the frozen structure is never touched);
* **queries** see the *union* of both sources through an
  :class:`EpochView` that implements the tree traversal protocol; while
  writes are pending, :meth:`EpochView.snapshot` derives one columnar
  union snapshot per write generation from the frozen tree's snapshot
  (:meth:`~repro.perf.snapshot.IndexSnapshot.union`), so every reader
  runs the snapshot engine whatever the overlay holds; and
* a **freezer** (:meth:`LiveIndex.freeze_step`, or the background thread
  started by :meth:`LiveIndex.start_freezer`) folds the overlay into a
  freshly built frozen generation and atomically swaps in a new view;
  readers holding the old view finish on it, and nothing needs retiring.

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

The union snapshot carries those very entries without re-freezing the
view: it copies the frozen snapshot's slots unchanged, patches ``cnt``
along every tombstoned path (dead objects and dead subtrees stay in
place at ``cnt == 0``, and every walk skips them), and appends the
overlay subtree as suffix slots.  Each node keeps its children in the
order :meth:`EpochView.children` serves them, so over one view the
snapshot walk and the seed walk take the same decisions and charge the
same pages (overlay nodes carry record id ``-1`` and charge none).  A
frozen slot names the same node in every write generation of a fold,
so a union's engines reuse the frozen snapshot's pair memo for pairs
of frozen slots (``docs/UPDATES.md`` gives the soundness argument).

Frozen-side *floors* (the approx sketch tier, shard admission
summaries) are fold-time artifacts and are **not** re-derived per
write: while the overlay is dirty an ``approx`` searcher resolves to
the snapshot engine (see ``RSTkNNSearcher._resolve_engine``), and
:class:`~repro.lsm.scatter.LiveScatterGather` skips shard admission.
After a fold the view is clean again and both re-apply.

See ``docs/UPDATES.md`` for the end-to-end lifecycle.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterator, List, Optional, Set

from ..errors import ConfigError, DatasetError, IndexError_
from ..index.entry import Entry
from ..index.rtree import RTree
from ..model.objects import STObject
from ..obs.metrics import registry_or_null
from ..perf.snapshot import IndexSnapshot
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
        #: Tombstoned tree objects -> the frozen leaf holding each, so
        #: the union snapshot finds their slots without an oid index.
        self.leaves: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def __contains__(self, oid: int) -> bool:
        return oid in self.oids

    def add(self, oid: int, label: int, path: List[int]) -> None:
        """Mask ``oid`` (cluster ``label``) along its frozen path."""
        self.oids.add(oid)
        self.leaves[oid] = path[-1]
        for node_id in path:
            per_cluster = self.node_decrements.setdefault(node_id, {})
            per_cluster[label] = per_cluster.get(label, 0) + 1

    def add_outlier(self, oid: int) -> None:
        """Mask a frozen outlier (side list — no tree path to adjust)."""
        self.oids.add(oid)


class EpochView:
    """One immutable epoch: frozen tree + overlay + tombstones.

    Implements the tree traversal protocol (``root_entry`` /
    ``outlier_entries`` / ``children`` / ``object`` / ``num_clusters``
    / ``snapshot`` / ...) so every walk — and every
    consumer that duck-types a tree — runs over the union of both
    sources.  Readers obtain a view via :meth:`LiveIndex.pin`.
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
        #: The owner's write generation when this view last changed; a
        #: fold's swap leaves a swapped-out view's generation as it was.
        self.generation = owner.generation
        #: The last union snapshot a dirty read froze (``None`` until
        #: one asks); stale once :attr:`generation` moves past it.
        self._union: Optional[IndexSnapshot] = None

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
    def disk(self):
        """The frozen tree's simulated disk (shm page tables read it)."""
        return self.frozen.disk

    @property
    def kind(self) -> str:
        """The frozen tree's kind tag (``"iur"`` / ``"ciur"``)."""
        return self.frozen.kind

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
        return self._masked(self.frozen.children(entry, tag))

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

    def snapshot(self) -> IndexSnapshot:
        """The frozen tree's snapshot while clean; while dirty, the union
        snapshot derived from it, memoized until the next write.

        The union is built under the owner's view lock (see
        :class:`LiveIndex`), so it never sees half a write nor waits for
        a fold's rebuild; it costs O(pending writes) plus one C-level
        copy of the frozen columns.  The frozen snapshot is taken first,
        outside the lock: the frozen tree never changes.  The read that
        replaces a stale union releases it after letting go of the lock,
        so no write pays for freeing its pair memo.
        """
        base = self.frozen.snapshot()
        owner = self._owner
        stale = None
        with owner._view_lock:
            if not self.overlay_dirty:
                return base
            union = self._union
            if union is None or not union.is_current(self.generation):
                stale, union = union, IndexSnapshot.union(base, self)
                self._union = union
                if owner._view is not self:
                    # A fold swapped this view out and released its
                    # union; a late reader's union memoizes nothing.
                    union.release()
        if stale is not None:
            stale.release()
        return union

    def reset_io(self, cold: bool = True) -> None:
        """Zero the frozen tree's I/O counters."""
        self.frozen.reset_io(cold)

    # -- internal ------------------------------------------------------

    def _masked(self, children: List[Entry]) -> List[Entry]:
        """Frozen children minus tombstoned objects and dead subtrees."""
        dead = self.tombstones.oids
        out: List[Entry] = []
        for child in children:
            if child.is_object:
                if child.ref not in dead:
                    out.append(child)
            else:
                adjusted = self._adjusted(child)
                if adjusted is not None:
                    out.append(adjusted)
        return out

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


class LiveIndex:
    """A frozen (C)IUR-tree behind an LSM-style live-update front.

    Wrap any built tree::

        live = LiveIndex(IURTree.build(dataset))
        obj = live.insert(Point(1.0, 2.0), "coffee wifi")
        live.delete_object(victim_oid)
        searcher = RSTkNNSearcher(live)       # union snapshot while dirty
        live.freeze_step()                    # fold -> frozen snapshot

    Concurrency model: **one writer** (inserts/deletes, possibly the
    application thread) plus the **background freezer** plus any number
    of **readers**.  Writers and the freezer serialize on the writer
    lock (a writer blocks for the duration of a fold, which is the LSM
    trade).  Readers never take it: a union build takes only the view
    lock, which each write holds around its view mutation and
    generation bump and a fold only around its swap, so queries stay
    off the fold path; a write arriving during a union build (O(pending
    writes) plus a column copy) waits it out.
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
        self._view_lock = threading.Lock()  # view mutations, swaps, unions
        self.generation = getattr(tree, "generation", 0)
        self.epoch = 0
        self._view = EpochView(self, tree)
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
    def disk(self):
        """The current epoch's simulated disk."""
        return self._view.disk

    @property
    def kind(self) -> str:
        """The frozen tree's kind tag."""
        return self._view.kind

    @property
    def frozen_tree(self):
        """The current epoch's frozen tree."""
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

    def snapshot(self) -> IndexSnapshot:
        """The current view's snapshot (the union one while dirty)."""
        return self._view.snapshot()

    def reset_io(self, cold: bool = True) -> None:
        """Zero the current epoch's I/O counters."""
        self._view.reset_io(cold)

    # -- reads ---------------------------------------------------------

    @contextlib.contextmanager
    def pin(self) -> Iterator[EpochView]:
        """Yield the current epoch's view for one read.

        A fold swaps in a new view and leaves this one as it was, and
        the snapshot walk reads the union snapshot it took whole under
        the view lock, so a reader sees one state for its whole walk.
        Reads of a dirty view count as ``lsm.reads.merged``.  The
        yielded view has no ``pin`` of its own, so searchers recurse
        through it exactly once.
        """
        view = self._view
        if view.overlay_dirty:
            self._ctr_merged.inc()
        yield view

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
            with self._view_lock:
                view.overlay.insert(obj, label)
                self._written(view)
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
            with self._view_lock:
                if oid in view.overlay:
                    if not view.overlay.delete(obj):  # pragma: no cover
                        return False
                elif any(o.oid == oid for o in view.frozen.outliers):
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
                self._written(view)
            self._publish_sizes(view)
            return True

    # -- freezing ------------------------------------------------------

    def freeze_step(self) -> bool:
        """Fold the overlay into a fresh frozen generation and swap.

        Deterministic single-step freezer for tests and explicit control
        (the background thread calls the same method).  Builds a brand
        new tree over the current logical dataset — the parity anchor:
        post-fold trees *are* freshly built — warms it, freezes its
        snapshot, then atomically swaps the epoch.  Readers holding the
        old view finish on it.

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
                # Freeze here, off the read path: the first read after
                # the swap would otherwise pay the full O(n) freeze.
                rebuilt.snapshot()
                check_freeze(current_plan())
            except Exception:
                self._ctr_failures.inc()
                raise
            with self._view_lock:
                self.epoch += 1
                self.generation += 1
                new_view = self._view = EpochView(self, rebuilt)
            # Pinned readers keep the engines they hold; releasing both
            # snapshots breaks the tree -> snapshot -> engine -> tree
            # cycle, so the old generation and its memos go by refcount.
            if view._union is not None:
                view._union.release()
            if frozen._snapshot_cache is not None:
                frozen._snapshot_cache.release()
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
        """Stop the background freezer (the index stays usable)."""
        self.stop_freezer()

    def pending(self) -> int:
        """Overlay objects + tombstones awaiting the next fold."""
        view = self._view
        return len(view.overlay) + len(view.tombstones)

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

    def _written(self, view: EpochView) -> None:
        # Caller holds _view_lock: one write changed ``view``.
        self.generation += 1
        view.generation = self.generation

    def _publish_sizes(self, view: EpochView) -> None:
        self._gauge_overlay.set(float(len(view.overlay)))
        self._gauge_tombstones.set(float(len(view.tombstones)))
