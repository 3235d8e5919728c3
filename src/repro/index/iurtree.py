"""The IUR-tree: a disk-resident R-tree with intersection/union vectors.

The structural work (packing, splitting, summary propagation) lives in
:class:`~repro.index.rtree.RTree`; this layer adds

* construction from an :class:`~repro.model.dataset.STDataset` (STR bulk
  load by default, or incremental insertion);
* persistence of every node to the simulated disk, so node visits during
  search are charged honest page I/Os through an LRU buffer pool; and
* the entry-level traversal API the RSTkNN searcher consumes
  (:meth:`root_entry` / :meth:`children`).

A plain IUR-tree is the single-cluster special case of the clustered
machinery: every document gets cluster label 0.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import IndexConfig
from ..errors import DatasetError, IndexError_, QueryError
from ..model.dataset import STDataset
from ..model.objects import STObject
from ..storage import BufferPool, DiskManager, IOStats
from .entry import Entry
from .node import Node
from .rtree import RTree
from .stats import IndexStats


def _pack_preserving_order(entries: Sequence[Entry], max_entries: int,
                           min_entries: int) -> RTree:
    """Pack object entries into leaves in the given order, then build the
    directory levels spatially (STR) over the packed leaves.

    Used by the ``text-str`` construction: the caller has already ordered
    the entries so that consecutive runs are textually homogeneous.
    """
    tree = RTree(max_entries, min_entries)
    items = list(entries)
    if not items:
        return tree
    level_nodes = []
    for i in range(0, len(items), max_entries):
        node = tree._new_node(is_leaf=True)
        node.entries = items[i : i + max_entries]
        level_nodes.append(node)
    while len(level_nodes) > 1:
        parent_entries = [
            Entry.for_subtree(n.node_id, n.mbr(), n.entries) for n in level_nodes
        ]
        from .rtree import _str_pack

        groups = _str_pack(parent_entries, max_entries)
        next_level = []
        for group in groups:
            node = tree._new_node(is_leaf=False)
            node.entries = list(group)
            for child_entry in group:
                tree.node(child_entry.ref).parent_id = node.node_id
            next_level.append(node)
        level_nodes = next_level
    tree.root_id = level_nodes[0].node_id
    return tree


class IURTree:
    """Disk-resident IUR-tree over a dataset."""

    kind = "iur"

    def __init__(
        self,
        dataset: STDataset,
        config: IndexConfig,
        rtree: RTree,
        labels: Sequence[int],
        outliers: Sequence[STObject] = (),
        build_seconds: float = 0.0,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self._rtree = rtree
        initial_labels = list(labels)
        self._label_by_oid = {
            o.oid: initial_labels[i] for i, o in enumerate(dataset.objects)
        }
        self._outliers = list(outliers)
        self._build_seconds = build_seconds
        self.io = IOStats()
        self.disk = DiskManager(config.page_size, self.io)
        self.buffer = BufferPool(self.disk, config.buffer_pages)
        self._record_ids: Dict[int, int] = {}
        self._root_entry_cache: Optional[Entry] = None
        #: Structural version: bumped by every mutation that can change a
        #: stored summary (insert/delete, incl. the outlier side list).
        #: Generation-tagged consumers — the frozen
        #: :class:`~repro.perf.snapshot.IndexSnapshot` forms and the shm
        #: segments exported from them — use it to detect staleness
        #: without node-level dirty tracking.
        self.generation = 0
        self._snapshot_cache = None
        if not config.store_intersections:
            self._strip_intersections(self._rtree.nodes.keys())
        self._persist()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        dataset: STDataset,
        config: Optional[IndexConfig] = None,
        method: str = "str",
    ) -> "IURTree":
        """Build over every object with a single text cluster.

        Args:
            dataset: The corpus to index.
            config: Index knobs (fanout, page size, buffer pages).
            method: ``"str"`` for bulk loading, ``"insert"`` for
                one-by-one insertion (slower; exercises the split path).
        """
        cfg = config if config is not None else IndexConfig()
        labels = [0] * len(dataset)
        started = time.perf_counter()
        rtree = cls._build_structure(dataset.objects, labels, cfg, method)
        elapsed = time.perf_counter() - started
        return cls(dataset, cfg, rtree, labels, build_seconds=elapsed)

    @staticmethod
    def _build_structure(
        objects: Sequence[STObject],
        labels: Sequence[int],
        config: IndexConfig,
        method: str,
    ) -> RTree:
        entries = [
            Entry.for_object(o.oid, o.mbr(), o.vector, labels[i])
            for i, o in enumerate(objects)
        ]
        if method == "str":
            return RTree.bulk_load(entries, config.max_entries, config.min_entries)
        if method == "text-str":
            # DIR/CIR-style construction: co-locate textually similar
            # objects first (group by cluster label), then pack each
            # group spatially with STR.  Leaves become text-pure, which
            # tightens every per-cluster interval vector above them, at
            # the cost of spatially wider leaves.
            by_label: dict = {}
            for entry, label in zip(entries, labels):
                by_label.setdefault(label, []).append(entry)
            ordered: list = []
            for label in sorted(by_label):
                group = RTree.bulk_load(
                    by_label[label], config.max_entries, config.min_entries
                )
                # Harvest the packed leaves in STR order, so runs of
                # max_entries consecutive entries are both text-pure and
                # spatially compact.
                for node in group.nodes.values():
                    if node.is_leaf:
                        ordered.extend(node.entries)
            return _pack_preserving_order(
                ordered, config.max_entries, config.min_entries
            )
        if method == "insert":
            tree = RTree(config.max_entries, config.min_entries)
            for entry in entries:
                tree.insert(entry)
            return tree
        raise QueryError(f"unknown build method {method!r}")

    def _persist(self) -> None:
        """Write every node to the simulated disk, children first."""
        if self._rtree.root_id is None:
            return
        order: List[int] = []
        stack = [self._rtree.root_id]
        while stack:
            nid = stack.pop()
            order.append(nid)
            node = self._rtree.node(nid)
            if not node.is_leaf:
                stack.extend(e.ref for e in node.entries)
        for nid in reversed(order):  # children before parents
            node = self._rtree.node(nid)
            record_id = self.disk.allocate(node.encode())
            node.record_id = record_id
            self._record_ids[nid] = record_id
        self._rtree.dirty.clear()
        self._rtree.removed.clear()

    # ------------------------------------------------------------------
    # Traversal API (charges simulated I/O)
    # ------------------------------------------------------------------

    def root_entry(self) -> Optional[Entry]:
        """Synthesized entry covering the whole tree (no I/O).

        ``None`` when the tree proper is empty (possible when OE extracted
        every object).  The synthesized entry (an interval-vector merge
        over the root node) is cached until the next structural update —
        every query starts here, so batch workloads would otherwise
        re-merge identical summaries per query.
        """
        if self._rtree.root_id is None:
            return None
        cached = self._root_entry_cache
        if cached is not None and cached.ref == self._rtree.root_id:
            return cached
        root = self._rtree.root
        entry = Entry.for_subtree(root.node_id, root.mbr(), root.entries)
        self._root_entry_cache = entry
        return entry

    def outlier_entries(self) -> List[Entry]:
        """Extracted objects as exact, pre-expanded entries (no I/O).

        Outliers live outside the tree; the paper's OE variant scans them
        directly, so handing them to the searcher costs no node I/O.
        """
        return [
            Entry.for_object(o.oid, o.mbr(), o.vector, self._label_by_oid[o.oid])
            for o in self._outliers
        ]

    def children(self, entry: Entry, tag: str = "node") -> List[Entry]:
        """Expand a directory entry, charging the child node's page span."""
        if entry.is_object:
            raise IndexError_(f"cannot expand object entry {entry.ref}")
        record_id = self._record_ids.get(entry.ref)
        if record_id is None:
            raise IndexError_(f"node {entry.ref} was never persisted")
        self.buffer.get(record_id, tag)
        return list(self._rtree.node(entry.ref).entries)

    def peek_children(self, entry: Entry) -> Tuple[int, List[Entry]]:
        """``(record id, children)`` of a directory entry, charging no I/O.

        The snapshot freeze reads the structure through this accessor,
        so the slots it lays out are the entries :meth:`children` hands
        the seed walk, and the record id is the page it would charge
        (an unpersisted node raises, as it does there).
        """
        record_id = self._record_ids.get(entry.ref)
        if record_id is None:
            raise IndexError_(f"node {entry.ref} was never persisted")
        return record_id, self._rtree.node(entry.ref).entries

    def object(self, oid: int) -> STObject:
        """Fetch the concrete object (its I/O was paid by the leaf read)."""
        return self.dataset.get(oid)

    # ------------------------------------------------------------------
    # Dynamic maintenance
    # ------------------------------------------------------------------

    def insert_object(self, obj: STObject) -> None:
        """Insert a (new) dataset object directly into this tree.

        The object must already be part of :attr:`dataset` (use
        :meth:`STDataset.append_record`).  Its text cluster is assigned
        by nearest centroid when the tree is clustered; when an OE
        threshold is configured and the object's cohesion falls below
        it, the object joins the outlier side list instead of the tree.
        Changed nodes are re-persisted immediately (update costs show up
        in the write counters, like the paper's update analysis).

        Note that only the *structural* write is incremental — the write
        bumps :attr:`generation`, which invalidates the derived frozen
        stack (memoized snapshot, text matrix, kNNL sketch), so the next
        ``snapshot()`` pays a full re-freeze.  Write-heavy workloads
        should wrap the tree in :class:`repro.lsm.LiveIndex` instead:
        writes then land in a delta overlay, queries merge both sources,
        and re-freezing happens off the query path (``freeze_step()`` or
        the background freezer — see ``docs/UPDATES.md``).
        """
        # Validate membership + id consistency.
        if self.dataset.get(obj.oid) is not obj:
            raise IndexError_(
                f"object {obj.oid} is not the dataset's instance; append it "
                "to the dataset first"
            )
        label, cohesion = self._assign_cluster(obj)
        self._label_by_oid[obj.oid] = label
        threshold = self.config.outlier_threshold
        if threshold is not None and cohesion < threshold:
            # Outlier appends bypass flush(); bump the generation here so
            # snapshot/cache consumers still observe the mutation.
            self._outliers.append(obj)
            self.generation += 1
            self._snapshot_cache = None
            return
        entry = Entry.for_object(obj.oid, obj.mbr(), obj.vector, label)
        self._rtree.insert(entry)
        self.flush()

    def delete_object(self, oid: int) -> bool:
        """Remove an object directly from this tree (and the dataset).

        Returns False when the object is unknown to the index.  Like
        :meth:`insert_object`, the structural delete is incremental but
        invalidates the whole derived frozen stack; under sustained
        mixed traffic prefer :class:`repro.lsm.LiveIndex`, which turns
        deletes into tombstones and defers the re-freeze to a fold.
        """
        for i, outlier in enumerate(self._outliers):
            if outlier.oid == oid:
                del self._outliers[i]
                self._label_by_oid.pop(oid, None)
                self.dataset.remove_object(oid)
                self.generation += 1
                self._snapshot_cache = None
                return True
        try:
            obj = self.dataset.get(oid)
        except DatasetError:
            # The oid is gone from the dataset; make sure no stale
            # cluster label survives it (a label without an object would
            # desynchronize the ``labels`` view from the dataset).
            self._label_by_oid.pop(oid, None)
            return False
        removed = self._rtree.delete(oid, obj.mbr())
        if not removed:
            return False
        self._label_by_oid.pop(oid, None)
        self.dataset.remove_object(oid)
        self.flush()
        return True

    def _strip_intersections(self, node_ids) -> None:
        """Degrade directory entries to IR-tree form (union weights only).

        Leaf object entries keep their exact vectors — an IR-tree also
        stores full documents at the leaf level; only pseudo-documents of
        directory nodes lose their minimum weights.
        """
        for nid in list(node_ids):
            node = self._rtree.nodes.get(nid)
            if node is None or node.is_leaf:
                continue
            node.entries = [e.without_intersections() for e in node.entries]

    def flush(self) -> None:
        """Re-persist nodes changed by updates; free removed records."""
        self._root_entry_cache = None
        self.generation += 1
        self._snapshot_cache = None
        rtree = self._rtree
        if not self.config.store_intersections:
            self._strip_intersections(rtree.dirty)
        for nid in sorted(rtree.removed):
            record_id = self._record_ids.pop(nid, None)
            if record_id is not None:
                if self.buffer.contains(record_id):
                    self.buffer.invalidate(record_id)
                self.disk.free(record_id)
        rtree.removed.clear()
        for nid in sorted(rtree.dirty):
            node = rtree.nodes.get(nid)
            if node is None:
                continue
            data = node.encode()
            record_id = self._record_ids.get(nid)
            if record_id is None:
                record_id = self.disk.allocate(data)
                node.record_id = record_id
                self._record_ids[nid] = record_id
            else:
                if self.buffer.contains(record_id):
                    self.buffer.invalidate(record_id)
                self.disk.rewrite(record_id, data)
        rtree.dirty.clear()

    def assign_cluster(self, obj: STObject) -> tuple:
        """``(label, cohesion)`` this tree would give a new document.

        Public so the live-update overlay (:mod:`repro.lsm`) can label
        overlay inserts consistently with the frozen clustering; plain
        IUR-trees always answer ``(0, 1.0)``-ish (single cluster).
        """
        return self._assign_cluster(obj)

    def cluster_label(self, oid: int) -> int:
        """The stored cluster label of an indexed object."""
        try:
            return self._label_by_oid[oid]
        except KeyError:
            raise IndexError_(f"object {oid} is not indexed") from None

    def _assign_cluster(self, obj: STObject) -> tuple:
        """(label, cohesion) for a new document."""
        clustering = getattr(self, "clustering", None)
        if clustering is None or not clustering.centroids:
            return 0, 1.0
        unit = obj.vector.normalized()
        best_label, best_sim = 0, -1.0
        for label, centroid in enumerate(clustering.centroids):
            sim = unit.dot(centroid)
            if sim > best_sim:
                best_sim = sim
                best_label = label
        if not unit:
            return best_label, 1.0
        return best_label, best_sim

    def warm_kernels(self) -> int:
        """Pre-build frozen kernel forms for every stored summary vector.

        Freezing normally happens lazily on first use; warming at index
        time moves that cost out of the first queries (batch engines and
        benchmarks call this so measured queries run fully warm).
        Returns the number of vectors frozen.
        """
        frozen = 0
        for node in self._rtree.nodes.values():
            for entry in node.entries:
                for iv in entry.clusters.values():
                    iv.intersection.frozen()
                    iv.union.frozen()
                    frozen += 2
        root = self.root_entry()
        if root is not None:
            for iv in root.clusters.values():
                iv.intersection.frozen()
                iv.union.frozen()
                frozen += 2
        for obj in self._outliers:
            obj.vector.frozen()
            frozen += 1
        return frozen

    def snapshot(self):
        """The columnar :class:`~repro.perf.snapshot.IndexSnapshot`.

        Frozen lazily from the current structure and memoized until the
        next mutation (the cache is keyed by :attr:`generation`); every
        searcher running ``engine="snapshot"`` against an unchanged tree
        shares one snapshot.
        """
        cached = self._snapshot_cache
        if cached is not None and cached.is_current(self.generation):
            return cached
        from ..perf.snapshot import IndexSnapshot

        snap = IndexSnapshot.from_tree(self)
        self._snapshot_cache = snap
        return snap

    def __getstate__(self) -> dict:
        # The snapshot is a derived per-process cache full of frozen
        # kernel forms (possibly numpy arrays); a pickled copy rebuilds
        # it on first use instead of carrying it.
        state = self.__dict__.copy()
        state["_snapshot_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------

    def reset_io(self, cold: bool = True) -> None:
        """Zero the I/O counters; ``cold=True`` also empties the buffer."""
        self.io.reset()
        if cold:
            self.buffer.clear()

    @property
    def rtree(self) -> RTree:
        """The underlying structural tree (tests and invariants)."""
        return self._rtree

    @property
    def outliers(self) -> List[STObject]:
        """Objects held outside the tree by OE extraction."""
        return list(self._outliers)

    @property
    def labels(self) -> List[int]:
        """Cluster label per object, aligned with ``dataset.objects``."""
        return [self._label_by_oid[o.oid] for o in self.dataset.objects]

    def num_clusters(self) -> int:
        """Number of text clusters the index was built with."""
        labels = self._label_by_oid.values()
        return max(labels, default=-1) + 1

    def stats(self) -> IndexStats:
        """Structural and footprint statistics snapshot."""
        nodes = len(self._rtree.nodes)
        leaves = sum(1 for n in self._rtree.nodes.values() if n.is_leaf)
        return IndexStats(
            kind=self.kind,
            objects=len(self.dataset),
            nodes=nodes,
            leaves=leaves,
            height=self._rtree.height(),
            pages=self.disk.total_pages,
            bytes=self.disk.total_bytes,
            clusters=self.num_clusters(),
            outliers=len(self._outliers),
            build_seconds=self._build_seconds,
        )

    def check_invariants(self, enforce_min_fill: bool = False) -> None:
        """Structural + persistence invariants (tests)."""
        self._rtree.check_invariants(enforce_min_fill)
        for nid in self._rtree.nodes:
            if self._rtree.root_id is not None and nid not in self._record_ids:
                # Nodes orphaned by splits would show up here.
                if self._reachable(nid):
                    raise IndexError_(f"reachable node {nid} not persisted")

    def _reachable(self, node_id: int) -> bool:
        if self._rtree.root_id is None:
            return False
        stack = [self._rtree.root_id]
        while stack:
            nid = stack.pop()
            if nid == node_id:
                return True
            node = self._rtree.node(nid)
            if not node.is_leaf:
                stack.extend(e.ref for e in node.entries)
        return False

    def node_for_test(self, node_id: int) -> Node:
        """Direct node access for white-box tests."""
        return self._rtree.node(node_id)
