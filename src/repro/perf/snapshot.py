"""Columnar index snapshots: a frozen struct-of-arrays view of a tree.

The seed traversal walks per-node Python objects: every bound evaluated
during search chases ``Node -> Entry -> IntervalVector -> SparseVector``
pointers and re-derives frozen kernel forms through attribute lookups.
An :class:`IndexSnapshot` freezes a built
:class:`~repro.index.iurtree.IURTree` / ``CIURTree`` into flat parallel
arrays indexed by *slot*:

* child MBRs packed into flat float arrays (numpy views when numpy is
  importable, plain :mod:`array` storage always);
* parent/child topology as integer offset tables — the children of a
  directory slot ``s`` are exactly ``range(first_child[s],
  last_child[s])``, contiguous by construction;
* per-node textual summaries pre-frozen into the PR-1 kernel forms
  (64-bit term signatures included) with their squared norms unpacked,
  so the Extended Jaccard bound arithmetic never touches a
  ``SparseVector`` during traversal;
* per-slot cluster-entropy priorities precomputed for the TE boost; and
* lazily memoized *collect plans* — the exact object-id enumeration and
  page-charge sequence the seed's accept-phase subtree walk performs.

Slot layout: slot 0 is the synthesized root summary (when the tree
proper is non-empty), followed by one slot per OE outlier, followed by
every node entry in level order (children of earlier slots first).  The
slots therefore correspond one-to-one to the ``(ref, is_object)`` keys
the seed searcher reasons about.

A dirty live index is read through a *union* snapshot
(:meth:`IndexSnapshot.union`) derived from the frozen tree's snapshot
instead of re-freezing the view: the frozen slots are copied unchanged
as a prefix (C-level column copies), tombstones become a ``cnt`` patch
along their root-to-leaf paths, and the overlay subtree is appended in
level order as suffix slots with record id ``-1``.  A tombstoned
object or fully dead subtree stays in place with ``cnt == 0``; dead
outliers and a dead frozen root leave :attr:`IndexSnapshot.root_slots`.
**Dead-slot rule:** every reader of a child range skips slots whose
``cnt`` is 0, and the rule reads ``cnt`` alone, so it holds on a
shared-memory copy as well.  A frozen slot therefore names the same
node in every write generation of one fold, which lets a union's
engines reuse the frozen snapshot's pair memo (see
:mod:`repro.core.traversal`).

Snapshots are immutable and generation-tagged: they are built via
:meth:`IURTree.snapshot`, which memoizes per structural
:attr:`~repro.index.iurtree.IURTree.generation`, so index updates
invalidate them automatically; a live view memoizes its union per write
(:meth:`EpochView.snapshot <repro.lsm.live.EpochView.snapshot>`).  A
snapshot holds no reference to the buffer pool — the traversal engine
charges I/O through the live tree so page accounting stays identical to
the seed engine.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..text.entropy import normalized_cluster_entropy
from . import kernels


class IndexSnapshot:
    """Immutable struct-of-arrays form of one (C)IUR-tree generation."""

    __slots__ = (
        "generation",
        "kernel_backend",
        "kind",
        "n_slots",
        "maxD",
        "xlo",
        "ylo",
        "xhi",
        "yhi",
        "np_xlo",
        "np_ylo",
        "np_xhi",
        "np_yhi",
        "cnt",
        "ref",
        "first_child",
        "last_child",
        "record_id",
        "is_obj",
        "clusters",
        "ent_root",
        "ent_child",
        "obj_vec",
        "obj_frozen",
        "root_slots",
        "n_clusters",
        "base",
        "stable",
        "_node_slots",
        "_collect_plans",
        "_engines",
        "_released",
        "_sketches",
        "_text_matrix",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.kernel_backend = kernels.backend_name()
        self.kind = "iur"
        self.n_slots = 0
        self.maxD = 1.0
        self.xlo = array("d")
        self.ylo = array("d")
        self.xhi = array("d")
        self.yhi = array("d")
        self.np_xlo = None
        self.np_ylo = None
        self.np_xhi = None
        self.np_yhi = None
        self.cnt = array("q")
        self.ref = array("q")
        self.first_child = array("q")
        self.last_child = array("q")
        self.record_id = array("q")
        self.is_obj = bytearray()
        self.clusters: List[Tuple] = []
        self.ent_root = array("d")
        self.ent_child = array("d")
        self.obj_vec: List = []
        self.obj_frozen: List = []
        self.root_slots: Tuple[int, ...] = ()
        #: The source tree's cluster count (its ``num_clusters()``).
        self.n_clusters = 0
        #: The frozen snapshot a union derives from (``None`` otherwise).
        self.base: Optional["IndexSnapshot"] = None
        #: Union only: 1 for the frozen slots whose pair bounds equal the
        #: base's (their cluster set survived every tombstone), else 0.
        self.stable: Optional[bytearray] = None
        #: Tree snapshots: frozen node id -> ``(slot, Entry)`` of every
        #: directory slot, so a union finds tombstoned paths in O(1).
        self._node_slots: Dict[int, Tuple[int, object]] = {}
        self._collect_plans: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._engines: Dict[Tuple, object] = {}
        self._released = False
        self._sketches: Dict[Tuple, object] = {}
        self._text_matrix: Optional["SnapshotTextMatrix"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(cls, tree) -> "IndexSnapshot":
        """Freeze the current generation of ``tree`` into columnar form.

        ``tree`` is an :class:`~repro.index.iurtree.IURTree`, read
        through the uncharged ``peek_children``: slots are the entries
        the seed walk expands, and each directory slot keeps the record
        id its expansion charges, so the traversal engine can replay the
        seed's page-charge sequence at query time.
        """
        snap = cls()
        snap.generation = tree.generation
        snap.kind = tree.kind
        snap.maxD = tree.dataset.proximity.max_distance
        snap.n_clusters = tree.num_clusters()
        roots: List = []
        root_entry = tree.root_entry()
        if root_entry is not None:
            roots.append(root_entry)
        roots.extend(tree.outlier_entries())
        snap.root_slots = snap._append_subtrees(
            roots,
            tree.peek_children,
            max(snap.n_clusters, 2),
            snap._node_slots,
        )
        snap._map_columns()
        return snap

    @classmethod
    def union(cls, base: "IndexSnapshot", view) -> "IndexSnapshot":
        """The union snapshot of a dirty live ``view`` over ``base``.

        ``base`` is the snapshot of ``view.frozen``.  Its slots are
        copied as an unchanged prefix, the view's tombstones patch
        ``cnt`` and the entropy priorities of the nodes on their paths
        (and the cluster tuple of a node that lost a cluster), and the
        overlay subtree is appended as suffix slots; the walk over the
        result takes exactly the decisions the seed walk takes over
        ``view`` (see the module docstring).  Costs O(pending writes x
        tree height) in Python plus one C-level copy of each column.
        """
        from ..lsm.live import adjust_entry

        snap = cls()
        snap.generation = view.generation
        snap.kernel_backend = base.kernel_backend
        snap.kind = base.kind
        snap.maxD = base.maxD
        # The view's num_clusters(), without its O(n) pass over labels.
        snap.n_clusters = max(base.n_clusters, view.overlay.max_label() + 1)
        snap.base = base
        n_base = snap.n_slots = base.n_slots
        nc_child = max(snap.n_clusters, 2)
        # The overlay suffix is laid out apart, then each column is one
        # C-level concatenation (appending to a copied prefix would
        # reallocate every column).
        overlay_root = view.overlay.root_entry()
        if overlay_root is not None:
            children = view.overlay.children
            overlay_roots = snap._append_subtrees(
                [overlay_root],
                lambda entry: (-1, children(entry.ref)),
                nc_child,
            )
        else:
            overlay_roots = ()
        for name in _COLUMNS:
            setattr(snap, name, getattr(base, name) + getattr(snap, name))
        cnt = snap.cnt
        stable = bytearray(b"\x01") * n_base + bytearray(snap.n_slots - n_base)
        node_slots = base._node_slots
        patched: Dict[int, object] = {}
        for node_id, decrements in view.tombstones.node_decrements.items():
            slot, entry = node_slots[node_id]
            adjusted = adjust_entry(entry, decrements)
            if adjusted is None:
                cnt[slot] = 0  # a dead subtree: every object below is dead
                continue
            patched[slot] = adjusted
            cnt[slot] = adjusted.count
            snap.ent_root[slot] = _entropy(adjusted, 2)
            snap.ent_child[slot] = _entropy(adjusted, nc_child)
            if len(adjusted.clusters) != len(entry.clusters):
                # Lost a cluster: its text bounds tighten, so its pairs
                # leave the base memo.  Other patched nodes keep their
                # frozen rows; bounds never read the doc counts in them.
                snap.clusters[slot] = _cluster_rows(adjusted)
                stable[slot] = 0
        if nc_child != max(base.n_clusters, 2):
            # An overlay label beyond the frozen clustering changes the
            # divisor of every child-site priority.
            for slot, entry in node_slots.values():
                snap.ent_child[slot] = _entropy(
                    patched.get(slot, entry), nc_child
                )
        is_obj, ref = snap.is_obj, snap.ref
        first, last = snap.first_child, snap.last_child
        leaves = view.tombstones.leaves
        for oid, leaf in leaves.items():
            slot = node_slots[leaf][0]
            for c in range(first[slot], last[slot]):
                if ref[c] == oid and is_obj[c]:
                    cnt[c] = 0
                    break
        dead_outliers = view.tombstones.oids.difference(leaves)
        roots = []
        for r in base.root_slots:
            if is_obj[r] and ref[r] in dead_outliers:
                cnt[r] = 0
            if cnt[r]:
                roots.append(r)
        snap.stable = stable
        snap.root_slots = tuple(roots) + overlay_roots
        snap._map_columns()
        return snap

    def _append_subtrees(self, roots, expand, nc_child: int, node_slots=None):
        """Append ``roots`` and every entry beneath them as slots.

        Level order from the roots keeps every node's children
        contiguous; ``expand(entry)`` returns ``(record id, children)``
        and ``nc_child`` is the child-site entropy divisor.  Slots are
        numbered from :attr:`n_slots` on, and the columns grow by the
        new slots alone.  Directory slots are recorded in
        ``node_slots`` when given.  Returns the roots' slots.
        """
        offset = self.n_slots
        entries: List = []
        first: List[int] = []
        last: List[int] = []
        record_ids: List[int] = []
        queue: deque = deque()

        def add(entry) -> int:
            slot = offset + len(entries)
            entries.append(entry)
            first.append(0)
            last.append(0)
            record_ids.append(-1)
            if not entry.is_object:
                queue.append(slot)
                if node_slots is not None:
                    node_slots[entry.ref] = (slot, entry)
            return slot

        root_slots = tuple(add(entry) for entry in roots)
        while queue:
            slot = queue.popleft()
            i = slot - offset
            record_ids[i], children = expand(entries[i])
            first[i] = offset + len(entries)
            for child in children:
                add(child)
            last[i] = offset + len(entries)
        self.n_slots = offset + len(entries)

        for i, entry in enumerate(entries):
            mbr = entry.mbr
            self.xlo.append(mbr.xlo)
            self.ylo.append(mbr.ylo)
            self.xhi.append(mbr.xhi)
            self.yhi.append(mbr.yhi)
            self.cnt.append(entry.count)
            self.ref.append(entry.ref)
            self.is_obj.append(1 if entry.is_object else 0)
            self.first_child.append(first[i])
            self.last_child.append(last[i])
            self.record_id.append(record_ids[i])
            if entry.is_object:
                self.ent_root.append(0.0)
                self.ent_child.append(0.0)
                vec = entry.exact_vector()
                self.obj_vec.append(vec)
                self.obj_frozen.append(vec.frozen())
            else:
                # Two normalizations because the seed priority call sites
                # differ: roots use the default single-cluster divisor,
                # children the tree-wide cluster count.
                self.ent_root.append(_entropy(entry, 2))
                self.ent_child.append(_entropy(entry, nc_child))
                self.obj_vec.append(None)
                self.obj_frozen.append(None)
            self.clusters.append(_cluster_rows(entry))
        return root_slots

    def _map_columns(self) -> None:
        """Point the numpy coordinate views at the finished columns."""
        np = kernels._numpy()
        if np is not None and self.n_slots:
            self.np_xlo = np.frombuffer(self.xlo, dtype=np.float64)
            self.np_ylo = np.frombuffer(self.ylo, dtype=np.float64)
            self.np_xhi = np.frombuffer(self.xhi, dtype=np.float64)
            self.np_yhi = np.frombuffer(self.yhi, dtype=np.float64)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------

    def collect_plan(
        self, slot: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(page charges, object ids)`` of the accept-phase subtree walk.

        Replays the seed's ``_collect`` stack traversal over the offset
        tables once per slot and memoizes: the page-charge order and the
        id enumeration order are byte-for-byte the sequences the seed
        engine produces for the same accepted entry.  Slots with record
        id ``-1`` (a live overlay's in-memory nodes) charge no page, as
        the seed walk's overlay visits charge none, and dead slots
        (``cnt == 0``) are skipped, as the seed walk never sees them.
        """
        plan = self._collect_plans.get(slot)
        if plan is None:
            charges: List[int] = []
            ids: List[int] = []
            stack = [slot]
            is_obj = self.is_obj
            ref = self.ref
            cnt = self.cnt
            while stack:
                s = stack.pop()
                if not cnt[s]:
                    continue
                if is_obj[s]:
                    ids.append(ref[s])
                else:
                    if self.record_id[s] >= 0:
                        charges.append(self.record_id[s])
                    stack.extend(range(self.first_child[s], self.last_child[s]))
            plan = (tuple(charges), tuple(ids))
            self._collect_plans[slot] = plan
        return plan

    def text_matrix(self) -> "SnapshotTextMatrix":
        """The columnar object-vector matrix of this snapshot (lazy).

        Built once per snapshot and cached on it — because snapshots are
        memoized per tree :attr:`generation`, any index mutation rebuilds
        the snapshot and therefore this matrix too; a sketch build can
        never observe postings from a previous generation.
        """
        matrix = self._text_matrix
        if matrix is None:
            matrix = SnapshotTextMatrix.from_snapshot(self)
            self._text_matrix = matrix
        return matrix

    def is_current(self, generation: int) -> bool:
        """Whether this snapshot serves ``generation`` under the active
        kernel backend (its pre-frozen kernel forms are per backend)."""
        return self.generation == generation and (
            self.kernel_backend == kernels.backend_name()
        )

    def release(self) -> None:
        """Drop the memoized engines, which point back at this snapshot,
        and memoize none from now on: a replaced snapshot and its pair
        memos then go with their last reader, not the cyclic GC."""
        self._released = True  # before the swap, see _memoize
        self._engines = {}

    def _memoize(self, key: Tuple, engine):
        engines = self._engines  # a release from here on detaches it
        if not self._released:
            engines[key] = engine
        return engine

    def engine_for(self, tree, measure, alpha: float, te_weight: float):
        """The memoized traversal engine for one similarity setting.

        Engines own the snapshot-resident pair-bound memo, whose values
        depend on ``(measure, alpha)`` — each distinct setting gets its
        own engine so memos can never mix.  A union's engine also reads
        its base's engine for the same setting (see
        :class:`~repro.core.traversal.UnionEngine`).
        """
        key = (measure.name, alpha, te_weight)
        engine = self._engines.get(key)
        if engine is None:
            from ..core.traversal import SnapshotEngine, UnionEngine

            factory = SnapshotEngine if self.base is None else UnionEngine
            engine = self._memoize(
                key, factory(tree, self, measure, alpha, te_weight)
            )
        return engine

    def sketch_for(self, engine, kmax: Optional[int] = None):
        """The memoized :class:`~repro.approx.sketch.KnnlSketch` of one
        exact engine's similarity setting (built on first request).

        Sketches depend on the same ``(measure, alpha)`` values the pair
        memo does, so they key on the engine's setting plus ``kmax``
        (``None`` keeps :data:`~repro.approx.sketch.DEFAULT_SKETCH_KMAX`;
        below 1 raises :class:`~repro.errors.ConfigError`); an attached
        shared-memory snapshot pre-populates this table from the segment
        instead of rebuilding.
        """
        from ..approx.sketch import DEFAULT_SKETCH_KMAX, build_sketch

        kmax = DEFAULT_SKETCH_KMAX if kmax is None else kmax
        key = (engine.measure.name, engine.alpha, engine.te_weight, kmax)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = build_sketch(engine, kmax=kmax)
            self._sketches[key] = sketch
        return sketch

    def approx_engine_for(
        self,
        tree,
        measure,
        alpha: float,
        te_weight: float,
        kmax: Optional[int] = None,
        lsh: bool = False,
    ):
        """The memoized sketch-filter engine
        (:class:`~repro.approx.engine.ApproxEngine`) for one setting.

        ``lsh`` is accepted and ignored: the LSH pre-filter stage is
        gone, and the argument stays only until ``perfbench`` stops
        passing it (marked for deletion).
        """
        key = ("approx", measure.name, alpha, te_weight, kmax)
        engine = self._engines.get(key)
        if engine is None:
            from ..approx.engine import ApproxEngine

            base = self.engine_for(tree, measure, alpha, te_weight)
            sketch = self.sketch_for(base, kmax=kmax)
            engine = self._memoize(
                key,
                ApproxEngine(tree, self, measure, alpha, te_weight, sketch),
            )
        return engine

    def nbytes(self) -> int:
        """Approximate resident size of the columnar arrays (bytes).

        Counts the flat arrays and offset tables only — the frozen text
        forms are shared with the tree's own vectors, so they add no
        snapshot-specific cost beyond the per-slot reference tuples.
        """
        total = len(self.is_obj)
        for arr in (
            self.xlo,
            self.ylo,
            self.xhi,
            self.yhi,
            self.cnt,
            self.ref,
            self.first_child,
            self.last_child,
            self.record_id,
            self.ent_root,
            self.ent_child,
        ):
            total += arr.buffer_info()[1] * arr.itemsize
        return total

    def describe(self) -> Dict[str, float]:
        """Summary counters for logs and docs."""
        return {
            "generation": self.generation,
            "slots": self.n_slots,
            "objects": sum(self.cnt[r] for r in self.root_slots),
            "roots": len(self.root_slots),
            "columnar_bytes": self.nbytes(),
            "kernel_backend": self.kernel_backend,
        }


#: Per-slot columns a union copies from its base before patching.
_COLUMNS = (
    "xlo",
    "ylo",
    "xhi",
    "yhi",
    "cnt",
    "ref",
    "first_child",
    "last_child",
    "record_id",
    "is_obj",
    "clusters",
    "ent_root",
    "ent_child",
    "obj_vec",
    "obj_frozen",
)


def _entropy(entry, divisor: int) -> float:
    """Normalized cluster entropy of a directory entry's doc counts."""
    hist = {cid: iv.doc_count for cid, iv in entry.clusters.items()}
    return normalized_cluster_entropy(hist, divisor)


def _cluster_rows(entry) -> Tuple:
    """A slot's cluster tuple: each interval vector with its frozen
    intersection/union forms and their squared norms."""
    return tuple(
        (
            iv,
            iv.intersection.frozen(),
            iv.union.frozen(),
            iv.intersection.norm_squared,
            iv.union.norm_squared,
        )
        for iv in entry.clusters.values()
    )


class SnapshotTextMatrix:
    """Term-aligned columnar view of the object vectors in a snapshot.

    One **object row** per object slot (``obj_row[s]``, ``-1`` for
    directory slots) holds the object vector's squared norm.  The term
    axis is inverted into *postings*: ``term_id -> (rows, weights)``.
    The kNNL sketch build (:mod:`repro.approx.sketch`) evaluates one
    object's dot products against every other object as one sparse
    accumulation (:func:`repro.perf.kernels.group_text_dots`) instead of
    per-pair frozen-set intersections.

    The matrix is reached through :meth:`IndexSnapshot.text_matrix` and
    inherits the snapshot's staleness story: it is cached on the
    snapshot, and snapshots are memoized per tree generation, so index
    mutations can never leak stale postings into a sketch build.
    """

    __slots__ = (
        "generation",
        "n_obj_rows",
        "obj_row",
        "obj_nsq",
        "obj_postings",
        "backend",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.n_obj_rows = 0
        self.obj_row: List[int] = []
        self.obj_nsq: List[float] = []
        self.obj_postings: Dict[int, Tuple] = {}
        self.backend = "python"

    @classmethod
    def from_snapshot(cls, snap: IndexSnapshot) -> "SnapshotTextMatrix":
        """Invert one snapshot's object vectors into postings form."""
        matrix = cls()
        matrix.generation = snap.generation
        obj_post: Dict[int, Tuple[List[int], List[float]]] = {}
        for vec in snap.obj_vec:
            if vec is None:
                matrix.obj_row.append(-1)
                continue
            orow = len(matrix.obj_nsq)
            matrix.obj_row.append(orow)
            matrix.obj_nsq.append(vec.norm_squared)
            for tid, weight in vec.items():
                cell = obj_post.get(tid)
                if cell is None:
                    cell = ([], [])
                    obj_post[tid] = cell
                cell[0].append(orow)
                cell[1].append(weight)
        matrix.n_obj_rows = len(matrix.obj_nsq)

        np = kernels._numpy()
        if np is not None:
            matrix.backend = "numpy"
            matrix.obj_postings = {
                tid: (
                    np.asarray(rows, dtype=np.intp),
                    np.asarray(weights, dtype=np.float64),
                )
                for tid, (rows, weights) in obj_post.items()
            }
        else:
            matrix.obj_postings = obj_post
        return matrix

    def describe(self) -> Dict[str, float]:
        """Summary counters for logs and docs."""
        return {
            "generation": self.generation,
            "object_rows": self.n_obj_rows,
            "object_terms": len(self.obj_postings),
            "backend": self.backend,
        }
