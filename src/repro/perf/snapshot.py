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

Snapshots are immutable and generation-tagged: they are built via
:meth:`IURTree.snapshot`, which memoizes per structural
:attr:`~repro.index.iurtree.IURTree.generation`, so index updates
invalidate them automatically.  A dirty live index freezes its
overlay-plus-tombstones view the same way (:meth:`EpochView.snapshot
<repro.lsm.live.EpochView.snapshot>`, memoized per write).  A snapshot
holds no reference to the buffer pool — the traversal engine charges
I/O through the live tree so page accounting stays identical to the
seed engine.
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

        ``tree`` is an :class:`~repro.index.iurtree.IURTree` or a live
        :class:`~repro.lsm.live.EpochView`, read through the uncharged
        ``peek_children``: slots are the entries the seed walk expands,
        and each directory slot keeps the record id its expansion
        charges (``-1`` charges nothing), so the traversal engine can
        replay the seed's page-charge sequence at query time.
        """
        snap = cls()
        snap.generation = tree.generation
        snap.kind = tree.kind
        snap.maxD = tree.dataset.proximity.max_distance

        entries: List = []
        first: List[int] = []
        last: List[int] = []
        record_ids: List[int] = []
        queue: deque = deque()

        def add(entry) -> int:
            slot = len(entries)
            entries.append(entry)
            first.append(0)
            last.append(0)
            record_ids.append(-1)
            if not entry.is_object:
                queue.append(slot)
            return slot

        root_slots: List[int] = []
        root_entry = tree.root_entry()
        if root_entry is not None:
            root_slots.append(add(root_entry))
        for outlier in tree.outlier_entries():
            root_slots.append(add(outlier))
        # Level-order expansion keeps every node's children contiguous.
        while queue:
            slot = queue.popleft()
            record_ids[slot], children = tree.peek_children(entries[slot])
            first[slot] = len(entries)
            for child in children:
                add(child)
            last[slot] = len(entries)
        snap.root_slots = tuple(root_slots)
        snap.n_slots = len(entries)

        nc_child = max(max(tree.num_clusters(), 1), 2)
        for slot, entry in enumerate(entries):
            mbr = entry.mbr
            snap.xlo.append(mbr.xlo)
            snap.ylo.append(mbr.ylo)
            snap.xhi.append(mbr.xhi)
            snap.yhi.append(mbr.yhi)
            snap.cnt.append(entry.count)
            snap.ref.append(entry.ref)
            snap.is_obj.append(1 if entry.is_object else 0)
            snap.first_child.append(first[slot])
            snap.last_child.append(last[slot])
            snap.record_id.append(record_ids[slot])
            if entry.is_object:
                snap.ent_root.append(0.0)
                snap.ent_child.append(0.0)
                vec = entry.exact_vector()
                snap.obj_vec.append(vec)
                snap.obj_frozen.append(vec.frozen())
            else:
                hist = {
                    cid: iv.doc_count for cid, iv in entry.clusters.items()
                }
                # Two normalizations because the seed priority call sites
                # differ: roots use the default single-cluster divisor,
                # children the tree-wide cluster count.
                snap.ent_root.append(normalized_cluster_entropy(hist, 2))
                snap.ent_child.append(normalized_cluster_entropy(hist, nc_child))
                snap.obj_vec.append(None)
                snap.obj_frozen.append(None)
            snap.clusters.append(
                tuple(
                    (
                        iv,
                        iv.intersection.frozen(),
                        iv.union.frozen(),
                        iv.intersection.norm_squared,
                        iv.union.norm_squared,
                    )
                    for iv in entry.clusters.values()
                )
            )

        np = kernels._numpy()
        if np is not None and snap.n_slots:
            snap.np_xlo = np.frombuffer(snap.xlo, dtype=np.float64)
            snap.np_ylo = np.frombuffer(snap.ylo, dtype=np.float64)
            snap.np_xhi = np.frombuffer(snap.xhi, dtype=np.float64)
            snap.np_yhi = np.frombuffer(snap.yhi, dtype=np.float64)
        return snap

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
        the seed walk's overlay visits charge none.
        """
        plan = self._collect_plans.get(slot)
        if plan is None:
            charges: List[int] = []
            ids: List[int] = []
            stack = [slot]
            is_obj = self.is_obj
            ref = self.ref
            while stack:
                s = stack.pop()
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
        own engine so memos can never mix.
        """
        key = (measure.name, alpha, te_weight)
        engine = self._engines.get(key)
        if engine is None:
            from ..core.traversal import SnapshotEngine

            engine = self._memoize(
                key, SnapshotEngine(tree, self, measure, alpha, te_weight)
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
            "objects": sum(self.is_obj),
            "roots": len(self.root_slots),
            "columnar_bytes": self.nbytes(),
            "kernel_backend": self.kernel_backend,
        }


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
