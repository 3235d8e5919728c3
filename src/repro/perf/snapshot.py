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
invalidate them automatically.  A snapshot holds no reference to the
buffer pool — the traversal engine charges I/O through the live tree so
page accounting stays identical to the seed engine.
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
        self._sketches: Dict[Tuple, object] = {}
        self._text_matrix: Optional["SnapshotTextMatrix"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tree(cls, tree) -> "IndexSnapshot":
        """Freeze the current generation of ``tree`` into columnar form.

        Reads node structure directly (no simulated I/O is charged); the
        live tree's record ids are captured so the traversal engine can
        replay the seed's exact page-charge sequence at query time.
        """
        snap = cls()
        snap.generation = tree.generation
        snap.kind = tree.kind
        snap.maxD = tree.dataset.proximity.max_distance

        rtree = tree.rtree
        record_ids = tree._record_ids
        entries: List = []
        first: List[int] = []
        last: List[int] = []
        queue: deque = deque()

        def add(entry) -> int:
            slot = len(entries)
            entries.append(entry)
            first.append(0)
            last.append(0)
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
            node = rtree.node(entries[slot].ref)
            first[slot] = len(entries)
            for child in node.entries:
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
            if entry.is_object:
                snap.record_id.append(-1)
                snap.ent_root.append(0.0)
                snap.ent_child.append(0.0)
                vec = entry.exact_vector()
                snap.obj_vec.append(vec)
                snap.obj_frozen.append(vec.frozen())
            else:
                snap.record_id.append(record_ids.get(entry.ref, -1))
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
        engine produces for the same accepted entry.
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
                    charges.append(self.record_id[s])
                    stack.extend(range(self.first_child[s], self.last_child[s]))
            plan = (tuple(charges), tuple(ids))
            self._collect_plans[slot] = plan
        return plan

    def text_matrix(self) -> "SnapshotTextMatrix":
        """The columnar text-summary matrix of this snapshot (lazy).

        Built once per snapshot and cached on it — because snapshots are
        memoized per tree :attr:`generation`, any index mutation rebuilds
        the snapshot and therefore this matrix too; a fused run can never
        observe postings from a previous generation.
        """
        matrix = self._text_matrix
        if matrix is None:
            matrix = SnapshotTextMatrix.from_snapshot(self)
            self._text_matrix = matrix
        return matrix

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

            engine = SnapshotEngine(tree, self, measure, alpha, te_weight)
            self._engines[key] = engine
        return engine

    def fused_engine_for(self, tree, measure, alpha: float, te_weight: float):
        """The memoized fused group engine for one similarity setting.

        The fused engine wraps (and shares the pair memo of) the
        per-query :meth:`engine_for` engine with the same key, so the two
        always agree on every cached bound value.
        """
        key = ("fused", measure.name, alpha, te_weight)
        engine = self._engines.get(key)
        if engine is None:
            from ..core.fused import FusedBatchEngine

            engine = FusedBatchEngine(tree, self, measure, alpha, te_weight)
            self._engines[key] = engine
        return engine

    def sketch_for(self, engine, kmax: Optional[int] = None):
        """The memoized :class:`~repro.approx.sketch.KnnlSketch` of one
        exact engine's similarity setting (built on first request).

        Sketches depend on the same ``(measure, alpha)`` values the pair
        memo does, so they key on the engine's setting plus ``kmax``
        (``None`` keeps :data:`~repro.approx.sketch.DEFAULT_SKETCH_KMAX`);
        an attached shared-memory snapshot pre-populates this table from
        the segment instead of rebuilding.
        """
        from ..approx.sketch import DEFAULT_SKETCH_KMAX, build_sketch

        kmax = DEFAULT_SKETCH_KMAX if kmax is None else kmax
        key = (engine.measure.name, engine.alpha, engine.te_weight, kmax)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = build_sketch(engine, kmax=kmax)
            self._sketches[key] = sketch
        return sketch

    def warm_engine_for(
        self,
        tree,
        measure,
        alpha: float,
        te_weight: float,
        kmax: Optional[int] = None,
    ):
        """A traversal engine seeded with frozen kNNL warm-start floors.

        Separate from :meth:`engine_for` (floor pruning changes decision
        *counters*, though never result ids, so the parity engine stays
        pristine) but sharing its pair-bound memo — work done by either
        engine warms the other.
        """
        key = ("floors", measure.name, alpha, te_weight, kmax)
        engine = self._engines.get(key)
        if engine is None:
            from ..core.traversal import SnapshotEngine

            base = self.engine_for(tree, measure, alpha, te_weight)
            sketch = self.sketch_for(base, kmax=kmax)
            engine = SnapshotEngine(
                tree, self, measure, alpha, te_weight, floors=sketch
            )
            engine._memo = base._memo
            self._engines[key] = engine
        return engine

    def warm_fused_engine_for(
        self,
        tree,
        measure,
        alpha: float,
        te_weight: float,
        kmax: Optional[int] = None,
    ):
        """The fused group engine with warm-start floors (see
        :meth:`warm_engine_for` for the memo-sharing contract)."""
        key = ("fused-floors", measure.name, alpha, te_weight, kmax)
        engine = self._engines.get(key)
        if engine is None:
            from ..core.fused import FusedBatchEngine

            base = self.engine_for(tree, measure, alpha, te_weight)
            sketch = self.sketch_for(base, kmax=kmax)
            engine = FusedBatchEngine(
                tree, self, measure, alpha, te_weight, floors=sketch
            )
            self._engines[key] = engine
        return engine

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
            engine = ApproxEngine(
                tree, self, measure, alpha, te_weight, sketch
            )
            self._engines[key] = engine
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
    """Term-aligned columnar view of every text summary in a snapshot.

    Rows come in two families, both laid out in slot order:

    * **cluster rows** — one per ``(slot, cluster)`` pair, holding the
      squared norms and frozen forms of the cluster's intersection and
      union summaries; the rows of slot ``s`` are exactly
      ``range(indptr[s], indptr[s + 1])``, in the same order the scalar
      engine iterates ``snap.clusters[s]``;
    * **object rows** — one per object slot (``obj_row[s]``, ``-1`` for
      directory slots), holding the object vector's squared norm and
      frozen form.

    The term axis is inverted into *postings*: ``term_id -> (rows,
    weights)`` maps for the intersection, union, and object families.
    A whole group's query-vs-row dot products then evaluate as one
    sparse accumulation per query
    (:func:`repro.perf.kernels.group_text_dots`) instead of per
    ``(query, node)`` frozen-set intersections.

    The matrix is reached through :meth:`IndexSnapshot.text_matrix` and
    inherits the snapshot's staleness story: it is cached on the
    snapshot, and snapshots are memoized per tree generation, so index
    mutations can never leak stale postings into a fused run.
    """

    __slots__ = (
        "generation",
        "n_rows",
        "n_obj_rows",
        "indptr",
        "insq",
        "unsq",
        "int_frozen",
        "uni_frozen",
        "int_postings",
        "uni_postings",
        "obj_row",
        "obj_nsq",
        "obj_frozen",
        "obj_postings",
        "backend",
    )

    def __init__(self) -> None:
        self.generation = 0
        self.n_rows = 0
        self.n_obj_rows = 0
        self.indptr: List[int] = [0]
        self.insq: List[float] = []
        self.unsq: List[float] = []
        self.int_frozen: List = []
        self.uni_frozen: List = []
        self.int_postings: Dict[int, Tuple] = {}
        self.uni_postings: Dict[int, Tuple] = {}
        self.obj_row: List[int] = []
        self.obj_nsq: List[float] = []
        self.obj_frozen: List = []
        self.obj_postings: Dict[int, Tuple] = {}
        self.backend = "python"

    @classmethod
    def from_snapshot(cls, snap: IndexSnapshot) -> "SnapshotTextMatrix":
        """Invert one snapshot's summaries into postings form."""
        matrix = cls()
        matrix.generation = snap.generation
        int_post: Dict[int, Tuple[List[int], List[float]]] = {}
        uni_post: Dict[int, Tuple[List[int], List[float]]] = {}
        obj_post: Dict[int, Tuple[List[int], List[float]]] = {}

        def post(table, tid, row, weight):
            cell = table.get(tid)
            if cell is None:
                cell = ([], [])
                table[tid] = cell
            cell[0].append(row)
            cell[1].append(weight)

        row = 0
        for slot in range(snap.n_slots):
            for iv, int_f, uni_f, insq, unsq in snap.clusters[slot]:
                matrix.insq.append(insq)
                matrix.unsq.append(unsq)
                matrix.int_frozen.append(int_f)
                matrix.uni_frozen.append(uni_f)
                for tid, weight in iv.intersection.items():
                    post(int_post, tid, row, weight)
                for tid, weight in iv.union.items():
                    post(uni_post, tid, row, weight)
                row += 1
            matrix.indptr.append(row)
            vec = snap.obj_vec[slot]
            if vec is None:
                matrix.obj_row.append(-1)
            else:
                orow = len(matrix.obj_nsq)
                matrix.obj_row.append(orow)
                matrix.obj_nsq.append(vec.norm_squared)
                matrix.obj_frozen.append(snap.obj_frozen[slot])
                for tid, weight in vec.items():
                    post(obj_post, tid, orow, weight)
        matrix.n_rows = row
        matrix.n_obj_rows = len(matrix.obj_nsq)

        np = kernels._numpy()
        if np is not None:
            matrix.backend = "numpy"

            def pack(table):
                return {
                    tid: (
                        np.asarray(rows, dtype=np.intp),
                        np.asarray(weights, dtype=np.float64),
                    )
                    for tid, (rows, weights) in table.items()
                }

            matrix.int_postings = pack(int_post)
            matrix.uni_postings = pack(uni_post)
            matrix.obj_postings = pack(obj_post)
        else:
            matrix.int_postings = int_post
            matrix.uni_postings = uni_post
            matrix.obj_postings = obj_post
        return matrix

    def describe(self) -> Dict[str, float]:
        """Summary counters for logs and docs."""
        return {
            "generation": self.generation,
            "cluster_rows": self.n_rows,
            "object_rows": self.n_obj_rows,
            "intersection_terms": len(self.int_postings),
            "union_terms": len(self.uni_postings),
            "object_terms": len(self.obj_postings),
            "backend": self.backend,
        }
