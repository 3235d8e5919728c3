"""Zero-copy shared-memory snapshot transport for parallel workers.

Parallel batch mode reaches its workers through this module alone: the
flat struct-of-arrays :class:`~repro.perf.snapshot.IndexSnapshot` is
shipped once, into memory every worker maps, instead of as one private
copy of the object graph per worker.

This module serializes a frozen snapshot (and the kNNL sketches
memoized on it) into **one** ``multiprocessing.shared_memory`` segment
of flat numpy-compatible arrays plus a small pickled header of integer
offset tables:

* the parent :meth:`SharedSnapshotSegment.create`\\ s the segment —
  one memcpy of the columnar arrays, no object-graph walk at ship time;
* each worker :func:`attach`\\ es by *name*: the coordinate, topology
  and sketch columns are mapped in place (zero-copy ``memoryview``
  casts and ``numpy.frombuffer`` views over the segment), and the
  object-level forms the traversal engines need — ``SparseVector``,
  ``IntervalVector``, frozen kernel forms — are materialized **lazily,
  per touched slot**, so a worker's private RSS grows with the slots its
  queries visit, not with the index;
* the lifecycle is single-owner and generation-checked:
  ``create`` stamps the tree's structural
  :attr:`~repro.index.iurtree.IURTree.generation` into the segment
  header, ``attach`` verifies it against the generation the parent
  advertised, and a mismatch raises :class:`StaleSegmentError` — a
  stale segment can never silently serve a mutated index.  The batch
  run that creates a segment is the only one to ``unlink`` it.

Bit-parity: every float shipped through the segment is the exact IEEE
value the parent computed (memcpy, not reformatting), and frozen kernel
forms are rebuilt worker-side from the same sorted ``(ids, weights,
norm_sq)`` triples the parent's vectors hold — identical construction
order means identical dict/frozenset layouts and therefore identical
reduction order (the argument
:meth:`repro.text.vector.SparseVector.__setstate__` makes for a copied
vector).  Result ids and decision counters of shm-backed workers are
byte-identical to sequential runs; only I/O cache temperature differs
(each worker starts a cold private buffer mirror).

Availability: the transport needs numpy (for in-place array views) and
an engine that runs over snapshots (a seed-engine batch runs in the
parent); :func:`shm_available` reports the reason when it cannot run,
which :class:`~repro.perf.batch.BatchSearcher` records as
``BatchStats.fallback_reason = "shm_unavailable (...)"`` while running
the batch in the parent.
"""

from __future__ import annotations

import os
import pickle
import struct
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..config import SimilarityConfig
from ..core.rstknn import te_weight_for
from ..errors import SnapshotSegmentError, StaleSegmentError
from ..storage.iostats import IOStats
from ..text.interval import IntervalVector
from ..text.similarity import make_measure
from ..text.vector import SparseVector
from . import kernels
from .snapshot import IndexSnapshot

#: First eight bytes of every segment (version-bumped on layout changes;
#: 02 added the optional frozen kNNL sketch arrays; 03 added the
#: per-sketch profile, row-count and term-signature arrays; 04 keys
#: sketches on ``kmax`` alone and drops the sampling/budget metadata of
#: the retired approximate build; 05 drops the fitted-curve and
#: term-signature arrays, leaving four arrays per sketch; 06 drops the
#: text matrix's cluster rows, leaving the object rows the sketch reads;
#: 07 drops the text matrix and the backend tag: a worker that builds a
#: sketch inverts its attached object vectors itself).
SEGMENT_MAGIC = b"RSTSHM07"

#: Common prefix of every segment version's magic; a segment whose
#: magic carries this prefix but a different version byte pair was
#: written by another build of this codebase (stale, not foreign).
_MAGIC_PREFIX = b"RSTSHM"

#: Byte offsets of the fixed-width header words (little-endian int64).
#: Bytes 16-23 are reserved and stay zero, so the layout (and with it
#: ``SEGMENT_MAGIC``) matches segments that earlier builds wrote.
_OFF_GENERATION = 8
_OFF_HEADER_START = 24
_OFF_HEADER_LEN = 32
_ARRAY_REGION = 64

#: Scalar-array columns shipped for the snapshot proper, in layout order.
_SNAP_COLUMNS = (
    ("xlo", "d"),
    ("ylo", "d"),
    ("xhi", "d"),
    ("yhi", "d"),
    ("cnt", "q"),
    ("ref", "q"),
    ("first_child", "q"),
    ("last_child", "q"),
    ("record_id", "q"),
    ("is_obj", "B"),
    ("ent_root", "d"),
    ("ent_child", "d"),
)

_DTYPE_SIZE = {"d": 8, "q": 8, "Q": 8, "B": 1}


def shm_available() -> Tuple[bool, str]:
    """Whether the shared-memory transport can run here, and why not.

    Needs numpy (segments are packed and mapped as flat float/int
    arrays) and ``multiprocessing.shared_memory`` (present on every
    supported Python, but probed so exotic platforms run the batch in
    the parent instead of crashing the pool).
    """
    if kernels._numpy() is None:
        return False, "numpy not importable"
    try:
        from multiprocessing import shared_memory  # noqa: F401,PLC0415
    except ImportError:  # pragma: no cover - platform-dependent
        return False, "multiprocessing.shared_memory not importable"
    return True, ""


def _read_word(buf, offset: int) -> int:
    return struct.unpack_from("<q", buf, offset)[0]


def _write_word(buf, offset: int, value: int) -> None:
    struct.pack_into("<q", buf, offset, value)


def _align(offset: int, granule: int = 16) -> int:
    return (offset + granule - 1) // granule * granule


class _VectorPool:
    """Deduplicating CSR accumulator for the export's sparse vectors.

    Tree summaries share ``SparseVector`` instances heavily (an object's
    exact vector is also its leaf cluster's intersection *and* union),
    so the pool keys on instance identity and stores each distinct
    vector once.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self.indptr: List[int] = [0]
        self.ids: List[int] = []
        self.weights: List[float] = []
        self.nsq: List[float] = []

    def add(self, vec: SparseVector) -> int:
        idx = self._index.get(id(vec))
        if idx is None:
            idx = len(self.nsq)
            self._index[id(vec)] = idx
            self.ids.extend(vec.term_ids())
            self.weights.extend(w for _, w in vec.items())
            self.indptr.append(len(self.ids))
            self.nsq.append(vec.norm_squared)
        return idx


def _export_arrays(tree, snap: IndexSnapshot):
    """The ``(name -> numpy array)`` table one segment carries."""
    np = kernels._numpy()
    arrays: "OrderedDict[str, object]" = OrderedDict()
    for name, code in _SNAP_COLUMNS:
        dtype = {"d": np.float64, "q": np.int64, "B": np.uint8}[code]
        arrays[name] = np.frombuffer(
            memoryview(getattr(snap, name)), dtype=dtype
        )

    pool = _VectorPool()
    cl_int: List[int] = []
    cl_uni: List[int] = []
    cl_docs: List[int] = []
    cl_indptr: List[int] = [0]
    obj_vecidx: List[int] = []
    for slot in range(snap.n_slots):
        for iv, *_ in snap.clusters[slot]:
            cl_int.append(pool.add(iv.intersection))
            cl_uni.append(pool.add(iv.union))
            cl_docs.append(iv.doc_count)
        cl_indptr.append(len(cl_int))
        vec = snap.obj_vec[slot]
        obj_vecidx.append(-1 if vec is None else pool.add(vec))
    arrays["vec_indptr"] = np.asarray(pool.indptr, dtype=np.int64)
    arrays["vec_ids"] = np.asarray(pool.ids, dtype=np.int64)
    arrays["vec_weights"] = np.asarray(pool.weights, dtype=np.float64)
    arrays["vec_nsq"] = np.asarray(pool.nsq, dtype=np.float64)
    arrays["cl_indptr"] = np.asarray(cl_indptr, dtype=np.int64)
    arrays["cl_int"] = np.asarray(cl_int, dtype=np.int64)
    arrays["cl_uni"] = np.asarray(cl_uni, dtype=np.int64)
    arrays["cl_docs"] = np.asarray(cl_docs, dtype=np.int64)
    arrays["obj_vecidx"] = np.asarray(obj_vecidx, dtype=np.int64)

    # Record page table: the worker-side buffer mirror charges the same
    # page spans the live tree's DiskManager would.
    rids = sorted({int(r) for r in snap.record_id if r >= 0})
    arrays["rpt_ids"] = np.asarray(rids, dtype=np.int64)
    arrays["rpt_pages"] = np.asarray(
        [tree.disk.record_pages(r) for r in rids], dtype=np.int64
    )
    return arrays


class SharedSnapshotSegment:
    """Parent-side owner handle of one exported snapshot segment.

    Created with :meth:`create`, shipped to workers by :attr:`name`,
    and torn down with :meth:`close` + :meth:`unlink` (or one
    :meth:`release` call / ``with`` block).  The creating process is the
    only one that may unlink.
    """

    def __init__(self, shm, generation: int, nbytes: int) -> None:
        self.shm = shm
        self.generation = generation
        self.nbytes = nbytes
        self._released = False

    @property
    def name(self) -> str:
        """The segment name workers pass to :func:`attach`."""
        return self.shm.name

    @classmethod
    def create(
        cls,
        tree,
        config: Optional[SimilarityConfig] = None,
    ) -> "SharedSnapshotSegment":
        """Export ``tree``'s current snapshot into a fresh, uniquely
        named segment.

        Freezes the snapshot if the tree has not already (it is
        generation-memoized, so repeated exports of an unchanged tree
        only pay the memcpy).  ``config`` and the tree's
        ``use_entropy_priority`` switch are stamped into the header so
        workers reconstruct the exact similarity setting and TE weight
        without touching the tree.
        """
        ok, why = shm_available()
        if not ok:
            raise SnapshotSegmentError(f"shared-memory transport unavailable: {why}")
        from multiprocessing import shared_memory  # noqa: PLC0415

        np = kernels._numpy()
        snap = tree.snapshot()
        arrays = _export_arrays(tree, snap)

        # Frozen kNNL sketches ride along so attached workers can serve
        # the approx engine without re-running the freeze-time build:
        # one array quartet per memoized sketch plus
        # a header row carrying its key and scalar metadata.
        sketch_rows: List[Tuple] = []
        for key, sketch in snap._sketches.items():
            i = len(sketch_rows)
            arrays[f"sk{i}_floor_idx"] = np.frombuffer(
                memoryview(sketch.floor_idx), dtype=np.int64
            )
            arrays[f"sk{i}_floor_table"] = np.frombuffer(
                memoryview(sketch.floor_table), dtype=np.float64
            )
            arrays[f"sk{i}_obj_profile"] = np.frombuffer(
                memoryview(sketch.obj_profile), dtype=np.float64
            )
            arrays[f"sk{i}_row_objects"] = np.frombuffer(
                memoryview(sketch.row_objects), dtype=np.int64
            )
            sketch_rows.append(
                (
                    key,
                    {
                        "kmax": sketch.kmax,
                        "build_seconds": sketch.build_seconds,
                    },
                )
            )

        offset = _ARRAY_REGION
        table: Dict[str, Tuple[int, str, int]] = {}
        for array_name, arr in arrays.items():
            offset = _align(offset)
            table[array_name] = (offset, arr.dtype.str, int(arr.shape[0]))
            offset += arr.nbytes

        cfg = config if config is not None else tree.dataset.config
        header = {
            "generation": snap.generation,
            "kind": snap.kind,
            "maxD": snap.maxD,
            "n_slots": snap.n_slots,
            "root_slots": tuple(int(r) for r in snap.root_slots),
            "sim_config": cfg,
            "use_entropy_priority": tree.config.use_entropy_priority,
            "buffer_pages": tree.config.buffer_pages,
            "sketches": sketch_rows,
            "arrays": table,
        }
        header_bytes = pickle.dumps(header)
        header_start = _align(offset)
        total = header_start + len(header_bytes)

        name = f"repro_snap_{os.getpid():x}_{os.urandom(4).hex()}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        try:
            buf = shm.buf
            buf[: len(SEGMENT_MAGIC)] = SEGMENT_MAGIC
            _write_word(buf, _OFF_GENERATION, snap.generation)
            _write_word(buf, _OFF_HEADER_START, header_start)
            _write_word(buf, _OFF_HEADER_LEN, len(header_bytes))
            for array_name, arr in arrays.items():
                start, dtype_str, length = table[array_name]
                dest = np.frombuffer(
                    buf, dtype=np.dtype(dtype_str), count=length, offset=start
                )
                dest[:] = arr
                del dest
            buf[header_start : header_start + len(header_bytes)] = header_bytes
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, snap.generation, total)

    def close(self) -> None:
        """Unmap the parent's view (workers keep theirs)."""
        self.shm.close()

    def unlink(self) -> None:
        """Remove the segment name; memory frees when the last view closes."""
        self.shm.unlink()

    def release(self) -> None:
        """Close and unlink (idempotent); the standard parent teardown."""
        if self._released:
            return
        self.close()
        self._released = True
        self.unlink()

    def __enter__(self) -> "SharedSnapshotSegment":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


_MISSING = object()

#: SharedMemory handles whose unmap was deferred because the caller
#: still held zero-copy views at close time (see AttachedIndex.close).
#: Drained at interpreter exit, when those views are collectable.
_DEFERRED_UNMAPS: List[object] = []


def _drain_deferred_unmaps() -> None:  # pragma: no cover - atexit path
    import contextlib
    import gc

    gc.collect()
    while _DEFERRED_UNMAPS:
        handle = _DEFERRED_UNMAPS.pop()
        with contextlib.suppress(BufferError, OSError):
            handle.close()


import atexit  # noqa: E402 — registered next to the list it drains

atexit.register(_drain_deferred_unmaps)


class _LazySeq:
    """List-like over ``n`` lazily built, cached elements.

    The attach-side representation of per-slot object forms: element
    ``i`` is materialized by ``build(i)`` on first access only, so a
    worker pays reconstruction cost for the slots its queries actually
    touch — the core of the per-worker RSS win.
    """

    __slots__ = ("_cache", "_build")

    def __init__(self, n: int, build) -> None:
        self._cache: List[object] = [_MISSING] * n
        self._build = build

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, i: int):
        value = self._cache[i]
        if value is _MISSING:
            value = self._build(i)
            self._cache[i] = value
        return value


class _SegmentViews:
    """Zero-copy accessors over one attached segment's array region."""

    def __init__(self, shm, table) -> None:
        self._shm = shm
        self._table = table
        self._np = kernels._numpy()

    def cast(self, name: str, code: str):
        """A ``memoryview`` cast — scalar indexing yields Python
        floats/ints, matching the :mod:`array`-backed snapshot exactly."""
        offset, _dtype, length = self._table[name]
        size = _DTYPE_SIZE[code] * length
        return self._shm.buf[offset : offset + size].cast(code)

    def np(self, name: str):
        """A numpy view over the same bytes (vectorized passes)."""
        np = self._np
        offset, dtype_str, length = self._table[name]
        return np.frombuffer(
            self._shm.buf, dtype=np.dtype(dtype_str), count=length, offset=offset
        )


class AttachedSnapshot(IndexSnapshot):
    """An :class:`IndexSnapshot` mapped in place from a shared segment.

    Scalar columns are ``memoryview`` casts (zero-copy, Python-scalar
    indexing), the ``np_*`` views are ``numpy.frombuffer`` over the same
    bytes, and the object-level sequences (``clusters``, ``obj_vec``,
    ``obj_frozen``) rebuild lazily per slot from the segment's
    deduplicated vector pool.  Engine memoization, collect plans, the
    engine factories and :meth:`~IndexSnapshot.text_matrix` are
    inherited unchanged: a worker that builds a sketch the parent did
    not bake into the segment inverts the attached object vectors.
    """

    __slots__ = ("_views", "_vec_cache", "_frozen_cache",
                 "_vec_indptr", "_vec_ids", "_vec_weights", "_vec_nsq")

    def __init__(self, header, views: _SegmentViews) -> None:
        IndexSnapshot.__init__(self)
        self.generation = header["generation"]
        self.kind = header["kind"]
        self.n_slots = header["n_slots"]
        self.maxD = header["maxD"]
        self.root_slots = header["root_slots"]
        self._views = views
        for name, code in _SNAP_COLUMNS:
            setattr(self, name, views.cast(name, code))
        self.np_xlo = views.np("xlo")
        self.np_ylo = views.np("ylo")
        self.np_xhi = views.np("xhi")
        self.np_yhi = views.np("yhi")

        self._vec_indptr = views.cast("vec_indptr", "q")
        self._vec_ids = views.cast("vec_ids", "q")
        self._vec_weights = views.cast("vec_weights", "d")
        self._vec_nsq = views.cast("vec_nsq", "d")
        n_vecs = len(self._vec_nsq)
        self._vec_cache: List[object] = [_MISSING] * n_vecs
        self._frozen_cache: List[object] = [_MISSING] * n_vecs

        cl_indptr = views.cast("cl_indptr", "q")
        cl_int = views.cast("cl_int", "q")
        cl_uni = views.cast("cl_uni", "q")
        cl_docs = views.cast("cl_docs", "q")
        obj_vecidx = views.cast("obj_vecidx", "q")

        def build_clusters(slot: int):
            out = []
            for row in range(cl_indptr[slot], cl_indptr[slot + 1]):
                ivec = self._vector(cl_int[row])
                uvec = self._vector(cl_uni[row])
                iv = object.__new__(IntervalVector)
                iv.intersection = ivec
                iv.union = uvec
                iv.doc_count = cl_docs[row]
                out.append(
                    (
                        iv,
                        self._frozen_vector(cl_int[row]),
                        self._frozen_vector(cl_uni[row]),
                        ivec.norm_squared,
                        uvec.norm_squared,
                    )
                )
            return tuple(out)

        def build_obj_vec(slot: int):
            idx = obj_vecidx[slot]
            return None if idx < 0 else self._vector(idx)

        def build_obj_frozen(slot: int):
            idx = obj_vecidx[slot]
            return None if idx < 0 else self._frozen_vector(idx)

        self.clusters = _LazySeq(self.n_slots, build_clusters)
        self.obj_vec = _LazySeq(self.n_slots, build_obj_vec)
        self.obj_frozen = _LazySeq(self.n_slots, build_obj_frozen)

    # ------------------------------------------------------------------
    # Lazy reconstruction
    # ------------------------------------------------------------------

    def _vector(self, idx: int) -> SparseVector:
        """Pool vector ``idx`` as a real :class:`SparseVector` (cached).

        Rebuilt exactly like unpickling: slots assigned directly from
        the already-sorted id/weight columns and the parent's precomputed
        squared norm, frozen form left lazy.
        """
        vec = self._vec_cache[idx]
        if vec is _MISSING:
            lo, hi = self._vec_indptr[idx], self._vec_indptr[idx + 1]
            vec = SparseVector.__new__(SparseVector)
            vec._ids = tuple(self._vec_ids[lo:hi])
            vec._weights = tuple(self._vec_weights[lo:hi])
            vec._norm_sq = self._vec_nsq[idx]
            vec._frozen = None
            self._vec_cache[idx] = vec
        return vec

    def _frozen_vector(self, idx: int):
        """Pool vector ``idx``'s frozen kernel form (cached).

        Built through :func:`repro.perf.kernels.freeze` from the sorted
        columns, i.e. the identical construction order the parent used —
        the frozen-set iteration-order parity argument of the module
        docstring.
        """
        form = self._frozen_cache[idx]
        if form is _MISSING:
            vec = self._vector(idx)
            form = vec.frozen()
            self._frozen_cache[idx] = form
        return form

    def nbytes(self) -> int:
        """Mapped bytes are shared; count only private lazily built state.

        The columnar arrays live in the segment (one copy machine-wide),
        so the snapshot-specific resident cost of an attached worker is
        the reconstructed vectors — reported here as an estimate from
        the materialized counts.
        """
        vec_bytes = 0
        for idx, vec in enumerate(self._vec_cache):
            if vec is not _MISSING:
                lo, hi = self._vec_indptr[idx], self._vec_indptr[idx + 1]
                vec_bytes += 64 + 16 * (hi - lo)
        return vec_bytes


class _ShmBufferMirror:
    """Cold LRU mirror of the parent's :class:`BufferPool` accounting.

    Charges the same page spans per record through a private
    :class:`~repro.storage.iostats.IOStats`, so worker-side ``SearchResult.io``
    dictionaries have the shape the rest of the system expects.  Record
    payloads are not shipped (the engines never read them), so ``get``
    returns ``b""``.
    """

    def __init__(self, io: IOStats, pages: Dict[int, int], capacity_pages: int) -> None:
        self.io = io
        self._pages = pages
        self.capacity_pages = capacity_pages
        self._cache: "OrderedDict[int, int]" = OrderedDict()
        self._pages_used = 0

    def get(self, record_id: int, tag: str = "") -> bytes:
        record_id = int(record_id)
        pages = self._pages.get(record_id, 1)
        if record_id in self._cache:
            self._cache.move_to_end(record_id)
            self.io.record_hit(pages)
            return b""
        self.io.record_read(pages, tag)
        if pages > self.capacity_pages:
            return b""  # oversized records are served uncached
        while self._pages_used + pages > self.capacity_pages and self._cache:
            _, evicted = self._cache.popitem(last=False)
            self._pages_used -= evicted
        self._cache[record_id] = pages
        self._pages_used += pages
        return b""

    def contains(self, record_id: int) -> bool:
        return int(record_id) in self._cache

    def clear(self) -> None:
        self._cache.clear()
        self._pages_used = 0


class _ShmStubTree:
    """The minimal tree facade the snapshot engines require.

    Provides exactly the surface :class:`~repro.core.traversal.SnapshotEngine`
    touches — ``buffer.get``, ``io.snapshot``, ``generation`` — backed
    by the segment's record page table instead of a live index.
    """

    def __init__(self, snap: AttachedSnapshot, header, views: _SegmentViews) -> None:
        self.kind = snap.kind
        self.generation = snap.generation
        self.io = IOStats()
        rpt_ids = views.cast("rpt_ids", "q")
        rpt_pages = views.cast("rpt_pages", "q")
        pages = dict(zip(rpt_ids, rpt_pages))
        self.buffer = _ShmBufferMirror(self.io, pages, header["buffer_pages"])

    def reset_io(self, cold: bool = True) -> None:
        self.io.reset()
        if cold:
            self.buffer.clear()


class ShmSearcher:
    """Worker-side searcher over one attached segment.

    The worker's stand-in for a
    :class:`~repro.core.rstknn.RSTkNNSearcher`: it runs the snapshot
    engine of the header's similarity setting (result ids and decision
    counters are engine-parity-identical to the seed walk, which the
    engine test suite enforces), or the approx engine over the default
    sketch when ``engine="approx"``.  The TE weight follows the header's
    ``use_entropy_priority``, as the parent's searcher follows its tree.
    """

    def __init__(self, attached: "AttachedIndex",
                 config: Optional[SimilarityConfig],
                 engine: str = "snapshot") -> None:
        header = attached.header
        cfg = config if config is not None else header["sim_config"]
        self.config = cfg
        self.measure = make_measure(cfg.text_measure)
        self.alpha = cfg.alpha
        self.te_weight = te_weight_for(header["use_entropy_priority"])
        self.tree = attached.tree
        snapshot = attached.snapshot
        if engine == "approx":
            # Served from the segment's frozen sketch when the parent
            # exported one; rebuilt worker-side otherwise (memoized).
            self.engine = snapshot.approx_engine_for(
                attached.tree, self.measure, self.alpha, self.te_weight
            )
        else:
            self.engine = snapshot.engine_for(
                attached.tree, self.measure, self.alpha, self.te_weight
            )

    def search(self, query, k: int):
        """Run one RSTkNN query on the attached snapshot engine."""
        return self.engine.search(query, k)


class AttachedIndex:
    """One worker's view of a segment: snapshot, stub tree, lifecycle."""

    def __init__(self, shm, header, views, snapshot, tree) -> None:
        self.shm = shm
        self.header = header
        self.generation = header["generation"]
        self._views = views
        self.snapshot = snapshot
        self.tree = tree
        self._closed = False

    def searcher(
        self,
        config: Optional[SimilarityConfig] = None,
        engine: str = "snapshot",
    ) -> ShmSearcher:
        """A searcher over this attachment (header defaults apply)."""
        return ShmSearcher(self, config, engine=engine)

    def close(self) -> None:
        """Unmap this process's view.

        The attachment drops its own zero-copy views (memoryview casts,
        numpy buffers) and is unusable afterwards.  If the *caller*
        still holds live views — a searcher kept past the attachment,
        say — the unmap is deferred to process exit (CPython refuses to
        unmap a buffer with exported pointers).
        """
        if self._closed:
            return
        self._closed = True
        # Drop exported buffer views so SharedMemory.close() can unmap.
        self.snapshot = None
        self.tree = None
        self._views = None
        self.header = None
        import gc  # noqa: PLC0415 — collect dropped buffer exports

        gc.collect()
        try:
            self.shm.close()
        except BufferError:
            # Someone outside this handle still exports segment memory;
            # parking the handle keeps SharedMemory.__del__ from warning
            # and leaves the unmap to process teardown.  The segment
            # itself is unlinked by its creating process regardless.
            _DEFERRED_UNMAPS.append(self.shm)


def attach(name: str, expected_generation: Optional[int] = None) -> AttachedIndex:
    """Map a segment by name and build the worker-side index view.

    ``expected_generation`` is the generation the parent advertised when
    it shipped the name; a mismatch against the segment header raises
    :class:`StaleSegmentError` before any engine can run — defense in
    depth on top of the parent re-exporting after mutations.

    Resource-tracker note: attaching registers the name with the
    tracker again, but fork-started workers share the parent's tracker
    and its name set deduplicates, so the creator's single ``unlink``
    still unregisters exactly once — and if the creator dies without
    unlinking, the tracker reaps the segment at shutdown instead of
    leaking it.
    """
    ok, why = shm_available()
    if not ok:
        raise SnapshotSegmentError(f"shared-memory transport unavailable: {why}")
    from multiprocessing import shared_memory  # noqa: PLC0415

    shm = shared_memory.SharedMemory(name=name)
    try:
        magic = bytes(shm.buf[: len(SEGMENT_MAGIC)])
        if magic != SEGMENT_MAGIC:
            if magic.startswith(_MAGIC_PREFIX):
                # Right family, wrong layout version: written by a
                # different build (e.g. an RSTSHM06 parent feeding an
                # RSTSHM07 worker).  Stale, not foreign — the remedy is
                # re-exporting, same as a generation mismatch.
                raise StaleSegmentError(
                    f"segment {name!r} has layout version {magic!r}, "
                    f"this build reads {SEGMENT_MAGIC!r}; re-export the "
                    "snapshot with the current build"
                )
            raise SnapshotSegmentError(
                f"segment {name!r} is not a snapshot segment "
                f"(magic {magic!r})"
            )
        generation = _read_word(shm.buf, _OFF_GENERATION)
        if expected_generation is not None and generation != expected_generation:
            raise StaleSegmentError(
                f"segment {name!r} holds generation {generation}, "
                f"expected {expected_generation}; the index mutated after "
                "export and the segment must be re-created"
            )
        header_start = _read_word(shm.buf, _OFF_HEADER_START)
        header_len = _read_word(shm.buf, _OFF_HEADER_LEN)
        header = pickle.loads(
            bytes(shm.buf[header_start : header_start + header_len])
        )
        views = _SegmentViews(shm, header["arrays"])
        snapshot = AttachedSnapshot(header, views)
        for i, (key, meta) in enumerate(header.get("sketches", ())):
            from ..approx.sketch import KnnlSketch  # noqa: PLC0415

            snapshot._sketches[key] = KnnlSketch(
                kmax=meta["kmax"],
                floor_idx=views.cast(f"sk{i}_floor_idx", "q"),
                floor_table=views.cast(f"sk{i}_floor_table", "d"),
                obj_profile=views.cast(f"sk{i}_obj_profile", "d"),
                row_objects=views.cast(f"sk{i}_row_objects", "q"),
                build_seconds=meta["build_seconds"],
            )
        tree = _ShmStubTree(snapshot, header, views)
        return AttachedIndex(shm, header, views, snapshot, tree)
    except BaseException:
        shm.close()
        raise
