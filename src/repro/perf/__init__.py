"""Performance subsystem: similarity kernels, snapshots, batch engine.

Four layers, each usable on its own:

* :mod:`repro.perf.kernels` — frozen sparse-vector forms and the
  merge-free reduction kernels behind every text similarity: a
  pure-python form, and a numpy form for vectors of at least
  ``AUTO_NUMPY_MIN_TERMS`` terms when numpy imports;
* :mod:`repro.perf.batch` — :class:`BatchSearcher`, which runs a query
  workload over one index sequentially or fanned out across worker
  processes, every setting passed to its constructor;
* :mod:`repro.perf.snapshot` — :class:`IndexSnapshot`, the immutable
  struct-of-arrays freeze of a built tree that the ``snapshot``
  traversal engine (:mod:`repro.core.traversal`) runs over;
* :mod:`repro.perf.shm` — :class:`SharedSnapshotSegment` /
  :func:`attach`, the zero-copy shared-memory transport that parallel
  batch mode ships its snapshot over, one segment for every worker.

``batch``, ``snapshot``, and ``shm`` are imported lazily: they depend
on layers that transitively use the kernels.
"""

from .kernels import numpy_available

__all__ = [
    "numpy_available",
    "BatchSearcher",
    "BatchResult",
    "BatchStats",
    "IndexSnapshot",
    "SharedSnapshotSegment",
    "AttachedIndex",
    "attach",
    "shm_available",
]


def __getattr__(name: str):
    """Lazy access to higher layers (avoids a text->core import cycle)."""
    if name in ("BatchSearcher", "BatchResult", "BatchStats"):
        from . import batch

        return getattr(batch, name)
    if name == "IndexSnapshot":
        from .snapshot import IndexSnapshot

        return IndexSnapshot
    if name in ("SharedSnapshotSegment", "AttachedIndex", "attach", "shm_available"):
        from . import shm

        return getattr(shm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
