"""Exception hierarchy for the repro library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without
swallowing genuine programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DatasetError(ReproError):
    """A dataset is malformed or inconsistent with an operation."""


class IndexError_(ReproError):
    """An index structure violated an internal invariant.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``IndexCorruptionError`` from the
    package root.
    """


# Friendlier public alias.
IndexCorruptionError = IndexError_


class StorageError(ReproError):
    """The page store or buffer pool was used incorrectly."""


class PageFormatError(StorageError):
    """A serialized page could not be decoded."""


class BufferPoolError(StorageError):
    """Buffer pool misuse: over-pinning, unpinning an unpinned page, etc."""


class SnapshotSegmentError(StorageError):
    """A shared-memory snapshot segment could not be created or attached.

    Raised by :mod:`repro.perf.shm` when the zero-copy transport is
    unavailable (no numpy, no ``multiprocessing.shared_memory``) or a
    segment fails structural validation at attach time.
    """


class StaleSegmentError(SnapshotSegmentError):
    """An attached segment's generation does not match the live index.

    The parent stamps the tree's structural generation into the segment
    header at export; workers verify it at attach.  A mismatch means the
    index mutated after export — the segment must be re-created, never
    served.
    """


class QueryError(ReproError):
    """A query was issued with invalid parameters."""


class ServiceError(ReproError):
    """The query service could not complete a request.

    Raised when every engine in the degradation chain failed; the
    triggering engine failure is attached as ``__cause__``.
    """


class DeadlineExceeded(ServiceError):
    """A query ran past its deadline (or was cooperatively cancelled).

    Engines check the cancellation token at node-expansion granularity,
    so the exception surfaces within one expansion of the limit and
    carries the partial :class:`~repro.core.rstknn.SearchStats`
    accumulated up to that point in :attr:`stats` (``None`` when the
    deadline expired before any engine work started).
    """

    def __init__(self, message: str = "deadline exceeded", stats=None) -> None:
        super().__init__(message)
        #: Partial decision counters of the interrupted search.
        self.stats = stats


class QueueFull(ServiceError):
    """The admission queue shed a request (``max_pending`` reached)."""


class FaultInjected(ServiceError):
    """A deterministic failure injected by :mod:`repro.service.faults`.

    Only ever raised when the ``REPRO_FAULTS`` environment variable (or
    an explicit :func:`repro.service.faults.set_plan`) arms a fault
    plan; production runs never see it.
    """
