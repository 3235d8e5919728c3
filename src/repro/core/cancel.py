"""Engine-side half of cooperative cancellation.

The engines deliberately do not import :mod:`repro.service` (the
service imports them); they only agree on a *duck-typed* token
protocol: anything with an ``expired() -> bool`` method can be passed
as ``cancel`` to :meth:`RSTkNNSearcher.search
<repro.core.rstknn.RSTkNNSearcher.search>` or :meth:`SnapshotEngine.search
<repro.core.traversal.SnapshotEngine.search>`.  Engines poll the token
once at search start and once per node expansion — the unit of work
that dominates query cost — and raise
:class:`repro.errors.DeadlineExceeded` carrying the partial
:class:`~repro.core.rstknn.SearchStats` when it reports expiry.  With
``cancel=None`` (the default) no poll happens at all and the walks are
byte-for-byte the pre-cancellation code paths.
"""

from __future__ import annotations


def cancel_message(cancel: object) -> str:
    """The reason string for a ``DeadlineExceeded`` raised off ``cancel``.

    Uses the token's ``describe()`` when it offers one (the
    :mod:`repro.service.deadline` tokens do), so the exception says
    *which* limit fired ("deadline of 0.5s exceeded" vs "query
    cancelled"); any foreign token falls back to a generic message.
    """
    describe = getattr(cancel, "describe", None)
    if callable(describe):
        return str(describe())
    return "deadline exceeded"
