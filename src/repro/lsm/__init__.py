"""LSM-style live updates: delta overlay, tombstones, epoch freezes.

Public surface of the live-update path (see ``docs/UPDATES.md``):
:class:`LiveIndex` wraps a built (C)IUR-tree, absorbs inserts into a
:class:`DeltaOverlay` and deletes into :class:`Tombstones`, serves
queries over the union through pinned :class:`EpochView` epochs, and
folds the overlay into fresh frozen generations via
:meth:`LiveIndex.freeze_step` or the background freezer.
"""

from .live import (
    DEFAULT_FREEZE_THRESHOLD,
    FREEZE_BUCKETS,
    OVERLAY_REF_BASE,
    DeltaOverlay,
    EpochView,
    LiveIndex,
    Tombstones,
    adjust_entry,
    frozen_path,
)

__all__ = [
    "DEFAULT_FREEZE_THRESHOLD",
    "FREEZE_BUCKETS",
    "OVERLAY_REF_BASE",
    "DeltaOverlay",
    "EpochView",
    "LiveIndex",
    "Tombstones",
    "adjust_entry",
    "frozen_path",
]
