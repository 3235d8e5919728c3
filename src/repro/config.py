"""Library-wide configuration objects.

The paper's similarity function and index behaviour are governed by a small
number of knobs (the spatial/textual blend ``alpha``, the text similarity
measure, R-tree fanout, buffer pool size, ...).  They are collected in
frozen dataclasses so a configuration can be passed around, hashed, and
reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

#: Text similarity measures supported by :mod:`repro.text.similarity`.
TEXT_MEASURES = (
    "extended_jaccard",
    "cosine",
    "overlap",
    "dice",
    "weighted_jaccard",
)

#: Term weighting schemes supported by :mod:`repro.text.weighting`.
WEIGHTINGS = ("tf", "tfidf", "lm", "bm25")

@dataclass(frozen=True)
class SimilarityConfig:
    """Parameters of the spatial-textual similarity ``SimST``.

    Attributes:
        alpha: Weight of the spatial component in ``[0, 1]``; the textual
            component gets ``1 - alpha``.  ``alpha=1`` degenerates to pure
            spatial similarity, ``alpha=0`` to pure text similarity.
        text_measure: One of :data:`TEXT_MEASURES`.
        weighting: Term weighting scheme used when building datasets, one
            of :data:`WEIGHTINGS`.
        lm_lambda: Jelinek-Mercer smoothing parameter, only used by the
            ``lm`` weighting.
    """

    alpha: float = 0.5
    text_measure: str = "extended_jaccard"
    weighting: str = "tfidf"
    lm_lambda: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.text_measure not in TEXT_MEASURES:
            raise ConfigError(
                f"unknown text measure {self.text_measure!r}; "
                f"expected one of {TEXT_MEASURES}"
            )
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(
                f"unknown weighting {self.weighting!r}; expected one of {WEIGHTINGS}"
            )
        if not 0.0 <= self.lm_lambda <= 1.0:
            raise ConfigError(f"lm_lambda must be in [0, 1], got {self.lm_lambda}")

    def with_alpha(self, alpha: float) -> "SimilarityConfig":
        """Return a copy with a different ``alpha``."""
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class IndexConfig:
    """Parameters of the IUR-tree family.

    Attributes:
        max_entries: Maximum R-tree node fanout ``M``.
        min_entries: Minimum fill ``m`` (only enforced by insert/split;
            STR bulk loading packs nodes fully).
        page_size: Simulated disk page size in bytes; inverted-file blocks
            are charged ``ceil(bytes / page_size)`` I/Os like the paper.
        buffer_pages: LRU buffer pool capacity, in pages.
        num_clusters: ``NC`` — number of text clusters for the CIUR-tree
            (ignored by the plain IUR-tree).
        outlier_threshold: Cosine-to-centroid below which a document is
            extracted as an outlier (OE optimization).  ``None`` disables
            outlier extraction.
        use_entropy_priority: Enable the text-entropy traversal boost (TE).
        store_intersections: Keep per-term *minimum* weights in directory
            nodes.  ``False`` degrades the index to a plain IR-tree
            (union/maximum weights only) — the ablation that isolates
            what the paper's "I" in IUR-tree buys: without intersection
            vectors every textual lower bound collapses to 0 and group
            pruning must rely on geometry alone.
    """

    max_entries: int = 16
    min_entries: int = 4
    page_size: int = 4096
    buffer_pages: int = 128
    num_clusters: int = 8
    outlier_threshold: float | None = None
    use_entropy_priority: bool = False
    store_intersections: bool = True

    def __post_init__(self) -> None:
        if self.max_entries < 2:
            raise ConfigError(f"max_entries must be >= 2, got {self.max_entries}")
        if not 1 <= self.min_entries <= self.max_entries // 2:
            raise ConfigError(
                f"min_entries must be in [1, max_entries/2], got {self.min_entries}"
            )
        if self.page_size < 64:
            raise ConfigError(f"page_size must be >= 64, got {self.page_size}")
        if self.buffer_pages < 1:
            raise ConfigError(f"buffer_pages must be >= 1, got {self.buffer_pages}")
        if self.num_clusters < 1:
            raise ConfigError(f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.outlier_threshold is not None and not 0.0 <= self.outlier_threshold <= 1.0:
            raise ConfigError(
                f"outlier_threshold must be in [0, 1], got {self.outlier_threshold}"
            )
