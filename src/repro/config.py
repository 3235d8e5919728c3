"""Library-wide configuration objects.

The paper's similarity function and index behaviour are governed by a small
number of knobs (the spatial/textual blend ``alpha``, the text similarity
measure, R-tree fanout, buffer pool size, ...).  They are collected in
frozen dataclasses so a configuration can be passed around, hashed, and
reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

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

#: Kernel backends supported by :mod:`repro.perf.kernels` (``auto``
#: resolves to ``numpy`` when importable, else ``python``).
KERNEL_BACKENDS = ("python", "numpy", "auto")

#: Traversal engines supported by :class:`repro.core.rstknn.RSTkNNSearcher`
#: (``auto`` runs the columnar snapshot engine whenever the request does
#: not need the seed object-graph walk; ``approx`` filters against the
#: frozen kNNL sketch tier of :mod:`repro.approx`).
ENGINES = ("seed", "snapshot", "auto", "approx")

#: Batch execution modes of :class:`repro.perf.BatchSearcher`
#: (``per-query`` runs one traversal per query; ``fused`` walks the
#: index snapshot once per spatial-locality group of queries).
BATCH_MODES = ("per-query", "fused")

#: Index transports for parallel batch mode (:mod:`repro.perf.shm`).
#: ``auto`` ships a zero-copy shared-memory snapshot segment when the
#: platform supports it and falls back to pickling the tree otherwise;
#: ``shm`` insists on the segment (falling back loudly); ``pickle``
#: always ships the pickled object graph.
BATCH_SHARE_MODES = ("auto", "shm", "pickle")


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


@dataclass(frozen=True)
class PerfConfig:
    """Parameters of the performance subsystem (:mod:`repro.perf`).

    Attributes:
        kernel_backend: One of :data:`KERNEL_BACKENDS`; which similarity
            kernel implementation to use.  The ``REPRO_KERNEL``
            environment variable overrides the library default at
            process level; this knob records an explicit choice for a
            run (apply it with :func:`repro.perf.set_backend`).
        bound_cache_entries: Capacity of the shared LRU pair-bound cache
            used by :class:`repro.perf.BatchSearcher` and any searcher
            constructed with a :class:`repro.perf.BoundCache`.
        batch_workers: Default process fan-out of the batch engine
            (``1`` = sequential with the shared cache).
        engine: One of :data:`ENGINES`; which searcher traversal
            implementation to run.  The ``REPRO_ENGINE`` environment
            variable overrides the library default at process level;
            this knob records an explicit choice for a run (pass it to
            :class:`repro.core.rstknn.RSTkNNSearcher` or
            :class:`repro.perf.BatchSearcher`).
        batch_mode: One of :data:`BATCH_MODES`; how
            :class:`repro.perf.BatchSearcher` executes a workload
            (``per-query`` or the fused group-traversal engine).
        fused_group_size: Queries fused into one snapshot walk when
            ``batch_mode="fused"`` (see ``docs/TUNING.md``).
        batch_share: One of :data:`BATCH_SHARE_MODES`; how parallel
            batch mode ships the index to its worker processes
            (``auto`` prefers the zero-copy shared-memory snapshot
            segment of :mod:`repro.perf.shm`, falling back to pickle
            with the reason recorded on ``BatchStats``).
        observability: When True,
            :meth:`repro.perf.BatchSearcher.from_perf_config` attaches a
            live :class:`repro.obs.MetricsRegistry` (query counters,
            decision counters, latency histograms, phase gauges) instead
            of recording nothing.  Off by default: the disabled path
            costs nothing (see ``docs/OBSERVABILITY.md``).
        retry_attempts: Total tries (including the first) the batch
            engine gives a query chunk lost to a crashed or erroring
            pool worker before finishing it sequentially in the parent
            (see ``docs/RELIABILITY.md``).
        retry_base_delay: Backoff before the first such retry, in
            seconds; later retries back off exponentially with
            deterministic jitter.
        service_max_pending: Admission-queue capacity of
            :class:`repro.service.QueryService` — requests beyond it are
            shed with :class:`repro.errors.QueueFull`.
        service_deadline_seconds: Default per-query deadline of the
            service (``None`` = no deadline unless a request carries
            one).
        shard_count: Number of Morton shards the scatter–gather layer
            partitions the dataset into (``1`` = unsharded; see
            :mod:`repro.shard`).
        shard_kmax: Largest ``k`` the per-shard admission-pruning
            tables cover — queries with bigger ``k`` scatter to every
            shard (still exact, just unpruned).
        warm_floors: Seed the exact engines (snapshot/fused, and the
            shard admission summaries) with the frozen kNNL floors of
            :mod:`repro.approx` — result ids are unchanged by
            construction, subtrees and candidates below the floor are
            pruned before any contribution-list work.  The
            ``REPRO_WARM_FLOORS`` environment variable overrides the
            library default at process level.
        sketch_kmax: Largest ``k`` the frozen kNNL sketch covers;
            floors read 0.0 (never prune) beyond it, and
            ``engine="approx"`` answers larger ``k`` with the snapshot
            walk.
        live_updates: Wrap the serving tree in a
            :class:`repro.lsm.LiveIndex` at construction time
            (``from_perf_config`` paths and the CLI): inserts and
            deletes then land in a delta overlay instead of forcing a
            full snapshot re-freeze, queries merge both sources, and a
            freezer folds the overlay into fresh frozen generations.
            The ``REPRO_LIVE_UPDATES`` environment variable overrides
            the library default at process level (see
            ``docs/UPDATES.md``).
        lsm_freeze_threshold: Overlay size (objects + tombstones) at
            which the background freezer folds the overlay into a new
            frozen generation.  Explicit ``freeze_step()`` calls ignore
            it.  Smaller values keep the merged-walk window short
            (queries return to the frozen fast paths sooner) at the
            cost of more frequent fold builds.
    """

    kernel_backend: str = "python"
    bound_cache_entries: int = 262144
    batch_workers: int = 1
    engine: str = "auto"
    batch_mode: str = "per-query"
    fused_group_size: int = 8
    batch_share: str = "auto"
    observability: bool = False
    retry_attempts: int = 3
    retry_base_delay: float = 0.05
    service_max_pending: int = 1024
    service_deadline_seconds: Optional[float] = None
    shard_count: int = 1
    shard_kmax: int = 16
    warm_floors: bool = False
    sketch_kmax: int = 16
    live_updates: bool = False
    lsm_freeze_threshold: int = 256

    def __post_init__(self) -> None:
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ConfigError(
                f"unknown kernel backend {self.kernel_backend!r}; "
                f"expected one of {KERNEL_BACKENDS}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.bound_cache_entries < 2:
            raise ConfigError(
                f"bound_cache_entries must be >= 2, got {self.bound_cache_entries}"
            )
        if self.batch_workers < 1:
            raise ConfigError(
                f"batch_workers must be >= 1, got {self.batch_workers}"
            )
        if self.batch_mode not in BATCH_MODES:
            raise ConfigError(
                f"unknown batch mode {self.batch_mode!r}; "
                f"expected one of {BATCH_MODES}"
            )
        if self.batch_share not in BATCH_SHARE_MODES:
            raise ConfigError(
                f"unknown batch share mode {self.batch_share!r}; "
                f"expected one of {BATCH_SHARE_MODES}"
            )
        if self.fused_group_size < 1:
            raise ConfigError(
                f"fused_group_size must be >= 1, got {self.fused_group_size}"
            )
        if not isinstance(self.observability, bool):
            raise ConfigError(
                f"observability must be a bool, got {self.observability!r}"
            )
        if self.retry_attempts < 1:
            raise ConfigError(
                f"retry_attempts must be >= 1, got {self.retry_attempts}"
            )
        if self.retry_base_delay < 0.0:
            raise ConfigError(
                f"retry_base_delay must be >= 0, got {self.retry_base_delay}"
            )
        if self.service_max_pending < 1:
            raise ConfigError(
                f"service_max_pending must be >= 1, got {self.service_max_pending}"
            )
        if self.service_deadline_seconds is not None and not (
            self.service_deadline_seconds > 0.0
        ):
            raise ConfigError(
                "service_deadline_seconds must be > 0 or None, got "
                f"{self.service_deadline_seconds}"
            )
        if self.shard_count < 1:
            raise ConfigError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if self.shard_kmax < 1:
            raise ConfigError(
                f"shard_kmax must be >= 1, got {self.shard_kmax}"
            )
        if not isinstance(self.warm_floors, bool):
            raise ConfigError(
                f"warm_floors must be a bool, got {self.warm_floors!r}"
            )
        if self.sketch_kmax < 1:
            raise ConfigError(
                f"sketch_kmax must be >= 1, got {self.sketch_kmax}"
            )
        if not isinstance(self.live_updates, bool):
            raise ConfigError(
                f"live_updates must be a bool, got {self.live_updates!r}"
            )
        if self.lsm_freeze_threshold < 1:
            raise ConfigError(
                "lsm_freeze_threshold must be >= 1, got "
                f"{self.lsm_freeze_threshold}"
            )


@dataclass(frozen=True)
class ReproConfig:
    """Top-level bundle of similarity, index, and perf configuration."""

    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    perf: PerfConfig = field(default_factory=PerfConfig)

    def describe(self) -> Dict[str, Any]:
        """Return a flat dict of every knob, for experiment logging."""
        out: Dict[str, Any] = {}
        for prefix, cfg in (
            ("sim", self.similarity),
            ("idx", self.index),
            ("perf", self.perf),
        ):
            for key, value in vars(cfg).items():
                out[f"{prefix}.{key}"] = value
        return out


DEFAULT_CONFIG = ReproConfig()
