"""Experiment harness shared by the CLI and the pytest benchmarks.

A *method* is one of the compared systems:

====================  ====================================================
``base``              Threshold baseline: per-object top-k over an IUR-tree
``iur``               Branch-and-bound RSTkNN over the plain IUR-tree
``ciur``              ... over the clustered CIUR-tree
``ciur-oe``           CIUR-tree with outlier extraction
``ciur-te``           CIUR-tree with entropy-guided traversal
``ciur-oe-te``        Both optimizations
====================  ====================================================

Every run reports cold-cache simulated I/O and wall time per query, plus
the searcher's decision statistics, averaged over the query workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import IndexConfig
from ..core.baseline import ThresholdBaseline
from ..core.rstknn import RSTkNNSearcher
from ..errors import ConfigError
from ..index.ciurtree import CIURTree
from ..index.iurtree import IURTree
from ..model.dataset import STDataset
from ..model.objects import STObject

METHODS = ("base", "iur", "ciur", "ciur-oe", "ciur-te", "ciur-oe-te")

#: Default cohesion threshold for OE variants.  Calibrated so only the
#: genuinely cluster-breaking tail (~5-10% of documents on the bundled
#: workloads) is extracted; see E10 for the threshold sweep.
DEFAULT_OE_THRESHOLD = 0.08


@dataclass
class QueryRun:
    """Aggregated outcome of a query workload against one method."""

    method: str
    queries: int
    mean_ms: float
    mean_reads: float
    mean_result_size: float
    mean_expansions: float = 0.0
    mean_verified: float = 0.0
    group_decided_fraction: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> List[str]:
        """Cells for the standard experiment table (see HEADERS)."""
        return [
            self.method,
            f"{self.mean_ms:.2f}",
            f"{self.mean_reads:.1f}",
            f"{self.mean_result_size:.1f}",
            f"{self.mean_expansions:.1f}",
            f"{self.mean_verified:.1f}",
            f"{100 * self.group_decided_fraction:.1f}%",
        ]

    HEADERS = [
        "method",
        "ms/query",
        "I/O reads",
        "|result|",
        "expansions",
        "verified",
        "group-decided",
    ]


def build_tree(
    dataset: STDataset,
    method: str,
    index_config: Optional[IndexConfig] = None,
    seed: int = 7,
) -> IURTree:
    """Build the index a method runs on (``base`` uses a plain IUR-tree)."""
    cfg = index_config if index_config is not None else IndexConfig()
    if method in ("base", "iur"):
        plain = IndexConfig(
            max_entries=cfg.max_entries,
            min_entries=cfg.min_entries,
            page_size=cfg.page_size,
            buffer_pages=cfg.buffer_pages,
            num_clusters=1,
            outlier_threshold=None,
            use_entropy_priority=False,
        )
        return IURTree.build(dataset, plain)
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    outlier_threshold = None
    if "oe" in method:
        outlier_threshold = (
            cfg.outlier_threshold
            if cfg.outlier_threshold is not None
            else DEFAULT_OE_THRESHOLD
        )
    clustered = IndexConfig(
        max_entries=cfg.max_entries,
        min_entries=cfg.min_entries,
        page_size=cfg.page_size,
        buffer_pages=cfg.buffer_pages,
        num_clusters=cfg.num_clusters,
        outlier_threshold=outlier_threshold,
        use_entropy_priority="te" in method,
    )
    return CIURTree.build(dataset, clustered, seed=seed)


def make_searcher(
    tree: IURTree,
    engine: Optional[str] = None,
) -> RSTkNNSearcher:
    """Searcher wired to the tree's own configuration."""
    return RSTkNNSearcher(tree, engine=engine)


def run_queries(
    tree: IURTree,
    queries: Sequence[STObject],
    k: int,
    method: str = "iur",
    cold: bool = True,
    engine: Optional[str] = None,
) -> QueryRun:
    """Run the branch-and-bound searcher over a workload and aggregate.

    The run's memo hit/miss totals land in :attr:`QueryRun.extra`.
    ``engine`` selects the traversal implementation (see
    :data:`repro.core.rstknn.ENGINE_CHOICES`).
    """
    searcher = make_searcher(tree, engine=engine)
    total_ms = 0.0
    total_reads = 0
    total_results = 0
    total_expansions = 0
    total_verified = 0
    total_group = 0
    total_hits = 0
    total_misses = 0
    n_objects = max(len(tree.dataset), 1)
    for query in queries:
        tree.reset_io(cold=cold)
        started = time.perf_counter()
        result = searcher.search(query, k)
        total_ms += (time.perf_counter() - started) * 1000.0
        total_reads += tree.io.reads
        total_results += len(result.ids)
        total_expansions += result.stats.expansions
        total_verified += result.stats.verified_objects
        total_group += result.stats.group_decided_objects()
        total_hits += result.stats.cache_hits
        total_misses += result.stats.cache_misses
    n = max(len(queries), 1)
    extra: Dict[str, float] = {
        "cache_hits": float(total_hits),
        "cache_misses": float(total_misses),
    }
    return QueryRun(
        method=method,
        queries=len(queries),
        mean_ms=total_ms / n,
        mean_reads=total_reads / n,
        mean_result_size=total_results / n,
        mean_expansions=total_expansions / n,
        mean_verified=total_verified / n,
        group_decided_fraction=total_group / (n * n_objects),
        extra=extra,
    )


def run_baseline_queries(
    tree: IURTree,
    queries: Sequence[STObject],
    k: int,
    cold: bool = True,
) -> QueryRun:
    """Run the per-object top-k threshold baseline over a workload."""
    baseline = ThresholdBaseline(tree)
    total_ms = 0.0
    total_reads = 0
    total_results = 0
    for query in queries:
        tree.reset_io(cold=cold)
        started = time.perf_counter()
        ids = baseline.search(query, k)
        total_ms += (time.perf_counter() - started) * 1000.0
        total_reads += tree.io.reads
        total_results += len(ids)
    n = max(len(queries), 1)
    return QueryRun(
        method="base",
        queries=len(queries),
        mean_ms=total_ms / n,
        mean_reads=total_reads / n,
        mean_result_size=total_results / n,
    )
