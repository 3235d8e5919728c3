"""repro — Reverse Spatial and Textual k Nearest Neighbor Search.

A from-scratch reproduction of Lu, Lu and Cong, *"Reverse spatial and
textual k nearest neighbor search"* (SIGMOD 2011): RSTkNN queries over
the IUR-tree and CIUR-tree spatial-textual indexes, with a simulated-I/O
storage substrate, baselines, bichromatic extension, and a full
benchmark harness.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the reproduced evaluation.

Quickstart::

    from repro import IURTree, RSTkNNSearcher
    from repro.workloads import gn_like, sample_queries

    dataset = gn_like(n=1000)
    tree = IURTree.build(dataset)
    searcher = RSTkNNSearcher(tree)
    query = sample_queries(dataset, 1)[0]
    result = searcher.search(query, k=5)
    print(result.ids, result.stats.as_dict())
"""

from .config import IndexConfig, SimilarityConfig
from .errors import (
    BufferPoolError,
    ConfigError,
    DatasetError,
    DeadlineExceeded,
    FaultInjected,
    IndexCorruptionError,
    PageFormatError,
    QueryError,
    QueueFull,
    ReproError,
    ServiceError,
    StorageError,
)
from .spatial import Point, Rect, SpatialProximity
from .text import (
    IntervalVector,
    SparseVector,
    Vocabulary,
    make_measure,
    make_weighting,
)
from .model import STDataset, STObject, STScorer
from .index import CIURTree, Entry, IndexStats, IURTree, RTree
from .core import (
    BichromaticRSTkNN,
    BoundComputer,
    BruteForceRSTkNN,
    RSTkNNSearcher,
    SearchResult,
    SearchStats,
    InfluenceResult,
    LocationSelector,
    SearchTrace,
    SelectionReport,
    SpatialKeywordSearcher,
    ThresholdBaseline,
    TopKSearcher,
)
from .index.costmodel import CostEstimate, RSTkNNCostModel, estimate_rstknn_io
from .io import load_dataset, load_index, save_dataset, save_index
from .lsm import LiveIndex
from .perf import BatchResult, BatchSearcher, BatchStats
from .service import (
    DEGRADATION_CHAIN,
    CancelToken,
    Deadline,
    QueryService,
    ServiceBatchResult,
    ServiceResult,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config
    "IndexConfig",
    "SimilarityConfig",
    # errors
    "BufferPoolError",
    "ConfigError",
    "DatasetError",
    "DeadlineExceeded",
    "FaultInjected",
    "IndexCorruptionError",
    "PageFormatError",
    "QueryError",
    "QueueFull",
    "ReproError",
    "ServiceError",
    "StorageError",
    # spatial
    "Point",
    "Rect",
    "SpatialProximity",
    # text
    "IntervalVector",
    "SparseVector",
    "Vocabulary",
    "make_measure",
    "make_weighting",
    # model
    "STDataset",
    "STObject",
    "STScorer",
    # index
    "CIURTree",
    "Entry",
    "IndexStats",
    "IURTree",
    "RTree",
    # core
    "BichromaticRSTkNN",
    "BoundComputer",
    "BruteForceRSTkNN",
    "RSTkNNSearcher",
    "SearchResult",
    "SearchStats",
    "InfluenceResult",
    "LocationSelector",
    "SearchTrace",
    "SelectionReport",
    "SpatialKeywordSearcher",
    "ThresholdBaseline",
    "TopKSearcher",
    # cost model
    "CostEstimate",
    "RSTkNNCostModel",
    "estimate_rstknn_io",
    # persistence
    "load_dataset",
    "load_index",
    "save_dataset",
    "save_index",
    # lsm (live updates)
    "LiveIndex",
    # perf
    "BatchResult",
    "BatchSearcher",
    "BatchStats",
    # service
    "DEGRADATION_CHAIN",
    "CancelToken",
    "Deadline",
    "QueryService",
    "ServiceBatchResult",
    "ServiceResult",
]
