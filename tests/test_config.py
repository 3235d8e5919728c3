"""Configuration objects: validation and introspection.

Also pins the settable values that are gone: each keyword no caller
outside the tests set is now a constant, and passing it fails loudly
instead of being ignored.  The retired entry points are pinned gone
the same way.
"""

import importlib

import pytest

from repro import (
    BatchSearcher,
    ConfigError,
    IndexConfig,
    IURTree,
    LiveIndex,
    QueryService,
    RSTkNNSearcher,
    SimilarityConfig,
)
from repro.perf.shm import AttachedIndex, SharedSnapshotSegment
from repro.shard import (
    DEFAULT_FRONTIER,
    DEFAULT_KMAX,
    ScatterGatherSearcher,
    build_sharded_index,
    build_summary,
)
from repro.text.similarity import make_measure
from repro.workloads import gn_like


class TestSimilarityConfig:
    def test_defaults_are_valid(self):
        cfg = SimilarityConfig()
        assert cfg.alpha == 0.5
        assert cfg.text_measure == "extended_jaccard"
        assert cfg.weighting == "tfidf"

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ConfigError):
            SimilarityConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_alpha_boundaries_allowed(self, alpha):
        assert SimilarityConfig(alpha=alpha).alpha == alpha

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityConfig(text_measure="levenshtein")

    def test_unknown_weighting_rejected(self):
        with pytest.raises(ConfigError):
            SimilarityConfig(weighting="bm25x")

    def test_lm_lambda_validated(self):
        with pytest.raises(ConfigError):
            SimilarityConfig(lm_lambda=1.5)

    def test_with_alpha_returns_new_config(self):
        base = SimilarityConfig(alpha=0.5)
        other = base.with_alpha(0.9)
        assert other.alpha == 0.9
        assert base.alpha == 0.5
        assert other.text_measure == base.text_measure


class TestIndexConfig:
    def test_defaults_are_valid(self):
        cfg = IndexConfig()
        assert cfg.max_entries >= 2 * cfg.min_entries

    def test_min_entries_must_fit(self):
        with pytest.raises(ConfigError):
            IndexConfig(max_entries=8, min_entries=5)

    def test_max_entries_floor(self):
        with pytest.raises(ConfigError):
            IndexConfig(max_entries=1)

    def test_page_size_floor(self):
        with pytest.raises(ConfigError):
            IndexConfig(page_size=10)

    def test_buffer_pages_floor(self):
        with pytest.raises(ConfigError):
            IndexConfig(buffer_pages=0)

    def test_num_clusters_floor(self):
        with pytest.raises(ConfigError):
            IndexConfig(num_clusters=0)

    def test_outlier_threshold_range(self):
        with pytest.raises(ConfigError):
            IndexConfig(outlier_threshold=1.5)
        assert IndexConfig(outlier_threshold=0.5).outlier_threshold == 0.5
        assert IndexConfig(outlier_threshold=None).outlier_threshold is None


#: ``(callable, keyword)`` for every retired setting of a callable that
#: survives; each case passes the keyword's old default from
#: ``_RETIRED_VALUES``.
RETIRED_SETTINGS = [
    ("RSTkNNSearcher", "te_weight"),
    ("RSTkNNSearcher", "sketch_kmax"),
    ("BatchSearcher", "te_weight"),
    ("BatchSearcher", "warm"),
    ("BatchSearcher", "sketch_kmax"),
    ("ScatterGatherSearcher", "te_weight"),
    ("ScatterGatherSearcher", "kmax"),
    ("ScatterGatherSearcher", "frontier_size"),
    ("ShardedIndex.summaries", "kmax"),
    ("ShardedIndex.summaries", "frontier_size"),
    ("build_summary", "kmax"),
    ("build_summary", "frontier_size"),
    ("QueryService", "te_weight"),
    ("LiveIndex", "build_method"),
    ("build_sharded_index", "build_method"),
    ("SharedSnapshotSegment.create", "te_weight"),
    ("SharedSnapshotSegment.create", "name"),
    ("AttachedIndex.searcher", "te_weight"),
    ("AttachedIndex.searcher", "sketch_kmax"),
]

_RETIRED_VALUES = {
    "te_weight": 0.05,
    "sketch_kmax": 16,
    "warm": True,
    "kmax": DEFAULT_KMAX,
    "frontier_size": DEFAULT_FRONTIER,
    "build_method": "str",
    "name": None,
}

_CALLS = {}


def _retired_calls():
    """One call per surviving callable, taking only the retired keyword."""
    if not _CALLS:
        dataset = gn_like(n=60)
        tree = IURTree.build(dataset)
        index = build_sharded_index(dataset, 2)
        searcher = ScatterGatherSearcher(index)
        measure = make_measure(dataset.config.text_measure)
        alpha = dataset.config.alpha
        engine = index.engines(measure, alpha, searcher.te_weight)[0]
        _CALLS.update({
            "RSTkNNSearcher": lambda **kw: RSTkNNSearcher(tree, **kw),
            "BatchSearcher": lambda **kw: BatchSearcher(tree, **kw),
            "ScatterGatherSearcher": (
                lambda **kw: ScatterGatherSearcher(index, **kw)
            ),
            "ShardedIndex.summaries": (
                lambda **kw: index.summaries(measure, alpha, 0.0, **kw)
            ),
            "build_summary": lambda **kw: build_summary(0, engine, **kw),
            "QueryService": lambda **kw: QueryService(tree, **kw),
            "LiveIndex": lambda **kw: LiveIndex(tree, **kw),
            "build_sharded_index": (
                lambda **kw: build_sharded_index(dataset, 2, **kw)
            ),
            "SharedSnapshotSegment.create": (
                lambda **kw: SharedSnapshotSegment.create(tree, **kw)
            ),
            # Argument binding fails before the body reads ``self``.
            "AttachedIndex.searcher": (
                lambda **kw: AttachedIndex.searcher(None, **kw)
            ),
        })
    return _CALLS


@pytest.mark.parametrize(
    "target, keyword",
    RETIRED_SETTINGS,
    ids=[f"{target}-{keyword}" for target, keyword in RETIRED_SETTINGS],
)
def test_retired_settings_are_rejected(target, keyword):
    call = _retired_calls()[target]
    message = f"unexpected keyword argument '{keyword}'"
    with pytest.raises(TypeError, match=message):
        call(**{keyword: _RETIRED_VALUES[keyword]})


#: ``(module, dotted name)`` of every retired entry point: the sharded
#: read path's second copy (``ShardQueryService`` and the public
#: ``gather`` it shared) and the plan-then-build pair that
#: ``build_sharded_index`` absorbed.
RETIRED_NAMES = [
    ("repro.shard", "ShardPlanner"),
    ("repro.shard", "ShardPlan"),
    ("repro.shard.http", "ShardQueryService"),
    ("repro.shard", "ScatterGatherSearcher.gather"),
]


@pytest.mark.parametrize(
    "module, name",
    RETIRED_NAMES,
    ids=[name for _module, name in RETIRED_NAMES],
)
def test_retired_names_are_gone(module, name):
    owner = importlib.import_module(module)
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, last)
