"""RSTkNN searcher: correctness against brute force, edge cases, stats."""

import pytest

from repro import (
    BruteForceRSTkNN,
    CIURTree,
    IndexConfig,
    IURTree,
    QueryError,
    RSTkNNSearcher,
    SimilarityConfig,
    STDataset,
)
from repro.spatial import Point
from repro.workloads import sample_queries


def assert_matches_brute(dataset, tree, queries, ks):
    brute = BruteForceRSTkNN(dataset)
    searcher = RSTkNNSearcher(tree)
    for q in queries:
        for k in ks:
            assert searcher.search(q, k).ids == brute.search(q, k), (
                f"mismatch at k={k}"
            )


class TestCorrectness:
    def test_iur_matches_brute(self, small_dataset):
        tree = IURTree.build(small_dataset)
        queries = sample_queries(small_dataset, 4, seed=1)
        assert_matches_brute(small_dataset, tree, queries, (1, 3, 7))

    def test_ciur_matches_brute(self, small_dataset):
        tree = CIURTree.build(small_dataset, IndexConfig(num_clusters=4))
        queries = sample_queries(small_dataset, 4, seed=2)
        assert_matches_brute(small_dataset, tree, queries, (1, 3, 7))

    def test_ciur_oe_matches_brute(self, small_dataset):
        tree = CIURTree.build(
            small_dataset, IndexConfig(num_clusters=4, outlier_threshold=0.5)
        )
        assert tree.stats().outliers > 0  # the knob actually fired
        queries = sample_queries(small_dataset, 4, seed=3)
        assert_matches_brute(small_dataset, tree, queries, (1, 5))

    def test_ciur_te_matches_brute(self, small_dataset):
        tree = CIURTree.build(
            small_dataset, IndexConfig(num_clusters=4, use_entropy_priority=True)
        )
        queries = sample_queries(small_dataset, 4, seed=4)
        assert_matches_brute(small_dataset, tree, queries, (1, 5))

    def test_insert_built_tree_matches_brute(self, small_dataset):
        tree = IURTree.build(small_dataset, method="insert")
        queries = sample_queries(small_dataset, 3, seed=5)
        assert_matches_brute(small_dataset, tree, queries, (2, 6))

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.8, 1.0])
    def test_alpha_extremes(self, alpha):
        from tests.conftest import random_corpus

        dataset = STDataset.from_corpus(
            random_corpus(60, seed=int(alpha * 10)),
            SimilarityConfig(alpha=alpha),
        )
        tree = IURTree.build(dataset)
        queries = sample_queries(dataset, 3, seed=6)
        assert_matches_brute(dataset, tree, queries, (1, 4))

    @pytest.mark.parametrize(
        "measure", ["cosine", "overlap", "dice", "weighted_jaccard"]
    )
    def test_other_measures(self, measure):
        from tests.conftest import random_corpus

        dataset = STDataset.from_corpus(
            random_corpus(60, seed=9), SimilarityConfig(text_measure=measure)
        )
        tree = IURTree.build(dataset)
        queries = sample_queries(dataset, 3, seed=7)
        assert_matches_brute(dataset, tree, queries, (1, 4))


class TestEdgeCases:
    def test_k_must_be_positive(self, small_dataset):
        tree = IURTree.build(small_dataset)
        with pytest.raises(QueryError):
            RSTkNNSearcher(tree).search(small_dataset.get(0), 0)

    def test_k_at_least_dataset_size_returns_everything(self, small_dataset):
        tree = IURTree.build(small_dataset)
        q = sample_queries(small_dataset, 1, seed=8)[0]
        result = RSTkNNSearcher(tree).search(q, len(small_dataset) + 5)
        assert result.ids == [o.oid for o in small_dataset.objects]

    def test_single_object_dataset(self):
        dataset = STDataset.from_corpus([(Point(1, 1), "alone here")])
        tree = IURTree.build(dataset)
        q = dataset.make_query(Point(2, 2), "alone")
        # The lone object has no k-th neighbor, so q trivially qualifies.
        assert RSTkNNSearcher(tree).search(q, 1).ids == [0]

    def test_query_identical_to_object(self, small_dataset):
        tree = IURTree.build(small_dataset)
        brute = BruteForceRSTkNN(small_dataset)
        obj = small_dataset.get(0)
        q = small_dataset.make_query_from_object(obj)
        assert RSTkNNSearcher(tree).search(q, 3).ids == brute.search(q, 3)

    def test_query_with_no_matching_terms(self, small_dataset):
        tree = IURTree.build(small_dataset)
        brute = BruteForceRSTkNN(small_dataset)
        q = small_dataset.make_query(Point(50, 50), "xylophone zymurgy")
        assert RSTkNNSearcher(tree).search(q, 2).ids == brute.search(q, 2)

    def test_far_away_query(self, small_dataset):
        tree = IURTree.build(small_dataset)
        brute = BruteForceRSTkNN(small_dataset)
        q = small_dataset.make_query(Point(100, 100), "sushi")
        assert RSTkNNSearcher(tree).search(q, 2).ids == brute.search(q, 2)


class TestStatsAndIO:
    def test_result_metadata(self, medium_dataset):
        tree = IURTree.build(medium_dataset)
        q = sample_queries(medium_dataset, 1, seed=9)[0]
        tree.reset_io()
        result = RSTkNNSearcher(tree).search(q, 5)
        stats = result.stats
        assert stats.result_count == len(result.ids)
        assert stats.elapsed_seconds > 0
        decided = (
            stats.pruned_objects + stats.accepted_objects + stats.verified_objects
        )
        assert decided == len(medium_dataset)
        assert result.io["reads"] == tree.io.reads
        as_dict = stats.as_dict()
        assert "cache_hits" in as_dict and "cache_misses" in as_dict
        assert "cache_evictions" not in as_dict

    def test_io_charged(self, medium_dataset):
        tree = IURTree.build(medium_dataset)
        q = sample_queries(medium_dataset, 1, seed=10)[0]
        tree.reset_io()
        RSTkNNSearcher(tree).search(q, 5)
        assert tree.io.reads > 0

    def test_warm_buffer_reduces_io(self, medium_dataset):
        tree = IURTree.build(medium_dataset)
        q = sample_queries(medium_dataset, 1, seed=11)[0]
        searcher = RSTkNNSearcher(tree)
        tree.reset_io(cold=True)
        searcher.search(q, 5)
        cold_reads = tree.io.reads
        tree.reset_io(cold=False)
        searcher.search(q, 5)
        assert tree.io.reads < cold_reads

    def test_contains_and_len(self, small_dataset):
        tree = IURTree.build(small_dataset)
        q = sample_queries(small_dataset, 1, seed=12)[0]
        result = RSTkNNSearcher(tree).search(q, len(small_dataset))
        assert len(result) == len(result.ids)
        assert result.ids[0] in result


def test_search_result_contains_uses_lazy_set(small_dataset):
    tree = IURTree.build(small_dataset)
    query = sample_queries(small_dataset, 1, seed=5)[0]
    result = RSTkNNSearcher(tree).search(query, 3)
    for oid in result.ids:
        assert oid in result
    assert -12345 not in result
    # The memoized set is built once and reused.
    assert result._id_set == set(result.ids)
