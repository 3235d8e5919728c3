"""Datasets, objects, and the SimST scorer."""

import pytest

from repro import (
    DatasetError,
    Point,
    QueryError,
    Rect,
    SimilarityConfig,
    STDataset,
    STScorer,
)

#: Points with one non-finite coordinate, on x and on y.
NON_FINITE_POINTS = [
    pytest.param(float(v), 1.0, id=f"x={v}") for v in ("nan", "inf", "-inf")
] + [
    pytest.param(1.0, float(v), id=f"y={v}") for v in ("nan", "inf", "-inf")
]


class TestSTDataset:
    def test_from_corpus_assigns_sequential_ids(self, tiny_dataset):
        assert [o.oid for o in tiny_dataset.objects] == list(range(8))

    def test_empty_corpus_rejected(self):
        with pytest.raises(DatasetError):
            STDataset.from_corpus([])

    def test_region_covers_points(self, tiny_dataset):
        for obj in tiny_dataset.objects:
            assert tiny_dataset.region.contains_point(obj.point)

    def test_get_unknown_id(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.get(999)

    def test_keywords_sorted_unique(self, tiny_dataset):
        obj = tiny_dataset.get(0)
        assert list(obj.keywords) == sorted(set(obj.keywords))

    def test_stats(self, tiny_dataset):
        stats = tiny_dataset.stats()
        assert stats["objects"] == 8
        assert stats["vocabulary"] > 0
        assert stats["avg_terms_per_object"] > 0

    def test_from_keyword_records(self):
        ds = STDataset.from_keyword_records(
            [(Point(0, 0), ["a", "b"]), (Point(1, 1), ["b"])]
        )
        assert len(ds) == 2
        assert "b" in ds.vocabulary

    def test_explicit_region(self):
        region = Rect(0, 0, 10, 10)
        ds = STDataset.from_corpus([(Point(1, 1), "x")], region=region)
        assert ds.region == region

    def test_make_query_weights_against_corpus(self, tiny_dataset):
        q = tiny_dataset.make_query(Point(1, 1), "sushi pizza")
        assert q.oid == -1
        assert len(q.vector) >= 1
        assert set(q.keywords) == {"pizza", "sushi"}

    def test_make_query_with_unseen_terms(self, tiny_dataset):
        q = tiny_dataset.make_query(Point(1, 1), "zebra quantum")
        assert set(q.keywords) == {"quantum", "zebra"}

    @pytest.mark.parametrize("x, y", NON_FINITE_POINTS)
    def test_make_query_refuses_non_finite_points(self, tiny_dataset, x, y):
        # A NaN point fails every pruning comparison (a walk answers
        # every object) and an infinite one answers none.
        with pytest.raises(QueryError, match="finite"):
            tiny_dataset.make_query(Point(x, y), "sushi")
        with pytest.raises(QueryError, match="finite"):
            tiny_dataset.derive([(Point(x, y), "sushi")])

    def test_derive_shares_vocabulary_and_region(self, tiny_dataset):
        users = tiny_dataset.derive([(Point(2, 2), "sushi wine")])
        assert users.vocabulary is tiny_dataset.vocabulary
        assert users.region == tiny_dataset.region
        assert users.objects[0].oid == 0

    def test_derive_empty_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.derive([])

    def test_duplicate_ids_rejected(self, tiny_dataset):
        objs = [tiny_dataset.get(0), tiny_dataset.get(0)]
        with pytest.raises(DatasetError):
            STDataset(
                objs, tiny_dataset.vocabulary, tiny_dataset.region, tiny_dataset.config
            )


class TestSTObject:
    def test_mbr_is_point(self, tiny_dataset):
        obj = tiny_dataset.get(0)
        assert obj.mbr().is_point()
        assert obj.mbr().contains_point(obj.point)

    def test_interval_is_degenerate(self, tiny_dataset):
        obj = tiny_dataset.get(0)
        iv = obj.interval()
        assert iv.union == obj.vector
        assert iv.intersection == obj.vector


class TestSTScorer:
    def test_score_range(self, tiny_dataset):
        scorer = STScorer.for_dataset(tiny_dataset)
        for a in tiny_dataset.objects:
            for b in tiny_dataset.objects:
                assert 0.0 <= scorer.score(a, b) <= 1.0 + 1e-12

    def test_self_similarity_is_max(self, tiny_dataset):
        scorer = STScorer.for_dataset(tiny_dataset)
        a = tiny_dataset.get(0)
        assert scorer.score(a, a) == pytest.approx(1.0)

    def test_symmetry(self, tiny_dataset):
        scorer = STScorer.for_dataset(tiny_dataset)
        a, b = tiny_dataset.get(0), tiny_dataset.get(5)
        assert scorer.score(a, b) == pytest.approx(scorer.score(b, a))

    def test_alpha_one_is_pure_spatial(self, tiny_dataset):
        scorer = STScorer.for_dataset(tiny_dataset, SimilarityConfig(alpha=1.0))
        a, b = tiny_dataset.get(0), tiny_dataset.get(1)
        assert scorer.score(a, b) == pytest.approx(scorer.spatial(a, b))

    def test_alpha_zero_is_pure_textual(self, tiny_dataset):
        scorer = STScorer.for_dataset(tiny_dataset, SimilarityConfig(alpha=0.0))
        a, b = tiny_dataset.get(0), tiny_dataset.get(6)
        assert scorer.score(a, b) == pytest.approx(scorer.textual(a, b))

    def test_blend(self, tiny_dataset):
        cfg = SimilarityConfig(alpha=0.3)
        scorer = STScorer.for_dataset(tiny_dataset, cfg)
        a, b = tiny_dataset.get(0), tiny_dataset.get(6)
        expected = 0.3 * scorer.spatial(a, b) + 0.7 * scorer.textual(a, b)
        assert scorer.score(a, b) == pytest.approx(expected)
