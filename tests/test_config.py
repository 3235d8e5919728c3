"""Configuration objects: validation and introspection."""

import pytest

from repro import ConfigError, IndexConfig, SimilarityConfig


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
