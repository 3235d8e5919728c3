"""Dataset construction: raw corpus -> vocabulary, weighted objects, maxD.

An :class:`STDataset` owns everything the indexes and scorers need:
the objects with their weighted vectors, the shared vocabulary, the data
region and its normalization diameter, and the similarity configuration
used to weight terms (so queries are weighted consistently).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import SimilarityConfig
from ..errors import DatasetError, QueryError
from ..spatial import Point, Rect, SpatialProximity
from ..text import SparseVector, Vocabulary, make_weighting, tokenize
from .objects import STObject


class STDataset:
    """An immutable-after-build collection of spatial-textual objects."""

    def __init__(
        self,
        objects: List[STObject],
        vocabulary: Vocabulary,
        region: Rect,
        config: SimilarityConfig,
    ) -> None:
        if not objects:
            raise DatasetError("STDataset requires at least one object")
        ids = [o.oid for o in objects]
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate object ids in dataset")
        self.objects = objects
        self.vocabulary = vocabulary
        self.region = region
        self.config = config
        self.proximity = SpatialProximity.for_region(region)
        self._by_id: Dict[int, STObject] = {o.oid: o for o in objects}
        self._weighting = make_weighting(config.weighting, config.lm_lambda)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_corpus(
        records: Sequence[Tuple[Point, str]],
        config: Optional[SimilarityConfig] = None,
        region: Optional[Rect] = None,
    ) -> "STDataset":
        """Build a dataset from ``(location, raw description)`` records.

        Two passes: the first builds the vocabulary statistics (document
        frequencies, collection counts), the second weights each document
        — necessary because IDF and LM backgrounds are corpus-global.
        """
        if not records:
            raise DatasetError("from_corpus requires at least one record")
        cfg = config if config is not None else SimilarityConfig()
        vocab = Vocabulary()
        tf_maps: List[Dict[int, int]] = []
        for _, text in records:
            tf_maps.append(vocab.add_document(tokenize(text)))
        weighting = make_weighting(cfg.weighting, cfg.lm_lambda)
        objects: List[STObject] = []
        for oid, ((point, text), tf) in enumerate(zip(records, tf_maps)):
            vector = weighting.vector(tf, vocab)
            keywords = tuple(sorted({vocab.term_of(t) for t in tf}))
            objects.append(STObject(oid, point, vector, keywords))
        data_region = region if region is not None else Rect.from_points(
            p for p, _ in records
        )
        return STDataset(objects, vocab, data_region, cfg)

    @staticmethod
    def from_keyword_records(
        records: Sequence[Tuple[Point, Sequence[str]]],
        config: Optional[SimilarityConfig] = None,
        region: Optional[Rect] = None,
    ) -> "STDataset":
        """Build from pre-tokenized keyword lists (workload generators)."""
        return STDataset.from_corpus(
            [(p, " ".join(kws)) for p, kws in records], config, region
        )

    # ------------------------------------------------------------------
    # Query weighting
    # ------------------------------------------------------------------

    def make_query(self, point: Point, text: str, oid: int = -1) -> STObject:
        """Weight a query description against this corpus's statistics.

        Query terms unseen in the corpus are interned (df treated as 1 by
        the weighting), matching how a deployed system scores novel query
        keywords.  Both coordinates of ``point`` must be finite, else
        :class:`~repro.errors.QueryError`: a NaN distance fails every
        pruning comparison and an infinite one puts the point at
        proximity 0 from every object, so either would answer silently
        wrong.  Every object built from a record (:meth:`append_record`,
        :meth:`derive`) comes through here.
        """
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            raise QueryError(
                f"point coordinates must be finite, got ({point.x}, {point.y})"
            )
        tf: Dict[int, int] = {}
        for term in tokenize(text):
            tid = self.vocabulary.intern(term)
            tf[tid] = tf.get(tid, 0) + 1
        vector = self._weighting.vector(tf, self.vocabulary)
        keywords = tuple(sorted({self.vocabulary.term_of(t) for t in tf}))
        return STObject(oid, point, vector, keywords)

    def derive(
        self, records: Sequence[Tuple[Point, str]], id_offset: int = 0
    ) -> "STDataset":
        """Build a companion dataset sharing vocabulary, region and config.

        Used for bichromatic queries: user documents are weighted against
        the *object* corpus statistics (the indexed collection defines
        term importance) and share the spatial normalization, so SimST
        scores between the two sets are well defined.
        """
        if not records:
            raise DatasetError("derive requires at least one record")
        objects = [
            self.make_query(point, text, oid=i + id_offset)
            for i, (point, text) in enumerate(records)
        ]
        return STDataset(objects, self.vocabulary, self.region, self.config)

    def make_query_from_object(self, obj: STObject, oid: int = -1) -> STObject:
        """Use an existing object's location/vector as a query object."""
        return STObject(oid, obj.point, obj.vector, obj.keywords)

    # ------------------------------------------------------------------
    # Mutation (dynamic corpora)
    # ------------------------------------------------------------------

    def append_record(self, point: Point, text: str) -> STObject:
        """Add a new object, weighted against the *current* statistics.

        Corpus-global statistics (IDF, collection counts) are not
        retroactively recomputed for existing vectors — the standard
        approximation for dynamic collections; rebuild the dataset when
        drift matters.
        """
        oid = max(self._by_id) + 1 if self._by_id else 0
        obj = self.make_query(point, text, oid=oid)
        self.objects.append(obj)
        self._by_id[oid] = obj
        return obj

    def remove_object(self, oid: int) -> STObject:
        """Remove and return an object (raises on unknown id)."""
        obj = self.get(oid)
        del self._by_id[oid]
        self.objects.remove(obj)
        return obj

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterable[STObject]:
        return iter(self.objects)

    def get(self, oid: int) -> STObject:
        """Fetch an object by id (raises DatasetError when unknown)."""
        try:
            return self._by_id[oid]
        except KeyError:
            raise DatasetError(f"unknown object id {oid}") from None

    def vectors(self) -> List[SparseVector]:
        """Every object's weighted vector, in dataset order."""
        return [o.vector for o in self.objects]

    def stats(self) -> Dict[str, float]:
        """Corpus statistics for experiment logs and DESIGN tables."""
        lens = [len(o.vector) for o in self.objects]
        return {
            "objects": float(len(self.objects)),
            "vocabulary": float(len(self.vocabulary)),
            "avg_terms_per_object": sum(lens) / len(lens),
            "max_terms_per_object": float(max(lens)),
            "region_diagonal": self.region.diagonal(),
        }
