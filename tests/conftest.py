"""Shared fixtures: small deterministic datasets and helpers."""

from __future__ import annotations

import random
from typing import List, Tuple
from unittest import mock

import pytest

from repro import SimilarityConfig, STDataset
from repro.perf import kernels
from repro.spatial import Point

#: ``kernels.AUTO_NUMPY_MIN_TERMS`` values that pick the frozen form of
#: every vector frozen under them: ``python`` keeps all vectors in the
#: python form, ``numpy`` (0) puts all of them in the numpy form, and
#: ``mixed`` (3) splits a corpus of short documents between the two.
FORM_CROSSOVERS = {"python": 1 << 62, "numpy": 0, "mixed": 3}

#: The frozen forms this host can build.
FORMS = ("python", "numpy") if kernels.numpy_available() else ("python",)


def frozen_form(form: str):
    """Context manager under which new frozen forms are ``form`` ones.

    A frozen form is cached on its vector, so only vectors (and trees)
    built or first frozen inside the block take the form.
    """
    return mock.patch.object(
        kernels, "AUTO_NUMPY_MIN_TERMS", FORM_CROSSOVERS[form]
    )

VOCAB = [
    "sushi", "ramen", "pizza", "pasta", "tacos", "burger", "coffee",
    "seafood", "noodles", "wine", "grill", "bakery", "curry", "salad",
]


def random_corpus(
    n: int, seed: int, max_terms: int = 5
) -> List[Tuple[Point, str]]:
    """A reproducible random (location, description) corpus."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        point = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        count = rng.randint(1, max_terms)
        terms = [VOCAB[rng.randrange(len(VOCAB))] for _ in range(count)]
        records.append((point, " ".join(terms)))
    return records


@pytest.fixture(scope="session")
def tiny_dataset() -> STDataset:
    """8 hand-placed objects; used where exact geometry matters."""
    records = [
        (Point(1.0, 1.0), "sushi seafood"),
        (Point(1.2, 0.8), "ramen noodles"),
        (Point(4.5, 4.0), "pizza pasta"),
        (Point(4.8, 4.4), "pizza wine"),
        (Point(0.7, 4.6), "tacos"),
        (Point(4.2, 0.6), "burger"),
        (Point(2.5, 2.5), "seafood grill wine"),
        (Point(2.8, 2.2), "noodles curry"),
    ]
    return STDataset.from_corpus(records)


@pytest.fixture(scope="session")
def small_dataset() -> STDataset:
    """80 random objects with the default configuration."""
    return STDataset.from_corpus(random_corpus(80, seed=3))


@pytest.fixture(scope="session")
def medium_dataset() -> STDataset:
    """300 random objects; big enough for a three-level tree."""
    return STDataset.from_corpus(random_corpus(300, seed=5))


@pytest.fixture
def text_config() -> SimilarityConfig:
    return SimilarityConfig(alpha=0.3, text_measure="extended_jaccard")
