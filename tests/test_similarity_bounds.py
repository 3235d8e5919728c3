"""The headline textual invariant: interval bounds contain every pair.

For random sets of documents A and B, summarized into interval vectors,
every measure must satisfy

    min_similarity(A, B) <= similarity(a, b) <= max_similarity(A, B)

for every document pair, and the bounds must be *exact* on degenerate
single-document summaries (the searcher relies on that to treat
object-object bounds as exact scores).  Both checks are exact, with no
slack: the engines prune on exact comparisons, so a bound that is off by
one rounding step drops a result.  Every property runs on each kernel
backend in turn (python, and numpy when importable), since scores and
bounds reduce through the backend's frozen vectors.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import IntervalVector, SparseVector
from repro.perf import kernels
from repro.text.similarity import (
    CosineMeasure,
    DiceMeasure,
    ExtendedJaccard,
    OverlapMeasure,
    WeightedJaccard,
)

MEASURES = [
    ExtendedJaccard(),
    CosineMeasure(),
    OverlapMeasure(),
    DiceMeasure(),
    WeightedJaccard(),
]

doc = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    max_size=6,
)
doc_set = st.lists(doc, min_size=1, max_size=5)


BACKENDS = ["python"] + (["numpy"] if kernels.numpy_available() else [])


def summarize(weight_maps):
    vectors = [SparseVector(w) for w in weight_maps]
    iv = IntervalVector.merge([IntervalVector.from_document(v) for v in vectors])
    return vectors, iv


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
@given(set_a=doc_set, set_b=doc_set)
@settings(max_examples=200, deadline=None)
# Weighted Jaccard: computing Σmax as Σa + Σb - Σmin rounded the pair's
# Σmax below the node's intersection Σmax (upper bound too low) ...
@example(
    set_a=[{2: 0.31710948553920126, 3: 1.48, 4: 0.7268494400673278}],
    set_b=[
        {1: 1.8, 2: 1.666988579167301, 4: 0.6},
        {0: 1.75, 1: 2.6958356351657704, 2: 2.5},
    ],
)
# ... or above the node's union Σmax (lower bound too high).
@example(
    set_a=[{0: 2.4827819615643163, 1: 2.5, 2: 1.09}],
    set_b=[{2: 2.1, 3: 2.6}, {1: 1.4, 2: 1.95, 3: 0.12}],
)
# Cosine: parallel but unequal documents rounded above the 1.0 cap.
@example(set_a=[{0: 3.13}], set_b=[{0: 1.33}])
# Extended Jaccard and Dice: a near-equal, unequal pair rounded above the
# 1.0 the upper bound returns.
@example(set_a=[{0: 0.36}], set_b=[{0: 0.36000000000000004}, {0: 1.0}])
def test_bounds_contain_all_pairs(measure, set_a, set_b):
    docs_a, iv_a = summarize(set_a)
    docs_b, iv_b = summarize(set_b)
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            lo = measure.min_similarity(iv_a, iv_b)
            hi = measure.max_similarity(iv_a, iv_b)
            assert lo <= hi
            for da in docs_a:
                for db in docs_b:
                    sim = measure.similarity(da, db)
                    assert lo <= sim, f"{measure.name}/{backend}: lower bound violated"
                    assert sim <= hi, f"{measure.name}/{backend}: upper bound violated"


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
@given(wa=doc, wb=doc)
@settings(max_examples=200, deadline=None)
@example(wa={0: 3.13}, wb={0: 1.33})
@example(wa={0: 0.36}, wb={0: 0.36000000000000004})
def test_bounds_exact_on_degenerate_summaries(measure, wa, wb):
    a, b = SparseVector(wa), SparseVector(wb)
    iv_a, iv_b = IntervalVector.from_document(a), IntervalVector.from_document(b)
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            sim = measure.similarity(a, b)
            assert measure.min_similarity(iv_a, iv_b) == sim
            assert measure.max_similarity(iv_a, iv_b) == sim


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
@given(doc_set, doc_set)
@settings(max_examples=100, deadline=None)
@example(set_a=[{0: 0.36}], set_b=[{0: 0.36000000000000004}])
def test_bounds_stay_in_unit_interval(measure, set_a, set_b):
    docs_a, iv_a = summarize(set_a)
    docs_b, iv_b = summarize(set_b)
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            assert 0.0 <= measure.min_similarity(iv_a, iv_b) <= 1.0
            assert 0.0 <= measure.max_similarity(iv_a, iv_b) <= 1.0
            for da in docs_a:
                for db in docs_b:
                    assert 0.0 <= measure.similarity(da, db) <= 1.0


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
@given(doc_set, doc_set, doc_set)
@settings(max_examples=100, deadline=None)
def test_merging_only_loosens_bounds(measure, set_a, set_b, set_c):
    """A coarser summary (A ∪ C) must bracket the finer summary's range."""
    _, iv_a = summarize(set_a)
    _, iv_b = summarize(set_b)
    _, iv_c = summarize(set_c)
    coarse = IntervalVector.merge([iv_a, iv_c])
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            assert measure.min_similarity(coarse, iv_b) <= (
                measure.min_similarity(iv_a, iv_b) + 1e-9
            )
            assert measure.max_similarity(coarse, iv_b) >= (
                measure.max_similarity(iv_a, iv_b) - 1e-9
            )
