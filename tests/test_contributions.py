"""Contribution lists, the weighted k-th-largest selection, and the
counting decision rule that replaces it on the search path."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Point, Rect, SparseVector
from repro.core.contributions import (
    Contribution,
    ContributionList,
    _kth_largest,
    decide_by_count,
)
from repro.core.rstknn import RSTkNNSearcher
from repro.core.traversal import SnapshotEngine, _tighten_candidates
from repro.index import Entry


def make_entry(ref=0):
    return Entry.for_object(ref, Rect.from_point(Point(0, 0)), SparseVector({1: 1.0}))


def contrib(source_ref, lo, hi, count):
    return Contribution((source_ref, False), make_entry(source_ref), lo, hi, count)


class TestKthLargest:
    def test_simple(self):
        assert _kth_largest([(0.9, 1), (0.5, 1), (0.7, 1)], 2) == 0.7

    def test_counts_expand(self):
        assert _kth_largest([(0.9, 3), (0.5, 1)], 3) == 0.9
        assert _kth_largest([(0.9, 3), (0.5, 1)], 4) == 0.5

    def test_insufficient_returns_zero(self):
        assert _kth_largest([(0.9, 2)], 3) == 0.0
        assert _kth_largest([], 1) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            _kth_largest([(1.0, 1)], 0)

    def test_exactly_k(self):
        assert _kth_largest([(0.4, 2), (0.8, 2)], 4) == 0.4


class TestContributionList:
    def test_set_and_bounds(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2))
        clist.set(contrib(2, 0.5, 0.6, 1))
        assert clist.total_count() == 3
        assert clist.knn_lower(1) == 0.5
        assert clist.knn_lower(2) == 0.2
        assert clist.knn_upper(1) == 0.8
        assert clist.knn_upper(3) == 0.6

    def test_replace_same_source(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2))
        clist.set(contrib(1, 0.4, 0.6, 2))
        assert clist.total_count() == 2
        assert clist.knn_lower(1) == 0.4

    def test_zero_count_removes(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2))
        clist.set(contrib(1, 0.2, 0.8, 0))
        assert len(clist) == 0

    def test_remove(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2))
        clist.remove((1, False))
        assert (1, False) not in clist
        assert clist.knn_lower(1) == 0.0

    def test_tight_tracking(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2), tight=True)
        assert clist.is_tight((1, False))
        clist.set(contrib(1, 0.3, 0.7, 2))  # loose overwrite
        assert not clist.is_tight((1, False))

    def test_copy_resets_tightness(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.2, 0.8, 2), tight=True)
        heir = clist.copy()
        assert heir.is_tight((1, False)) is False
        assert (1, False) in heir
        # Copies are independent.
        heir.remove((1, False))
        assert (1, False) in clist

    def test_top_by_min_and_max(self):
        clist = ContributionList()
        clist.set(contrib(1, 0.1, 0.9, 1))
        clist.set(contrib(2, 0.5, 0.6, 1))
        clist.set(contrib(3, 0.3, 0.95, 1))
        assert [c.source[0] for c in clist.top_by_min(2)] == [2, 3]
        assert [c.source[0] for c in clist.top_by_max(2)] == [3, 1]

    def test_knn_monotone_in_k(self):
        clist = ContributionList()
        for i, (lo, hi) in enumerate([(0.9, 0.95), (0.5, 0.7), (0.2, 0.4)]):
            clist.set(contrib(i, lo, hi, 2))
        lowers = [clist.knn_lower(k) for k in range(1, 8)]
        assert lowers == sorted(lowers, reverse=True)
        uppers = [clist.knn_upper(k) for k in range(1, 8)]
        assert uppers == sorted(uppers, reverse=True)


# ----------------------------------------------------------------------
# The counting decision rule against the two k-th-largest selections.
# ----------------------------------------------------------------------

#: A few shared values make ties between contributions (and between a
#: contribution and the query bounds) common.
_TIED = (0.0, 0.25, 0.5, 0.75, 1.0)
_unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _bounds(draw, max_size=60, max_count=20):
    """``(lo, hi, count)`` triples with ``0 <= lo <= hi <= 1``."""
    value = st.one_of(st.sampled_from(_TIED), _unit)
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        a, b = draw(value), draw(value)
        count = draw(st.integers(min_value=1, max_value=max_count))
        out.append((min(a, b), max(a, b), count))
    return out


@st.composite
def _decision_cases(draw):
    triples = draw(_bounds())
    stored = [v for lo, hi, _ in triples for v in (lo, hi)]
    q = st.one_of(_unit, st.sampled_from(stored + list(_TIED)))
    a, b = draw(q), draw(q)
    return triples, min(a, b), max(a, b), draw(st.integers(1, 10))


def _reference(triples, q_lo, q_hi, k):
    """The paper's rules, literally: compare against kNNL and kNNU."""
    if q_hi < _kth_largest([(lo, c) for lo, _, c in triples], k):
        return -1
    if q_lo >= _kth_largest([(hi, c) for _, hi, c in triples], k):
        return 1
    return 0


def _clist(triples):
    clist = ContributionList()
    for i, (lo, hi, count) in enumerate(triples):
        clist.set(contrib(i, lo, hi, count))
    return clist


class TestDecideByCount:
    @settings(max_examples=400, deadline=None)
    @given(case=_decision_cases())
    @example(case=([], 0.0, 0.0, 1))  # nothing covered: accept
    @example(case=([(0.5, 0.5, 2)], 0.5, 0.5, 3))  # fewer than k objects
    @example(case=([(0.5, 0.9, 3)], 0.2, 0.4, 3))  # exactly k beat q_hi
    @example(case=([(0.5, 0.9, 3)], 0.2, 0.5, 3))  # tie with kNNL: no prune
    @example(case=([(0.2, 0.6, 3)], 0.6, 0.7, 3))  # tie with kNNU: accept
    def test_matches_kth_largest_rules(self, case):
        triples, q_lo, q_hi, k = case
        expected = _reference(triples, q_lo, q_hi, k)
        assert decide_by_count(triples, q_lo, q_hi, k) == expected
        # The seed walk's list, against its own band values.
        clist = _clist(triples)
        band = -1 if q_hi < clist.knn_lower(k) else (
            1 if q_lo >= clist.knn_upper(k) else 0
        )
        assert band == expected
        assert clist.decide(q_lo, q_hi, k) == expected
        assert RSTkNNSearcher._decide(clist, q_lo, q_hi, k) == expected
        # The snapshot engine's slot dict.
        d = {7 * i + 3: t for i, t in enumerate(triples)}
        assert SnapshotEngine._decide(d, q_lo, q_hi, k) == expected

    def test_stops_once_k_objects_beat_q_hi(self):
        seen = []

        def triples():
            for t in [(0.9, 0.95, 2), (0.8, 0.9, 1), (0.1, 0.2, 5)]:
                seen.append(t)
                yield t

        assert decide_by_count(triples(), 0.3, 0.5, 3) == -1
        assert len(seen) == 2


class TestCandidateSelection:
    """``_top_by`` must pick what ``heapq.nlargest`` picks, in its order."""

    @settings(max_examples=200, deadline=None)
    @given(
        triples=_bounds(max_size=40, max_count=5),
        m=st.integers(min_value=1, max_value=24),
    )
    def test_matches_heapq_nlargest_with_ties(self, triples, m):
        clist = _clist(triples)
        values = list(clist.contributions())
        for got, key in (
            (clist.top_by_min(m), lambda c: c.min_st),
            (clist.top_by_max(m), lambda c: c.max_st),
        ):
            want = heapq.nlargest(m, values, key=key)
            assert [c.source for c in got] == [c.source for c in want]
        d = {7 * i + 3: t for i, t in enumerate(triples)}
        items = list(d.items())
        assert _tighten_candidates(d, m) == heapq.nlargest(
            m, items, key=lambda it: it[1][0]
        ) + heapq.nlargest(m, items, key=lambda it: it[1][1])
