"""Text similarity measures with provable interval bounds.

Each measure implements three operations:

* ``similarity(a, b)`` — exact similarity of two concrete documents;
* ``min_similarity(A, B)`` — a value <= ``similarity(a, b)`` for *every*
  document pair ``a in A, b in B`` consistent with the interval summaries;
* ``max_similarity(A, B)`` — a value >= ``similarity(a, b)`` for every
  such pair.

The bound derivations are given inline; the property tests in
``tests/test_similarity_bounds.py`` check them against random subtree
contents.  The paper's default is the Extended Jaccard measure over TF-IDF
vectors; cosine and set-overlap are included for the measure-ablation
experiment (E9).

All similarities are in ``[0, 1]`` with the convention that a pair with no
shared terms — including empty documents — scores 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from ..errors import ConfigError
from .interval import IntervalVector
from .vector import SparseVector


class TextMeasure(ABC):
    """Strategy interface for text similarity plus interval bounds."""

    #: Short name used in configs and experiment logs.
    name: str = "abstract"

    @abstractmethod
    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        """Exact similarity of two documents, in [0, 1]."""

    @abstractmethod
    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        """Lower bound over every consistent document pair."""

    @abstractmethod
    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        """Upper bound over every consistent document pair."""


class ExtendedJaccard(TextMeasure):
    """Extended Jaccard: ``EJ(u, v) = <u,v> / (|u|^2 + |v|^2 - <u,v>)``.

    ``EJ`` is 1 iff ``u == v != 0`` and 0 when the vectors share no terms.
    Writing ``f(d, S) = d / (S - d)`` with ``d = <u,v>`` and
    ``S = |u|^2 + |v|^2``, ``f`` is increasing in ``d`` (for ``S`` fixed,
    ``d < S``) and decreasing in ``S`` — the bounds below follow by
    monotonicity.
    """

    name = "extended_jaccard"

    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        # Fused kernel: dot, norms, and the disjoint fast path in one
        # call (denom >= d > 0 by Cauchy-Schwarz when terms are shared).
        return a.ext_jaccard(b)

    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # Every document pair has d >= d_min (both documents contain every
        # intersection term at >= intersection weight) and
        # S <= S_max = sum of squared union weights (documents are
        # term-wise dominated by their unions).  f(d, S) >= f(d_min, S_max).
        d_min = a.intersection.dot(b.intersection)
        if d_min == 0.0:
            return 0.0
        s_max = a.union.norm_squared + b.union.norm_squared
        return d_min / (s_max - d_min)

    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # d <= d_max (unions dominate) and S >= S_min (documents dominate
        # their intersections) *and* S >= 2 d for the realized pair
        # (Cauchy-Schwarz).  Maximizing f over that region:
        #   if 2 d_max >= S_min the pair could be identical -> bound 1;
        #   else the max is at d = d_max, S = S_min.
        d_max = a.union.dot(b.union)
        if d_max == 0.0:
            return 0.0
        s_min = a.intersection.norm_squared + b.intersection.norm_squared
        if 2.0 * d_max >= s_min:
            return 1.0
        return d_max / (s_min - d_max)


class CosineMeasure(TextMeasure):
    """Cosine similarity ``<u,v> / (|u| |v|)`` (0 when either is empty)."""

    name = "cosine"

    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        d = a.dot(b)
        if d == 0.0:
            return 0.0
        # sqrt(|u|² |v|²), not |u| |v|: sqrt(x * x) == x exactly, so an
        # equal pair scores exactly 1.0 (the bounds cap at 1.0).
        return d / math.sqrt(a.norm_squared * b.norm_squared)

    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # cos = d / (|u| |v|) >= d_min / (|u| |v|) >= d_min / (U_a U_b)
        # where U_* are the union norms (which dominate document norms).
        d_min = a.intersection.dot(b.intersection)
        if d_min == 0.0:
            return 0.0
        denom = math.sqrt(a.union.norm_squared * b.union.norm_squared)
        # d_min > 0 implies both unions are non-empty, so denom > 0.
        return min(1.0, d_min / denom)

    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # cos <= d_max / (I_a I_b) with intersection norms I_* as document
        # norm lower bounds; when either intersection is empty nothing
        # bounds the norms from below and we fall back to the trivial 1.
        d_max = a.union.dot(b.union)
        if d_max == 0.0:
            return 0.0
        denom = math.sqrt(
            a.intersection.norm_squared * b.intersection.norm_squared
        )
        if denom == 0.0:
            return 1.0
        return min(1.0, d_max / denom)


class OverlapMeasure(TextMeasure):
    """Set Jaccard over term sets: ``|T(u) ∩ T(v)| / |T(u) ∪ T(v)|``.

    Weight-free, which models the "keyword overlap" style of relevance.
    """

    name = "overlap"

    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        shared = a.overlap_count(b)
        if shared == 0:
            return 0.0
        union = len(a) + len(b) - shared
        return shared / union

    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # Write sim = s / (L1 + L2 - s) with s the shared-term count and
        # L1, L2 the document sizes; it is increasing in s and decreasing
        # in L1, L2.  Every pair has s >= s_min = |T(int_a) ∩ T(int_b)|
        # (documents carry all their intersection terms) and Li <= |uni|,
        # so the minimum is at (s_min, |uni_a|, |uni_b|).  Exact when both
        # summaries are degenerate single documents.
        s_min = a.intersection.overlap_count(b.intersection)
        if s_min == 0:
            return 0.0
        return s_min / (len(a.union) + len(b.union) - s_min)

    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        # With s <= S = |T(uni_a) ∩ T(uni_b)|, Li >= |int| and Li >= s,
        # sim = s / (L1 + L2 - s) is maximized at s = S,
        # Li = max(|int_i|, S) (it is non-decreasing in s along that
        # frontier).  Exact for degenerate single-document summaries.
        s_max = a.union.overlap_count(b.union)
        if s_max == 0:
            return 0.0
        l1 = max(len(a.intersection), s_max)
        l2 = max(len(b.intersection), s_max)
        return s_max / (l1 + l2 - s_max)


class DiceMeasure(TextMeasure):
    """Dice coefficient on weighted vectors: ``2<u,v> / (|u|² + |v|²)``.

    Writing ``f(d, S) = 2d / S``, increasing in ``d`` and decreasing in
    ``S``; Cauchy–Schwarz gives ``2d <= S`` so the value stays in [0, 1].
    """

    name = "dice"

    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        d = a.dot(b)
        if d == 0.0:
            return 0.0
        return 2.0 * d / (a.norm_squared + b.norm_squared)

    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        d_min = a.intersection.dot(b.intersection)
        if d_min == 0.0:
            return 0.0
        return 2.0 * d_min / (a.union.norm_squared + b.union.norm_squared)

    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        d_max = a.union.dot(b.union)
        if d_max == 0.0:
            return 0.0
        s_min = a.intersection.norm_squared + b.intersection.norm_squared
        if 2.0 * d_max >= s_min:
            return 1.0
        return 2.0 * d_max / s_min


class WeightedJaccard(TextMeasure):
    """Weighted (min/max) Jaccard: ``Σ min(u_t, v_t) / Σ max(u_t, v_t)``.

    The fuzzy-set generalization of Jaccard; equals set Jaccard on
    binary weights.  With ``N = Σ min`` and ``D = Σ max`` (``D >= N``):
    every pair has ``N >= sum_min(int_a, int_b)`` and
    ``D <= sum_max(uni_a, uni_b)`` (documents dominate intersections and
    are dominated by unions term-wise), giving the lower bound; the upper
    bound maximizes ``N / max(C, N)`` with
    ``C = sum_max(int_a, int_b) <= D`` at ``N = sum_min(uni_a, uni_b)``.
    """

    name = "weighted_jaccard"

    def similarity(self, a: SparseVector, b: SparseVector) -> float:
        numerator = a.sum_min(b)
        if numerator == 0.0:
            return 0.0
        return numerator / a.sum_max(b)

    def min_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        n_min = a.intersection.sum_min(b.intersection)
        if n_min == 0.0:
            return 0.0
        return n_min / a.union.sum_max(b.union)

    def max_similarity(self, a: IntervalVector, b: IntervalVector) -> float:
        n_max = a.union.sum_min(b.union)
        if n_max == 0.0:
            return 0.0
        c = a.intersection.sum_max(b.intersection)
        return n_max / max(c, n_max)


def make_measure(name: str) -> TextMeasure:
    """Factory mapping config names to measure instances."""
    if name == "extended_jaccard":
        return ExtendedJaccard()
    if name == "cosine":
        return CosineMeasure()
    if name == "overlap":
        return OverlapMeasure()
    if name == "dice":
        return DiceMeasure()
    if name == "weighted_jaccard":
        return WeightedJaccard()
    raise ConfigError(f"unknown text measure {name!r}")
