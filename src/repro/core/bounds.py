"""Spatial-textual similarity bounds between tree entries.

Everything the branch-and-bound searcher knows about similarity flows
through :class:`BoundComputer`, which blends the spatial MBR-distance
bounds with the textual interval-vector bounds:

    MinST(E, F) = alpha * (1 - MaxDist(E, F)/maxD) + (1-alpha) * MinSimT(E, F)
    MaxST(E, F) = alpha * (1 - MinDist(E, F)/maxD) + (1-alpha) * MaxSimT(E, F)

so for every object pair ``o in E, o' in F``:
``MinST(E, F) <= SimST(o, o') <= MaxST(E, F)``.

For clustered (CIUR) entries, the textual bounds are taken over all
cluster pairs: a document of ``E`` lives in exactly one of its clusters,
so ``min`` / ``max`` over pairs of per-cluster bounds is valid and tighter
than the merged single-cluster bound whenever clusters separate the text.

Because an object entry's interval vector is degenerate (int == uni ==
its document), the same formulas yield *exact* similarities for
object-object pairs — no special cases in the searcher.

Each computer memoizes text bounds and exact scores for one query:
query entries use negative refs that collide between queries, so the
memo never outlives a search.  (The cross-query memo of tree-pair
bounds lives in the snapshot engine, :mod:`repro.core.traversal`.)  Both
bounds and exact scores are symmetric, so pairs are keyed canonically
(smaller ``(ref, is_object)`` first).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..index.entry import Entry
from ..spatial import SpatialProximity
from ..text import TextMeasure

#: Canonical symmetric pair key: two ``(ref << 1) | is_object`` codes
#: packed into one integer.  Integers hash to themselves, so memo
#: probes skip the tuple allocation and tuple hashing a 4-tuple key
#: would pay on every lookup of the hot path.
PairKey = int

#: Radix separating the two packed entry codes; node refs and object
#: ids stay far below 2**40 for any dataset this library can hold.
_KEY_RADIX = 1 << 40


class BoundComputer:
    """Computes and memoizes entry-pair SimST bounds."""

    def __init__(
        self,
        proximity: SpatialProximity,
        measure: TextMeasure,
        alpha: float,
        enable_cache: bool = True,
    ) -> None:
        """``enable_cache=False`` disables memoization entirely.

        The memos key on ``(entry.ref, entry.is_object)`` pairs, which is
        sound only while every entry comes from a single id namespace
        (one tree plus one query).  Bichromatic search mixes two trees
        whose node/object ids collide, so it must switch the memos off.
        """
        self.proximity = proximity
        self.measure = measure
        self.alpha = alpha
        self.enable_cache = enable_cache
        self._text_cache: Dict[PairKey, Tuple[float, float]] = {}
        self._exact_cache: Dict[PairKey, float] = {}
        #: Lifetime lookup counters across both memos.
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _pair_key(a: Entry, b: Entry) -> PairKey:
        """Canonical symmetric key (smaller entry code first)."""
        ka = (a.ref << 1) | a.is_object
        kb = (b.ref << 1) | b.is_object
        if kb < ka:
            ka, kb = kb, ka
        return ka * _KEY_RADIX + kb

    # ------------------------------------------------------------------
    # Textual bounds
    # ------------------------------------------------------------------

    def text_bounds(self, a: Entry, b: Entry) -> Tuple[float, float]:
        """``(MinSimT, MaxSimT)`` over every document pair of ``a × b``."""
        key: Optional[PairKey] = None
        if self.enable_cache:
            key = self._pair_key(a, b)
            cached = self._text_cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        lo = None
        hi = 0.0
        for iv_a in a.clusters.values():
            for iv_b in b.clusters.values():
                pair_lo = self.measure.min_similarity(iv_a, iv_b)
                pair_hi = self.measure.max_similarity(iv_a, iv_b)
                lo = pair_lo if lo is None else min(lo, pair_lo)
                hi = max(hi, pair_hi)
        result = (lo if lo is not None else 0.0, hi)
        if key is not None:
            self._text_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Blended bounds
    # ------------------------------------------------------------------

    def exact_score(self, a: Entry, b: Entry) -> float:
        """Exact SimST between two object entries (memoized)."""
        key: Optional[PairKey] = None
        if self.enable_cache:
            key = self._pair_key(a, b)
            cached = self._exact_cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            self.misses += 1
        alpha = self.alpha
        score = 0.0
        if alpha > 0.0:
            am, bm = a.mbr, b.mbr
            dist = math.hypot(am.xlo - bm.xlo, am.ylo - bm.ylo)
            score += alpha * self.proximity.from_distance(dist)
        if alpha < 1.0:
            score += (1.0 - alpha) * self.measure.similarity(
                a.exact_vector(), b.exact_vector()
            )
        if key is not None:
            self._exact_cache[key] = score
        return score

    def st_bounds(self, a: Entry, b: Entry) -> Tuple[float, float]:
        """``(MinST, MaxST)`` over every object pair of ``a × b``.

        Exact (``MinST == MaxST``) when both entries are objects.
        """
        if a.is_object and b.is_object:
            score = self.exact_score(a, b)
            return score, score
        alpha = self.alpha
        if alpha == 0.0:
            t_lo, t_hi = self.text_bounds(a, b)
            return t_lo, t_hi
        s_lo = self.proximity.lower_bound(a.mbr, b.mbr)
        s_hi = self.proximity.upper_bound(a.mbr, b.mbr)
        if alpha == 1.0:
            return alpha * s_lo, alpha * s_hi
        t_lo, t_hi = self.text_bounds(a, b)
        return (
            alpha * s_lo + (1.0 - alpha) * t_lo,
            alpha * s_hi + (1.0 - alpha) * t_hi,
        )

    def self_bounds(self, entry: Entry) -> Tuple[float, float]:
        """``(MinST, MaxST)`` between two *distinct* objects inside ``entry``.

        The spatial extremes within one MBR are 0 (co-located) and the
        diagonal; the textual bounds are the entry-vs-itself cluster-pair
        bounds.  Only meaningful when ``entry.count >= 2``.
        """
        return self.st_bounds(entry, entry)

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------

    def cache_stats(self) -> Dict[str, float]:
        """Lookup counters plus the current size of each memo.

        ``hits`` / ``misses`` count this computer's lookups over its
        lifetime; the ``*_entries`` keys are the current memo sizes.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "text_entries": len(self._text_cache),
            "exact_entries": len(self._exact_cache),
        }

    def clear(self) -> None:
        """Drop the private per-query memos.

        Long-lived computers (analysis loops, services) call this between
        queries so the unbounded private dicts cannot grow without limit.
        """
        self._text_cache.clear()
        self._exact_cache.clear()

    def clear_cache(self) -> None:
        """Alias of :meth:`clear` (the seed API's name)."""
        self.clear()
