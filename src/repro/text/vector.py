"""Sparse weighted term vectors.

A :class:`SparseVector` is an immutable mapping ``term_id -> weight > 0``
stored as parallel sorted tuples, which keeps hashing/equality cheap for
tests.  The pairwise reductions (``dot``, ``sum_min``, ``sum_max``,
``overlap_count``) delegate to :mod:`repro.perf.kernels` over a lazily
built *frozen* form cached on the vector, so repeated similarity
evaluations — the branch-and-bound hot path — avoid per-call Python
merge loops.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from ..errors import DatasetError
from ..perf import kernels


class SparseVector:
    """Immutable sparse vector over integer term ids.

    Weights must be strictly positive — a zero weight is represented by
    absence, which every bound derivation in :mod:`repro.text.similarity`
    relies on.
    """

    __slots__ = ("_ids", "_weights", "_norm_sq", "_frozen")

    def __init__(self, weights: Mapping[int, float]) -> None:
        items = sorted(weights.items())
        for tid, w in items:
            if w <= 0.0:
                raise DatasetError(
                    f"SparseVector weights must be > 0; term {tid} has {w}"
                )
            if tid < 0:
                raise DatasetError(f"term ids must be >= 0; got {tid}")
        self._ids: Tuple[int, ...] = tuple(tid for tid, _ in items)
        self._weights: Tuple[float, ...] = tuple(w for _, w in items)
        # Correctly rounded like the kernels' dot, so a vector's dot with
        # an equal vector is exactly its norm and self-similarity is
        # exactly 1.0, never a rounding step above it: every bound that
        # caps a similarity at 1.0 relies on that.
        self._norm_sq: float = math.fsum([w * w for w in self._weights])
        self._frozen = None

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------

    @staticmethod
    def empty() -> "SparseVector":
        """The zero vector."""
        return SparseVector({})

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __contains__(self, tid: int) -> bool:
        return self.get(tid) > 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._ids == other._ids and self._weights == other._weights

    def __hash__(self) -> int:
        return hash((self._ids, self._weights))

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{w:.3g}" for t, w in self.items())
        return f"SparseVector({{{inner}}})"

    def __getstate__(self) -> Tuple[Tuple[int, ...], Tuple[float, ...], float]:
        # The frozen form is a per-process cache; rebuild after unpickling
        # (it may hold numpy arrays, and the receiving process may lack
        # numpy).
        return (self._ids, self._weights, self._norm_sq)

    def __setstate__(
        self, state: Tuple[Tuple[int, ...], Tuple[float, ...], float]
    ) -> None:
        self._ids, self._weights, self._norm_sq = state
        self._frozen = None

    def frozen(self):
        """The kernel frozen form (built once, cached; see
        :func:`repro.perf.kernels.freeze`)."""
        fz = self._frozen
        if fz is None:
            fz = kernels.freeze(self._ids, self._weights, self._norm_sq)
            self._frozen = fz
        return fz

    def get(self, tid: int) -> float:
        """Weight of ``tid`` (0 when absent); binary search."""
        ids = self._ids
        lo, hi = 0, len(ids)
        while lo < hi:
            mid = (lo + hi) // 2
            if ids[mid] < tid:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(ids) and ids[lo] == tid:
            return self._weights[lo]
        return 0.0

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate (term_id, weight) pairs in term order."""
        return zip(self._ids, self._weights)

    def term_ids(self) -> Tuple[int, ...]:
        """The sorted term ids."""
        return self._ids

    def to_dict(self) -> Dict[int, float]:
        """A plain {term_id: weight} copy."""
        return dict(self.items())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    @property
    def norm_squared(self) -> float:
        """``|v|^2`` (precomputed)."""
        return self._norm_sq

    @property
    def norm(self) -> float:
        """``|v|`` (from the precomputed squared norm)."""
        return math.sqrt(self._norm_sq)

    def dot(self, other: "SparseVector") -> float:
        """Sparse dot product (kernel over frozen forms)."""
        return self.frozen().dot(other.frozen())

    def ext_jaccard(self, other: "SparseVector") -> float:
        """Extended Jaccard ``<a,b> / (|a|² + |b|² − <a,b>)``, fused.

        One kernel call instead of a dot product plus norm arithmetic —
        the exact-score hot path of the paper's default measure.
        """
        return self.frozen().ext_jaccard(other.frozen())

    def sum_min(self, other: "SparseVector") -> float:
        """``Σ_t min(self[t], other[t])`` — only shared terms contribute."""
        return self.frozen().sum_min(other.frozen())

    def sum_max(self, other: "SparseVector") -> float:
        """``Σ_t max(self[t], other[t])`` over the union of terms."""
        return self.frozen().sum_max(other.frozen())

    def weight_sum(self) -> float:
        """``Σ_t self[t]`` (precomputed at freeze time)."""
        return self.frozen().wsum

    def overlap_count(self, other: "SparseVector") -> int:
        """Number of shared terms."""
        return self.frozen().overlap_count(other.frozen())

    def normalized(self) -> "SparseVector":
        """Unit-length copy (clustering uses cosine geometry)."""
        n = self.norm
        if n == 0.0:
            return self
        return SparseVector({t: w / n for t, w in self.items()})

    def scaled(self, factor: float) -> "SparseVector":
        """A copy with every weight multiplied by ``factor > 0``."""
        if factor <= 0.0:
            raise DatasetError(f"scale factor must be > 0, got {factor}")
        return SparseVector({t: w * factor for t, w in self.items()})

    @staticmethod
    def mean(vectors: Iterable["SparseVector"]) -> "SparseVector":
        """Arithmetic mean (used for k-means centroids)."""
        acc: Dict[int, float] = {}
        n = 0
        for v in vectors:
            n += 1
            for t, w in v.items():
                acc[t] = acc.get(t, 0.0) + w
        if n == 0:
            return SparseVector.empty()
        return SparseVector({t: w / n for t, w in acc.items() if w > 0.0})
