"""Hot-path similarity kernels over frozen sparse-vector forms.

Every similarity the branch-and-bound searcher evaluates reduces to four
sparse reductions over a pair of term-weight vectors:

* ``dot``           — ``Σ_t a[t] * b[t]``        (shared terms only)
* ``sum_min``       — ``Σ_t min(a[t], b[t])``    (shared terms only)
* ``sum_max``       — ``Σ_t max(a[t], b[t])``    (union of terms)
* ``overlap_count`` — ``|T(a) ∩ T(b)|``

The seed implementation walked both sorted id tuples with a Python-level
merge loop — O(|a| + |b|) interpreter iterations per call.  This module
replaces that with *frozen* vector forms built once per vector (at index
time for tree summaries) and reused by every subsequent kernel call:

* the **python** form stores a ``{term_id: weight}`` dict plus a
  ``frozenset`` of term ids and a 64-bit term *signature* (a Bloom-style
  bitmask of ``1 << (tid % 64)``).  Disjoint pairs — the common case for
  bound computations — are usually rejected by a single integer AND
  before any set work; overlapping (or mask-colliding) pairs fall back
  to one C-level set intersection, so the reduction only ever touches
  shared terms, O(min(|a|, |b|)) with no interpreter-level merge;
* the **numpy** form stores sorted id/weight arrays and reduces with
  a ``searchsorted``-based sparse intersection (no per-call concatenate
  and re-sort, unlike ``np.intersect1d``) — worthwhile for long
  documents only, because array dispatch overhead dominates on the
  short vectors typical of POI corpora.

Both forms sum with ``math.fsum``, as do the squared norms of
:class:`~repro.text.vector.SparseVector` and the frozen weight sums.
It is correctly rounded, so a reduction does not depend on the order
its terms arrive in: ``a.dot(b) == b.dot(a)`` bit for bit, the two
forms agree bit for bit, and an equal pair's dot is exactly its
squared norm, so self-similarity is exactly 1.0 (the bounds that cap a
similarity at 1.0 rely on it).

``sum_max`` walks the union and sums ``max(a[t], b[t])`` in one
``math.fsum``.  The shortcut ``W_a + W_b - Σ_shared min`` rounds three
times, so a document pair's ``Σ max`` could round past the ``Σ max`` of
its summaries and break the weighted-Jaccard bounds; one correctly
rounded sum is monotone in the exact value, so it cannot.

Form selection is per vector, by length: a vector of at least
:data:`AUTO_NUMPY_MIN_TERMS` terms freezes into the numpy form when
numpy imports, every other vector into the python form, and mixed pairs
reduce through the python path — so a POI-style corpus never pays numpy
dispatch overhead just because numpy happens to be importable.  A
frozen form is a per-process cache on its vector and is never rebuilt.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..errors import ConfigError

#: Vector length from which a vector freezes into the numpy form (when
#: numpy imports); shorter vectors freeze into the python form.  The
#: crossover of the two forms' Extended Jaccard speed, re-measured by
#: ``benchmarks/bench_perf_kernels.py`` (its ``crossover`` section).
AUTO_NUMPY_MIN_TERMS = 256

_np = None
_np_checked = False


def _numpy():
    """The numpy module, or None when it cannot be imported."""
    global _np, _np_checked
    if not _np_checked:
        _np_checked = True
        try:
            import numpy  # noqa: PLC0415 — optional dependency probe

            _np = numpy
        except ImportError:  # pragma: no cover - depends on environment
            _np = None
    return _np


def numpy_available() -> bool:
    """True when the numpy form can actually be built."""
    return _numpy() is not None


def backend_name() -> str:
    """Always ``"auto"``, the name of the length rule.

    Compatibility shim, paired with :func:`set_backend`, for callers
    that still record or request the rule by name (marked for
    deletion).
    """
    return "auto"


def set_backend(name: str) -> str:
    """Accept ``"auto"`` (the only rule) and return it.

    Compatibility shim, see :func:`backend_name`; any other name raises
    :class:`~repro.errors.ConfigError`.
    """
    if name != "auto":
        raise ConfigError(
            f"unknown kernel backend {name!r}; only 'auto' (the length "
            "rule) remains"
        )
    return "auto"


class PyFrozenVector:
    """Python frozen form: dict + frozenset + 64-bit signature."""

    __slots__ = ("weights", "keys", "mask", "norm_sq", "wsum")

    def __init__(
        self, ids: Sequence[int], weights: Sequence[float], norm_sq: float
    ) -> None:
        self.weights = dict(zip(ids, weights))
        self.keys = frozenset(ids)
        mask = 0
        for tid in ids:
            mask |= 1 << (tid & 63)
        self.mask = mask
        self.norm_sq = norm_sq
        self.wsum = math.fsum(weights)

    def _py(self) -> "PyFrozenVector":
        """Self — already the python form (mixed-pair interop hook)."""
        return self

    def dot(self, other) -> float:
        """``Σ_t a[t] * b[t]`` over shared terms (0.0 when disjoint)."""
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not PyFrozenVector:
            other = other._py()
        common = self.keys & other.keys
        if not common:
            return 0.0
        a, b = self.weights, other.weights
        return math.fsum([a[t] * b[t] for t in common])

    def sum_min(self, other) -> float:
        """``Σ_t min(a[t], b[t])`` — only shared terms contribute."""
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not PyFrozenVector:
            other = other._py()
        common = self.keys & other.keys
        if not common:
            return 0.0
        a, b = self.weights, other.weights
        return math.fsum([a[t] if a[t] < b[t] else b[t] for t in common])

    def sum_max(self, other) -> float:
        """``Σ_t max(a[t], b[t])`` over the union of terms."""
        if type(other) is not PyFrozenVector:
            other = other._py()
        a, b = self.weights, other.weights
        top = [w if t not in b or b[t] < w else b[t] for t, w in a.items()]
        top.extend([w for t, w in b.items() if t not in a])
        return math.fsum(top)

    def overlap_count(self, other) -> int:
        """Number of shared terms."""
        if not (self.mask & other.mask):
            return 0
        if type(other) is not PyFrozenVector:
            other = other._py()
        return len(self.keys & other.keys)

    def ext_jaccard(self, other) -> float:
        """Fused Extended Jaccard ``<a,b> / (|a|² + |b|² − <a,b>)``.

        The paper's default measure, fused into one kernel call so the
        disjoint fast path (the bulk of exact-score evaluations) is a
        single integer AND away from its answer of 0.
        """
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not PyFrozenVector:
            other = other._py()
        common = self.keys & other.keys
        if not common:
            return 0.0
        a, b = self.weights, other.weights
        d = math.fsum([a[t] * b[t] for t in common])
        # denom >= d > 0 by Cauchy-Schwarz when the vectors share terms.
        # Near-equal but unequal vectors can round above 1.0, past upper
        # bounds that cap at 1.0, so the score is capped too (a
        # conditional: ``min()`` costs a call on this hot path).
        sim = d / (self.norm_sq + other.norm_sq - d)
        return sim if sim < 1.0 else 1.0


class NumpyFrozenVector:
    """Numpy frozen form: sorted id/weight arrays.

    Mixed pairs (the other operand frozen into the python form, which
    the length rule produces for short vectors) delegate to the python
    reduction over a lazily built and cached python form of *this*
    vector — long vectors pay the dict build once, not per call.
    """

    __slots__ = ("ids", "weights", "mask", "norm_sq", "wsum", "_pyform")

    def __init__(
        self, ids: Sequence[int], weights: Sequence[float], norm_sq: float
    ) -> None:
        np = _numpy()
        self.ids = np.asarray(ids, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        mask = 0
        for tid in ids:
            mask |= 1 << (tid & 63)
        self.mask = mask
        self.norm_sq = norm_sq
        self.wsum = math.fsum(weights)
        self._pyform: Optional[PyFrozenVector] = None

    def _py(self) -> PyFrozenVector:
        """A python-form view of this vector (built once, cached)."""
        form = self._pyform
        if form is None:
            form = PyFrozenVector(
                [int(t) for t in self.ids],
                [float(w) for w in self.weights],
                self.norm_sq,
            )
            self._pyform = form
        return form

    def _common(self, other: "NumpyFrozenVector"):
        """Index pairs of shared terms via binary search.

        ``searchsorted`` over the longer operand costs O(min log max)
        with no per-call concatenate-and-argsort (``np.intersect1d``
        re-sorts both operands every call — the regression
        BENCH_kernels.json surfaced).  Both operands are non-empty here:
        empty vectors carry a zero signature and are rejected by the
        mask AND before any array work.
        """
        np = _numpy()
        a_ids, a_w, b_ids, b_w = self.ids, self.weights, other.ids, other.weights
        if a_ids.size > b_ids.size:
            a_ids, a_w, b_ids, b_w = b_ids, b_w, a_ids, a_w
        pos = np.searchsorted(b_ids, a_ids)
        np.minimum(pos, b_ids.size - 1, out=pos)
        match = b_ids[pos] == a_ids
        return a_w[match], b_w[pos[match]]

    def dot(self, other) -> float:
        """``Σ_t a[t] * b[t]`` over shared terms (0.0 when disjoint)."""
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not NumpyFrozenVector:
            return self._py().dot(other)
        wa, wb = self._common(other)
        if wa.size == 0:
            return 0.0
        return math.fsum((wa * wb).tolist())

    def sum_min(self, other) -> float:
        """``Σ_t min(a[t], b[t])`` — only shared terms contribute."""
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not NumpyFrozenVector:
            return self._py().sum_min(other)
        wa, wb = self._common(other)
        if wa.size == 0:
            return 0.0
        return math.fsum(_numpy().minimum(wa, wb).tolist())

    def sum_max(self, other) -> float:
        """``Σ_t max(a[t], b[t])`` over the union of terms.

        Reduced through the python form: the union walk has no array
        shortcut, and one ``fsum`` over the same values keeps the two
        forms bit for bit equal.
        """
        return self._py().sum_max(other)

    def overlap_count(self, other) -> int:
        """Number of shared terms."""
        if not (self.mask & other.mask):
            return 0
        if type(other) is not NumpyFrozenVector:
            return self._py().overlap_count(other)
        wa, _ = self._common(other)
        return int(wa.size)

    def ext_jaccard(self, other) -> float:
        """Fused Extended Jaccard ``<a,b> / (|a|² + |b|² − <a,b>)``."""
        if not (self.mask & other.mask):
            return 0.0
        if type(other) is not NumpyFrozenVector:
            return self._py().ext_jaccard(other)
        wa, wb = self._common(other)
        if wa.size == 0:
            return 0.0
        d = math.fsum((wa * wb).tolist())
        sim = d / (self.norm_sq + other.norm_sq - d)
        return sim if sim < 1.0 else 1.0


def freeze(
    ids: Tuple[int, ...], weights: Tuple[float, ...], norm_sq: float
):
    """Build the frozen form of one sparse vector.

    Vectors of at least :data:`AUTO_NUMPY_MIN_TERMS` terms freeze into
    the numpy form when numpy imports, all others into the python form;
    the two interoperate, mixed pairs reducing through the python path.
    """
    if len(ids) >= AUTO_NUMPY_MIN_TERMS and _numpy() is not None:
        return NumpyFrozenVector(ids, weights, norm_sq)
    return PyFrozenVector(ids, weights, norm_sq)


def group_text_dots(postings, ids, weights, n_rows, np=None):
    """Dot products of one query against every row of a postings map.

    ``postings`` maps ``term_id -> (row_indices, row_weights)`` (the
    columnar layout of :class:`repro.perf.snapshot.SnapshotTextMatrix`);
    ``ids``/``weights`` are the query's sparse terms.  Returns
    ``(dots, overlaps)`` of length ``n_rows`` — numpy arrays when ``np``
    is passed, plain lists otherwise — or ``None`` when no query term
    appears in any row (every dot is exactly 0.0).

    Float-parity contract: a row touched by at most **two** query terms
    accumulates its dot in term order with exactly one addition, which
    IEEE-754 guarantees bit-identical to the per-pair frozen-kernel
    reduction regardless of its iteration order (addition and
    multiplication are commutative, exactly rounded ops).  Rows with
    three or more shared terms are *not* guaranteed bit-identical —
    callers must recompute those few rows through the scalar kernel
    (``overlaps`` exists precisely to find them).
    """
    if np is not None:
        rows_parts = []
        val_parts = []
        for tid, w in zip(ids, weights):
            p = postings.get(tid)
            if p is not None:
                rows_parts.append(p[0])
                val_parts.append(p[1] * w)
        if not rows_parts:
            return None
        rows = np.concatenate(rows_parts)
        dots = np.bincount(
            rows, weights=np.concatenate(val_parts), minlength=n_rows
        )
        overlaps = np.bincount(rows, minlength=n_rows)
        return dots, overlaps
    dots = [0.0] * n_rows
    overlaps = [0] * n_rows
    touched = False
    for tid, w in zip(ids, weights):
        p = postings.get(tid)
        if p is None:
            continue
        touched = True
        for r, pw in zip(p[0], p[1]):
            dots[r] += pw * w
            overlaps[r] += 1
    return (dots, overlaps) if touched else None


def frontier_spatial_components(
    qxlo, qylo, qxhi, qyhi, bxlo, bylo, bxhi, byhi, np
):
    """Spatial bound components of ONE query rect vs a batch of rects.

    ``qxlo``… are the query rect's scalar edges, ``bxlo``… are aligned
    numpy arrays of rect edges: the children of one directory node
    :class:`repro.core.traversal.SnapshotEngine` expands (one call per
    non-leaf expansion with enough children).  Returns four 1-D arrays
    ``(dx_min, dy_min, dx_max, dy_max)``.  With the query point passed
    as both corners, every expression mirrors :meth:`QueryProbe.bounds
    <repro.core.traversal.QueryProbe.bounds>` term for term
    (subtraction, ``abs`` and ``max`` are exactly rounded, so each
    element is bit-identical to its scalar counterpart); callers finish
    with scalar ``math.hypot`` and clamps for full bit parity.
    """
    return (
        np.maximum(np.maximum(qxlo - bxhi, 0.0), bxlo - qxhi),
        np.maximum(np.maximum(qylo - byhi, 0.0), bylo - qyhi),
        np.maximum(np.abs(qxhi - bxlo), np.abs(bxhi - qxlo)),
        np.maximum(np.abs(qyhi - bylo), np.abs(byhi - qylo)),
    )


def dot(a, b) -> float:
    """``Σ_t a[t] * b[t]`` over two frozen vectors."""
    return a.dot(b)


def sum_min(a, b) -> float:
    """``Σ_t min(a[t], b[t])`` over two frozen vectors."""
    return a.sum_min(b)


def sum_max(a, b) -> float:
    """``Σ_t max(a[t], b[t])`` over two frozen vectors."""
    return a.sum_max(b)


def overlap_count(a, b) -> int:
    """Number of shared terms of two frozen vectors."""
    return a.overlap_count(b)
