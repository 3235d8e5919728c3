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

* the **python** backend stores a ``{term_id: weight}`` dict plus a
  ``frozenset`` of term ids and a 64-bit term *signature* (a Bloom-style
  bitmask of ``1 << (tid % 64)``).  Disjoint pairs — the common case for
  bound computations — are usually rejected by a single integer AND
  before any set work; overlapping (or mask-colliding) pairs fall back
  to one C-level set intersection, so the reduction only ever touches
  shared terms, O(min(|a|, |b|)) with no interpreter-level merge;
* the **numpy** backend stores sorted id/weight arrays and reduces with
  a ``searchsorted``-based sparse intersection (no per-call concatenate
  and re-sort, unlike ``np.intersect1d``) — worthwhile for long
  documents, opt-in because array dispatch overhead dominates on the
  short vectors typical of POI corpora.

Both backends sum with ``math.fsum``, as do the squared norms of
:class:`~repro.text.vector.SparseVector` and the frozen weight sums.
It is correctly rounded, so a reduction does not depend on the order
its terms arrive in: ``a.dot(b) == b.dot(a)`` bit for bit, the two
backends agree bit for bit, and an equal pair's dot is exactly its
squared norm, so self-similarity is exactly 1.0 (the bounds that cap a
similarity at 1.0 rely on it).

``sum_max`` never walks the union: with per-vector weight sums ``W``
precomputed at freeze time, ``Σ max = W_a + W_b - Σ_shared min``.

Backend selection: the ``REPRO_KERNEL`` environment variable
(``python`` | ``numpy`` | ``auto``), overridable at runtime with
:func:`set_backend` / :func:`use_backend`.  Requesting ``numpy`` when
numpy is not importable degrades gracefully to ``python``.  ``auto`` is
*per-vector*: vectors shorter than the measured crossover
(:data:`AUTO_NUMPY_MIN_TERMS`) freeze into the python form, long ones
into the numpy form, and mixed pairs reduce through the python path —
so a POI-style corpus never pays numpy dispatch overhead just because
numpy happens to be importable.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import ConfigError

#: Backends a caller may request (``auto`` resolves to one of the others).
KERNEL_BACKENDS = ("python", "numpy", "auto")

#: Environment variable consulted for the default backend.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Vector length at which the numpy reduction starts beating the
#: pure-python one (measured on this container: python wins up to ~128
#: terms, parity near 256, numpy ~2x faster at 1024).  ``auto`` freezes
#: vectors below this length into the python form.  Overridable via
#: ``REPRO_KERNEL_CROSSOVER`` for different hardware.
AUTO_NUMPY_MIN_TERMS = 256

#: Environment variable overriding :data:`AUTO_NUMPY_MIN_TERMS`.
CROSSOVER_ENV_VAR = "REPRO_KERNEL_CROSSOVER"

_np = None
_np_checked = False
_backend: Optional[str] = None  # resolved lazily; None = not yet resolved
_crossover: Optional[int] = None  # resolved lazily from the environment


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
    """True when the numpy backend can actually run."""
    return _numpy() is not None


def _resolve(name: str) -> str:
    """Map a requested backend name to a runnable backend."""
    if name not in KERNEL_BACKENDS:
        raise ConfigError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
    if name == "auto":
        # Per-vector choice (see freeze()); without numpy there is no
        # choice to make and auto degenerates to the python backend.
        return "auto" if numpy_available() else "python"
    if name == "numpy" and not numpy_available():
        warnings.warn(
            "REPRO_KERNEL=numpy requested but numpy is not importable; "
            "falling back to the pure-python kernel backend",
            RuntimeWarning,
            stacklevel=3,
        )
        return "python"
    return name


def auto_crossover() -> int:
    """Vector length above which ``auto`` freezes into the numpy form."""
    global _crossover
    if _crossover is None:
        raw = os.environ.get(CROSSOVER_ENV_VAR)
        if raw is None:
            _crossover = AUTO_NUMPY_MIN_TERMS
        else:
            try:
                _crossover = max(0, int(raw))
            except ValueError:
                warnings.warn(
                    f"{CROSSOVER_ENV_VAR}={raw!r} is not an integer; using "
                    f"the measured default {AUTO_NUMPY_MIN_TERMS}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                _crossover = AUTO_NUMPY_MIN_TERMS
    return _crossover


def is_current(form) -> bool:
    """Whether a frozen form is usable under the active backend.

    Under ``auto`` both concrete forms interoperate (mixed pairs reduce
    through the python path), so nothing ever needs re-freezing; under an
    explicit backend the form must match it exactly.
    """
    name = backend_name()
    if name == "auto":
        return True
    return form.backend == name


def backend_name() -> str:
    """The active kernel backend (``python``, ``numpy``, or ``auto``).

    A typo in the environment variable warns and falls back to the
    ``python`` backend rather than failing the first query that touches
    a vector; :func:`set_backend` stays strict for explicit requests.
    """
    global _backend
    if _backend is None:
        requested = os.environ.get(KERNEL_ENV_VAR, "python")
        try:
            _backend = _resolve(requested)
        except ConfigError:
            warnings.warn(
                f"{KERNEL_ENV_VAR}={requested!r} is not one of "
                f"{KERNEL_BACKENDS}; using the python backend",
                RuntimeWarning,
                stacklevel=2,
            )
            _backend = "python"
    return _backend


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the previously active one.

    Frozen forms are tagged with the backend that built them, so vectors
    frozen under the old backend re-freeze lazily on next use.
    """
    global _backend
    previous = backend_name()
    _backend = _resolve(name)
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Context manager running a block under a specific backend."""
    previous = set_backend(name)
    try:
        yield backend_name()
    finally:
        set_backend(previous)


class PyFrozenVector:
    """Python-backend frozen form: dict + frozenset + 64-bit signature."""

    __slots__ = ("weights", "keys", "mask", "norm_sq", "wsum")

    backend = "python"

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
        # Σ max = Σa + Σb − Σ_shared min; never walks the union.
        return self.wsum + other.wsum - self.sum_min(other)

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
        return d / (self.norm_sq + other.norm_sq - d)


class NumpyFrozenVector:
    """Numpy-backend frozen form: sorted id/weight arrays.

    Mixed pairs (the other operand frozen into the python form, which
    ``auto`` produces for short vectors) delegate to the python
    reduction over a lazily built and cached python form of *this*
    vector — long vectors pay the dict build once, not per call.
    """

    __slots__ = ("ids", "weights", "mask", "norm_sq", "wsum", "_pyform")

    backend = "numpy"

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
        """``Σ_t max(a[t], b[t])`` over the union of terms."""
        return self.wsum + other.wsum - self.sum_min(other)

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
        return d / (self.norm_sq + other.norm_sq - d)


def freeze(
    ids: Tuple[int, ...], weights: Tuple[float, ...], norm_sq: float
):
    """Build the active backend's frozen form of one sparse vector.

    Under ``auto``, short vectors (below :func:`auto_crossover` terms)
    freeze into the python form and long ones into the numpy form; the
    two interoperate, mixed pairs reducing through the python path.
    """
    name = backend_name()
    if name == "numpy" or (name == "auto" and len(ids) >= auto_crossover()):
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


def group_spatial_components(
    qxlo, qylo, qxhi, qyhi, bxlo, bylo, bxhi, byhi, np=None
):
    """Spatial bound components of G query rects vs C block rects.

    Returns six ``(G, C)`` tables ``(dx_min, dy_min, dx_max, dy_max,
    pdx, pdy)`` — the per-axis separations feeding the min/max distance
    ``hypot`` finishes plus the point deltas for exact object scores —
    as numpy arrays when ``np`` is passed, nested lists otherwise.  The
    expressions mirror the scalar ``q_st``/``q_exact`` call sites of
    :class:`repro.core.traversal.SnapshotEngine` term for term
    (subtraction, ``abs`` and ``max`` are exactly rounded, so each
    component is bit-identical to its scalar counterpart); callers
    finish with scalar ``math.hypot`` and clamps for full bit parity.
    """
    if np is not None:
        qxlo = np.asarray(qxlo)[:, None]
        qylo = np.asarray(qylo)[:, None]
        qxhi = np.asarray(qxhi)[:, None]
        qyhi = np.asarray(qyhi)[:, None]
        bxlo = np.asarray(bxlo)[None, :]
        bylo = np.asarray(bylo)[None, :]
        bxhi = np.asarray(bxhi)[None, :]
        byhi = np.asarray(byhi)[None, :]
        return (
            np.maximum(np.maximum(qxlo - bxhi, 0.0), bxlo - qxhi),
            np.maximum(np.maximum(qylo - byhi, 0.0), bylo - qyhi),
            np.maximum(np.abs(qxhi - bxlo), np.abs(bxhi - qxlo)),
            np.maximum(np.abs(qyhi - bylo), np.abs(byhi - qylo)),
            qxlo - bxlo,
            qylo - bylo,
        )
    dxm_t, dym_t, dxM_t, dyM_t, pdx_t, pdy_t = [], [], [], [], [], []
    for g in range(len(qxlo)):
        gx0, gy0, gx1, gy1 = qxlo[g], qylo[g], qxhi[g], qyhi[g]
        dxm_t.append([max(gx0 - bxhi[c], 0.0, bxlo[c] - gx1) for c in range(len(bxlo))])
        dym_t.append([max(gy0 - byhi[c], 0.0, bylo[c] - gy1) for c in range(len(bxlo))])
        dxM_t.append([max(abs(gx1 - bxlo[c]), abs(bxhi[c] - gx0)) for c in range(len(bxlo))])
        dyM_t.append([max(abs(gy1 - bylo[c]), abs(byhi[c] - gy0)) for c in range(len(bxlo))])
        pdx_t.append([gx0 - bxlo[c] for c in range(len(bxlo))])
        pdy_t.append([gy0 - bylo[c] for c in range(len(bxlo))])
    return dxm_t, dym_t, dxM_t, dyM_t, pdx_t, pdy_t


def frontier_spatial_components(
    qxlo, qylo, qxhi, qyhi, bxlo, bylo, bxhi, byhi, np
):
    """Spatial bound components of ONE query rect vs a batch of rects.

    The single-query row of :func:`group_spatial_components`: ``qxlo``…
    are scalars, ``bxlo``… are aligned arrays gathered from any set of
    snapshot slots (one node's children, or the concatenated children of
    several frontier nodes — the batched-expansion path of
    :class:`repro.core.traversal.SnapshotEngine`).  Returns six 1-D
    arrays ``(dx_min, dy_min, dx_max, dy_max, pdx, pdy)``.  Every
    expression mirrors the scalar ``q_st``/``q_exact`` call sites term
    for term (subtraction, ``abs`` and ``max`` are exactly rounded, so
    each element is bit-identical to its scalar counterpart); callers
    finish with scalar ``math.hypot`` and clamps for full bit parity.
    """
    return (
        np.maximum(np.maximum(qxlo - bxhi, 0.0), bxlo - qxhi),
        np.maximum(np.maximum(qylo - byhi, 0.0), bylo - qyhi),
        np.maximum(np.abs(qxhi - bxlo), np.abs(bxhi - qxlo)),
        np.maximum(np.abs(qyhi - bylo), np.abs(byhi - qylo)),
        qxlo - bxlo,
        qylo - bylo,
    )


def dot(a, b) -> float:
    """``Σ_t a[t] * b[t]`` over two same-backend frozen vectors."""
    return a.dot(b)


def sum_min(a, b) -> float:
    """``Σ_t min(a[t], b[t])`` over two same-backend frozen vectors."""
    return a.sum_min(b)


def sum_max(a, b) -> float:
    """``Σ_t max(a[t], b[t])`` over two same-backend frozen vectors."""
    return a.sum_max(b)


def overlap_count(a, b) -> int:
    """Number of shared terms of two same-backend frozen vectors."""
    return a.overlap_count(b)
